"""Batch front end: flat key=value configs in, deterministic reports out.

Every experiment is described by a small config file; the CLI validates
it against the target command's preconditions, dispatches to the library,
and writes a report atomically.  This module owns the report format: each
command handler builds its payload here from the library's result
objects.  Reports split into "config" (echo), "results" (the numerical
payload — byte-identical from run to run), "fixtures" (hashes of
fixture files consulted: always empty, since no command consults one),
and "meta" (wall time, version, the engine's counters: everything outside
the determinism surface).  With --format csv the CLI writes the results
table instead (`report_csv`), rendered from the payload only then: count,
density, discrepancy, weyl and dioph have one, bounds has none.

Config schema (lines of key=value; blank lines and #-comments ignored):

  command       count | density | discrepancy | weyl | bounds | dioph
  alphas        comma-separated real descriptions (see formats below);
                commas inside brackets or before a key=value field stay
                in the item, e.g. alphas=cf:[1;2,2],liouville:base=2,tau=2
  ms            comma-separated exponents, first = 1, strictly increasing
  lower_<j>     lower-order coefficients for coordinate j >= 2, constant
                first, e.g. lower_2=1/2,surd:(0+1*sqrt(2))/1
  workers       integer >= 1, default 1; accepted and unused (every
                count runs in one process)
  seed          integer >= 0, default 0; accepted and unused

  count:        x=; method=direct|mobius (default direct); d_cutoff=
  density:      grid=comma ints (>= 3); tau= (exact, optional)
  discrepancy:  d=; n=; the harmonic cutoff h= (default 20)
  weyl:         d=; n=; h=comma ints (one per coordinate)
  dioph:        alpha=; max_q=; mode=poly|exp (default poly);
                window_q= and window_exponent= (optional approximation
                window question)
  bounds:       bound=poly_sum|linear|quadratic|reciprocal|monotone
                poly_sum:   alpha=, m=, h=, n=, q= (optional), eps=,
                            lower=comma coefficients (optional)
                linear:     q=, h=, n=, alpha= (optional: adds the
                            certified reciprocal-cap check)
                quadratic:  alpha=, h=, d=, n=, g=comma coefficients
                reciprocal: alpha=, k=, n=, q= (optional)
                monotone:   u=, v=, m_max=, variant=u_over_v|v_over_u

The float keys (window_exponent, eps) must be finite: nan and inf
are refused, since a report cannot carry them as JSON numbers.

Real-number descriptions: plain rationals ("1/2", "0.25") or prefixed
forms rat:p/q, surd:(a+b*sqrt(d))/c, cf:[a0;a1,...], dec:digits:places,
liouville:base=B,rule=poly|exp,tau|theta=T,c1=C,depth=D.

Precision is not configurable: every certified evaluation doubles its
precision as needed up to a fixed ceiling of 2^20 bits.

Exit codes: 0 success, 2 configuration/precondition error,
3 precision ceiling exhausted, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .counting import (ProblemSpec, dec_str, density_experiment,
                       direct_count, mobius_count)
from .dioph import convergents, estimate_type, find_window
from .equidist import (discrepancy_report, linear_bound, linear_sum_exact,
                       monotone_check, nu_sequence, quadratic_bound,
                       reciprocal_sum, weyl_bound_report, weyl_sum)
from .errors import (BeattySieveError, ConfigError, InsufficientData,
                     InvalidSpec, PrecisionExhausted, ResourceLimit)
from .realnum import as_spec

EXIT_CONFIG = 2
EXIT_PRECISION = 3
EXIT_RESOURCE = 4
# how main reports each failure; any other OSError or library error is
# an "error", exit 2
_FAILURES = {ConfigError: ("config error", EXIT_CONFIG),
             PrecisionExhausted: ("precision exhausted", EXIT_PRECISION),
             ResourceLimit: ("resource limit", EXIT_RESOURCE)}


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict:
    cfg = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in cfg:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


_KEY_VALUE = re.compile(r"^\s*[A-Za-z_]\w*\s*=")


def split_reals(text: str) -> list:
    """Split a comma-separated list of real descriptions.

    A comma separates two items only at bracket depth 0 and only when the
    text after it is not key=value, so cf:[a0;a1,a2] and
    liouville:base=2,rule=poly,... each stay one item.
    """
    pieces = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    items = []
    for piece in (p.strip() for p in pieces):
        if not piece:
            continue
        if items and _KEY_VALUE.match(piece):
            items[-1] += "," + piece
        else:
            items.append(piece)
    return items


_REQUIRED = object()    # the default of a key that must be given


class _Config:
    """Typed accessors over the flat key=value map; tracks unused keys.

    An accessor called without a default reads a required key.
    """

    def __init__(self, raw: dict):
        self.raw = dict(raw)
        self.seen = set()

    def _take(self, key, default, convert=str, what=None):
        self.seen.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return default
        val = self.raw[key]
        try:
            return convert(str(val))
        except ValueError:
            raise ConfigError(f"{key!r} must be {what}, got {val!r}")

    def str_(self, key, default=_REQUIRED, choices=None):
        val = self._take(key, default)
        if choices is not None and val not in choices:
            raise ConfigError(
                f"{key!r} must be one of {sorted(choices)}, got {val!r}")
        return val

    def int_(self, key, default=_REQUIRED, minimum=None):
        val = self._take(key, default, int, "an integer")
        if val is not None and minimum is not None and val < minimum:
            raise ConfigError(f"{key!r} must be >= {minimum}")
        return val

    def float_(self, key, default):
        val = self._take(key, default, float, "a number")
        if val is not None and not math.isfinite(val):
            raise ConfigError(f"{key!r} must be finite, got {val!r}")
        return val

    def int_list(self, key):
        return self._take(key, _REQUIRED, lambda text: [
            int(p) for p in text.split(",") if p.strip()],
            "comma-separated integers")

    def str_list(self, key, default=_REQUIRED):
        return self._take(key, default, split_reals)

    def finish(self) -> None:
        unused = set(self.raw) - self.seen
        if unused:
            raise ConfigError(f"unknown config keys: {sorted(unused)}")


def build_problem(cfg: _Config) -> ProblemSpec:
    alphas = cfg.str_list("alphas")
    ms = cfg.int_list("ms")
    lower = {}
    for key in sorted(k for k in cfg.raw if k.startswith("lower_")):
        try:
            j = int(key.split("_", 1)[1])
        except ValueError:
            raise ConfigError(f"bad lower-term key {key!r}")
        entries = cfg.str_list(key)
        lower[j] = tuple(entries) if entries else None
    lower_terms = ()
    if lower:
        if min(lower) < 2 or max(lower) > len(ms):
            raise ConfigError("lower_<j> keys must satisfy 2 <= j <= k")
        lower_terms = tuple(lower.get(j + 1) for j in range(len(ms)))
    return ProblemSpec(tuple(alphas), tuple(ms), lower_terms)


# ---------------------------------------------------------------------------
# command handlers: each returns (payload,), or (payload, counters) for
# the counting commands, the point sets, the Weyl sums and the
# reciprocal-distance sums, whose counters go to the meta block


def cmd_count(cfg: _Config):
    problem = build_problem(cfg)
    x = cfg.int_("x", minimum=1)
    method = cfg.str_("method", "direct",
                      choices={"direct", "mobius"})
    d_cutoff = cfg.int_("d_cutoff", None, minimum=1)
    cfg.finish()
    if method == "direct":
        if d_cutoff is not None:
            raise ConfigError("d_cutoff applies to method=mobius only")
        res = direct_count(problem, x)
    else:
        res = mobius_count(problem, x, d_cutoff)
    payload = {"x": res.x, "count": res.count, "method": res.method,
               "d_cutoff": res.d_cutoff,
               "density": dec_str(Fraction(res.count, res.x), 20)}
    return payload, asdict(res.stats)


def cmd_density(cfg: _Config):
    problem = build_problem(cfg)
    grid = cfg.int_list("grid")
    tau = cfg.str_("tau", None)
    cfg.finish()
    run = density_experiment(problem, grid, tau=tau)
    gamma = run.theoretical_gamma
    payload = {
        "problem": run.problem.describe(),
        "grid": list(run.grid),
        "counts": list(run.counts),
        "target": dec_str(run.target),
        "errors": [dec_str(e) for e in run.errors],
        "densities": [dec_str(Fraction(c, x), 20)
                      for x, c in zip(run.grid, run.counts)],
        "fitted_exponent": run.fitted_exponent,
        "residual": run.residual,
        "gamma_hat": run.gamma_hat,
        "theoretical_gamma": None if gamma is None else dec_str(gamma),
    }
    return payload, asdict(run.stats)


def cmd_discrepancy(cfg: _Config):
    problem = build_problem(cfg)
    d = cfg.int_("d", 1, minimum=1)
    n = cfg.int_("n", minimum=1)
    h = cfg.int_("h", 20, minimum=1)
    cfg.finish()
    ps = nu_sequence(problem, d, n)
    rep = discrepancy_report(ps, h)
    payload = {"N": rep.N, "exact": rep.exact, "box_lower": rep.box_lower,
               "et_upper": rep.et_upper, "H": rep.H,
               "weyl_terms": [{"h": list(t), "magnitude": mag, "r": r}
                              for t, mag, r in rep.weyl_terms],
               "provenance": ps.provenance, "coord_error": ps.coord_error}
    return payload, asdict(ps.stats)


def cmd_weyl(cfg: _Config):
    problem = build_problem(cfg)
    d = cfg.int_("d", 1, minimum=1)
    n = cfg.int_("n", minimum=1)
    hvec = cfg.int_list("h")
    cfg.finish()
    res = weyl_sum(problem, d, hvec, n)
    payload = {"d": d, "N": res.N, "h": list(hvec),
               "real": res.value.real, "imag": res.value.imag,
               "magnitude": abs(res.value),
               "error_bound": res.error_bound}
    return payload, asdict(res.stats)


def cmd_dioph(cfg: _Config):
    alpha = cfg.str_("alpha")
    max_q = cfg.int_("max_q", minimum=1)
    mode = cfg.str_("mode", "poly",
                    choices={"poly", "exp", "polynomial", "exponential"})
    mode = {"poly": "polynomial", "exp": "exponential"}.get(mode, mode)
    window_q = cfg.int_("window_q", None, minimum=2)
    window_exponent = cfg.float_("window_exponent", None)
    cfg.finish()
    if window_q is None and window_exponent is not None:
        raise ConfigError("window_exponent needs window_q")
    spec = as_spec(alpha)
    ladder = convergents(spec, max(max_q, window_q or 0))
    convs = [c for c in ladder if c.q <= max_q]
    try:
        est = estimate_type(convs, max_q, mode)
        estimate = {"tau_hat": est.tau_hat, "mode": est.mode,
                    "samples": [[q, val] for q, val in est.samples]}
    except InsufficientData as exc:
        estimate = {"unavailable": str(exc)}
    payload = {
        "alpha": spec.text(),
        "max_q": max_q,
        "mode": mode,
        "convergents": [
            {"index": c.index, "a": c.a, "q": c.q,
             "quality_lo": dec_str(c.quality.lo, 20),
             "quality_hi": dec_str(c.quality.hi, 20)} for c in convs],
        "type_estimate": estimate,
    }
    if window_q is not None:
        if window_exponent is None and mode == "polynomial":
            raise ConfigError("window_exponent required with window_q "
                              "in poly mode")
        varpi = 0.5 if window_exponent is None else window_exponent
        win = find_window(ladder, window_q, varpi, mode)
        payload["window"] = {"a": win.a, "q": win.q, "Q": win.Q,
                             "lower": win.lower,
                             "satisfied": win.satisfied}
    return payload,


def cmd_bounds(cfg: _Config):
    kind = cfg.str_("bound", choices={"poly_sum", "linear", "quadratic",
                                      "reciprocal", "monotone"})
    if kind == "poly_sum":
        alpha = as_spec(cfg.str_("alpha"))
        m = cfg.int_("m", minimum=2)
        h = cfg.int_("h")
        n = cfg.int_("n", minimum=1)
        q = cfg.int_("q", None, minimum=1)
        eps = cfg.float_("eps", 0.05)
        lower = cfg.str_list("lower", ())
        cfg.finish()
        # the report's fields, delta as 30 digits and as a float, and eps
        # under the name that says it is a heuristic
        payload = asdict(weyl_bound_report(alpha, m, h, n, lower, q=q,
                                           eps=eps))
        delta = payload["delta"]
        payload.update(delta=dec_str(delta), delta_float=float(delta),
                       eps_heuristic=payload.pop("eps"))
        return payload,
    if kind == "linear":
        q = cfg.int_("q", minimum=1)
        h = cfg.int_("h")
        n = cfg.int_("n", minimum=1)
        alpha = cfg.str_("alpha", None)
        cfg.finish()
        payload = {"bound": "linear", "q": q, "h": h, "N": n,
                   "value": linear_bound(q, h, n)}
        if alpha is not None:
            chk = linear_sum_exact(alpha, h, n)
            payload["exact_check"] = {
                "actual": chk.actual, "cap": chk.cap,
                "sum_error": chk.sum_error, "certified": chk.certified}
        return payload,
    if kind == "quadratic":
        alpha = as_spec(cfg.str_("alpha"))
        h = cfg.int_("h")
        d = cfg.int_("d", 1, minimum=1)
        n = cfg.int_("n", minimum=1)
        g = cfg.str_list("g", ())
        cfg.finish()
        rep = quadratic_bound(alpha, h, d, n, g)
        return ({"bound": "quadratic", "h": rep.h, "d": rep.d, "N": rep.N,
                 "rhs": rep.rhs, "value": rep.bound, "actual": rep.actual,
                 "ratio_sq": rep.ratio_sq,
                 "sum_error_bound": rep.sum_error_bound}, asdict(rep.stats))
    if kind == "reciprocal":
        alpha = as_spec(cfg.str_("alpha"))
        k = cfg.int_("k", minimum=1)
        n = cfg.int_("n", minimum=1)
        q = cfg.int_("q", None, minimum=1)
        cfg.finish()
        rep = reciprocal_sum(alpha, k, n, q=q)
        return ({"bound": "reciprocal", "K": rep.K, "N": rep.N, "q": rep.q,
                 "exact_sum": rep.exact_sum,
                 "enclosure": list(rep.enclosure),
                 "lemma_bound": rep.lemma_bound, "ratio": rep.ratio},
                asdict(rep.stats))
    u = cfg.str_("u")
    v = cfg.str_("v")
    m_max = cfg.int_("m_max", minimum=2)
    variant = cfg.str_("variant")
    cfg.finish()
    ok = monotone_check(u, v, m_max, variant)
    return ({"bound": "monotone", "u": u, "v": v, "M": m_max,
             "variant": variant, "nondecreasing": ok},)


_COMMANDS = {
    "count": cmd_count,
    "density": cmd_density,
    "discrepancy": cmd_discrepancy,
    "weyl": cmd_weyl,
    "dioph": cmd_dioph,
    "bounds": cmd_bounds,
}


# ---------------------------------------------------------------------------
# report assembly and entry point


def run_config(raw: dict) -> dict:
    """Dispatch a parsed config; returns the full report dictionary."""
    cfg = _Config(raw)
    command = cfg.str_("command", choices=set(_COMMANDS))
    cfg.int_("workers", 1, minimum=1)
    cfg.int_("seed", 0, minimum=0)
    start = time.perf_counter()
    try:
        payload, *stats = _COMMANDS[command](cfg)
    except InvalidSpec as exc:
        # a library precondition the config broke
        raise ConfigError(str(exc)) from exc
    meta = {
        "wall_time_s": time.perf_counter() - start,
        "version": __version__,
    }
    if stats:
        meta["stats"] = stats[0]
    return {
        "config": dict(raw),
        "results": payload,
        "fixtures": [],         # no command consults a fixture file
        "meta": meta,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def payload_bytes(report: dict) -> bytes:
    """The determinism surface: everything except timing metadata."""
    clean = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(clean, sort_keys=True).encode()


def report_csv(report: dict) -> str:
    """The results table as CSV, each cell the payload's own value.

    count and weyl give one row, density one per grid point, discrepancy
    one per Weyl term and dioph one per convergent; bounds has no table.
    In a cell, None is empty and a list is space-joined.
    """
    res = report["results"]
    command = report["config"]["command"]
    if command in ("count", "weyl"):
        head = "x,count,method,d_cutoff" if command == "count" else \
            "d,N,h,real,imag,magnitude,error_bound"
        rows = [[res[key] for key in head.split(",")]]
    elif command == "density":
        head = "x,count,density,target,abs_error"
        rows = zip(res["grid"], res["counts"], res["densities"],
                   [res["target"]] * len(res["grid"]), res["errors"])
    elif command == "discrepancy":
        terms = res["weyl_terms"]
        head = "".join(f"h_{j}," for j in range(1, len(terms[0]["h"]) + 1))
        head += "magnitude,r_h"
        rows = [t["h"] + [t["magnitude"], t["r"]] for t in terms]
    elif command == "dioph":
        head = "index,a,q,log_ratio,quality_lo,quality_hi"
        convs = res["convergents"]
        rows = [[c["index"], c["a"], c["q"], "" if after is None or c["q"] < 2
                 else f"{math.log(after['q']) / math.log(c['q']):.12g}",
                 c["quality_lo"], c["quality_hi"]]
                for c, after in zip(convs, convs[1:] + [None])]
    else:
        raise ConfigError(f"command {command!r} has no CSV form")
    return head + "\n" + "".join(",".join(
        "" if v is None else " ".join(map(str, v)) if isinstance(v, list)
        else str(v) for v in row) + "\n" for row in rows)


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file 0600; give it what open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beattysieve",
        description="coprimality counting and equidistribution experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="experiment type (must match the config)")
    parser.add_argument("--config", required=True,
                        help="path to a key=value config file")
    parser.add_argument("--out", default=None,
                        help="write the report here (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r") as fh:
            raw = parse_config_text(fh.read())
        if raw.get("command") != args.command:
            raise ConfigError(
                f"config says command={raw.get('command')!r}, "
                f"CLI asked for {args.command!r}")
        report = run_config(raw)
        text = (report_csv if args.format == "csv" else report_json)(report)
        if args.out:
            atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    except (OSError, BeattySieveError) as exc:
        label, code = _FAILURES.get(type(exc), ("error", EXIT_CONFIG))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
