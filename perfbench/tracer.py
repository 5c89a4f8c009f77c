"""Outside-in tracing of the beattysieve layers.

The tracer wraps the public functions of realnum, counting, dioph,
equidist and cli, the public LinearForm methods, and every RealSpec
subclass's `bounds`, without touching the package source.  A function is
replaced under every name that refers to it in any beattysieve module
namespace (`direct_count` lives in both counting and cli, for example),
so calls made through any import path are seen.  Each call is a span:
its duration is the inclusive time, and its self time is the duration
minus the time covered by the spans nested in it.  `restore` puts every
original back.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYER_MODULES = ("realnum", "counting", "dioph", "equidist", "cli")
PACKAGE = "beattysieve"


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0          # active calls, so recursion counts once
        self.extra = {}


# name -> (extra counter, value taken from (args, kwargs, result), combine)
COUNTERS = {
    "realnum.bounds": ("max_prec", lambda a, k, r: a[1], max),
    "counting.direct_count": ("n_evaluated", lambda a, k, r: a[1], None),
    "counting.inner_count":
        ("n_scanned", lambda a, k, r: a[2] // a[1] if a[1] > 1 else 0, None),
    # the sieve's own working-array estimate: int8 output plus two int64
    # arrays per block, 17 bytes per entry
    "counting.mobius_sieve":
        ("bytes_computed", lambda a, k, r: 17 * (a[0] + 1), None),
    "dioph.convergents": ("returned", lambda a, k, r: len(r), None),
    "equidist.nu_sequence": ("points", lambda a, k, r: r.N, None),
    "equidist.et_koksma_upper":
        ("frequencies", lambda a, k, r: len(r.weyl_terms), None),
    "equidist.discrepancy_box_lower":
        ("boxes_checked", lambda a, k, r: r.boxes_checked, None),
}


class Tracer:
    """Install with `install()` (or `with Tracer() as t:`), read `stats`."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.direct_calls = []   # (problem, x, workers, seconds)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        record_direct = name == "counting.direct_count"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child[0]
                if st.depth == 0:
                    st.incl_s += dt
            if counter is not None:
                key, value, combine = counter
                v = value(args, kwargs, result)
                old = st.extra.get(key)
                st.extra[key] = v if old is None else (
                    combine(old, v) if combine else old + v)
            if record_direct:
                self.direct_calls.append(
                    (args[0], args[1], kwargs.get("workers", 1), dt))
            return result
        return wrapper

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        originals = {}           # id(original) -> wrapper
        for short in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        realnum = sys.modules[f"{PACKAGE}.realnum"]
        form = realnum.LinearForm
        for attr, obj in list(vars(form).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(form, attr,
                            self._wrap(f"realnum.LinearForm.{attr}", obj))
        todo = [realnum.RealSpec]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "bounds" in vars(cls):
                self._patch(cls, "bounds",
                            self._wrap("realnum.bounds", vars(cls)["bounds"]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def parallel_eff(self) -> float:
        """Single-process time of a (problem, x) direct count over
        workers x its time with workers; 0.0 when no pair was traced."""
        serial = {}
        for problem, x, workers, dt in self.direct_calls:
            if workers == 1:
                serial.setdefault((problem, x), dt)
        effs = [serial[(p, x)] / (w * dt)
                for p, x, w, dt in self.direct_calls
                if w > 1 and (p, x) in serial]
        return statistics.median(effs) if effs else 0.0

    def metrics(self) -> dict:
        """Flat `<layer>.<function>.<field>` values of everything traced."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.incl_s"] = st.incl_s
            out[f"{name}.self_s"] = st.self_s
            for key, value in st.extra.items():
                out[f"{name}.{key}"] = value
        for name, (key, _, _) in COUNTERS.items():
            out.setdefault(f"{name}.{key}", 0)
        out["counting.direct_count.parallel_eff"] = self.parallel_eff()
        out["cli.serialize_s"] = sum(
            self.stats[n].incl_s for n in ("cli.report_json",
                                           "cli.payload_bytes")
            if n in self.stats)
        return out
