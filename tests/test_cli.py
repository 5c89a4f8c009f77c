"""Batch front-end behavior: config parsing, dispatch, reports, exit codes.

Covers the textual config format, per-command validation, report assembly
(JSON/CSV forms, atomic writes), the determinism surface `payload_bytes`,
fixture digests, and the documented exit codes 0/2/3/4.
"""

import json
import math
import os
import warnings
from fractions import Fraction

import pytest

from beattysieve import __version__
from beattysieve.cli import (atomic_write, main, parse_config_text,
                             payload_bytes, report_csv, report_json,
                             run_config, split_reals)
from beattysieve.counting import ProblemSpec, direct_count, mobius_count
from beattysieve.errors import ConfigError
from beattysieve.dioph import convergents, estimate_type, find_window
from beattysieve.realnum import LiouvilleSeries, parse_real, sqrt3

from conftest import FIXTURE_DIR

SQRT2 = "surd:(0+1*sqrt(2))/1"
SQRT3 = "surd:(0+1*sqrt(3))/1"


def write_config(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config text parsing


def test_parse_config_ignores_comments_and_blanks():
    cfg = parse_config_text(
        "# a comment\n\n  command = count  \nX=100\n\n# trailing\n")
    assert cfg == {"command": "count", "x": "100"}


def test_parse_config_lowercases_keys_keeps_value_case():
    cfg = parse_config_text("ALPHAS=surd:(0+1*Sqrt(2))/1\n")
    assert cfg == {"alphas": "surd:(0+1*Sqrt(2))/1"}


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("command=count\njust words\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("x=1\nx=2\n")


# ---------------------------------------------------------------------------
# count command through run_config


def count_config(**over):
    raw = {"command": "count", "alphas": SQRT2, "ms": "1", "x": "100"}
    raw.update(over)
    return raw


def test_count_direct_worked_value():
    report = run_config(count_config())
    res = report["results"]
    assert res == {"x": 100, "count": 60, "method": "direct",
                   "d_cutoff": None, "density": "0.6"}
    assert report["config"] == count_config()
    assert report["fixtures"] == []
    assert report_csv(report) == "x,count,method,d_cutoff\n100,60,direct,\n"


def test_count_mobius_agrees_with_direct():
    direct = run_config(count_config())
    mob = run_config(count_config(method="mobius"))
    assert mob["results"]["count"] == direct["results"]["count"]
    assert mob["results"]["method"] == "mobius"


def test_count_x_equals_one():
    report = run_config(count_config(x="1"))
    assert report["results"]["count"] == 1
    assert report_csv(report) == "x,count,method,d_cutoff\n1,1,direct,\n"


def test_count_mobius_truncation_reported():
    report = run_config(count_config(method="mobius", d_cutoff="1"))
    # only the d=1 term survives: the count collapses to x itself
    assert report["results"]["count"] == 100
    assert report["results"]["d_cutoff"] == 1
    assert report_csv(report).endswith("100,100,mobius,1\n")


def test_count_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys.*bogus"):
        run_config(count_config(bogus="1"))


def test_count_rejects_method_both():
    with pytest.raises(ConfigError, match="method"):
        run_config(count_config(method="both"))


def test_count_rejects_d_cutoff_with_direct():
    with pytest.raises(ConfigError, match="d_cutoff"):
        run_config(count_config(d_cutoff="5"))


def test_count_requires_x():
    raw = count_config()
    del raw["x"]
    with pytest.raises(ConfigError, match="missing required key 'x'"):
        run_config(raw)


def test_lower_terms_keys_checked():
    raw = count_config(alphas=f"{SQRT2},{SQRT3}", ms="1,2", lower_5="1/2")
    with pytest.raises(ConfigError, match="lower_<j>"):
        run_config(raw)


def test_split_reals_keeps_bracketed_and_keyed_items_whole():
    assert split_reals("cf:[1;2,2], 1/2 ,surd:(0+1*sqrt(2))/1,,") == [
        "cf:[1;2,2]", "1/2", "surd:(0+1*sqrt(2))/1"]
    assert split_reals("liouville:base=2,tau=2,depth=8,rat:1/3") == [
        "liouville:base=2,tau=2,depth=8", "rat:1/3"]


def test_liouville_multiplier_reaches_both_routes():
    liou = "liouville:base=2,rule=poly,tau=2,c1=2,depth=8"
    problem = ProblemSpec((parse_real(liou), sqrt3()), (1, 2))
    want = direct_count(problem, 2000).count
    assert want == mobius_count(problem, 2000).count
    for method in ("direct", "mobius"):
        report = run_config(count_config(alphas=f"{liou},{SQRT3}", ms="1,2",
                                         x="2000", method=method))
        assert report["results"]["count"] == want


def test_cf_multiplier_parses_and_meets_the_irrationality_check():
    with pytest.raises(ConfigError, match=r"cf:\[1;2,2\]\) is not an irr"):
        run_config(count_config(alphas=f"{SQRT2},cf:[1;2,2]", ms="1,2"))


def test_count_and_density_report_engine_counters():
    stats = run_config(count_config(x="5000"))["meta"]["stats"]
    assert stats["fast_floors"] > 0 and stats["exact_coords"] == 0
    mob = run_config(count_config(x="5000", method="mobius"))["meta"]["stats"]
    assert mob["fast_floors"] > 0 and mob["exact_coords"] == 0
    raw = {"command": "density", "alphas": f"{SQRT2},{SQRT3}", "ms": "1,2",
           "lower_2": "1/2", "grid": "100,200,400"}
    stats = run_config(raw)["meta"]["stats"]
    assert stats["fast_floors"] > 0 and stats["exact_coords"] == 0
    # a literal stated to 24 bits keeps its coordinate on the exact engine
    raw["lower_2"] = "dec:1.41421356:8"
    assert run_config(raw)["meta"]["stats"]["exact_coords"] == 1


def test_lower_terms_accepted_for_second_coordinate():
    raw = count_config(alphas=f"{SQRT2},{SQRT3}", ms="1,2",
                       lower_2="1/2", x="50")
    report = run_config(raw)
    assert report["results"]["count"] >= 1


def test_run_config_requires_command():
    with pytest.raises(ConfigError, match="missing required key 'command'"):
        run_config({"x": "10"})


def test_run_config_rejects_unknown_command():
    with pytest.raises(ConfigError, match="'command'"):
        run_config({"command": "frobnicate"})


def test_run_config_rejects_small_max_bits():
    with pytest.raises(ConfigError, match="max_bits"):
        run_config(count_config(max_bits="32"))


def test_run_config_rejects_the_removed_zeta_bits_key():
    raw = {"command": "density", "alphas": SQRT2, "ms": "1",
           "grid": "100,200,400", "zeta_bits": "128"}
    with pytest.raises(ConfigError, match="zeta_bits"):
        run_config(raw)


# ---------------------------------------------------------------------------
# report assembly and the determinism surface


def test_report_meta_and_version():
    report = run_config(count_config())
    meta = report["meta"]
    assert set(meta) == {"wall_time_s", "version", "stats"}
    assert meta["version"] == __version__
    assert meta["wall_time_s"] >= 0.0


def test_payload_bytes_identical_across_workers():
    # the workers key is echoed in the config and changes nothing else
    for w in ("1", "4"):
        raw = count_config(x="2000", workers=w)
        blobs = {payload_bytes(run_config(raw)) for _ in range(2)}
        assert len(blobs) == 1
        decoded = json.loads(blobs.pop())
        assert decoded["config"] == raw
        assert decoded["results"] == run_config(
            count_config(x="2000"))["results"]


def test_payload_bytes_excludes_meta_and_private():
    report = run_config(count_config())
    decoded = json.loads(payload_bytes(report))
    assert set(decoded) == {"config", "results", "fixtures"}


def test_report_json_sorted_and_no_private_keys():
    report = run_config(count_config())
    text = report_json(report)
    decoded = json.loads(text)
    assert set(decoded) == {"config", "results", "fixtures", "meta"}
    assert decoded["results"]["count"] == 60
    assert text == json.dumps(decoded, indent=2, sort_keys=True) + "\n"


def test_atomic_write_no_temp_leftovers(tmp_path):
    target = tmp_path / "report.json"
    atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# ---------------------------------------------------------------------------
# density command


def test_density_payload_shape():
    raw = {"command": "density", "alphas": SQRT2, "ms": "1",
           "grid": "10,100,1000"}
    report = run_config(raw)
    res = report["results"]
    assert res["grid"] == [10, 100, 1000]
    assert res["counts"] == [6, 60, 607]
    assert res["gamma_hat"] is not None
    assert res["problem"]["ms"] == [1]
    assert report_csv(report).splitlines()[0] == \
        "x,count,density,target,abs_error"


def test_density_rejects_short_grid():
    raw = {"command": "density", "alphas": SQRT2, "ms": "1", "grid": "10,100"}
    with pytest.raises(ConfigError, match="grid"):
        run_config(raw)


# ---------------------------------------------------------------------------
# discrepancy and weyl commands


def test_discrepancy_payload_and_csv():
    raw = {"command": "discrepancy", "alphas": SQRT2, "ms": "1",
           "n": "100", "h": "5"}
    report = run_config(raw)
    res = report["results"]
    assert res["N"] == 100
    assert res["provenance"]["kind"] == "scaled_fracs"
    assert res["coord_error"] == pytest.approx(2.0 ** -52)
    assert res["box_lower"] <= res["exact"] <= res["et_upper"]
    lines = report_csv(report).splitlines()
    assert lines[0] == "h_1,magnitude,r_h"
    assert len(lines) == 1 + 5


def test_weyl_payload_shape():
    raw = {"command": "weyl", "alphas": SQRT2, "ms": "1",
           "n": "10", "h": "1"}
    report = run_config(raw)
    res = report["results"]
    assert res["N"] == 10
    assert res["h"] == [1]
    assert res["magnitude"] == pytest.approx(
        abs(complex(res["real"], res["imag"])))
    assert 0 < res["magnitude"] <= 10 + res["error_bound"]
    assert res["error_bound"] == pytest.approx(10 * 2.0 ** -50)
    assert report_csv(report).startswith(
        "d,N,h,real,imag,magnitude,error_bound\n")


def test_weyl_rejects_wrong_h_length():
    raw = {"command": "weyl", "alphas": SQRT2, "ms": "1",
           "n": "10", "h": "1,2"}
    with pytest.raises(ConfigError):
        run_config(raw)


# ---------------------------------------------------------------------------
# dioph command


def test_dioph_payload_window_and_csv():
    raw = {"command": "dioph", "alpha": SQRT2, "max_q": "100",
           "window_q": "100", "window_exponent": "0.5"}
    report = run_config(raw)
    res = report["results"]
    assert res["mode"] == "polynomial"
    assert [c["q"] for c in res["convergents"]] == [1, 2, 5, 12, 29, 70]
    assert res["window"]["q"] == 70
    assert res["window"]["satisfied"] is True
    assert res["type_estimate"]["tau_hat"] > 0
    header = report_csv(report).splitlines()[0]
    assert header == "index,a,q,log_ratio,quality_lo,quality_hi"


def test_dioph_mode_aliases_normalized():
    raw = {"command": "dioph", "alpha": SQRT2, "max_q": "100", "mode": "exp"}
    assert run_config(raw)["results"]["mode"] == "exponential"
    raw["mode"] = "polynomial"
    assert run_config(raw)["results"]["mode"] == "polynomial"


def test_dioph_window_needs_exponent_in_poly_mode():
    raw = {"command": "dioph", "alpha": SQRT2, "max_q": "100",
           "window_q": "100"}
    with pytest.raises(ConfigError, match="window_exponent"):
        run_config(raw)


@pytest.mark.parametrize("mode", ["poly", "exp"])
def test_dioph_exponent_without_window_is_refused(mode):
    raw = {"command": "dioph", "alpha": SQRT2, "max_q": "100",
           "mode": mode, "window_exponent": "0.5"}
    with pytest.raises(ConfigError, match="window_exponent needs window_q"):
        run_config(raw)


def test_dioph_exponential_window_without_exponent():
    raw = {"command": "dioph", "alpha": SQRT2, "max_q": "100",
           "mode": "exp", "window_q": "100"}
    report = run_config(raw)
    assert report["results"]["window"]["q"] == 70


def test_dioph_insufficient_data_reported_not_fatal():
    raw = {"command": "dioph", "alpha": "rat:22/7", "max_q": "1000"}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_config(raw)
    est = report["results"]["type_estimate"]
    assert "unavailable" in est
    assert [c["q"] for c in report["results"]["convergents"]] == [1, 7]


@pytest.mark.parametrize("alpha, max_q, mode", [
    (SQRT2, 10**6, "polynomial"),
    (LiouvilleSeries(2, "exp", Fraction(1, 2), c1=2).text(), 10**8,
     "exponential"),
], ids=["sqrt2_poly", "liouville_exp"])
def test_dioph_builds_its_ladder_once(monkeypatch, alpha, max_q, mode):
    from beattysieve import cli, dioph
    est = estimate_type(convergents(parse_real(alpha), max_q), max_q, mode)
    calls = []
    original = dioph.convergents

    def counted(spec, q):
        calls.append(1)
        return original(spec, q)

    monkeypatch.setattr(dioph, "convergents", counted)
    monkeypatch.setattr(cli, "convergents", counted)
    raw = {"command": "dioph", "alpha": alpha, "max_q": str(max_q),
           "mode": mode}
    got = run_config(raw)["results"]["type_estimate"]
    assert len(calls) == 1
    assert got == {"tau_hat": est.tau_hat, "mode": est.mode,
                   "samples": [[q, r] for q, r in est.samples]}


@pytest.mark.parametrize("window_q, qs", [
    (100, [1, 2, 5, 12, 29, 70]),
    (5000, [1, 2, 5, 12, 29, 70]),
    (30, [1, 2, 5, 12, 29, 70]),
], ids=["equal_caps", "window_above", "window_below"])
def test_dioph_window_reads_the_one_ladder(monkeypatch, window_q, qs):
    from beattysieve import cli, dioph
    want = find_window(convergents(parse_real(SQRT2), window_q), window_q,
                       0.5, "polynomial")
    calls = []
    original = dioph.convergents

    def counted(spec, q):
        calls.append(q)
        return original(spec, q)

    monkeypatch.setattr(dioph, "convergents", counted)
    monkeypatch.setattr(cli, "convergents", counted)
    raw = {"command": "dioph", "alpha": SQRT2, "max_q": "100",
           "window_q": str(window_q), "window_exponent": "0.5"}
    res = run_config(raw)["results"]
    assert calls == [max(100, window_q)]
    assert [c["q"] for c in res["convergents"]] == qs
    assert res["window"] == {"a": want.a, "q": want.q, "Q": want.Q,
                             "lower": want.lower,
                             "satisfied": want.satisfied}


# ---------------------------------------------------------------------------
# report_csv: the results table, each cell read off the payload


def csv_rows(report):
    text = report_csv(report)
    assert "\r" not in text and text.endswith("\n")
    return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize("over", [{}, {"method": "mobius"},
                                  {"method": "mobius", "d_cutoff": "3"}],
                         ids=["direct", "mobius", "mobius_cutoff"])
def test_count_csv_cells_are_the_payload(over):
    report = run_config(count_config(**over))
    res = report["results"]
    assert csv_rows(report) == [
        ["x", "count", "method", "d_cutoff"],
        [str(res["x"]), str(res["count"]), res["method"],
         "" if res["d_cutoff"] is None else str(res["d_cutoff"])]]


def test_density_csv_cells_are_the_payload():
    report = run_config({"command": "density", "alphas": SQRT2, "ms": "1",
                         "grid": "10,100,1000", "tau": "1"})
    res = report["results"]
    head, *rows = csv_rows(report)
    assert head == ["x", "count", "density", "target", "abs_error"]
    assert rows == [[str(x), str(c), dens, res["target"], err]
                    for x, c, dens, err in zip(res["grid"], res["counts"],
                                               res["densities"],
                                               res["errors"])]
    assert len(res["target"]) == len("0.") + 30     # 30 digits, not 20


def test_discrepancy_csv_cells_are_the_payload():
    report = run_config({"command": "discrepancy",
                         "alphas": f"{SQRT2},{SQRT3}", "ms": "1,2",
                         "n": "300", "h": "2"})
    terms = report["results"]["weyl_terms"]
    head, *rows = csv_rows(report)
    assert head == ["h_1", "h_2", "magnitude", "r_h"]
    assert len(rows) == len(terms) == 12
    for row, term in zip(rows, terms):
        assert [int(c) for c in row[:2]] == term["h"]
        assert float(row[2]) == term["magnitude"]
        assert int(row[3]) == term["r"]


def test_weyl_csv_cells_are_the_payload():
    report = run_config({"command": "weyl", "alphas": f"{SQRT2},{SQRT3}",
                         "ms": "1,2", "d": "3", "n": "40", "h": "2,1"})
    res = report["results"]
    head, row = csv_rows(report)
    assert head == ["d", "N", "h", "real", "imag", "magnitude",
                    "error_bound"]
    assert row[:3] == [str(res["d"]), str(res["N"]), "2 1"]
    assert [float(c) for c in row[3:]] == [
        res["real"], res["imag"], res["magnitude"], res["error_bound"]]


def test_dioph_csv_cells_are_the_payload():
    report = run_config({"command": "dioph", "alpha": SQRT2,
                         "max_q": "100"})
    convs = report["results"]["convergents"]
    head, *rows = csv_rows(report)
    assert head == ["index", "a", "q", "log_ratio", "quality_lo",
                    "quality_hi"]
    assert len(rows) == len(convs) == 6
    for i, (row, c) in enumerate(zip(rows, convs)):
        assert row[:3] == [str(c["index"]), str(c["a"]), str(c["q"])]
        assert row[4:] == [c["quality_lo"], c["quality_hi"]]
        if i + 1 < len(convs) and c["q"] >= 2:
            ratio = math.log(convs[i + 1]["q"]) / math.log(c["q"])
            assert row[3] == f"{ratio:.12g}"
        else:
            assert row[3] == ""
    # the enclosure's two ends, not one float printed twice
    assert rows[0][4:] == ["0.41421356237309504879",
                           "0.41421356237309504882"]


# ---------------------------------------------------------------------------
# bounds command


def test_bounds_poly_sum_worked_delta():
    raw = {"command": "bounds", "bound": "poly_sum", "alpha": SQRT2,
           "m": "2", "h": "1", "n": "1000", "q": "29"}
    report = run_config(raw)
    res = report["results"]
    expected = 1 / 29 + 1 / 1000 + 29 / 10 ** 6 + 1 / 1000
    assert res["delta_float"] == pytest.approx(expected, rel=1e-12)
    for key in ("delta", "eps_heuristic", "sum_error_bound"):
        assert key in res
    with pytest.raises(ConfigError, match="'bounds' has no CSV form"):
        report_csv(report)


def test_bounds_linear_with_certified_check():
    raw = {"command": "bounds", "bound": "linear", "q": "12", "h": "3",
           "n": "1000", "alpha": SQRT2}
    res = run_config(raw)["results"]
    assert res["value"] == 3 * 1000 / 12 + 12
    chk = res["exact_check"]
    assert chk["certified"] is True
    assert chk["cap"] == pytest.approx(2.0606601717, abs=1e-9)


@pytest.mark.parametrize("with_file", [True, False],
                         ids=["file_present", "file_absent"])
def test_bounds_sums_report_no_fixtures(monkeypatch, tmp_path, with_file):
    # neither sum reads a fixture file, so none is named, whether or not
    # fixtures/lemma_constants.json can be found
    if with_file:
        assert os.path.isfile(os.path.join(FIXTURE_DIR,
                                           "lemma_constants.json"))
        monkeypatch.chdir(os.path.dirname(FIXTURE_DIR))
    else:
        monkeypatch.chdir(tmp_path)
    quadratic = {"command": "bounds", "bound": "quadratic", "alpha": SQRT2,
                 "h": "1", "n": "50"}
    reciprocal = {"command": "bounds", "bound": "reciprocal",
                  "alpha": SQRT2, "k": "50", "n": "50"}
    report = run_config(quadratic)
    assert report["results"]["ratio_sq"] < 16
    assert report["fixtures"] == []
    assert run_config(reciprocal)["fixtures"] == []


def test_bounds_sums_report_their_counters():
    raw = {"command": "bounds", "bound": "reciprocal", "alpha": SQRT2,
           "k": "40", "n": "30"}
    report = run_config(raw)
    assert report["meta"]["stats"] == {"distance_verdicts": 40,
                                       "exact_sum_fallbacks": 0}
    quadratic = {"command": "bounds", "bound": "quadratic", "alpha": SQRT2,
                 "h": "2", "n": "25"}
    assert run_config(quadratic)["meta"]["stats"] == {
        "distance_verdicts": 25, "exact_sum_fallbacks": 0}
    # the counters stay outside the determinism surface
    assert b"distance_verdicts" not in payload_bytes(report)


def test_point_sets_and_weyl_sums_report_the_screen():
    disc = {"command": "discrepancy", "alphas": f"{SQRT2},{SQRT3}",
            "ms": "1,2", "d": "3", "n": "2000", "h": "4"}
    report = run_config(disc)
    stats = report["meta"]["stats"]
    assert set(stats) == {"screened", "open"}
    assert stats["screened"] + stats["open"] == 2 * 2000
    assert stats["open"] < 0.01 * 2 * 2000
    assert b"screened" not in payload_bytes(report)
    weyl = {"command": "weyl", "alphas": f"{SQRT2},{SQRT3}", "ms": "1,2",
            "d": "3", "n": "2000", "h": "1,1"}
    report = run_config(weyl)
    stats = report["meta"]["stats"]
    assert stats["screened"] + stats["open"] == 2000
    assert stats["open"] < 0.01 * 2000
    assert b"screened" not in payload_bytes(report)


def test_bounds_reciprocal_worked_value():
    raw = {"command": "bounds", "bound": "reciprocal", "alpha": SQRT2,
           "k": "2", "n": "10"}
    res = run_config(raw)["results"]
    assert res["exact_sum"] == pytest.approx(8.2426406871, abs=1e-9)
    lo, hi = res["enclosure"]
    assert lo <= res["exact_sum"] <= hi
    assert res["ratio"] <= 2.0


def test_bounds_monotone_true_and_false():
    base = {"command": "bounds", "bound": "monotone", "m_max": "6",
            "variant": "u_over_v"}
    assert run_config({**base, "u": "2", "v": "4"})["results"][
        "nondecreasing"] is True
    assert run_config({**base, "u": "2", "v": "3"})["results"][
        "nondecreasing"] is False


def test_bounds_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="'bound'"):
        run_config({"command": "bounds", "bound": "cubic"})


# ---------------------------------------------------------------------------
# main(): argv handling, output modes, exit codes


def test_main_success_stdout_json(tmp_path, capsys):
    cfg = write_config(tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=50\n")
    assert main(["count", "--config", cfg]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["results"]["count"] == 31
    assert decoded["meta"]["version"] == __version__


def test_main_out_file_and_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=50\n")
    out = tmp_path / "report.csv"
    assert main(["count", "--config", cfg, "--format", "csv",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "x,count,method,d_cutoff\n50,31,direct,\n"
    assert [p.name for p in tmp_path.iterdir() if p.name != "job.cfg"] == \
        ["report.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_main_out_file_mode_follows_the_umask(tmp_path, capsys, umask):
    cfg = write_config(tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=50\n")
    out = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        assert main(["count", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask


def test_main_csv_rejected_when_command_has_none(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "command=bounds\nbound=monotone\nu=2\nv=4\n"
        "m_max=6\nvariant=u_over_v\n")
    assert main(["bounds", "--config", cfg, "--format", "csv"]) == 2
    assert "no CSV form" in capsys.readouterr().err


def test_main_has_no_workers_flag(tmp_path):
    cfg = write_config(tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=50\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", "--config", cfg, "--workers", "2"])
    assert exc.value.code == 2


def test_main_rejects_a_nonpositive_workers_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=50\nworkers=0\n")
    assert main(["count", "--config", cfg]) == 2
    assert "'workers' must be >= 1" in capsys.readouterr().err


def test_main_refuses_a_mobius_count_past_uint64(tmp_path, capsys):
    cfg = write_config(
        tmp_path, f"command=count\nalphas={SQRT2}\nms=1\n"
        f"x={2**64}\nmethod=mobius\n")
    assert main(["count", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "x < 2^64, the uint64 limit" in err


def test_main_has_no_max_bits_flag(tmp_path):
    cfg = write_config(tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=50\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", "--config", cfg, "--max-bits", "64"])
    assert exc.value.code == 2


def test_main_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["count", "--config", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_command_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, f"command=count\nalphas={SQRT2}\nms=1\nx=5\n")
    assert main(["density", "--config", cfg]) == 2
    assert "config says command='count'" in capsys.readouterr().err


def test_main_bad_real_text_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "command=count\nalphas=sqrt(2)\nms=1\nx=5\n")
    assert main(["count", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_precision_exhausted_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "command=dioph\nalpha=dec:1.41421356:8\nmax_q=1000000\n")
    assert main(["dioph", "--config", cfg]) == 3
    assert "precision exhausted" in capsys.readouterr().err


def test_main_resource_limit_exit_4(tmp_path, capsys):
    # a = 3/4 + 2^-(2^40), so {4a} is below 2^-(2^40) and every d ≤ x/4
    # passes at n = 4: the Moebius route's table would need 2.5*10^8
    # entries, which it refuses in the first block
    liou = LiouvilleSeries(2, "poly", Fraction(40), c1=1).text()
    cfg = write_config(
        tmp_path,
        f"command=count\nalphas={liou}\nms=1\nx=1000000000\nmethod=mobius\n")
    assert main(["count", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "n = 4," in err and "table to 250000000" in err


# a float that is not finite would reach the report as NaN or Infinity,
# which is not JSON; seed is unused, but the CLI still validates the key
@pytest.mark.parametrize("command, body, key", [
    ("bounds", f"bound=poly_sum\nalpha={SQRT2}\nm=2\nh=1\nn=100\neps=inf\n",
     "eps"),
    ("dioph", f"alpha={SQRT2}\nmax_q=100\nwindow_q=100\nwindow_exponent=nan\n",
     "window_exponent"),
    ("discrepancy",
     f"alphas={SQRT2},{SQRT3}\nms=1,2\nd=3\nn=1200\nh=2\nseed=-1\n", "seed"),
], ids=["eps_inf", "window_exponent_nan", "negative_seed"])
def test_main_refuses_values_a_report_cannot_carry(tmp_path, capsys, command,
                                                   body, key):
    cfg = write_config(tmp_path, f"command={command}\n{body}")
    assert main([command, "--config", cfg]) == 2
    assert f"config error: '{key}' must be" in capsys.readouterr().err


# an integer past the float range, or a float power past it, ends in a
# config error that names the quantity, not an OverflowError traceback
_HUGE = 10**400


@pytest.mark.parametrize("command, body, quantity", [
    ("dioph", f"alpha={SQRT2}\nmax_q=100\nwindow_q={_HUGE}\n"
              "window_exponent=0.5\n", "window cap Q"),
    ("bounds", f"bound=linear\nq={_HUGE}\nh=1\nn=10\n", "N(|h|/q + q/N)"),
    ("bounds", f"bound=linear\nq=5\nh={_HUGE}\nn=10\n", "N(|h|/q + q/N)"),
    ("bounds", f"bound=linear\nq=5\nh=1\nn={_HUGE}\n", "N(|h|/q + q/N)"),
    ("bounds", f"bound=reciprocal\nalpha={SQRT2}\nk=3\nn=30\nq={_HUGE}\n",
     "N + q ln q"),
    ("bounds", f"bound=poly_sum\nalpha={SQRT2}\nm=2\nh=1\nn=100\n"
               f"q={_HUGE}\n", "N^(1+eps) or delta"),
    ("bounds", f"bound=poly_sum\nalpha={SQRT2}\nm=2\nh=1\nn=100\n"
               "eps=1000\n", "N^(1+eps) or delta"),
    ("dioph", f"alpha={SQRT2}\nmax_q=100\nmode=exp\nwindow_q=100\n"
              "window_exponent=1e308\n", "window floor (log Q)^(varpi+1)"),
    ("bounds", f"bound=poly_sum\nalpha={SQRT2}\nm=2\nh=1\nn=100\n"
               "eps=-1000\n", "the ratio to N^(1+eps) delta^(1/(m^2-m))"),
    ("bounds", f"bound=poly_sum\nalpha={SQRT2}\nm=2\nh=1\nn=100\n"
               "eps=-155\n", "the ratio to N^(1+eps) delta^(1/(m^2-m))"),
], ids=["dioph_window_q", "linear_q", "linear_h", "linear_n",
        "reciprocal_q", "poly_sum_q", "poly_sum_eps", "dioph_window_floor",
        "poly_sum_eps_underflow", "poly_sum_ratio_inf"])
def test_main_refuses_values_past_the_float_range(tmp_path, capsys, command,
                                                  body, quantity):
    cfg = write_config(tmp_path, f"command={command}\n{body}")
    assert main([command, "--config", cfg]) == 2
    assert f"config error: {quantity} is out of float range" in \
        capsys.readouterr().err


def test_main_refuses_a_rational_liouville_series(tmp_path, capsys):
    # with tau = 1 every exponent from c1 on is taken: the sum
    # 2^-1 + 2^-2 + ... is 1, a rational the count would grind on
    cfg = write_config(tmp_path, "command=count\n"
                       "alphas=liouville:base=2,rule=poly,tau=1,c1=1\n"
                       "ms=1\nx=100\n")
    assert main(["count", "--config", cfg]) == 2
    assert "config error: poly rule needs tau > 1" in capsys.readouterr().err


def test_main_refuses_the_removed_c_key(tmp_path, capsys):
    # the Erdős–Turán–Koksma constants are the theorem's, not a setting
    cfg = write_config(tmp_path, f"command=discrepancy\nalphas={SQRT2}\n"
                                 "ms=1\nn=100\nc=3\n")
    assert main(["discrepancy", "--config", cfg]) == 2
    assert "config error: unknown config keys: ['c']" in \
        capsys.readouterr().err


# a broken library precondition is a config error whichever command and
# whichever argument meets it first
@pytest.mark.parametrize("raw", [
    {"command": "discrepancy", "alphas": f"{SQRT2},{SQRT3}", "ms": "1,2",
     "lower_2": SQRT2, "d": "2", "n": "10"},
    {"command": "weyl", "alphas": f"{SQRT2},{SQRT3}", "ms": "1,2",
     "lower_2": SQRT2, "d": "2", "n": "10", "h": "1,1"},
    {"command": "bounds", "bound": "linear", "q": "5", "h": "1", "n": "10",
     "alpha": "surd:bad"},
    {"command": "bounds", "bound": "reciprocal", "alpha": "surd:bad",
     "k": "10", "n": "10"},
    {"command": "count", "alphas": "liouville:base=2,rule=poly,tau=1/0",
     "ms": "1", "x": "10"},
], ids=["discrepancy_lower_constant", "weyl_lower_constant",
        "linear_bad_alpha", "reciprocal_bad_alpha", "liouville_tau_1_over_0"])
def test_invalid_specs_become_config_errors(raw):
    with pytest.raises(ConfigError):
        run_config(raw)


def test_main_rejects_unknown_subcommand(tmp_path):
    cfg = write_config(tmp_path, "command=count\n")
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--config", cfg])
    assert exc.value.code == 2
