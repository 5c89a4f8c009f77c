"""Point sets, discrepancy (exact / lower / upper), exponential sums."""

import cmath
import hashlib
import math
import operator
import re
import struct
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattysieve.cli import report_csv, report_json, run_config
from beattysieve.counting import ProblemSpec
from beattysieve.dioph import convergents
from beattysieve.equidist import (
    _BOX_BUDGET,
    _BUDGET,
    _TABLE_CELLS,
    DiscrepancyReport,
    _distance_rows,
    _exact_floats,
    _float_down,
    _float_up,
    _half_lattice,
    _phases_for_poly,
    _sum_error,
    PointSet,
    WeylBoundReport,
    discrepancy_box_lower,
    discrepancy_exact_1d,
    discrepancy_report,
    et_koksma_upper,
    linear_bound,
    linear_sum_exact,
    monotone_check,
    nu_sequence,
    quadratic_bound,
    reciprocal_sum,
    weyl_bound_report,
    weyl_sum,
)
from beattysieve.errors import InvalidSpec, ResourceLimit
from beattysieve.realnum import (Rational, dist_nearest_ints, golden_ratio,
                                 parse_real, sqrt2, sqrt3)

from conftest import brute_extreme_discrepancy_1d

MP_PREC = 120          # oracle precision, set per test by conftest


# --- point sets ----------------------------------------------------------------


def test_point_set_validation():
    with pytest.raises(InvalidSpec):
        PointSet.synthetic([[0.5, 0.5], [0.2]], "ragged")
    with pytest.raises(InvalidSpec):
        PointSet.synthetic([[1.0]], "out-of-range")
    with pytest.raises(InvalidSpec):
        PointSet.synthetic([[-0.1]], "negative")


def test_point_set_is_read_only():
    ps = PointSet.synthetic([[0.25], [0.75]], "demo")
    with pytest.raises(ValueError):
        ps.points[0, 0] = 0.5


def test_nu_sequence_worked_values():
    # coordinates are {alpha_j d^(m_j - 1) n^(m_j)}: for d=2 and n=1,2
    # that is {sqrt2 n} and {2 sqrt3 n^2}
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    ps = nu_sequence(p, 2, 2)
    assert ps.dim == 2 and ps.N == 2
    want = [[math.sqrt(2) % 1, (2 * math.sqrt(3)) % 1],
            [(2 * math.sqrt(2)) % 1, (8 * math.sqrt(3)) % 1]]
    assert np.allclose(ps.points, want, atol=1e-12)
    assert ps.provenance["kind"] == "scaled_fracs"
    assert ps.provenance["d"] == 2


def test_nu_sequence_includes_lower_terms():
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2),
                    lower_terms=(None, ("1/2",)))
    # second coordinate becomes {sqrt3 n^2 + (1/2)/1} for d=1
    ps = nu_sequence(p, 1, 3)
    want = [(math.sqrt(3) * n * n + 0.5) % 1 for n in (1, 2, 3)]
    assert np.allclose(ps.points[:, 1], want, atol=1e-12)


# The stored doubles of two point sets and two phase lists, pinned by
# SHA-256: a change to how the kernel reaches a verdict may not move them.
_LOWER = ProblemSpec((sqrt2(), golden_ratio()), (1, 3),
                     lower_terms=((), ("1/2", sqrt3())))


@pytest.mark.parametrize("problem, d, digest, coord_error", [
    (ProblemSpec((sqrt2(), sqrt3()), (1, 2)), 3,
     "002950aad0f968815d218b358c267922aad4c78b3451c83b82d3551d384841f0",
     2.220988030395367e-16),
    (_LOWER, 2,
     "f33c87c22827629ecd6346d6609e71143b8837d3a5cccfca5a7dd753a9813cf1",
     2.220987620940964e-16),
], ids=["k2_d3", "lower_terms"])
def test_nu_sequence_doubles_are_pinned(problem, d, digest, coord_error):
    ps = nu_sequence(problem, d, 2000)
    assert hashlib.sha256(ps.points.tobytes()).hexdigest() == digest
    assert ps.coord_error == coord_error


@pytest.mark.parametrize("args, digest", [
    ((sqrt2(), 2, 3, 2000, ()),
     "7d8a47eaf25fd7479ab43341faffcfe5cb3f67e08c813d7daa84bdb31cc18546"),
    ((golden_ratio(), 3, 2, 2000, ("1/2", sqrt3())),
     "fac21a353494d234deac716e602df2a888fa42353b81080098198465f1714a45"),
], ids=["sqrt2_m2", "lower_terms"])
def test_phases_are_pinned(args, digest):
    phases = _phases_for_poly(*args)
    packed = struct.pack(f"<{len(phases)}d", *phases)
    assert hashlib.sha256(packed).hexdigest() == digest


# --- exact one-dimensional discrepancy ----------------------------------------------


def test_exact_1d_single_point():
    assert discrepancy_exact_1d(PointSet.synthetic([[0.3]], "one")) == 1


def test_exact_1d_centered_lattice():
    # dyadic n keeps (2i+1)/2n exactly representable: equality is exact
    for n in (1, 2, 8, 32):
        pts = [[(2 * i + 1) / (2 * n)] for i in range(n)]
        got = discrepancy_exact_1d(PointSet.synthetic(pts, "lattice"))
        assert got == Fraction(1, n)
    # non-dyadic coordinates round to doubles; exactness is then relative
    # to the stored doubles, within an ulp of 1/n
    got = discrepancy_exact_1d(PointSet.synthetic(
        [[(2 * i + 1) / 10] for i in range(5)], "lattice5"))
    assert abs(float(got) - 0.2) < 1e-15


def test_exact_1d_is_exact_fraction():
    ps = nu_sequence(ProblemSpec((sqrt2(),), (1,)), 1, 100)
    got = discrepancy_exact_1d(ps)
    assert isinstance(got, Fraction)
    assert 0 < got < 1


def test_exact_1d_agrees_with_quadratic_brute():
    rng = np.random.default_rng(7)
    for trial in range(8):
        n = int(rng.integers(3, 60))
        vals = rng.random(n)
        got = float(discrepancy_exact_1d(PointSet.synthetic(
            vals.reshape(-1, 1), f"rand{trial}")))
        brute = brute_extreme_discrepancy_1d(vals)
        assert abs(got - brute) < 1e-12


# dyadic grids give repeated values, all-equal sets and exact floats
_dyadic_sets = st.integers(0, 5).flatmap(lambda b: st.lists(
    st.integers(0, 2 ** b - 1).map(lambda i: i / 2 ** b),
    min_size=1, max_size=40))
_equal_sets = st.builds(lambda v, n: [v] * n,
                        st.floats(0, 1, exclude_max=True), st.integers(1, 40))
_float_sets = st.lists(st.floats(0, 1, exclude_max=True),
                       min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(vals=_dyadic_sets | _equal_sets | _float_sets)
def test_exact_1d_matches_the_brute_force_on_ties(vals):
    got = discrepancy_exact_1d(PointSet.synthetic(
        np.reshape(vals, (-1, 1)), "drawn"))
    assert float(got) == pytest.approx(
        brute_extreme_discrepancy_1d(np.asarray(vals)), abs=1e-12)


def oracle_exact_1d(values) -> Fraction:
    """The one-pass Fraction loop over every g_i = i - N x_i: the exact
    1-D discrepancy without the float screen."""
    vals = sorted(Fraction(v) for v in values)
    N = len(vals)
    gaps = (i - N * x for i, x in enumerate(vals, 1))
    top = bottom = next(gaps)
    for g in gaps:
        if g > top:
            top = g
        elif g < bottom:
            bottom = g
    return (1 + top - bottom) / N


def _clustered(center, spread, n, seed):
    vals = center + spread * np.random.default_rng(seed).random(n)
    return np.minimum(vals, np.nextafter(1.0, 0.0)).tolist()


def _lattice(n, ulps, seed):
    # (i-1)/N, where every g_i ties, moved up by at most `ulps` ulps each
    vals = np.arange(n) / n
    steps = np.random.default_rng(seed).integers(0, ulps + 1, n)
    return (vals + steps * np.spacing(vals)).tolist()


_uniform_sets = st.lists(st.floats(0, 1, exclude_max=True),
                         min_size=1, max_size=300)
_clustered_sets = st.builds(
    _clustered, st.floats(0, 0.99), st.sampled_from([0.0, 1e-9, 1e-3]),
    st.integers(1, 300), st.integers(0, 2**32 - 1))
_duplicated_sets = st.builds(
    lambda pool, picks: [pool[i % len(pool)] for i in picks],
    st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), min_size=1, max_size=300))
_near_zero_sets = st.lists(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
    | st.floats(0, 1e-300), min_size=1, max_size=300)
_lattice_sets = st.builds(_lattice, st.integers(1, 300), st.integers(0, 3),
                          st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(vals=_uniform_sets | _clustered_sets | _duplicated_sets
       | _near_zero_sets | _lattice_sets)
def test_exact_1d_screen_returns_the_exact_loops_fraction(vals):
    ps = PointSet.synthetic(np.reshape(vals, (-1, 1)), "drawn")
    assert discrepancy_exact_1d(ps) == oracle_exact_1d(vals)


# --- box lower bounds -----------------------------------------------------------------


def test_box_lower_dim1_equals_exact():
    ps = nu_sequence(ProblemSpec((golden_ratio(),), (1,)), 1, 64)
    exact = discrepancy_exact_1d(ps)
    box = discrepancy_box_lower(ps)
    assert box.value == pytest.approx(float(exact), abs=1e-12)


def test_box_lower_dim2_single_point():
    ps = PointSet.synthetic([[0.5, 0.5]], "corner")
    box = discrepancy_box_lower(ps)
    assert box.value == pytest.approx(0.75, abs=1e-12)
    assert box.boxes_checked == 9


def _exact_box_max(points) -> Fraction:
    """max |count/N - volume| in Fractions over every critical-grid
    corner: per axis each value v as b = v and as b = v+, and b = 1."""
    N = len(points)
    options = []
    for col in zip(*points):
        opts = [(Fraction(1), (1 << N) - 1)]
        for v in set(col):
            opts.append((Fraction(v), sum(1 << i for i, x in enumerate(col)
                                          if x < v)))
            opts.append((Fraction(v), sum(1 << i for i, x in enumerate(col)
                                          if x <= v)))
        options.append(opts)
    best = Fraction(0)
    for corner in product(*options):
        inside = reduce(operator.and_, (mask for _, mask in corner))
        volume = math.prod(v for v, _ in corner)
        best = max(best, abs(Fraction(inside.bit_count(), N) - volume))
    return best


@st.composite
def _grid_points(draw):
    """Up to 30 points in dimension 2 or 3: uniform draws, or values on a
    dyadic grid, where coordinates tie."""
    dim = draw(st.integers(2, 3))
    bits = draw(st.integers(0, 3))
    coord = draw(st.sampled_from([
        st.floats(0, 1, exclude_max=True),
        st.integers(0, 2 ** bits - 1).map(lambda i: i / 2 ** bits)]))
    return draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         min_size=1, max_size=30))


@settings(max_examples=150, deadline=None)
@given(points=_grid_points())
def test_box_lower_is_the_critical_grid_maximum_rounded_down(points):
    value = discrepancy_box_lower(PointSet.synthetic(points, "drawn")).value
    exact = _exact_box_max(points)
    assert Fraction(value) <= exact
    assert value >= float(exact) - 1e-15


def _unpruned_box_lower(points) -> tuple:
    """(value, boxes_checked) of a sweep that scores both sides of every
    cut, one point at a time: the reference the pruned sweep must match
    bit for bit."""
    ps = PointSet.synthetic(points, "reference")
    N, k = ps.N, ps.dim
    axes = [np.unique(col) for col in ps.points.T]
    s = max(range(k), key=lambda j: len(axes[j]))
    lo = [np.concatenate((vj[:1], vj)) for vj in axes]
    hi = [np.concatenate((vj, [1.0])) for vj in axes]
    ranks = [np.searchsorted(vj, col) for vj, col in zip(axes, ps.points.T)]
    order = np.argsort(ranks[s])
    others = np.column_stack([rj[order] + 1 for j, rj in enumerate(ranks)
                              if j != s])
    pieces = np.split(others, np.searchsorted(
        ranks[s], np.arange(len(axes[s])), sorter=order))
    table = np.zeros([len(vj) + 1 for j, vj in enumerate(axes) if j != s],
                     dtype=np.int64)
    best = -math.inf
    for c, piece in enumerate(pieces):
        for r in piece:
            table[tuple(slice(x, None) for x in r)] += 1
        below = table / N
        for vols, sign in ((lo, 1), (hi, -1)):
            dev = sign * (below - reduce(np.multiply.outer, [
                vj[c] if j == s else vj for j, vj in enumerate(vols)]))
            i = int(dev.argmax())
            if dev.flat[i] > best:
                cuts = np.insert(np.unravel_index(i, table.shape), s, c)
                vol = math.prod(Fraction(vj[cj]) for vj, cj in zip(vols, cuts))
                best = dev.flat[i]
                exact = sign * (Fraction(int(table.flat[i]), N) - vol)
    return _float_down(exact), math.prod(2 * len(vj) + 1 for vj in axes)


@st.composite
def _sweep_points(draw):
    """k = 2 sets of up to 150 points or k = 3 sets of up to 40; per axis
    uniform values or a dyadic grid, where values tie, so any axis can
    be the sweep axis; some sets repeat whole points."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 150 if dim == 2 else 40))
    cols = []
    for _ in range(dim):
        bits = draw(st.integers(0, 6))
        grid = st.integers(0, 2 ** bits - 1).map(lambda i, b=bits: i / 2 ** b)
        cols.append(draw(st.sampled_from([
            st.floats(0, 1, exclude_max=True), grid])))
    rows = draw(st.lists(st.tuples(*cols), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=n))
    return [list(rows[i]) for i in picks] or [list(r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(points=_sweep_points())
def test_box_lower_matches_the_unpruned_sweep_bit_for_bit(points):
    box = discrepancy_box_lower(PointSet.synthetic(points, "drawn"))
    assert (box.value, box.boxes_checked) == _unpruned_box_lower(points)
    assert 0 < box.stats.cuts_scored <= box.stats.cuts


def test_box_lower_skips_cuts_on_a_k2_nu_sequence():
    ps = nu_sequence(ProblemSpec((sqrt2(), sqrt3()), (1, 2)), 3, 2000)
    box = discrepancy_box_lower(ps)
    assert box.value == 0.020595532048465367        # the unpruned sweep's
    assert box.boxes_checked == 4001 ** 2
    assert box.stats.cuts == 2001
    assert box.stats.cuts_scored < box.stats.cuts


def test_box_lower_in_dimension_one_is_rounded_down():
    # rounded to nearest, the value sat above the exact discrepancy in
    # about two sets of five
    rng = np.random.default_rng(0)
    for trial in range(1000):
        vals = rng.random(int(rng.integers(1, 50)))
        ps = PointSet.synthetic(vals.reshape(-1, 1), f"rand{trial}")
        exact = discrepancy_exact_1d(ps)
        value = discrepancy_box_lower(ps).value
        assert Fraction(value) <= exact
        assert value == exact or math.nextafter(value, 1.0) > exact


def test_box_lower_budget_guard():
    # 25000 distinct values per axis: (2 * 25000 + 1)^2 boxes
    ps = PointSet.synthetic(np.random.default_rng(3).random((25000, 2)),
                            "past the budget")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit) as exc:
            discrepancy_box_lower(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20                   # refused before any table exists
    numbers = [int(s) for s in re.findall(r"\d+", str(exc.value))]
    assert 50001 ** 2 in numbers            # the boxes of the critical grid
    assert _BOX_BUDGET in numbers


# --- Erdos-Turan-Koksma upper bound ----------------------------------------------------


def test_et_upper_equispaced_closed_form():
    # points i/N have S_h = 0 for 0 < |h| < N: the bound collapses to
    # (3/2) * 2/(H+1), plus rounding terms far below 1e-9
    n, H = 64, 20
    ps = PointSet.synthetic([[i / n] for i in range(n)], "equi")
    rep = et_koksma_upper(ps, H)
    assert 3.0 / (H + 1) <= rep.et_upper <= 3.0 / (H + 1) + 1e-9
    assert float(discrepancy_exact_1d(ps)) <= rep.et_upper


def test_et_upper_dimension_two_defaults():
    ps = PointSet.synthetic([[0.1, 0.2], [0.6, 0.7]], "pair")
    rep = et_koksma_upper(ps, 3)
    assert len(rep.weyl_terms) == ((2 * 3 + 1) ** 2 - 1) // 2
    h, mag, r = rep.weyl_terms[0]
    assert len(h) == 2 and mag >= 0 and r >= 1
    # (3/2)^2 (2/(H+1) + sum over both members of each pair), each |S_h|
    # with its rounding term, in exact arithmetic
    err = Fraction(_sum_error(2, 2, 3))
    want = Fraction(9, 4) * (Fraction(1, 2) + sum(
        2 * (Fraction(m) + err) / (2 * r) for _, m, r in rep.weyl_terms))
    assert want <= Fraction(rep.et_upper) <= want * (1 + Fraction(1, 10**14))


def test_et_upper_budget_guard():
    # (2 * 2000 + 1)^2 - 1 frequencies pass the 8e6 limit
    ps = PointSet.synthetic([[0.1, 0.2]], "tiny")
    with pytest.raises(ResourceLimit) as exc:
        et_koksma_upper(ps, 2000)
    numbers = [int(s) for s in re.findall(r"\d+", str(exc.value))]
    assert 4001 ** 2 - 1 in numbers         # the nonzero frequencies
    assert 2 * _BUDGET in numbers


def test_et_upper_validates_h():
    ps = PointSet.synthetic([[0.1]], "tiny")
    with pytest.raises(InvalidSpec):
        et_koksma_upper(ps, 0)


def test_sandwich_report_validates_ordering():
    with pytest.raises(InvalidSpec):
        DiscrepancyReport(N=4, exact=0.5, box_lower=0.6, et_upper=0.4,
                          H=10, weyl_terms=())


def test_discrepancy_report_sandwich_on_real_data():
    ps = nu_sequence(ProblemSpec((sqrt2(),), (1,)), 3, 500)
    rep = discrepancy_report(ps, 20)
    assert rep.box_lower <= rep.exact <= rep.et_upper
    assert rep.exact == pytest.approx(
        float(discrepancy_exact_1d(ps)), abs=1e-15)


def test_discrepancy_report_scans_dimension_one_once(monkeypatch):
    from beattysieve import equidist
    ps = nu_sequence(ProblemSpec((sqrt2(),), (1,)), 3, 500)
    want = discrepancy_report(ps, 20)
    calls = []
    original = equidist.discrepancy_exact_1d

    def counted(values):
        calls.append(1)
        return original(values)

    monkeypatch.setattr(equidist, "discrepancy_exact_1d", counted)
    assert discrepancy_report(ps, 20) == want
    assert len(calls) == 1


def test_weyl_terms_csv_columns():
    alphas = f"{sqrt2().text()},{sqrt3().text()}"
    text = report_csv(run_config({"command": "discrepancy", "alphas": alphas,
                                  "ms": "1,2", "n": "2", "h": "2"}))
    lines = text.strip().splitlines()
    assert lines[0] == "h_1,h_2,magnitude,r_h"
    assert len(lines) == 1 + 12  # half of (5*5 - 1)


def test_discrepancy_report_json_round_trip():
    import json
    report = run_config({"command": "discrepancy", "alphas": sqrt2().text(),
                         "ms": "1", "n": "50", "h": "5"})
    blob = json.loads(report_json(report))["results"]
    assert blob["N"] == 50
    assert blob["box_lower"] <= blob["et_upper"]
    assert "C" not in blob


def _oracle_magnitude(ps, h):
    """|S_h| as a 120-bit sum over the stored doubles."""
    return abs(mpmath.fsum(
        mpmath.expjpi(2 * mpmath.fsum(c * mpmath.mpf(x)
                                      for c, x in zip(h, p)))
        for p in ps.points.tolist()))


def test_sum_error_covers_the_float_weyl_terms():
    # |S_h| through float64 against a 120-bit sum over the same doubles
    ps = nu_sequence(ProblemSpec((sqrt2(), sqrt3()), (1, 2)), 3, 2000)
    H = 20
    err = _sum_error(ps.N, 2, H)
    mags = {h: mag for h, mag, _ in et_koksma_upper(ps, H).weyl_terms}
    for h in ((0, 1), (1, -1), (7, 13), (20, -20), (20, 20)):
        assert abs(mags[h] - _oracle_magnitude(ps, h)) <= err
    assert err < 1e-8
    # k = 1: the highest powers of the repeated multiplication
    ps = nu_sequence(ProblemSpec((sqrt2(),), (1,)), 1, 3000)
    err = _sum_error(ps.N, 1, H)
    mags = {h: mag for h, mag, _ in et_koksma_upper(ps, H).weyl_terms}
    for h in ((1,), (19,), (20,)):
        assert abs(mags[h] - _oracle_magnitude(ps, h)) <= err
    assert err < 1e-8


def test_float_up_never_rounds_below():
    # the nearest double to 1/3 lies below it; 1/2 is a double
    assert Fraction(1 / 3) < Fraction(1, 3)
    up = _float_up(Fraction(1, 3))
    assert Fraction(up) >= Fraction(1, 3) and up == math.nextafter(1 / 3, 1)
    assert _float_up(Fraction(1, 2)) == 0.5


_unit = st.floats(0, 1, exclude_max=True)


@st.composite
def _drawn_points(draw, dim, max_n):
    """Uniform draws, or a cluster: every point within `spread` of one
    centre, modulo 1."""
    n = draw(st.integers(1, max_n))
    offsets = draw(st.lists(st.lists(_unit, min_size=dim, max_size=dim),
                            min_size=n, max_size=n))
    if draw(st.booleans()):
        centre = draw(st.lists(_unit, min_size=dim, max_size=dim))
        spread = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05]))
        offsets = [[(c + spread * o) % 1.0 for c, o in zip(centre, off)]
                   for off in offsets]
    return PointSet.synthetic(offsets, "drawn")


@settings(max_examples=150, deadline=None)
@given(ps=_drawn_points(1, 200), H=st.integers(1, 30))
def test_et_upper_bounds_the_exact_discrepancy_in_dimension_one(ps, H):
    upper = et_koksma_upper(ps, H).et_upper
    assert discrepancy_exact_1d(ps) <= Fraction(upper)


@settings(max_examples=100, deadline=None)
@given(ps=_drawn_points(2, 40), H=st.integers(1, 6))
def test_et_upper_bounds_the_box_discrepancy_in_dimension_two(ps, H):
    box = discrepancy_box_lower(ps)
    assert box.value <= et_koksma_upper(ps, H).et_upper


@settings(max_examples=60, deadline=None)
@given(ps=_drawn_points(3, 12), H=st.integers(1, 4))
def test_et_upper_bounds_the_box_discrepancy_in_dimension_three(ps, H):
    box = discrepancy_box_lower(ps)
    assert box.value <= et_koksma_upper(ps, H).et_upper


def test_discrepancy_report_sandwich_in_dimension_three():
    p = ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 3))
    ps = nu_sequence(p, 3, 200)
    rep = discrepancy_report(ps, 4)
    assert len(rep.weyl_terms) == (9 ** 3 - 1) // 2
    assert 0 < rep.box_lower <= rep.et_upper


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), H=st.integers(1, 6))
def test_weyl_terms_lie_within_the_rounding_budget(data, k, H):
    # every float |S_h| against a 120-bit sum over the same doubles, in
    # _half_lattice order
    ps = data.draw(_drawn_points(k, 60))
    terms = et_koksma_upper(ps, H).weyl_terms
    assert [h for h, _, _ in terms] == list(_half_lattice(k, H))
    err = _sum_error(ps.N, k, H)
    for h, mag, _ in terms:
        assert abs(mag - _oracle_magnitude(ps, h)) <= err


@pytest.mark.parametrize("k, N", [(1, 20000), (2, 2000)])
def test_et_upper_memory_stays_with_its_block_tables(k, N):
    # the per-block tables hold _TABLE_CELLS complex entries, whatever N;
    # the weyl_terms and the rest stay within 200 KB above them
    ps = PointSet.synthetic(np.random.default_rng(k).random((N, k)), "mem")
    H = 20
    tracemalloc.start()
    try:
        et_koksma_upper(ps, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * _TABLE_CELLS + 200_000


# --- Weyl sums -----------------------------------------------------------------------------


def test_weyl_sum_rational_geometric_series():
    # alpha = a/q exactly: sum_{n<=N} e(h a n / q) is a geometric series
    p = ProblemSpec.unchecked((Rational(3, 7),), (1,))
    for h, N in ((1, 50), (2, 35), (5, 99)):
        got = weyl_sum(p, 1, (h,), N)
        zeta = cmath.exp(2j * cmath.pi * 3 * h / 7)
        want = sum(zeta**n for n in range(1, N + 1))
        assert abs(got.value - want) < 1e-10 + got.error_bound
        assert abs(got) == pytest.approx(abs(want), abs=1e-9)


def test_weyl_sum_full_period_vanishes():
    p = ProblemSpec.unchecked((Rational(3, 7),), (1,))
    got = weyl_sum(p, 1, (1,), 700)
    assert abs(got) <= got.error_bound + 1e-12


def test_weyl_sum_error_budget_scales_with_n():
    p = ProblemSpec((sqrt2(),), (1,))
    s1 = weyl_sum(p, 1, (1,), 100)
    s2 = weyl_sum(p, 1, (1,), 1000)
    assert s2.error_bound == pytest.approx(10 * s1.error_bound)
    assert s1.error_bound < 1e-10


def test_weyl_sum_matches_point_set_phases():
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    ps = nu_sequence(p, 2, 400)
    for hvec in ((1, 0), (0, 1), (3, -2)):
        s = weyl_sum(p, 2, hvec, 400)
        phases = ps.points @ np.array(hvec, dtype=float)
        want = np.exp(2j * np.pi * phases).sum()
        assert abs(s.value - complex(want)) < 1e-8


def test_weyl_sum_needs_nonzero_frequency():
    p = ProblemSpec((sqrt2(),), (1,))
    with pytest.raises(InvalidSpec):
        weyl_sum(p, 1, (0,), 10)


# --- the Weyl inequality report -------------------------------------------------------------


def test_delta_worked_example_exact():
    # m=2, h=1, N=1000, q=29: delta = 1/29 + 1/1000 + 29/10^6 + 1/1000
    rep = weyl_bound_report(sqrt2(), 2, 1, 1000, q=29)
    want = (Fraction(1, 29) + Fraction(1, 1000) + Fraction(29, 10**6)
            + Fraction(1, 1000))
    assert rep.delta == want
    assert float(want) == pytest.approx(0.036512, abs=5e-7)


def test_delta_gcd_inflation():
    rep6 = weyl_bound_report(sqrt2(), 2, 6, 1000, q=12)
    assert rep6.delta == (Fraction(6, 12) + Fraction(1, 1000)
                          + Fraction(12, 10**6) + Fraction(6, 1000))


def test_report_defaults_to_largest_convergent():
    n = 500
    rep = weyl_bound_report(sqrt2(), 2, 1, n)
    best = max(c.q for c in convergents(sqrt2(), n))
    assert rep.q == best


def test_report_validates_delta_consistency():
    good = weyl_bound_report(sqrt2(), 2, 1, 100)
    with pytest.raises(InvalidSpec):
        WeylBoundReport(good.m, good.h, good.q, good.N,
                        good.delta + 1, good.bound_little_o, good.bound_log,
                        good.actual, good.ratio, good.eps,
                        good.sum_error_bound)


def test_bound_holds_on_quadratic_surds():
    for n in (100, 400):
        rep = weyl_bound_report(sqrt3(), 3, 1, n)
        assert rep.actual <= rep.bound_little_o
        assert rep.ratio == pytest.approx(rep.actual / rep.bound_little_o)


def test_lower_poly_shifts_phases_but_not_delta():
    # a constant offset only rotates the sum: |S| must be unchanged
    plain = weyl_bound_report(sqrt2(), 2, 1, 200)
    rotated = weyl_bound_report(sqrt2(), 2, 1, 200, lower_poly=("1/3",))
    assert plain.delta == rotated.delta
    assert plain.actual == pytest.approx(rotated.actual, abs=1e-9)
    # a degree-one term genuinely changes the phases
    sheared = weyl_bound_report(sqrt2(), 2, 1, 200, lower_poly=("0", "1/3"))
    assert abs(plain.actual - sheared.actual) > 1e-3


# --- linear sums -----------------------------------------------------------------------------


def test_linear_sum_certified_worked_value():
    chk = linear_sum_exact(sqrt2(), 3, 1000)
    assert chk.certified
    assert chk.cap == pytest.approx(2.0606601717, abs=1e-6)
    assert chk.actual <= chk.cap


def test_linear_sum_cap_is_min_with_n():
    # huge h makes ||h alpha|| small; the cap falls back to N
    chk = linear_sum_exact(sqrt2(), 5741, 10)
    assert chk.cap <= 10.0 + 1e-9
    assert chk.certified


def test_linear_bound_formula():
    assert linear_bound(12, 5, 100) == pytest.approx(5 * 100 / 12 + 12)


# --- quadratic sums ---------------------------------------------------------------------------


def test_quadratic_bound_holds_and_is_symmetric():
    a = quadratic_bound(sqrt2(), 3, 1, 300)
    b = quadratic_bound(sqrt2(), -3, 1, 300)
    assert a.ratio_sq < 16
    assert a.ratio_sq == pytest.approx(b.ratio_sq, rel=1e-9)
    assert a.actual == pytest.approx(b.actual, rel=1e-9)


def test_quadratic_bound_trivial_n1():
    rep = quadratic_bound(sqrt2(), 1, 1, 1)
    assert rep.actual == pytest.approx(1.0, abs=1e-9)
    assert float(rep.rhs) >= 1.0


def test_quadratic_bound_accepts_linear_offset_only():
    quadratic_bound(sqrt2(), 1, 1, 50, g=("1/2", "1/3"))
    with pytest.raises(InvalidSpec):
        quadratic_bound(sqrt2(), 1, 1, 50, g=("1/2", "1/3", "1/5"))


# --- reciprocal sums --------------------------------------------------------------------------


def test_reciprocal_sum_worked_value():
    rep = reciprocal_sum(sqrt2(), 2, 10)
    # 1/||sqrt2|| + 1/||2 sqrt2|| = 2.41421... + 5.82842... = 8.24264...
    assert float(rep.exact_sum) == pytest.approx(8.2426406871, abs=1e-6)
    assert rep.enclosure[0] <= rep.exact_sum <= rep.enclosure[1]


def test_reciprocal_sum_respects_caps():
    rep = reciprocal_sum(sqrt2(), 100, 2)
    # every term is min(2, 1/||nu alpha||) <= 2
    assert rep.exact_sum <= 2 * 100


def test_reciprocal_sum_default_q():
    rep = reciprocal_sum(sqrt2(), 1000, 10)
    assert rep.q == max(c.q for c in convergents(sqrt2(), 1000))
    lb = (10 + rep.q * math.log(rep.q)) * (1000 / rep.q + 1)
    assert rep.lemma_bound == pytest.approx(lb, rel=1e-12)



# --- exact sums of rationals ------------------------------------------------------------------


_SUM_SPECS = ["surd:(0+1*sqrt(2))/1", "surd:(0+1*sqrt(19))/1",
              "surd:(0+1*sqrt(94))/1", "surd:(1+1*sqrt(5))/2",
              "liouville:base=2,rule=poly,tau=2,c1=2,depth=8"]
# (exact_sum, enclosure) of reciprocal_sum at K = N = 3000 and (rhs,
# ratio_sq) of quadratic_bound at h = d = 1, N = 2000, as the exact
# Fraction sums gave them
_PINNED_SUMS = {
    _SUM_SPECS[0]: ((48419.819063073985, 48419.819063073985,
                     48419.819063073985),
                    (29873.086633325525, 0.028809365078036536)),
    _SUM_SPECS[1]: ((48004.047785104456, 48004.04778510445,
                     48004.047785104456),
                    (30950.675361228004, 0.009128219541588822)),
    _SUM_SPECS[2]: ((49805.37168436435, 49805.37168436435,
                     49805.37168436435),
                    (29849.591136622854, 0.03766199237540738)),
    _SUM_SPECS[3]: ((48618.408847607745, 48618.408847607745,
                     48618.408847607745),
                    (30898.018401063113, 0.07452991469413899)),
    _SUM_SPECS[4]: ((40539.96922481048, 40539.96922481048,
                     40539.96922481048),
                    (31135.936610620887, 0.031795709383742925)),
}


@pytest.mark.parametrize("text", _SUM_SPECS)
def test_reciprocal_and_quadratic_sums_are_pinned(text):
    (mid, lo, hi), (rhs, ratio_sq) = _PINNED_SUMS[text]
    rep = reciprocal_sum(text, 3000, 3000)
    assert (rep.exact_sum, rep.enclosure) == (mid, (lo, hi))
    quad = quadratic_bound(text, 1, 1, 2000)
    assert (quad.rhs, quad.ratio_sq) == (rhs, ratio_sq)


def _interval_rows(spec, scales, N, bits):
    """The distance rows read from reduced Interval ends, as Fractions."""
    def capped(dist):
        return Fraction(N) if dist == 0 else min(Fraction(N), 1 / dist)
    return [(capped(iv.hi), capped(iv.lo))
            for iv in dist_nearest_ints(spec, scales, bits=bits)]


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from([sqrt2(), golden_ratio(), Rational(22, 7),
                             parse_real(_SUM_SPECS[4])]),
       scales=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=20),
       N=st.integers(1, 10 ** 5), bits=st.sampled_from([48, 60]))
def test_distance_rows_equal_the_interval_route(spec, scales, N, bits):
    rows = _distance_rows(spec, scales, N, bits)
    got = [tuple(Fraction(*term) for term in row) for row in rows()]
    assert got == _interval_rows(spec, scales, N, bits)
    # the sums read the same terms as the reduced fractions
    def reduced():
        return [tuple((t.numerator, t.denominator) for t in row)
                for row in _interval_rows(spec, scales, N, bits)]
    assert _exact_floats(rows) == _exact_floats(reduced)


def test_distance_rows_at_distance_zero_and_at_the_cap():
    # ||22/7 * 7|| = 0 reads N; ||22/7|| = 1/7, within 2^-48, caps at
    # N = 5 but not at 100
    spec = Rational(22, 7)
    rows = _distance_rows(spec, [7, 1], 5, 48)
    got = [tuple(Fraction(*t) for t in row) for row in rows()]
    assert got == [(5, 5), (5, 5)] == _interval_rows(spec, [7, 1], 5, 48)
    rows = _distance_rows(spec, [7, 1], 100, 48)
    got = [tuple(Fraction(*t) for t in row) for row in rows()]
    assert got == _interval_rows(spec, [7, 1], 100, 48)
    assert got[0] == (100, 100)
    assert all(abs(end - 7) < Fraction(1, 2 ** 40) for end in got[1])


def test_distance_rows_keep_the_interval_checks(monkeypatch):
    from beattysieve import equidist
    for ends, message in [((3, 2, 1 << 64, 8), "out of order"),
                          ((0, 1 << 60, 1 << 64, 8), "wider than"),
                          ((0, 1, 1 << 64, 0), "precision_bits")]:
        monkeypatch.setattr(equidist, "_distance_ends",
                            lambda spec, scales, bits, e=ends: iter([e]))
        with pytest.raises(InvalidSpec, match=message):
            list(_distance_rows(sqrt2(), [1], 10, 48)())


# nonnegative rationals whose denominators are not powers of two, so no
# term is exact at the 2^-128 scale of the brackets
_non_dyadic = st.builds(
    Fraction, st.integers(0, 10 ** 40),
    st.integers(1, 10 ** 30).map(lambda d: 2 * d + 1)
    | st.integers(1, 10 ** 6).map(lambda d: 3 * d << 150))


@settings(max_examples=250, deadline=None)
@given(terms=st.lists(_non_dyadic, min_size=1, max_size=30))
def test_exact_floats_round_the_exact_sum(terms):
    rows = [((t.numerator, t.denominator), (3 * t.numerator, t.denominator))
            for t in terms]
    total = sum(terms)
    (one, three, mean), read, _ = _exact_floats(lambda: iter(rows))
    assert read in (len(rows), 2 * len(rows))
    assert (one, three, mean) == (float(total), float(3 * total),
                                  float(2 * total))


def test_exact_floats_fall_back_on_a_half_ulp_tie():
    # 1 + 2^-53 is halfway between 1 and the next double, and rounds to
    # even, 1.0; the bracket's two ends round to different doubles
    y = Fraction(1, 3 << 140)
    terms = [1 + Fraction(1, 1 << 53) - y, y]
    (value, _), read, fallback = _exact_floats(
        lambda: [((t.numerator, t.denominator),) for t in terms])
    assert fallback and read == 4
    assert value == 1.0 == float(sum(terms))

# --- monotone step conditions -----------------------------------------------------------------


def test_monotone_check_worked_values():
    # v >= u^2 makes the u-over-v steps hold
    assert monotone_check(2, 4, 6, "u_over_v")
    assert monotone_check(3, 9, 8, "u_over_v")
    # the often-quoted unconditional claim is false: u=2, v=3, M=6
    assert not monotone_check(2, 3, 6, "u_over_v")
    # v^M <= u makes the v-over-u steps hold
    assert monotone_check(2**6, 2, 6, "v_over_u")
    assert monotone_check(3**5 + 1, 3, 5, "v_over_u")


def test_monotone_check_validation():
    for variant in ("sideways", "lemma28", "lemma29"):
        with pytest.raises(InvalidSpec):
            monotone_check(2, 4, 6, variant)
    with pytest.raises(InvalidSpec):
        monotone_check(2, 4, 1, "u_over_v")
    with pytest.raises(InvalidSpec):
        monotone_check(0, 4, 6, "u_over_v")
    with pytest.raises(InvalidSpec):
        monotone_check(2, Fraction(1, 2), 6, "u_over_v")  # v < 1
    with pytest.raises(InvalidSpec):
        monotone_check(2, 0.5, 6, "u_over_v")  # floats refused
    assert monotone_check(99, 1, 2, "u_over_v")  # no steps: vacuous truth


# --- serializers ------------------------------------------------------------------------------


def test_weyl_bound_payload_keys():
    payload = run_config({"command": "bounds", "bound": "poly_sum",
                          "alpha": sqrt2().text(), "m": "2", "h": "1",
                          "n": "100"})["results"]
    for key in ("m", "h", "q", "N", "delta", "delta_float",
                "bound_little_o", "bound_log", "actual", "ratio",
                "eps_heuristic", "sum_error_bound"):
        assert key in payload
