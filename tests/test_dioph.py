"""Convergent ladders, approximation windows, and type estimation."""

import math
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattysieve.cli import report_csv, run_config
from beattysieve.dioph import (
    ApproxWindow,
    Convergent,
    TypeEstimate,
    _ladder,
    convergents,
    estimate_type,
    find_window,
)
from beattysieve.errors import (
    InsufficientData,
    InvalidSpec,
    NoConvergent,
    PrecisionExhausted,
    RationalTerminated,
)
from beattysieve.realnum import (
    DecimalLiteral,
    LiouvilleSeries,
    Rational,
    golden_ratio,
    parse_real,
    sqrt2,
    sqrt3,
)

MP_PREC = 300          # oracle precision, set per test by conftest


# --- convergent ladders -------------------------------------------------------


def test_sqrt2_ladder_prefix():
    rows = convergents(sqrt2(), 10**4)
    got = [(c.a, c.q) for c in rows[:5]]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    assert [c.q for c in rows] == [1, 2, 5, 12, 29, 70, 169, 408,
                                   985, 2378, 5741]


def test_quality_encloses_true_distance():
    for spec, alpha in ((sqrt2(), mpmath.sqrt(2)),
                        (sqrt3(), mpmath.sqrt(3)),
                        (golden_ratio(), (1 + mpmath.sqrt(5)) / 2)):
        for c in convergents(spec, 10**4):
            true = abs(alpha * c.q - mpmath.nint(alpha * c.q))
            assert float(c.quality.lo) - 1e-30 <= float(true) \
                <= float(c.quality.hi) + 1e-30
            # convergents beat 1/q: |q*alpha - a| < 1/q
            assert c.quality.hi < Fraction(1, c.q)


def test_convergent_indices_and_lowest_terms():
    rows = convergents(golden_ratio(), 1000)
    assert [c.index for c in rows] == list(range(len(rows)))
    # golden ratio = [1; 1, 1, ...]: Fibonacci denominators, and of the
    # two q = 1 candidates only the better one (2/1) is kept
    assert [c.q for c in rows] == [1, 2, 3, 5, 8, 13, 21, 34, 55,
                                   89, 144, 233, 377, 610, 987]
    assert [c.a for c in rows[:4]] == [2, 3, 5, 8]
    qs = [c.q for c in rows]
    assert qs == sorted(set(qs))  # strictly increasing, no duplicates


def test_rational_ladder_terminates_with_warning():
    with pytest.warns(RationalTerminated):
        rows = convergents(Rational(22, 7), 10**6)
    assert rows[-1].a == 22 and rows[-1].q == 7
    assert rows[-1].quality.lo == 0


def test_convergent_validation():
    good = convergents(sqrt2(), 100)[2]
    with pytest.raises(InvalidSpec):
        Convergent(good.index, good.a * 2, good.q * 2, good.quality)
    with pytest.raises(InvalidSpec):
        Convergent(0, 1, 0, good.quality)


def test_liouville_ladder_has_giant_jumps():
    liou = LiouvilleSeries(2, "poly", Fraction(2), c1=2)
    qs = [c.q for c in convergents(liou, 10**5)]
    # the series engineers quotient explosions: a gap beyond ratio 100
    jumps = [b / a for a, b in zip(qs, qs[1:])]
    assert max(jumps) > 100


def test_decimal_literal_ladder_stops_honestly():
    lit = DecimalLiteral("1.41421356", 8)
    rows = convergents(lit, 10**2)  # certifiable from 8 digits
    assert [c.q for c in rows] == [1, 2, 5, 12, 29, 70]
    # qualities degrade to what the digits support, visibly
    assert 1 <= rows[-1].quality.precision_bits < 48
    with pytest.raises(PrecisionExhausted):
        convergents(lit, 10**9)


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.integers(1, 10**6), min_size=1, max_size=30),
       a0=st.integers(-10**6, 10**6))
def test_ladder_pairs_are_the_convergents(terms, a0):
    terms = [a0] + terms
    for j, (p, q) in enumerate(_ladder(terms)):
        value = Fraction(terms[j])
        for a in reversed(terms[:j]):
            value = a + 1 / value
        assert Fraction(p, q) == value
        assert q >= 1 and math.gcd(p, q) == 1
    assert j == len(terms) - 1


# --- approximation windows ------------------------------------------------------


def test_window_worked_example():
    w = find_window(convergents(sqrt2(), 12), 12, Fraction(1, 2),
                    "polynomial")
    assert (w.a, w.q) == (17, 12)
    assert w.Q == 12
    assert abs(w.lower - 12**0.5) < 1e-9
    assert w.satisfied


def test_window_picks_largest_denominator_inside():
    ladder = convergents(sqrt2(), 1000)
    w = find_window(ladder, 1000, Fraction(1, 2), "polynomial")
    assert w.q == 985
    assert isinstance(w, ApproxWindow)


def test_window_exponential_mode():
    ladder = convergents(sqrt2(), 1000)
    w = find_window(ladder, 1000, Fraction(1, 4), "exponential")
    assert w.q <= 1000
    assert w.satisfied in (True, False)


def test_window_rejects_bad_varpi():
    ladder = convergents(sqrt2(), 100)
    with pytest.raises(InvalidSpec):
        find_window(ladder, 100, Fraction(3, 2), "polynomial")
    with pytest.raises(InvalidSpec):
        find_window(ladder, 100, Fraction(1, 2), "nonsense")


def test_window_rejects_tiny_cap():
    with pytest.raises(InvalidSpec):
        find_window(convergents(golden_ratio(), 1), 1, Fraction(1, 2),
                    "polynomial")


def test_window_unsatisfied_is_reported_not_raised():
    # a window whose floor excludes every convergent still returns the
    # largest one, flagged unsatisfied (NoConvergent stays defensive)
    w = find_window(convergents(golden_ratio(), 2), 2, Fraction(999, 1000),
                    "polynomial")
    assert w.q <= 2
    assert isinstance(w.satisfied, bool)
    assert issubclass(NoConvergent, Exception)


@pytest.mark.parametrize("alpha", [
    "surd:(0+1*sqrt(2))/1", "surd:(1+1*sqrt(5))/2", "surd:(0+-1*sqrt(26))/1",
    "rat:22/7", "rat:355/113", "rat:-13/8",
])
def test_window_and_type_ignore_the_ladder_cap(alpha):
    # a ladder built to any cap >= Q gives the window and the estimate
    # of the ladder built to Q itself
    spec = parse_real(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalTerminated)
        ladders = {cap: convergents(spec, cap)
                   for cap in (30, 31, 100, 113, 5000, 10**6)}
    for Q, mode, varpi in ((30, "polynomial", 0.5),
                           (113, "exponential", 0.25),
                           (5000, "polynomial", 0.3)):
        tops = [ladder for cap, ladder in ladders.items() if cap >= Q]
        windows = {find_window(ladder, Q, varpi, mode) for ladder in tops}
        assert len(windows) == 1
        estimates = set()
        for ladder in tops:
            try:
                est = estimate_type(ladder, Q, mode)
                estimates.add((est.tau_hat, est.samples, est.mode))
            except InsufficientData as exc:
                estimates.add(str(exc))
        assert len(estimates) == 1


# --- type estimation --------------------------------------------------------------


def test_type_estimates_frozen_regressions():
    est = estimate_type(convergents(sqrt2(), 10**6), 10**6, "polynomial")
    assert est.mode == "polynomial"
    assert len(est.samples) == 14
    assert est.tau_hat == pytest.approx(1.1278716465997443, abs=1e-12)

    est = estimate_type(convergents(golden_ratio(), 10**6), 10**6,
                        "polynomial")
    assert est.tau_hat == pytest.approx(1.0697947988851213, abs=1e-12)


def test_type_estimate_liouville_polynomial():
    liou = LiouvilleSeries(2, "poly", Fraction(2), c1=2)
    est = estimate_type(convergents(liou, 10**6), 10**6, "polynomial")
    assert est.tau_hat == pytest.approx(1.1933830923986344, abs=1e-12)
    qs = [q for q, _ in est.samples]
    assert qs == sorted(qs)


def test_type_estimate_exponential_mode():
    liou = LiouvilleSeries(2, "exp", Fraction(1, 2), c1=2)
    est = estimate_type(convergents(liou, 10**8), 10**8, "exponential")
    assert est.mode == "exponential"
    assert est.tau_hat == pytest.approx(0.3443937243697489, abs=1e-12)


def test_type_estimate_needs_enough_ladder():
    with pytest.raises(InsufficientData,
                       match="^need at least 3 convergents below 2, "
                             "found 2$"):
        estimate_type(convergents(sqrt2(), 2), 2, "polynomial")
    with pytest.raises(InvalidSpec):
        estimate_type(convergents(sqrt2(), 100), 100, "nonsense")


def test_type_estimate_tau_near_one_for_bounded_type():
    # quadratic surds have bounded partial quotients: tau_hat -> 1
    for spec in (sqrt2(), sqrt3(), golden_ratio()):
        est = estimate_type(convergents(spec, 10**6), 10**6, "polynomial")
        assert 1.0 <= est.tau_hat < 1.2


# --- CSV ---------------------------------------------------------------------------


def test_convergents_csv_columns():
    text = report_csv(run_config({"command": "dioph", "alpha": sqrt2().text(),
                                  "max_q": "100"}))
    lines = text.strip().splitlines()
    assert lines[0] == "index,a,q,log_ratio,quality_lo,quality_hi"
    first = lines[1].split(",")
    assert first[:3] == ["0", "1", "1"]
    assert len(lines) == 1 + 6  # header + ladder q = 1,2,5,12,29,70
