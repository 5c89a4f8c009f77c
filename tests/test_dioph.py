"""Convergent ladders, approximation windows, and type estimation."""

import warnings
from fractions import Fraction

import mpmath
import pytest

from beattysieve.dioph import (
    ApproxWindow,
    Convergent,
    TypeEstimate,
    convergents,
    convergents_csv,
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


# --- approximation windows ------------------------------------------------------


def test_window_worked_example():
    w = find_window(sqrt2(), 12, Fraction(1, 2), "polynomial")
    assert (w.a, w.q) == (17, 12)
    assert w.Q == 12
    assert abs(w.lower - 12**0.5) < 1e-9
    assert w.satisfied


def test_window_picks_largest_denominator_inside():
    w = find_window(sqrt2(), 1000, Fraction(1, 2), "polynomial")
    assert w.q == 985
    assert isinstance(w, ApproxWindow)


def test_window_exponential_mode():
    w = find_window(sqrt2(), 1000, Fraction(1, 4), "exponential")
    assert w.q <= 1000
    assert w.satisfied in (True, False)


def test_window_rejects_bad_varpi():
    with pytest.raises(InvalidSpec):
        find_window(sqrt2(), 100, Fraction(3, 2), "polynomial")
    with pytest.raises(InvalidSpec):
        find_window(sqrt2(), 100, Fraction(1, 2), "nonsense")


def test_window_rejects_tiny_cap():
    with pytest.raises(InvalidSpec):
        find_window(golden_ratio(), 1, Fraction(1, 2), "polynomial")


def test_window_unsatisfied_is_reported_not_raised():
    # a window whose floor excludes every convergent still returns the
    # largest one, flagged unsatisfied (NoConvergent stays defensive)
    w = find_window(golden_ratio(), 2, Fraction(999, 1000), "polynomial")
    assert w.q <= 2
    assert isinstance(w.satisfied, bool)
    assert issubclass(NoConvergent, Exception)


# --- type estimation --------------------------------------------------------------


def test_type_estimates_frozen_regressions():
    est = estimate_type(sqrt2(), 10**6, "polynomial")
    assert est.mode == "polynomial"
    assert len(est.samples) == 14
    assert est.tau_hat == pytest.approx(1.1278716465997443, abs=1e-12)

    est = estimate_type(golden_ratio(), 10**6, "polynomial")
    assert est.tau_hat == pytest.approx(1.0697947988851213, abs=1e-12)


def test_type_estimate_liouville_polynomial():
    liou = LiouvilleSeries(2, "poly", Fraction(2), c1=2)
    est = estimate_type(liou, 10**6, "polynomial")
    assert est.tau_hat == pytest.approx(1.1933830923986344, abs=1e-12)
    qs = [q for q, _ in est.samples]
    assert qs == sorted(qs)


def test_type_estimate_exponential_mode():
    liou = LiouvilleSeries(2, "exp", Fraction(1, 2), c1=2)
    est = estimate_type(liou, 10**8, "exponential")
    assert est.mode == "exponential"
    assert est.tau_hat == pytest.approx(0.3443937243697489, abs=1e-12)


def test_type_estimate_needs_enough_ladder():
    with pytest.raises(InsufficientData):
        estimate_type(sqrt2(), 2, "polynomial")


def test_type_estimate_tau_near_one_for_bounded_type():
    # quadratic surds have bounded partial quotients: tau_hat -> 1
    for spec in (sqrt2(), sqrt3(), golden_ratio()):
        est = estimate_type(spec, 10**6, "polynomial")
        assert 1.0 <= est.tau_hat < 1.2


# --- CSV ---------------------------------------------------------------------------


def test_convergents_csv_columns():
    text = convergents_csv(convergents(sqrt2(), 100))
    lines = text.strip().splitlines()
    assert lines[0] == "index,a,q,log_ratio,quality_lo,quality_hi"
    first = lines[1].split(",")
    assert first[:3] == ["0", "1", "1"]
    assert len(lines) == 1 + 6  # header + ladder q = 1,2,5,12,29,70
