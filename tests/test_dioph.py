"""Convergent ladders and their qualities, outward decimal ends,
approximation windows, and type estimation."""

import hashlib
import math
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattysieve.cli import payload_bytes, report_csv, run_config
from beattysieve.dioph import (
    ApproxWindow,
    Convergent,
    TypeEstimate,
    _ladder,
    convergents,
    estimate_type,
    find_window,
    outward_decimal,
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
    Interval,
    LiouvilleSeries,
    QuadraticSurd,
    Rational,
    _unit_form,
    dist_nearest_ints,
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
        Convergent(good.index, good.a * 2, good.q * 2, good.ends)
    with pytest.raises(InvalidSpec):
        Convergent(0, 1, 0, good.ends)


def test_convergent_refuses_malformed_ends():
    good = convergents(sqrt2(), 100)[2]
    d_lo, d_hi, unit, bits = good.ends
    assert Convergent(good.index, good.a, good.q, good.ends) == good
    for ends in ((d_lo, d_hi, 3 * unit, bits),        # not a power of two
                 (d_lo, d_hi, 0, bits),
                 (-1, d_hi, unit, bits),               # below 0
                 (d_hi, d_lo, unit, bits),             # out of order
                 (d_lo, unit // 2 + 1, unit, bits),    # past 1/2
                 (d_lo, d_hi, unit, 0),
                 (0, unit // 2, unit, bits)):          # wider than bits
        with pytest.raises(InvalidSpec):
            Convergent(good.index, good.a, good.q, ends)


def _reference_ends(spec, q, bits):
    """The distance verdict as the package computed it before it went to
    masks and shifts, on the same brackets: `%`, `//` and a ceiling
    division over unit = 2^pe."""
    form = _unit_form(spec)
    cap = form._cap

    def verdict(lo, hi, pe):
        unit = 1 << pe
        half = unit >> 1
        tight = hi - lo <= unit >> min(bits + 1, pe - 1)
        if not tight and (cap is None or pe < cap):
            return None
        d_lo_end = min(lo % unit, unit - lo % unit)
        d_hi_end = min(hi % unit, unit - hi % unit)
        int_inside = -(-lo // unit) * unit <= hi
        a, b = -(-lo // half), hi // half
        half_inside = b >= a and (a % 2 != 0 or b > a)
        d_lo = 0 if int_inside else min(d_lo_end, d_hi_end)
        d_hi = half if half_inside else max(d_lo_end, d_hi_end)
        pb = min(bits, pe - 1) if tight else \
            min(bits, pe + 1 - (hi - lo).bit_length())
        return None if pb < 1 else (d_lo, d_hi, unit, pb)

    def start(s):
        return max(form._start(s), bits + s.bit_length() + 2)
    return next(form._decide((q,), start, "distance", verdict))


def _assert_reference_qualities(spec, max_q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalTerminated)
        rows = convergents(spec, max_q)
    assert rows
    for c in rows:
        bits = max(48, 2 * c.q.bit_length() + 8)
        d_lo, d_hi, unit, pb = c.ends
        assert c.ends == _reference_ends(spec, c.q, bits)
        assert c.quality == next(dist_nearest_ints(spec, (c.q,), bits=bits))
        assert c.quality == Interval(Fraction(d_lo, unit),
                                     Fraction(d_hi, unit), pb)
    return rows


@settings(max_examples=40, deadline=None)
@given(a=st.integers(-60, 60), b=st.integers(-25, 25).filter(bool),
       d=st.integers(2, 300).filter(lambda d: math.isqrt(d) ** 2 != d),
       c=st.integers(1, 40), digits=st.integers(1, 120))
def test_surd_qualities_match_the_reference_verdict(a, b, d, c, digits):
    _assert_reference_qualities(QuadraticSurd(a, b, d, c), 10 ** digits)


@pytest.mark.parametrize("spec, digits", [
    (LiouvilleSeries(2, "poly", Fraction(2), c1=2), 120),
    (LiouvilleSeries(2, "poly", Fraction(3, 2), c1=2), 300),
    (LiouvilleSeries(3, "poly", Fraction(5, 2), c1=1), 80),
    (LiouvilleSeries(2, "exp", Fraction(1, 2), c1=2), 60),
    (LiouvilleSeries(3, "exp", Fraction(1, 3), c1=3), 40),
    (Rational(355, 113), 6),
    (Rational(-13, 8), 6),
    (Rational(5, 16), 6),
    (DecimalLiteral("3.14159265358979323846264338327950288419716939937510",
                    50), 15),
], ids=lambda v: v.text() if hasattr(v, "text") else f"1e{v}")
def test_series_and_exact_qualities_match_the_reference_verdict(spec, digits):
    _assert_reference_qualities(spec, 10 ** digits)


def test_decimal_literal_capped_quality_matches_the_reference_verdict():
    # the last row stops at the literal's cap, short of the 48 bits asked
    rows = _assert_reference_qualities(DecimalLiteral("1.41421356", 8), 100)
    assert 1 <= rows[-1].quality.precision_bits < 48


@pytest.mark.parametrize("alpha, mode, digest", [
    ("surd:(0+1*sqrt(22))/1", "poly",
     "0e7b9987038b11f6eae1db6e5002817e057fe811807ea3de05e41bc82be92d0b"),
    ("liouville:base=2,rule=poly,tau=3/2,c1=2,depth=8", "exp",
     "95dddd1a366b44d0cda35bebbfbee331516d863ad325b2dcff1ddc460556a2d6"),
])
def test_dioph_payload_bytes_are_pinned(alpha, mode, digest):
    # digests of the reports rendered by Decimal division of Interval
    # ends; the integer rendering must reproduce them byte for byte
    report = run_config({"command": "dioph", "alpha": alpha,
                         "max_q": "1" + "0" * 300, "mode": mode})
    assert hashlib.sha256(payload_bytes(report)).hexdigest() == digest


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


# --- outward decimal ends ----------------------------------------------------


def _decimal_oracle(num, unit, up):
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 20, ROUND_CEILING if up else ROUND_FLOOR
        return str(Decimal(num) / unit)


@pytest.mark.parametrize("num, pe, down, up", [
    (0, 0, "0", "0"),
    (0, 3000, "0", "0"),
    (1, 1, "0.5", "0.5"),
    (1 << 2999, 3000, "0.5", "0.5"),
    (1, 12, "0.000244140625", "0.000244140625"),
    (20481, 16, "0.3125152587890625", "0.3125152587890625"),
    (3, 0, "3", "3"),
    # just below 1: the round-up carries to 10^20 and the next exponent
    ((1 << 80) - 1, 80, "0.99999999999999999999", "1.0000000000000000000"),
    # exact, but 26 digits long: all 20 digits print, at exponent 6
    (10 ** 25, 0, "1.0000000000000000000E+25", "1.0000000000000000000E+25"),
    (1, 3, "0.125", "0.125"),
    (2, 3, "0.25", "0.25"),
    (1, 2, "0.25", "0.25"),
    (7, 4, "0.4375", "0.4375"),
    (1, 64, "5.4210108624275221700E-20", "5.4210108624275221701E-20"),
    # inexact ends above a tenth, the second from a 3000-bit numerator
    (0x6A09E667F3BCC908B2FB1366EA957D3E, 129,
     "0.20710678118654752440", "0.20710678118654752441"),
    ((1 << 3000) // 3, 3001, "0.16666666666666666666",
     "0.16666666666666666667"),
])
def test_outward_decimal_pinned(num, pe, down, up):
    assert outward_decimal(num, 1 << pe, False) == down
    assert outward_decimal(num, 1 << pe, True) == up
    assert (down, up) == (_decimal_oracle(num, 1 << pe, False),
                          _decimal_oracle(num, 1 << pe, True))


@settings(max_examples=400, deadline=None)
@given(num=st.integers(0, 1 << 4000), pe=st.integers(0, 4000),
       up=st.booleans())
def test_outward_decimal_matches_decimal(num, pe, up):
    assert outward_decimal(num, 1 << pe, up) == _decimal_oracle(num, 1 << pe,
                                                                up)


@settings(max_examples=200, deadline=None)
@given(power=st.integers(0, 40), pe=st.integers(0, 300),
       gap=st.integers(1, 1 << 20), up=st.booleans())
def test_outward_decimal_matches_decimal_below_powers_of_ten(power, pe, gap,
                                                             up):
    # just under 10^power, where rounding up carries into a new digit
    num = max((10 ** power << pe) - gap, 0)
    assert outward_decimal(num, 1 << pe, up) == _decimal_oracle(num, 1 << pe,
                                                                up)


@pytest.mark.parametrize("num, unit", [(-1, 2), (1, 0), (1, 3), (5, 96)])
def test_outward_decimal_refuses_what_it_cannot_render(num, unit):
    with pytest.raises(ValueError):
        outward_decimal(num, unit, False)


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
