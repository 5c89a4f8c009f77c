"""Certified real arithmetic: enclosures, floors, fractional parts."""

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beattysieve.errors import InvalidSpec, PrecisionExhausted
from beattysieve.realnum import (
    _SCREEN_T,
    DEFAULT_MAX_BITS,
    DecimalLiteral,
    FiniteCF,
    Interval,
    LinearForm,
    LiouvilleSeries,
    QuadraticSurd,
    Rational,
    _exact_unit,
    _fixed_sum,
    _frac_unit,
    _iroot,
    _phase_frac,
    _screen,
    _words,
    as_spec,
    dist_nearest_ints,
    eval_enclosure,
    floor_scaled,
    golden_ratio,
    parse_real,
    sqrt2,
    sqrt3,
)

MP_PREC = 300          # oracle precision, set per test by conftest


def mp_fraction(value: "mpmath.mpf") -> Fraction:
    """Rational within 1e-60 of an mpmath value (for enclosure checks)."""
    return Fraction(mpmath.nstr(value, 60, strip_zeros=False))


# --- Interval ----------------------------------------------------------------


def test_interval_requires_dyadic_endpoints():
    with pytest.raises(InvalidSpec):
        Interval(Fraction(1, 3), Fraction(1, 2), 4)


def test_interval_rejects_disordered_and_wide():
    with pytest.raises(InvalidSpec):
        Interval(Fraction(1, 2), Fraction(1, 4), 4)
    with pytest.raises(InvalidSpec):
        Interval(Fraction(0), Fraction(1, 2), 8)  # wider than 2**-7


def _interval_error(lo, hi, p):
    """The validation Interval makes, in Fraction arithmetic: the start
    of the message it raises, or None when the interval is valid."""
    for end in (lo, hi):
        d = end.denominator
        if d & (d - 1):
            return "interval endpoint"
    if lo > hi:
        return "interval endpoints out of order"
    if p < 1:
        return "precision_bits must be >= 1"
    if hi - lo > Fraction(2) ** (1 - p) * max(1, abs(lo)):
        return "interval wider than its stated precision"
    return None


def _check_interval(lo, hi, p):
    want = _interval_error(lo, hi, p)
    if want is None:
        assert Interval(lo, hi, p).width == hi - lo
    else:
        with pytest.raises(InvalidSpec, match=f"^{want}"):
            Interval(lo, hi, p)


@pytest.mark.parametrize("lo, hi, p", [
    (Fraction(-3, 4), Fraction(-1, 2), 3),               # negative, at bound
    (Fraction(-3, 4), Fraction(-1, 2), 4),
    (Fraction(0), Fraction(0), 1),                       # zero, equal
    (Fraction(5, 8), Fraction(5, 8), 60),                # equal endpoints
    (Fraction(-5), Fraction(-5) + Fraction(5, 2**9), 10),   # exactly at bound
    (Fraction(-5), Fraction(-5) + Fraction(5, 2**9) + Fraction(1, 2**40), 10),
    (Fraction(3, 2**70), Fraction(3, 2**70) + Fraction(1, 2**63), 64),
    (Fraction(3, 2**70), Fraction(3, 2**70) + Fraction(1, 2**62), 64),
    (Fraction(1, 3), Fraction(1, 2), 4),                 # non-dyadic ends
    (Fraction(1, 2), Fraction(2, 3), 4),
    (Fraction(1, 2), Fraction(1, 4), 4),
    (Fraction(1, 4), Fraction(1, 2), 0),
])
def test_interval_validation_cases(lo, hi, p):
    _check_interval(lo, hi, p)


_dyadics = st.builds(lambda n, e: Fraction(n, 1 << e),
                     st.integers(-8, 8) | st.integers(-2**80, 2**80),
                     st.integers(0, 90))


@settings(max_examples=400, deadline=None)
@given(lo=_dyadics, p=st.integers(0, 100), step=st.sampled_from([-1, 0, 1]),
       k=st.integers(0, 200), other=_dyadics, near=st.booleans())
def test_interval_validation_matches_the_fraction_formula(lo, p, step, k,
                                                          other, near):
    if near:    # a width at the bound, or one 2^-k step either side of it
        bound = Fraction(2) ** (1 - max(p, 1)) * max(1, abs(lo))
        hi = lo + bound + step * Fraction(1, 1 << k)
    else:
        hi = other
    _check_interval(lo, hi, p)


def test_interval_geometry():
    iv = Interval(Fraction(3, 8), Fraction(7, 16), 3)
    assert iv.width == Fraction(1, 16)
    assert iv.midpoint() == Fraction(13, 32)
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(1, 2))


# --- enclosures over every variant -------------------------------------------


with mpmath.workprec(MP_PREC):      # the values keep this precision
    _TRUE_VALUES = [
        (sqrt2(), mpmath.sqrt(2)),
        (sqrt3(), mpmath.sqrt(3)),
        (golden_ratio(), (1 + mpmath.sqrt(5)) / 2),
        (QuadraticSurd(-3, 2, 7, 5), (-3 + 2 * mpmath.sqrt(7)) / 5),
        (Rational(355, 113), mpmath.mpf(355) / 113),
    ]


@pytest.mark.parametrize("spec, value", _TRUE_VALUES)
def test_enclosure_contains_true_value(spec, value):
    slack = Fraction(1, 10**55)  # decimal-conversion fuzz, far below width
    for bits in (8, 53, 150):
        iv = eval_enclosure(spec, bits)
        true = mp_fraction(value)
        assert iv.lo - slack <= true <= iv.hi + slack
        assert iv.width <= Fraction(2) ** (1 - bits) * max(1, abs(iv.lo))


def test_enclosure_tightens_with_bits():
    w1 = eval_enclosure(sqrt2(), 20).width
    w2 = eval_enclosure(sqrt2(), 80).width
    assert w2 < w1 * Fraction(1, 2**50)


def test_finite_cf_equals_its_rational():
    cf = FiniteCF((1, 2, 2, 2))
    assert cf.exact() == Fraction(17, 12)
    iv = eval_enclosure(cf, 40)
    assert iv.contains(Fraction(17, 12))


def test_liouville_partial_sums_bracketed():
    # schedule for tau=2, c1=2: exponents 2, 4, 16, 256, ...
    liou = LiouvilleSeries(2, "poly", Fraction(2), c1=2)
    partial = Fraction(1, 4) + Fraction(1, 16) + Fraction(1, 2**16)
    tail_hi = partial + Fraction(2, 2**256)
    iv = eval_enclosure(liou, 100)
    assert iv.lo <= partial + Fraction(1, 2**256) <= iv.hi
    assert iv.hi <= tail_hi + iv.width


def test_sqrt2_digits_against_mpmath():
    iv = eval_enclosure(sqrt2(), 200)
    mid = float(iv.midpoint())
    assert abs(mid - float(mpmath.sqrt(2))) < 1e-15


# --- stated-precision honesty -------------------------------------------------


def test_decimal_literal_refuses_overreach():
    lit = DecimalLiteral("1.41421356", 8)
    assert eval_enclosure(lit, 20).contains(Fraction("1.41421356"))
    with pytest.raises(PrecisionExhausted):
        eval_enclosure(lit, 64)


def test_decimal_literal_validates_stated_digits():
    with pytest.raises(InvalidSpec):
        DecimalLiteral("1.41", 5)  # claims more digits than supplied
    with pytest.raises(InvalidSpec):
        DecimalLiteral("not-a-number", 2)


def test_the_ceiling_stops_a_form_on_a_huge_t():
    # -L * 2^65536 lies 2^(65536 - 2^32) below an integer: only a bracket
    # finer than 2^32 bits decides its floor, so the 2^20-bit ceiling stops
    # it, and the message names t by its size
    liou = parse_real("liouville:base=2,rule=poly,tau=2,c1=2,depth=8")
    t = 2 ** 65536
    with pytest.raises(PrecisionExhausted,
                       match="at a 65537-bit t within the 1048576-bit "
                             "ceiling") as err:
        next(LinearForm([(liou, -1, 1)]).floors([t]))
    assert err.value.bits == DEFAULT_MAX_BITS
    assert err.value.n == t


def test_floor_fails_cleanly_when_digits_cannot_decide():
    # 0.5 +- 0.1 scaled by 2 straddles the integer 1: no honest floor.
    lit = DecimalLiteral("0.5", 1)
    with pytest.raises(PrecisionExhausted) as err:
        floor_scaled(lit, 2)
    assert err.value.n == 2


# --- certified floors ---------------------------------------------------------


def test_floor_scaled_simple_values():
    assert floor_scaled(sqrt2(), 10**6).value == 1414213
    assert floor_scaled(sqrt3(), 100).value == 173
    assert floor_scaled(Rational(7, 2), 3).value == 10


def test_floor_scaled_fibonacci_pressure():
    # phi * F_n is within 1/F_n of an integer; floors must still certify.
    phi_mp = (1 + mpmath.sqrt(5)) / 2
    fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
    for f in fib:
        got = floor_scaled(golden_ratio(), f)
        assert got.value == int(mpmath.floor(phi_mp * f))
        assert (got.certificate.lo.numerator
                // got.certificate.lo.denominator) == got.value


def test_floor_certificate_pins_value():
    fl = floor_scaled(sqrt2(), 99)
    assert fl.value == 140
    assert fl.certificate.lo > 140 and fl.certificate.hi < 141


# --- nearest-integer distances -------------------------------------------------


def test_dist_nearest_int_worked_value():
    # ||3 sqrt 2|| = |4.2426 - 4| = 0.2426...
    iv, = dist_nearest_ints(sqrt2(), (3,))
    true = mp_fraction(3 * mpmath.sqrt(2) - 4)
    assert iv.lo <= true <= iv.hi
    assert abs(float(iv.midpoint()) - float(true)) < 1e-12
    # the reciprocal used by sum caps: 1/(2*0.2426...) = 2.0606...
    assert abs(1 / (2 * float(iv.hi)) - 2.0606601718) < 1e-6


# --- parse / format round trips -------------------------------------------------


@pytest.mark.parametrize("text", [
    "rat:22/7",
    "surd:(0+1*sqrt(2))/1",
    "surd:(-3+2*sqrt(7))/5",
    "cf:[1;2,2,2]",
    "cf:[3]",
    "dec:1.4142:4",
    "liouville:base=2,rule=poly,tau=2,c1=2,depth=8",
    "liouville:base=2,rule=exp,theta=1/2,beta=2,c1=2,depth=8",
])
def test_parse_format_round_trip(text):
    spec = parse_real(text)
    again = parse_real(spec.text())
    assert again == spec


def test_parse_rejects_garbage():
    for bad in ("", "sqrt2", "surd:(1+0*sqrt(2))/1", "rat:1/0",
                "liouville:base=1,rule=poly,tau=2", "dec:1.5:9",
                "liouville:base=2,rule=poly,tau=1,c1=1",
                "liouville:base=2,rule=poly,tau=1/0"):
        with pytest.raises(InvalidSpec):
            parse_real(bad)


@pytest.mark.parametrize("text, field", [
    ("liouville:base=2,tau=2,c1=2,dpeth=3", "dpeth"),
    ("liouville:base=2,rule=poly,tau=2,theta=1/2", "theta"),
    ("liouville:base=2,rule=poly,tau=2,beta=3", "beta"),
    ("liouville:base=2,rule=exp,theta=1/2,tau=2", "tau"),
])
def test_parse_refuses_liouville_fields_it_does_not_read(text, field):
    with pytest.raises(InvalidSpec, match=f"field '{field}' is not read"):
        parse_real(text)


# --- as_spec coercion ------------------------------------------------------------


def test_as_spec_accepts_exact_forms():
    assert as_spec(3).exact() == 3
    assert as_spec(Fraction(1, 2)).exact() == Fraction(1, 2)
    assert as_spec("1/2").exact() == Fraction(1, 2)
    assert as_spec("surd:(0+1*sqrt(2))/1") == sqrt2()
    spec = sqrt3()
    assert as_spec(spec) is spec


def test_as_spec_refuses_floats_and_bools():
    with pytest.raises(InvalidSpec):
        as_spec(0.5)
    with pytest.raises(InvalidSpec):
        as_spec(True)


# --- irrationality certificates ----------------------------------------------------


def test_irrationality_flags():
    assert sqrt2().irrational()
    assert golden_ratio().irrational()
    assert LiouvilleSeries(2, "poly", Fraction(2)).irrational()
    assert not Rational(1, 2).irrational()
    assert not FiniteCF((1, 2)).irrational()
    assert not DecimalLiteral("1.5", 1).irrational()


# --- linear forms -----------------------------------------------------------------


def test_linear_form_floor_matches_float():
    for a, b in ((3, 4), (100, 7), (12345, 6789)):
        form = LinearForm([(sqrt2(), a, 0), (sqrt3(), b, 0)])
        want = math.floor(a * math.sqrt(2) + b * math.sqrt(3))
        assert next(form.floors([1])) == want


def test_linear_form_with_rational_offset():
    form = LinearForm([(sqrt2(), 1, 1), (Fraction(1, 2), 1, 0)])
    assert next(form.floors([10])) == math.floor(10 * math.sqrt(2) + 0.5)


def test_linear_form_powers_and_negative_multipliers():
    # -3 sqrt2 t^2 + sqrt3 t at t = 7
    form = LinearForm([(sqrt2(), -3, 2), (sqrt3(), 1, 1)])
    assert next(form.floors([7])) == math.floor(-147 * math.sqrt(2)
                                                + 7 * math.sqrt(3))


def test_linear_form_decides_where_irrational_parts_cancel():
    # -sqrt3 t^3 + 2 sqrt12 t = sqrt3 (4t - t^3) is 0 at t = 2; sqrt12
    # shares the basis sqrt3, and no bracket decides a floor at 0
    form = LinearForm([(sqrt3(), -1, 3), (QuadraticSurd(0, 1, 12, 1), 2, 1)])
    assert list(form.floors([1, 2, 3])) == [5, 0, -26]
    assert form.frac_units([2])[0][0] == 0.0
    # a capped literal cancels at every t: the rational value decides
    # before the literal's 24 bits would be escalated past
    lit = parse_real("dec:1.41421356:8")
    zero = LinearForm([(lit, 1, 1), (lit, -1, 1)])
    assert list(zero.floors([5, 7])) == [0, 0]
    assert zero.frac_units([5])[0][0] == 0.0
    half = LinearForm([(lit, 2, 1), (lit, -2, 1), ("1/2", 1, 0)])
    assert half.frac_units([5])[0][0] == 0.5


def test_linear_form_rejects_a_negative_exponent():
    # refused when built, naming the term, not deep inside _start's iroot
    name = re.escape(f"term ({sqrt2().text()}, 1, -1)")
    with pytest.raises(InvalidSpec, match=name):
        LinearForm([(sqrt2(), 1, -1)])
    with pytest.raises(InvalidSpec, match=r"term \(rat:1/3, 2, -3\)"):
        LinearForm([(sqrt3(), 1, 2), ("1/3", 2, -3)])


_LIOU = LiouvilleSeries(2, "poly", Fraction(2), c1=2)
# (form, mpmath value at t): a surd, a Liouville multiplier, a form with
# lower-order terms, and an exact form, t(t + 2)/3, that lands on an
# integer at two t in three
_BATCH_FORMS = [
    (LinearForm([(sqrt2(), 1, 2)]), lambda t: mpmath.sqrt(2) * t ** 2),
    (LinearForm([(_LIOU, 3, 2)]),
     lambda t: 3 * t ** 2 * mpmath.fsum(mpmath.mpf(2) ** -c
                                        for c in _LIOU.schedule(1024))),
    (LinearForm([(golden_ratio(), 1, 3), (sqrt3(), 1, 1),
                 (Rational(1, 2), 1, 0)]),
     lambda t: ((1 + mpmath.sqrt(5)) / 2 * t ** 3 + mpmath.sqrt(3) * t
                + mpmath.mpf(1) / 2)),
    (LinearForm([(Rational(1, 3), 1, 2), (Rational(2, 3), 1, 1)]),
     lambda t: mpmath.mpf(t * (t + 2)) / 3),
]
# increasing t of many bit lengths, so a batch spans several runs of
# equal starting precision
_increasing_ts = st.lists(
    st.integers(0, 40).flatmap(lambda b: st.integers(2 ** b, 2 ** b + 3)),
    min_size=1, max_size=12, unique=True).map(sorted)


@settings(max_examples=100, deadline=None)
@given(pick=st.integers(0, len(_BATCH_FORMS) - 1), ts=_increasing_ts)
def test_batch_verdicts_equal_one_element_calls(pick, ts):
    form, value = _BATCH_FORMS[pick]
    floors = list(form.floors(ts))
    assert floors == [next(form.floors([t])) for t in ts]
    assert floors == [int(mpmath.floor(value(t))) for t in ts]
    for batch in (form.frac_units, form.phase_fracs):
        fracs, errs = batch(ts)
        assert list(zip(fracs.tolist(), errs.tolist())) == [
            tuple(a[0] for a in batch([t])) for t in ts]


def _per_t(form, batch, ts):
    """The verdict loop alone, one t at a time: the oracle of the screen."""
    if batch == "frac_units":
        args = form._start, "fractional part", _frac_unit, _exact_unit
    else:
        args = form._phase_start, "phase", _phase_frac
    pairs = [next(form._decide([t], *args)) for t in ts]
    return (np.array([f for f, _ in pairs], dtype=np.float64),
            np.array([e for _, e in pairs], dtype=np.float64))


_SCREEN_SPECS = [sqrt2(), QuadraticSurd(1, -3, 7, 2), golden_ratio(),
                 FiniteCF((1, 2, 3, 4)), _LIOU, Rational(-5, 3),
                 Rational(0, 1)]


@st.composite
def _screened_batches(draw):
    """A form of 1-3 terms (any spec, multiplier -9..9 including 0,
    exponent 0..3, so constants and lower-order terms) and a shuffled
    batch of t at _start's band edges, near the screen's limit on t^e
    and past it."""
    terms = draw(st.lists(st.tuples(st.sampled_from(_SCREEN_SPECS),
                                    st.integers(-9, 9), st.integers(0, 3)),
                          min_size=1, max_size=3))
    form = LinearForm(terms)
    limit = _iroot(_SCREEN_T, max([e for _, _, e in terms] + [1]))
    near = st.integers(-3, 3).map(lambda k: max(limit + k, 0))
    edge = st.integers(0, limit.bit_length()).flatmap(
        lambda b: st.integers(max(2 ** b - 2, 0), 2 ** b + 1))
    ts = draw(st.lists(st.one_of(near, edge, st.integers(0, 300)),
                       min_size=1, max_size=40))
    return form, draw(st.permutations(ts))


_TWO_CONSTANTS = LinearForm([(sqrt2(), 3, 0), (Rational(-5, 3), 2, 0)])


@settings(max_examples=300, deadline=None)
@given(case=_screened_batches(), batch=st.sampled_from(["frac_units",
                                                        "phase_fracs"]))
@example(case=(LinearForm([]), [0, 1, 5]), batch="phase_fracs")
@example(case=(LinearForm([]), [0, 1, 5]), batch="frac_units")
@example(case=(_TWO_CONSTANTS, [0, 1, 2**16, 2**40]), batch="phase_fracs")
@example(case=(_TWO_CONSTANTS, [0, 1, 2**16, 2**40]), batch="frac_units")
def test_screen_equals_the_per_t_loop_bit_for_bit(case, batch):
    form, ts = case
    tally = [0, 0]
    fracs, errs = getattr(form, batch)(ts, tally)
    want_fracs, want_errs = _per_t(form, batch, ts)
    assert fracs.tobytes() == want_fracs.tobytes()
    assert errs.tobytes() == want_errs.tobytes()
    assert sum(tally) == len(ts)


@st.composite
def _fixed_sum_cases(draw):
    """(pe, pairs (t, n), terms (e, bracket end, width)) in either regime
    of `_fixed_sum`: the counting kernel's, pe = 64 (F0 = 0) with
    S_e = n t^(e-1) up to 2^61, or the screen's, 64 < pe <= 128 with
    S_e < 2^32.  Degrees repeat and include 0, and bracket ends of any
    sign and widths up to 2^64 - 1 wrap both sums."""
    screen = draw(st.booleans())
    pe = draw(st.integers(65, 128) | st.sampled_from([65, 128])) \
        if screen else 64
    top = 2**32 - 1 if screen else 2**61
    terms = draw(st.lists(st.tuples(
        st.integers(0, 4),
        st.integers(-2**130, 2**130) | st.sampled_from(
            [0, -1, 2**pe - 1, 2**pe, 2**(pe - 1)]),
        st.integers(0, 2**64 - 1) | st.sampled_from([0, 1])),
        min_size=1, max_size=6))
    m = max(e for e, _, _ in terms)
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        t = draw(st.integers(1, _iroot(top, m - 1) if m > 1 else top))
        cap = top // t ** max(m - 1, 0)
        pairs.append((t, draw(st.just(cap) | st.just(t if t <= cap else 1)
                              | st.integers(1, cap))))
    return pe, pairs, terms


@settings(max_examples=300, deadline=None)
@given(case=_fixed_sum_cases())
def test_fixed_sum_is_the_integer_sum_in_both_regimes(case):
    pe, pairs, terms = case
    rows = []
    for e, a, w in terms:
        f1, f0 = _words(a, pe)
        assert f1 << 64 | f0 == a % 2**pe << 128 - pe and f1 < 2**64
        assert f0 == 0 or pe > 64
        rows.append((e, f1, f0, w))
    t = np.array([p for p, _ in pairs], dtype=np.uint64)
    n = np.array([q for _, q in pairs], dtype=np.uint64)
    low, width = _fixed_sum(t, n, rows)
    for i, (tv, nv) in enumerate(pairs):
        s = [nv * tv ** (e - 1) if e else 1 for e, *_ in rows]
        whole = sum(f1 * se + (f0 * se >> 64)
                    for (_, f1, f0, _), se in zip(rows, s))
        assert int(low[i]) == whole % 2**64
        assert int(width[i]) == sum(w * se for (*_, w), se in
                                    zip(rows, s)) % 2**64
        # L is the fractional parts summed, less under 1 per F0 > 0
        exact = sum(Fraction(a % 2**pe * se << 64, 2**pe)
                    for (_, a, _), se in zip(terms, s))
        lossy = sum(f0 > 0 for *_, f0, _ in rows)
        assert exact == whole if not lossy else 0 <= exact - whole < lossy


def test_screen_decides_nearly_every_t():
    form = LinearForm([(sqrt2(), 3, 2), (sqrt3(), -1, 1), ("1/3", 1, 0)])
    ts = range(1, 20001)
    for batch in ("frac_units", "phase_fracs"):
        tally = [0, 0]
        fracs, errs = getattr(form, batch)(ts, tally)
        assert tally[0] + tally[1] == 20000 and tally[1] < 200
        want_fracs, want_errs = _per_t(form, batch, ts)
        assert fracs.tobytes() == want_fracs.tobytes()
        assert errs.tobytes() == want_errs.tobytes()


def test_screen_leaves_open_what_it_cannot_certify():
    t = np.array([1], dtype=np.uint64)
    # float(L) == 2^64, where _unit_float clamps to the double below 1 and
    # _phase_frac wraps to 0
    top = (1 << 68) - (1 << 8)
    assert not _screen(t, ((top, top, 0),), 68, False)[0][0]
    # L + rows wraps past 2^64: the value may sit on either side of an
    # integer
    assert not _screen(t, (((1 << 64) - 1, 1 << 64, 1),), 64, True)[0][0]
    # L and L + rows round to different doubles (the ulp at 2^63 is 2048)
    half = (1 << 63) + 1024
    assert not _screen(t, ((half, half + 1, 1),), 64, False)[0][0]
    assert _screen(t, ((half - 1, half, 1),), 64, False)[0][0]
    # the phase's width test: 2^-64 at most
    assert not _screen(t, ((5, 7, 1),), 64, False)[0][0]
    # through the form, each of them goes to the per-t loop
    clamp = LinearForm([(Fraction((1 << 60) - 1, 1 << 60), 1, 0),
                        (sqrt2(), 0, 1)])
    tally = [0, 0]
    fracs, _ = clamp.phase_fracs([1, 2], tally)
    assert tally == [0, 2]
    assert fracs.tolist() == [0.0] * 2


def test_exact_forms_keep_their_exact_fractional_parts():
    form = LinearForm([(Rational(1, 3), 1, 2), (Rational(2, 3), 1, 1)])
    tally = [0, 0]
    fracs, errs = form.frac_units(range(1, 50), tally)
    assert tally == [0, 49]
    assert errs.tolist() == [2.0 ** -52] * 49
    assert fracs.tolist() == [float(Fraction(t * (t + 2), 3) % 1)
                              for t in range(1, 50)]


# scales of 1 to 40 bits, in any order and with repeats, so a batch
# spans runs of equal starting precision and returns to earlier ones
_dist_scales = st.lists(
    st.integers(0, 39).flatmap(lambda b: st.integers(2 ** b, 2 ** b + 3)),
    min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from([sqrt2(), _LIOU, Rational(22, 7)]),
       bits=st.sampled_from([48, 60, 64]), scales=_dist_scales)
def test_batch_distances_equal_one_element_calls(spec, bits, scales):
    batch = list(dist_nearest_ints(spec, scales, bits=bits))
    assert batch == [next(dist_nearest_ints(spec, (s,), bits=bits))
                     for s in scales]


def test_batch_distances_refuse_a_nonpositive_scale():
    with pytest.raises(ValueError):
        list(dist_nearest_ints(sqrt2(), [3, 0]))
    with pytest.raises(ValueError):
        list(dist_nearest_ints(sqrt2(), [0]))

def test_frac_unit_stays_in_unit_interval():
    form = LinearForm([(sqrt2(), 1, 1)])
    for n in range(1, 2000):
        (frac,), (err,) = form.frac_units([n])
        assert 0.0 <= frac < 1.0
        assert err >= 0
        assert abs(frac - (n * math.sqrt(2)) % 1.0) < 1e-9 + err


def test_phase_frac_boundary_clamp():
    # a rational form can land exactly on the wrap point; the reported
    # float must still sit strictly below 1.
    form = LinearForm([(Fraction((1 << 60) - 1, 1 << 60), 1, 0)])
    (frac,), _ = form.phase_fracs([1])
    assert 0.0 <= frac < 1.0


# --- property suites ----------------------------------------------------------------

_NONSQUARES = [d for d in range(2, 200) if math.isqrt(d) ** 2 != d]
_surds = st.builds(QuadraticSurd, st.integers(-1000, 1000),
                   st.integers(1, 50) | st.integers(-50, -1),
                   st.sampled_from(_NONSQUARES), st.integers(1, 100))
_rationals = st.builds(Rational, st.integers(-10**6, 10**6),
                       st.integers(1, 10**6))
_cfs = st.builds(lambda head, tail: FiniteCF((head,) + tuple(tail)),
                 st.integers(-50, 50),
                 st.lists(st.integers(1, 50), max_size=8))


@st.composite
def _decimals(draw):
    whole = draw(st.integers(-999, 999))
    frac = draw(st.text("0123456789", min_size=1, max_size=12))
    sp = draw(st.integers(1, len(frac)))
    return DecimalLiteral(f"{whole}.{frac}", sp)


_liouvilles = st.one_of(
    st.builds(LiouvilleSeries, st.integers(2, 5), st.just("poly"),
              st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]),
              c1=st.integers(1, 3), depth=st.integers(1, 8)),
    st.builds(LiouvilleSeries, st.integers(2, 5), st.just("exp"),
              st.sampled_from([Fraction(1, 2), Fraction(1)]),
              c1=st.integers(1, 3), beta=st.integers(2, 3),
              depth=st.integers(1, 8)))
_specs = st.one_of(_rationals, _surds, _cfs, _decimals(), _liouvilles)


def _mp_value(spec):
    """The value at the current mpmath precision, from the representation
    itself rather than from its bounds."""
    if isinstance(spec, QuadraticSurd):
        return (spec.a + spec.b * mpmath.sqrt(spec.d)) / spec.c
    if isinstance(spec, DecimalLiteral):
        return mpmath.mpf(spec.digits)
    if isinstance(spec, LiouvilleSeries):
        return mpmath.fsum(mpmath.mpf(spec.base) ** -c
                           for c in spec.schedule(mpmath.mp.prec + 8))
    exact = spec.exact()
    return mpmath.mpf(exact.numerator) / exact.denominator


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_text_round_trips_every_variant(spec):
    assert parse_real(spec.text()) == spec


@settings(max_examples=150, deadline=None)
@given(spec=_specs, bits=st.integers(8, 200))
def test_enclosure_contains_the_mpmath_value(spec, bits):
    cap = spec.max_prec()
    if cap is not None:
        bits = max(8, min(bits, cap - 1))
        if bits + 1 > cap:
            return                  # the literal carries fewer than 9 bits
    iv = eval_enclosure(spec, bits)
    with mpmath.workprec(400):
        value = _mp_value(spec)
        slack = mpmath.mpf(2) ** -380 * max(1, abs(value))
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo - slack <= value <= hi + slack


@settings(max_examples=150, deadline=None)
@given(spec=_surds, scale=st.integers(1, 2**40))
def test_floor_frac_and_distance_agree_with_mpmath(spec, scale):
    with mpmath.workprec(400):
        x = _mp_value(spec) * scale
        fl = int(mpmath.floor(x))
        frac = x - fl
        dist = min(frac, 1 - frac)
        assert floor_scaled(spec, scale).value == fl
        iv, = dist_nearest_ints(spec, (scale,))
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo <= dist <= hi


def _start_formula(form, t):
    biggest = max([abs(c) * t ** e for _, c, e in form.terms], default=1)
    return 64 + max(biggest * len(form.terms), 1).bit_length()


@pytest.mark.parametrize("terms", [
    [(sqrt2(), 1, 1)],
    [(sqrt2(), 3, 2), (sqrt3(), -7, 1), (golden_ratio(), 5, 0)],
    [(sqrt2(), -1, 5), (Rational(-2, 3), 10**20, 1), (sqrt3(), -2, 0)],
    [(sqrt3(), 0, 3), (sqrt2(), -9, 0)],          # constant in t
])
def test_banded_start_matches_the_formula(terms):
    # _start caches the band of t where the start is constant; it must
    # give the formula's value on increasing, shuffled and huge t
    rng = random.Random(7)
    ts = list(range(3000)) + sorted(rng.randrange(10**300) for _ in range(100))
    form = LinearForm(terms)
    for t in ts + rng.sample(ts, len(ts)) + ts:
        assert form._start(t) == _start_formula(form, t)
