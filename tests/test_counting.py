"""Coprimality counting: the two exact routes, sieves, zeta, exponents."""

import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from beattysieve.cli import report_csv, run_config
from beattysieve.counting import (
    _BLOCK,
    CountResult,
    FloorStats,
    ProblemSpec,
    _borwein,
    _const_floor,
    _Coords,
    _fast_plan,
    _fit_loglog,
    _kernel,
    _linear_tops,
    _radical_gcd,
    _root_sieve,
    _s_cap,
    coordinate_form,
    dec_str,
    density_experiment,
    direct_count,
    inv_zeta,
    mobius_count,
    mobius_sieve,
    theoretical_gamma,
    theoretical_gamma_star,
    zeta_int,
)
from beattysieve.errors import (
    DegenerateFit,
    InsufficientData,
    InvalidSpec,
    PrecisionExhausted,
    ResourceLimit,
)
from beattysieve.dioph import convergents
from beattysieve.equidist import linear_sum_exact, nu_sequence
from beattysieve.realnum import (
    DecimalLiteral,
    LinearForm,
    LiouvilleSeries,
    QuadraticSurd,
    Rational,
    _mul_hi,
    _mul_hi64,
    _unit_form,
    floor_scaled,
    golden_ratio,
    sqrt2,
    sqrt3,
)

MP_PREC = 200          # oracle precision, set per test by conftest


def brute_count(problem: ProblemSpec, x: int) -> int:
    """Third route: floors via mpmath floats at high precision."""
    vals = []
    for a in problem.alphas:
        if hasattr(a, "d"):
            vals.append((a.a + a.b * mpmath.sqrt(a.d)) / a.c)
        else:
            raise NotImplementedError
    total = 0
    for n in range(1, x + 1):
        g = n
        for alpha_mp, m, low in zip(vals, problem.ms, problem.lower_terms):
            acc = alpha_mp * n**m
            if low:
                for deg, coeff in enumerate(low):
                    acc += Fraction(coeff.exact()) * n**deg
            g = math.gcd(g, int(mpmath.floor(acc)))
        if g == 1:
            total += 1
    return total


def exact_reference_count(problem: ProblemSpec, x: int) -> int:
    """The per-n loop: one certified kernel floor and one gcd per
    (n, coordinate), with no fixed-point shortcut."""
    forms = [coordinate_form(problem, j) for j in range(problem.k)]
    total = 0
    for n in range(1, x + 1):
        g = n
        for form in forms:
            g = math.gcd(g, next(form.floors([n])))
        if g == 1:
            total += 1
    return total


def box_counts(problem: ProblemSpec, x: int, cutoff: int) -> list:
    """The Moebius route's box counts from certified floors alone, sharing
    none of its kernel: entry d <= cutoff counts n <= x/d with d dividing
    floor(a_j (dn)^(m_j) + g_j(dn)) for every j; entry 0 is 0."""
    floors = [[0, *coordinate_form(problem, j).floors(range(1, x + 1))]
              for j in range(problem.k)]
    return [0] + [sum(all(f[t] % d == 0 for f in floors)
                      for t in range(d, x + 1, d))
                  for d in range(1, cutoff + 1)]


# --- problem validation --------------------------------------------------------


def test_problem_requires_first_exponent_one():
    with pytest.raises(InvalidSpec):
        ProblemSpec((sqrt2(),), (2,))


def test_problem_requires_strictly_increasing_exponents():
    with pytest.raises(InvalidSpec):
        ProblemSpec((sqrt2(), sqrt3()), (1, 1))


def test_problem_rejects_rational_multipliers_when_strict():
    with pytest.raises(InvalidSpec):
        ProblemSpec(("1/2",), (1,))
    p = ProblemSpec.unchecked(("1/2",), (1,))
    assert p.alphas[0].exact() == Fraction(1, 2)


def test_problem_lower_terms_rules():
    with pytest.raises(InvalidSpec):  # first coordinate carries none
        ProblemSpec((sqrt2(),), (1,), lower_terms=(("1/2",),))
    with pytest.raises(InvalidSpec):  # degree must stay below m_j
        ProblemSpec((sqrt2(), sqrt3()), (1, 2),
                    lower_terms=(None, ("0", "1", "2")))
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2),
                    lower_terms=(None, ("1/2", sqrt2())))
    assert p.lower_terms[0] is None
    assert len(p.lower_terms[1]) == 2


def test_problem_describe_round_trips_text():
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    d = p.describe()
    assert d["ms"] == [1, 2]
    assert d["alphas"][0] == "surd:(0+1*sqrt(2))/1"


def test_count_result_validation():
    with pytest.raises(InvalidSpec):
        CountResult(10, 11, "direct", None)
    with pytest.raises(InvalidSpec):
        CountResult(10, 5, "guess", None)
    # truncated sums may leave [0, x]
    CountResult(10, -3, "mobius", 4)


# --- Moebius tables ---------------------------------------------------------------


def test_mobius_small_values():
    mu = mobius_sieve(20)
    want = [sympy.mobius(n) for n in range(1, 21)]
    assert mu[1:].tolist() == want


def test_mertens_at_ten_thousand():
    assert int(mobius_sieve(10**4)[1:].sum()) == -23


def test_sieve_matches_sympy_across_block_edges():
    # the sieve fills its table in blocks of 2^20 entries
    mu = mobius_sieve(2**21 + 64)
    for edge in (2**20, 2**21):
        window = range(edge - 64, edge + 65)
        assert mu[window.start:window.stop].tolist() == [
            sympy.mobius(n) for n in window]


def test_mertens_at_one_and_ten_million():
    mu = mobius_sieve(10**7)
    assert int(mu[1:10**6 + 1].sum()) == 212
    assert int(mu[1:].sum()) == 1037


def test_sieve_budget_guard():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit) as exc:
            mobius_sieve(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20                  # refused before any table exists
    numbers = [int(s) for s in re.findall(r"\d+", str(exc.value))]
    assert 1 << 29 in numbers              # the budget
    assert any(n > 10**9 for n in numbers)  # the bytes the table needs


# --- the direct route's prime sieve ---------------------------------------------


def _radical(v: int) -> int:
    return math.prod(sympy.primefactors(v))


# blocks at 1, across p^2 for p near the sieve's root, across powers of 2
# and 3, past 2^32 and past 10^12; the sieve's limit is at or past the
# last n
@settings(max_examples=120, deadline=None)
@given(n_lo=st.integers(1, 10**6) | st.sampled_from(
           [1, 2, 1021**2 - 150, 997**2 - 3, 2**20 - 100, 3**13 - 40,
            2**32 - 60, 10**12 - 40]),
       size=st.integers(1, 300), extra=st.integers(0, 1000),
       seed=st.integers(0, 2**32 - 1))
@example(n_lo=1, size=_BLOCK, extra=0, seed=0)
@example(n_lo=2**32 - 60, size=_BLOCK, extra=0, seed=1)
def test_radical_gcd_matches_math_gcd(n_lo, size, extra, seed):
    # each residue r < n is 0, free, or a multiple of the largest prime
    # factor of n (the cofactor above the root when there is one) or of
    # its smallest
    rng = random.Random(seed)
    ns = range(n_lo, n_lo + size)
    rs = []
    for n in ns:
        primes = sympy.primefactors(n) or [1]
        p = rng.choice([primes[0], primes[-1]])
        rs.append(rng.choice([0, rng.randrange(n), p * rng.randrange(n // p)]))
    got = _radical_gcd(n_lo, np.array(rs, dtype=np.float64),
                       _root_sieve(ns[-1] + extra))
    assert got.tolist() == [_radical(math.gcd(n, r)) for n, r in zip(ns, rs)]


def test_direct_route_counts_below_2_53():
    # the sieve holds n in float64
    with pytest.raises(InvalidSpec, match="2\\^53"):
        direct_count(ProblemSpec((sqrt2(),), (1,)), 2**53)


def test_mobius_route_counts_below_2_64():
    # n and d are uint64
    with pytest.raises(InvalidSpec, match="2\\^64, the uint64 limit"):
        mobius_count(ProblemSpec((sqrt2(),), (1,)), 2**64)


# --- zeta --------------------------------------------------------------------------


@pytest.mark.parametrize("s", [2, 3, 4, 5, 11])
def test_zeta_encloses_mpmath(s):
    iv = zeta_int(s, 128)
    true = Fraction(mpmath.nstr(mpmath.zeta(s), 50, strip_zeros=False))
    assert iv.lo <= true + Fraction(1, 10**45)
    assert iv.hi >= true - Fraction(1, 10**45)
    assert iv.width <= Fraction(2) ** (1 - 128) * 2


def test_inv_zeta_worked_values():
    assert abs(float(inv_zeta(2)) - 0.6079271018540267) < 1e-15
    assert abs(float(inv_zeta(3)) - 0.8319073725807077) < 1e-15
    assert abs(float(inv_zeta(4)) - 0.9239384029215902) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(8, 2048))
@example(2, 8)
@example(40, 2048)
def test_zeta_encloses_mpmath_at_every_precision(s, bits):
    iv = zeta_int(s, bits)
    with mpmath.workprec(bits + 64):
        man, exp = mpmath.zeta(s).man_exp
    assert iv.lo <= man * Fraction(2) ** exp <= iv.hi
    assert iv.width <= Fraction(1, 1 << bits)


@pytest.mark.parametrize("s", [2, 3, 10])
def test_borwein_error_stays_under_the_stated_bound(s):
    with mpmath.workprec(300):
        want = mpmath.zeta(s)
        for n in range(1, 21):
            got = _borwein(s, n)
            err = abs(want - mpmath.mpf(got.numerator) / got.denominator)
            assert err <= 4 * (mpmath.mpf(5) / 29) ** n
            if s == n == 10:
                # a bound with a 1/Gamma(s) factor would claim 1.2e-13 here
                gamma_bound = 2 / ((3 + mpmath.sqrt(8)) ** n * mpmath.gamma(s)
                                   * (1 - mpmath.mpf(2) ** (1 - s)))
                assert gamma_bound < 1e-12 < 1e-8 < err


def test_inv_zeta_renders_the_fixture_targets(density_goldens):
    for entry in density_goldens.values():
        assert dec_str(inv_zeta(len(entry["ms"]) + 1), 30) == entry["target"]


def test_zeta_rejects_bad_arguments():
    with pytest.raises(InvalidSpec):
        zeta_int(1, 64)


# --- the two exact routes ------------------------------------------------------------


def test_single_sqrt2_first_ten_by_hand():
    # floor(n*sqrt2): 1,2,4,5,7,8,9,11,12,14; coprime with n except n=6
    # (gcd 3), n=8 (gcd 4? no: gcd(8,11)=1) -> check the honest way
    p = ProblemSpec((sqrt2(),), (1,))
    want = sum(1 for n in range(1, 11)
               if math.gcd(n, math.floor(n * math.sqrt(2))) == 1)
    assert direct_count(p, 10).count == want == 6


def test_direct_equals_mobius_across_problems():
    problems = [
        ProblemSpec((sqrt2(),), (1,)),
        ProblemSpec((golden_ratio(),), (1,)),
        ProblemSpec((sqrt2(), sqrt3()), (1, 2)),
        ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 4)),
        ProblemSpec((sqrt2(), golden_ratio()), (1, 2),
                    lower_terms=(None, ("1/2", sqrt2()))),
    ]
    for p in problems:
        for x in (37, 200):
            d = direct_count(p, x).count
            m = mobius_count(p, x).count
            assert d == m, (p.describe(), x, d, m)


def test_direct_matches_independent_float_route():
    for p in (ProblemSpec((sqrt2(),), (1,)),
              ProblemSpec((sqrt2(), sqrt3()), (1, 2)),
              ProblemSpec((golden_ratio(), sqrt2()), (1, 3))):
        assert direct_count(p, 300).count == brute_count(p, 300)


def test_worker_counts_are_identical():
    # a config's workers key is accepted and changes nothing
    from beattysieve.cli import run_config
    p = ProblemSpec((sqrt2(),), (1,))
    assert direct_count(p, 20000).count == 12153
    raw = {"command": "count", "alphas": p.describe()["alphas"][0],
           "ms": "1", "x": "20000"}
    counts = {run_config(dict(raw, workers=str(w)))["results"]["count"]
              for w in (1, 4, 16)}
    assert counts == {12153}


def test_mobius_truncation_is_a_partial_sum():
    p = ProblemSpec((sqrt2(),), (1,))
    full = mobius_count(p, 200)
    trunc = mobius_count(p, 200, d_cutoff=200)
    assert full.count == trunc.count
    # t = 2n <= 10 with 2 | floor(sqrt2 t): t in {2, 6, 10}
    assert box_counts(p, 10, 2)[2] == 3
    mu = mobius_sieve(200)
    partial = mobius_count(p, 200, d_cutoff=10).count
    inner = box_counts(p, 200, 10)
    recon = sum(int(mu[d]) * inner[d] for d in range(1, 11))
    assert partial == recon
    # cutoffs below, at and past isqrt(1000) = 31, and at x
    pair = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    mu = mobius_sieve(1000)
    inner = [int(m) * c for m, c in zip(mu, box_counts(pair, 1000, 1000))]
    for cutoff in (30, 31, 32, 100, 1000):
        assert mobius_count(pair, 1000, d_cutoff=cutoff).count \
            == sum(inner[:cutoff + 1])


# r^2 - 1, r^2 and r^2 + r; at r = 64 they straddle the edge of the first
# block of n, at _BLOCK = 4096
@pytest.mark.parametrize("x", [r * r + e for r in (64, 91, 111)
                               for e in (-1, 0, r)])
def test_mobius_equals_direct_at_the_split_edges(x):
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    assert mobius_count(p, x).count == direct_count(p, x).count


def test_liouville_routes_agree():
    liou = LiouvilleSeries(2, "poly", Fraction(2), c1=2)
    p = ProblemSpec((liou,), (1,))
    assert direct_count(p, 3000).count == mobius_count(p, 3000).count == 1754


def test_precision_exhausted_propagates():
    p = ProblemSpec.unchecked((DecimalLiteral("0.5", 1),), (1,))
    with pytest.raises(PrecisionExhausted):
        direct_count(p, 10)


def test_precision_failure_names_the_literal_cap():
    lit = DecimalLiteral("1.41421356", 8)
    p = ProblemSpec.unchecked((lit,), (1,))
    with pytest.raises(PrecisionExhausted, match="carries only 24 bits") \
            as info:
        direct_count(p, 10**5)
    assert (info.value.n, info.value.bits, info.value.term) == (5741, 24, 0)
    assert info.value.spec is lit
    assert lit.max_prec() == 24


# each route names the first undecidable t in its own order: the direct
# route walks t = n, the Moebius route the pairs (d, n) block by block
@pytest.mark.parametrize("route, t", [(direct_count, 656),
                                      (mobius_count, 943)],
                         ids=["direct_count", "mobius_count"])
def test_precision_failure_names_the_coordinate(route, t):
    lit = DecimalLiteral("1.41421356", 8)
    p = ProblemSpec.unchecked((sqrt3(), lit), (1, 2))
    with pytest.raises(PrecisionExhausted, match="carries only 24 bits") \
            as info:
        route(p, 10**4)
    assert (info.value.term, info.value.n, info.value.bits) == (1, t, 24)
    with pytest.raises(PrecisionExhausted) as alone:
        next(coordinate_form(p, 1).floors([t]))
    assert alone.value.n == t


_THIRD = Rational(1, 3)
_ONE_AND_THIRD = ProblemSpec.unchecked((1, _THIRD), (1, 2))


# Each value is exact and lands on an integer (3 * 1/3, (1/3)(3n)^2),
# where no bracket of 1/3 can decide a floor or a fractional part.
@pytest.mark.parametrize("verdict, want", [
    (lambda: floor_scaled(_THIRD, 3).value, 1),
    (lambda: (floor_scaled(_THIRD, 3).certificate.lo,
              floor_scaled(_THIRD, 3).certificate.hi), (1, 1)),
    (lambda: next(LinearForm([(_THIRD, 1, 1)]).floors([3])), 1),
    (lambda: tuple(a[0] for a in LinearForm([(_THIRD, 1, 1)]).frac_units([3])),
     (0.0, 2.0 ** -52)),
    (lambda: box_counts(_ONE_AND_THIRD, 30, 3)[3], 10),
    (lambda: nu_sequence(ProblemSpec.unchecked((_THIRD,), (1,)), 1, 3)
     .points[:, 0].tolist(), [1 / 3, 2 / 3, 0.0]),
], ids=["floor_scaled", "certificate", "form.floor", "form.frac_unit",
        "box_count", "nu_sequence"])
def test_exact_rationals_landing_on_an_integer(verdict, want):
    assert verdict() == want


_LIT = DecimalLiteral("1.41421356", 8)     # 24 bits; undecided at 5741


@pytest.mark.parametrize("verdict", [
    lambda: floor_scaled(_LIT, 5741),
    lambda: next(LinearForm([(_LIT, 1, 1)]).floors([5741])),
    lambda: LinearForm([(_LIT, 1, 1)]).frac_units([5741]),
    lambda: LinearForm([(_LIT, 1, 1)]).phase_fracs([5741]),
    lambda: convergents(_LIT, 10**9),
    lambda: direct_count(ProblemSpec.unchecked((_LIT,), (1,)), 10**4),
    lambda: mobius_count(ProblemSpec.unchecked((sqrt3(), _LIT), (1, 2)),
                         10**4),
    lambda: linear_sum_exact(_LIT, 1, 5741),
], ids=["floor_scaled", "form.floor", "form.frac_unit", "form.phase_frac",
        "convergents", "direct_count", "mobius_count", "linear_sum_exact"])
def test_failures_name_the_limiting_literal(verdict):
    # an equal literal cached by an earlier test would be named instead
    _unit_form.cache_clear()
    with pytest.raises(PrecisionExhausted,
                       match=r"dec:1\.41421356:8 carries only 24 bits") \
            as info:
        verdict()
    assert info.value.bits == _LIT.max_prec() == 24
    assert info.value.spec is _LIT


def test_count_rejects_nonpositive_x():
    p = ProblemSpec((sqrt2(),), (1,))
    with pytest.raises(InvalidSpec):
        direct_count(p, 0)
    with pytest.raises(InvalidSpec):
        mobius_count(p, 200, d_cutoff=0)


# --- error exponents -------------------------------------------------------------------


def test_gamma_worked_values():
    assert theoretical_gamma((1,), 1) == Fraction(1, 5)
    assert theoretical_gamma((1,), Fraction(3, 2)) == Fraction(2, 13)
    assert theoretical_gamma((1, 2), 1) == Fraction(1, 16)
    assert theoretical_gamma((1, 3), 1) == Fraction(1, 48)


def test_gamma_star_worked_values():
    assert theoretical_gamma_star((1,), 1) == Fraction(1, 1)
    assert theoretical_gamma_star((1, 2), Fraction(1, 3)) is None
    assert theoretical_gamma_star((1, 2), Fraction(1, 4)) == Fraction(1, 6)


def test_gamma_refuses_floats():
    with pytest.raises(InvalidSpec):
        theoretical_gamma((1,), 1.5)
    with pytest.raises(InvalidSpec):
        theoretical_gamma_star((1, 2), 0.25)


# --- density experiments -----------------------------------------------------------------


def test_density_experiment_structure():
    p = ProblemSpec((sqrt2(),), (1,))
    run = density_experiment(p, (100, 1000, 10000), tau=1)
    assert run.counts == (60, 607, 6079)
    assert run.theoretical_gamma == Fraction(1, 5)
    assert run.gamma_hat == pytest.approx(1.0 - run.fitted_exponent)
    assert all(e >= 0 for e in run.errors)


def test_density_grid_requirements():
    p = ProblemSpec((sqrt2(),), (1,))
    with pytest.raises(InvalidSpec):
        density_experiment(p, (100, 100, 1000))
    with pytest.raises(InvalidSpec):
        density_experiment(p, (100, 1000))


def test_fit_loglog_drops_zeros_with_warning():
    with pytest.warns(DegenerateFit):
        slope, _ = _fit_loglog([10, 100, 1000], [Fraction(0), Fraction(10),
                                                 Fraction(100)])
    assert slope == pytest.approx(1.0)
    with pytest.raises(InsufficientData):
        with pytest.warns(DegenerateFit):
            _fit_loglog([10, 100], [Fraction(0), Fraction(10)])


def test_density_serializers():
    report = run_config({"command": "density", "alphas": sqrt2().text(),
                         "ms": "1", "grid": "100,1000,10000", "tau": "1"})
    text = report_csv(report)
    assert text.splitlines()[0] == "x,count,density,target,abs_error"
    assert len(text.strip().splitlines()) == 4
    assert report["results"]["grid"] == [100, 1000, 10000]


def test_dec_str_significant_digits():
    assert dec_str(Fraction(1, 3), 5) == "0.33333"
    assert dec_str(Fraction(2, 1), 3) == "2"
    assert dec_str(Fraction(2, 3), 4) == "0.6667"  # rounds, half-even
    assert dec_str(inv_zeta(2), 15) == "0.607927101854027"


# --- the 64-bit fixed-point kernel of both routes ------------------------------------


@settings(max_examples=100, deadline=None)
@given(n=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
       v=st.lists(st.integers(0, 2**64 - 1), min_size=64, max_size=64))
def test_mul_hi_is_the_exact_high_word(n, v):
    v = v[:len(n)]
    got = _mul_hi(np.array(n, dtype=np.uint64), np.array(v, dtype=np.uint64))
    assert got.tolist() == [(a * b) >> 64 for a, b in zip(n, v)]


_words = st.integers(0, 2**64 - 1) | st.sampled_from(
    [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])


@settings(max_examples=100, deadline=None)
@given(u=st.lists(_words, min_size=1, max_size=64),
       v=st.lists(_words, min_size=64, max_size=64))
def test_mul_hi64_is_the_exact_high_word(u, v):
    # every middle-word carry, up to (2^64 - 1)^2
    v = v[:len(u)]
    got = _mul_hi64(np.array(u, dtype=np.uint64), np.array(v, dtype=np.uint64))
    assert got.tolist() == [(a * b) >> 64 for a, b in zip(u, v)]


def test_rational_multipliers_fall_back_to_the_exact_engine():
    # a*n^m lands exactly on an integer for n divisible by the denominator,
    # where no bracket can decide the floor: the exact engine must
    for alphas, ms in (((Rational(1, 3),), (1,)),
                       ((Rational(1, 3), Rational(2, 7)), (1, 2)),
                       ((Rational(2, 7), Rational(-5, 3)), (1, 3))):
        p = ProblemSpec.unchecked(alphas, ms)
        want = exact_reference_count(p, 2000)
        # on the Moebius side a phase {aS} lands exactly on 1/d, as
        # {n/3} = 1/3 at d = 3 for n ≡ 1 (mod 3)
        for res in (direct_count(p, 2000), mobius_count(p, 2000)):
            assert res.stats.exact_fallbacks > 0
            assert res.stats.fast_floors > 0
            assert res.count == want


@settings(max_examples=200, deadline=None)
@given(coeff=st.integers(1, 2**62), power=st.integers(1, 5),
       bits=st.sampled_from([64, 128]))
def test_s_cap_is_the_largest_value_below_2_61(coeff, power, bits):
    # coeff * v^power must stay below 2^61 (2^125 at 128 bits), v below
    # 2^32, and coeff below 2^61
    v = _s_cap(coeff, power, bits)
    limit = 2 ** (bits - 3)
    assert 0 <= v < 2**32
    assert v == 0 or coeff * v**power < limit and coeff < 2**61
    assert v == 2**32 - 1 or coeff >= 2**61 or \
        coeff * (v + 1) ** power >= limit


@st.composite
def _kernel_pairs(draw, m=None, k=1):
    """m and pairs (d, n) the kernel takes: d < 2^32, k S = k d^(m-1) n^m
    < 2^61 for the plan's scale k, n at the cap of its d, n = 1 as on the
    direct route, or any n below the cap.  Small d with S near the cap is
    where L + W wraps and the zero test's threshold q is largest."""
    m = draw(st.integers(1, 6)) if m is None else m
    top = _s_cap(k, m - 1) if m > 1 else 2**32 - 1      # d^0 caps no d
    pairs = []
    for _ in range(draw(st.integers(1, 16))):
        d = draw(st.integers(1, 8) | st.just(top) | st.integers(1, top))
        cap = _s_cap(k * d ** (m - 1), m)
        pairs.append((d, draw(st.just(cap) | st.just(1) |
                              st.integers(1, cap))))
    return m, pairs


@settings(max_examples=300, deadline=None)
@given(root=st.integers(2, 10**6).filter(lambda r: math.isqrt(r) ** 2 != r),
       sign=st.sampled_from([1, -1]), case=_kernel_pairs())
def test_kernel_verdicts_match_the_integer_square_root(root, sign, case):
    # floor(±sqrt(root) t^m) from isqrt(root t^(2m)), with no bracket
    m, pairs = case
    form = LinearForm([(QuadraticSurd(0, sign, root, 1), 1, m)])
    fast, = _fast_plan([form])
    d = np.array([a for a, _ in pairs], dtype=np.uint64)
    n = np.array([b for _, b in pairs], dtype=np.uint64)
    want = []
    for a, b in pairs:
        f = math.isqrt(root * (a * b) ** (2 * m))
        want.append((f if sign > 0 else -f - 1) % a)
    _assert_kernel_verdicts(d, n, fast, want)


def _assert_kernel_verdicts(d, n, entry, want):
    """Every residue and zero verdict the kernel decides from the plan
    entry at the pairs (d, n) is the one in want."""
    res, decided = _kernel(d, n, entry, False)
    zero, zero_decided = _kernel(d, n, entry, True)
    for i, r in enumerate(want):
        assert not decided[i] or res[i] == r
        assert not zero_decided[i] or zero[i] == (r == 0)


@st.composite
def _wide_pairs(draw, m=None, k=1):
    """m and pairs (d, n) the 128-bit kernel takes: t = dn up to the cap
    _s_cap(k, m, 128), t at the cap, t = 8192 (where the direct route's
    S = 8192^5 = 2^65 for m = 6) or any t, split as (t, 1) as on the
    direct route, (1, t), or at a random d."""
    m = draw(st.integers(1, 8)) if m is None else m
    top = _s_cap(k, m, 128)
    pairs = []
    for _ in range(draw(st.integers(1, 16))):
        t = draw(st.just(top) | st.just(min(8192, top)) | st.integers(1, top))
        d = draw(st.just(t) | st.just(1) | st.integers(1, t))
        pairs.append((d, t // d))
    return m, pairs


@settings(max_examples=300, deadline=None)
@given(root=st.integers(2, 10**6).filter(lambda r: math.isqrt(r) ** 2 != r),
       sign=st.sampled_from([1, -1]), case=_wide_pairs())
@example(root=5, sign=1, case=(6, [(8192, 1), (2**13 + 5, 1)]))
def test_wide_kernel_verdicts_match_the_integer_square_root(root, sign, case):
    # the 128-bit plan's verdicts against isqrt, past 2^64 in S
    m, pairs = case
    form = LinearForm([(QuadraticSurd(0, sign, root, 1), 1, m)])
    wide, = _fast_plan([form], 128)
    d = np.array([a for a, _ in pairs], dtype=np.uint64)
    n = np.array([b for _, b in pairs], dtype=np.uint64)
    want = []
    for a, b in pairs:
        f = math.isqrt(root * (a * b) ** (2 * m))
        want.append((f if sign > 0 else -f - 1) % a)
    _assert_kernel_verdicts(d, n, wide, want)


def test_wide_kernel_decides_where_64_bits_wrap():
    # at t = 8192, m = 6 the direct route's S = 8192^5 = 2^65 is 0 mod 2^64,
    # far past the 64-bit cap; two words hold it, and the 128-bit bracket
    # decides the residue floor(phi 8192^6) mod 8192
    form = coordinate_form(ProblemSpec((sqrt2(), golden_ratio()), (1, 6)), 1)
    wide, = _fast_plan([form], 128)
    t = np.array([8192], dtype=np.uint64)
    res, decided = _kernel(t, np.ones_like(t), wide, False)
    assert decided.all() and res.tolist() == [next(form.floors([8192])) % 8192]


def test_mobius_box_tests_past_the_s_cap_fall_back():
    # for m = 4, t^4 reaches 2^61 at t = 38968: the box tests past it fall
    # back from the 64-bit kernel to the 128-bit one, which decides them
    # all, so none reaches the exact engine
    p = ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 4))
    res = mobius_count(p, 10**5)
    assert _s_cap(1, 4) == 38967
    assert res.stats == FloorStats(169912, 0, 0)
    assert res.count == direct_count(p, 10**5).count == 92494


def test_direct_kernel_caps_each_n_not_the_coordinate():
    # for m = 6, n^6 reaches 2^61 at n = 1150: the 64-bit kernel still
    # takes the sixth powers below that, and the 128-bit one the n above,
    # to its own cap, so none falls back to the exact engine
    p = ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 6))
    res = direct_count(p, 10**4)
    assert _s_cap(1, 6) == 1149 and _s_cap(1, 6, 128) == 1868350
    assert res.stats == FloorStats(15626, 0, 0)
    assert res.count == mobius_count(p, 10**4).count == 9253
    # past the 64-bit cap the uint64 powers wrap (8192^5 is 0 mod 2^64), so
    # a 64-bit kernel left to decide those n would count 6811 here
    p = ProblemSpec((golden_ratio(), sqrt3()), (1, 6))
    assert direct_count(p, 2**13 + 5).count == \
        exact_reference_count(p, 2**13 + 5) == 6812


def test_direct_count_builds_each_plan_once(monkeypatch):
    from beattysieve import counting
    calls = []
    original = counting._fast_plan

    def counted(forms, bits=64):
        calls.append(bits)
        return original(forms, bits)

    monkeypatch.setattr(counting, "_fast_plan", counted)
    p = ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 6))
    assert direct_count(p, 10**4).stats == FloorStats(15626, 0, 0)
    assert calls == [64, 128]
    assert mobius_count(p, 10**4).count == 9253
    assert calls == [64, 128] * 2
    # a constant past 2^126 keeps the coordinate exact-only
    big = ProblemSpec((sqrt2(), sqrt3()), (1, 2),
                      lower_terms=(None, (str(2**127),)))
    assert direct_count(big, 5000).stats == FloorStats(4999, 1960, 1)


def test_a_literal_under_128_bits_has_no_wide_plan():
    # 30 digits carry 97 bits: the coordinate keeps its 64-bit plan but has
    # none at 128 bits, so past the 64-bit cap (t^4 ≥ 2^61 from t = 38968)
    # its floors still take the exact engine, on both routes alike
    lit = DecimalLiteral("1.618033988749894848204586834366", 30)
    p = ProblemSpec.unchecked((sqrt2(), sqrt3(), lit), (1, 2, 4))
    coords = _Coords(p)
    assert lit.max_prec() == 97
    assert coords.plan[2] is not None and coords.wide[2] is None
    assert coords.wide[1] is not None
    direct, mobius = direct_count(p, 6 * 10**4), mobius_count(p, 6 * 10**4)
    assert direct.stats.exact_fallbacks > 0
    assert mobius.stats.exact_fallbacks > 0
    assert direct.stats.exact_coords == mobius.stats.exact_coords == 0
    assert direct.count == mobius.count


def test_mobius_zero_verdict_on_an_exact_only_later_coordinate():
    # the constant past 2^126 leaves coordinate 2 without a plan, so every
    # box test on it takes the exact floor
    big = ProblemSpec((sqrt2(), sqrt3()), (1, 2),
                      lower_terms=(None, (str(2**127),)))
    res = mobius_count(big, 5000)
    assert res.stats == FloorStats(5000, 2556, 1)
    assert res.count == direct_count(big, 5000).count == 4147


@pytest.mark.parametrize("x", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_counts_at_the_block_edges(x):
    p = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    assert direct_count(p, x).count == exact_reference_count(p, x)


def test_density_sweep_prefix_counts_at_the_block_edges():
    p = ProblemSpec((golden_ratio(), sqrt2()), (1, 3))
    grid = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5)
    want = tuple(direct_count(p, x).count for x in grid)
    assert density_experiment(p, grid).counts == want


def test_workers_and_early_exit_give_identical_counts():
    # the later coordinates stop once no n of a block keeps a prime, and
    # a config's workers key changes nothing
    from beattysieve.cli import run_config
    p = ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 4))
    want = exact_reference_count(p, 9000)
    assert direct_count(p, 9000).count == want
    raw = {"command": "count", "alphas": ",".join(p.describe()["alphas"]),
           "ms": "1,2,4", "x": "9000"}
    counts = {run_config(dict(raw, workers=str(w)))["results"]["count"]
              for w in (1, 2, 4)}
    assert counts == {want}


def test_engine_counters():
    pair = direct_count(ProblemSpec((sqrt2(), sqrt3()), (1, 2)), 5000)
    assert pair.stats.exact_coords == 0
    assert pair.stats.fast_floors > 5000
    lower = ProblemSpec((sqrt2(), sqrt3()), (1, 2),
                        lower_terms=(None, ("1/2", sqrt2())))
    stats = direct_count(lower, 5000).stats
    assert stats.exact_coords == 0 and stats.fast_floors > 0
    # stated digits below 64 bits keep the coordinate on the exact engine,
    # which counts each of its floors (n = 2..100) as a fallback
    dec = ProblemSpec.unchecked((DecimalLiteral("1.41421356", 8),), (1,))
    assert direct_count(dec, 100).stats == FloorStats(0, 99, 1)
    # the Moebius route counts box tests, on the survivors of coordinate 0
    mob = mobius_count(lower, 100).stats
    assert mob.exact_coords == 0 and mob.fast_floors > 0
    pair_mob = mobius_count(ProblemSpec((sqrt2(), sqrt3()), (1, 2)), 5000)
    assert pair_mob.stats.exact_coords == 0
    assert pair_mob.stats.fast_floors > 5000


_NONSQUARES = [d for d in range(2, 31) if math.isqrt(d) ** 2 != d]
_surds = st.builds(QuadraticSurd, st.integers(-5, 5),
                   st.integers(1, 4) | st.integers(-4, -1),
                   st.sampled_from(_NONSQUARES), st.integers(1, 5))
_rationals = st.builds(Rational, st.integers(-7, 7), st.integers(1, 6))
_liouville = st.builds(LiouvilleSeries, st.just(2), st.just("poly"),
                       st.sampled_from([Fraction(3, 2), Fraction(2),
                                        Fraction(3)]),
                       c1=st.integers(1, 3))


@st.composite
def _problems(draw):
    tail = draw(st.lists(st.integers(2, 6), max_size=2, unique=True))
    ms = (1,) + tuple(sorted(tail))
    alphas = draw(st.lists(_surds, min_size=len(ms), max_size=len(ms)))
    if draw(st.booleans()):
        alphas[draw(st.integers(0, len(ms) - 1))] = draw(_liouville)
    lower = [None]
    for m in ms[1:]:
        coeffs = draw(st.lists(_rationals | _surds, max_size=m))
        lower.append(tuple(coeffs) or None)
    if not draw(st.booleans()):
        lower = ()
    return ProblemSpec(tuple(alphas), ms, tuple(lower))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=_problems(), x=st.integers(1, 64) | st.integers(1000, 3000))
def test_direct_kernel_agrees_with_the_exact_routes(problem, x):
    direct = direct_count(problem, x).count
    assert direct == mobius_count(problem, x).count
    # both fast routes read the same 64-bit bracket of each multiplier;
    # the per-n certified floors do not
    assert direct == exact_reference_count(problem, x)
    surds_only = all(isinstance(a, QuadraticSurd) for a in problem.alphas)
    rational_lower = all(isinstance(c, Rational)
                         for low in problem.lower_terms if low for c in low)
    if surds_only and rational_lower:
        assert direct == brute_count(problem, x)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=_problems(), x=st.integers(1, 300), data=st.data())
def test_truncated_mobius_count_is_the_partial_inner_sum(problem, x, data):
    cutoff = data.draw(st.integers(1, x))
    mu = mobius_sieve(cutoff)
    inner = box_counts(problem, x, cutoff)
    want = sum(int(mu[d]) * inner[d] for d in range(1, cutoff + 1))
    assert mobius_count(problem, x, d_cutoff=cutoff).count == want


# base 3 puts a n within the bracket's width of an integer at the multiples
# of 3^8, where the 64-bit bracket wraps and every d ≤ x/n is open;
# (1/3)(dn)^2 lands on integers
@pytest.mark.parametrize("problem, x, cutoff", [
    (ProblemSpec((LiouvilleSeries(3, "poly", Fraction(3), c1=2),), (1,)),
     10**5, 40),
    (_ONE_AND_THIRD, 3000, 300),
], ids=["wrapped_bracket", "one_and_third"])
def test_mobius_open_pairs_take_the_exact_engine(problem, x, cutoff):
    res = mobius_count(problem, x)
    assert res.stats.exact_fallbacks > 0
    assert res.count == direct_count(problem, x).count
    mu = mobius_sieve(cutoff)
    inner = box_counts(problem, x, cutoff)
    want = sum(int(mu[d]) * inner[d] for d in range(1, cutoff + 1))
    assert mobius_count(problem, x, d_cutoff=cutoff).count == want


def _exact_floor(alpha, t: int) -> int:
    """floor(alpha t) in integer and Fraction arithmetic, asserted to be the
    same for every value a literal admits and across a Liouville tail."""
    if isinstance(alpha, QuadraticSurd):
        r = math.isqrt(alpha.b * alpha.b * alpha.d * t * t)   # irrational
        return (alpha.a * t + (r if alpha.b > 0 else -r - 1)) // alpha.c
    if isinstance(alpha, Rational):
        return math.floor(alpha.exact() * t)
    if isinstance(alpha, DecimalLiteral):
        delta = Fraction(1, 10 ** alpha.stated_precision)
        lo, hi = Fraction(alpha.digits) - delta, Fraction(alpha.digits) + delta
    else:
        exps = alpha.schedule(3000)    # the rest sums below base^-exps[-1]
        lo = sum(Fraction(1, alpha.base ** c) for c in exps)
        hi = lo + Fraction(1, alpha.base ** exps[-1])
    assert math.floor(lo * t) == math.floor(hi * t)
    return math.floor(lo * t)


def _brute_top(alpha, n: int, x: int, cut: int) -> int:
    """max{d <= min(x/n, cut) : floor(alpha dn) = 0 mod d}, by scanning."""
    return next(d for d in range(min(x // n, cut), 0, -1)
                if _exact_floor(alpha, d * n) % d == 0)


_linear_alphas = st.sampled_from([
    sqrt2(), QuadraticSurd(0, -1, 2, 1), QuadraticSurd(-3, -2, 7, 5),
    Rational(1, 3), Rational(-5, 3), Rational(2, 1), Rational(0, 1),
    LiouvilleSeries(3, "poly", Fraction(3), c1=2),
    DecimalLiteral("1.41421356237309504880", 20),              # 64 bits
    DecimalLiteral("-0.7071067811865475244008443621", 28)]) | _surds


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(alpha=_linear_alphas, edge=st.integers(0, 3),
       offset=st.integers(-24, 24), size=st.integers(1, 24),
       reach=st.integers(1, 1500), cut=st.none() | st.integers(1, 1500))
@example(alpha=LiouvilleSeries(3, "poly", Fraction(3), c1=2), edge=1,
         offset=2465, size=8, reach=1500, cut=None)  # its bracket wraps at 3^8
@example(alpha=Rational(10**20 - 1, 3 * 10**20), edge=0, offset=0, size=4,
         reach=10, cut=None)       # {a} just below 1/3: D_1 = 3, the top end
def test_linear_tops_are_the_last_passing_d(alpha, edge, offset, size, reach,
                                            cut):
    lo = max(1, edge * _BLOCK + offset)            # n across a block edge
    n = np.arange(lo, lo + size, dtype=np.uint64)
    x = max(lo * reach, lo + size - 1)             # x/n up to reach
    cut = x if cut is None else min(cut, x)
    coords = _Coords(ProblemSpec.unchecked((alpha,), (1,)))
    got = _linear_tops(coords, n, x, cut)
    assert got.tolist() == [_brute_top(alpha, m, x, cut) for m in n.tolist()]


def test_mobius_counts_a_literal_whose_probed_floors_decide():
    # the bisection's floors, about log2(x/n) per open n, are the same for
    # every value the 24-bit literal admits, so all of them count as sqrt 2
    lit = mobius_count(ProblemSpec.unchecked((_LIT,), (1,)), 10**4)
    assert lit.count == mobius_count(ProblemSpec((sqrt2(),), (1,)),
                                     10**4).count == 6079


def test_mobius_bisects_an_exact_coordinate():
    # every 64-bit bracket of 1/3 at a multiple of 3 wraps, and each such n
    # bisects (1, x/n] in 53,253 floors in all, where testing every
    # squarefree d in it took 215,041
    p = ProblemSpec.unchecked((_THIRD,), (1,))
    res = mobius_count(p, 10**5)
    assert res.count == direct_count(p, 10**5).count
    assert res.stats.exact_fallbacks == 53_253


_constants = st.sampled_from([Rational(0, 1), Rational(1, 2), Rational(1, 3),
                              Rational(-5, 3), sqrt2()])


@st.composite
def _lower_term_cases(draw):
    """(problem, pairs): a second coordinate a t^m + g(t) for m up to 6,
    with lower coefficients of either sign, Liouville among them, and a
    rational or irrational constant, and pairs at the cap of its plan."""
    m = draw(st.integers(2, 6))
    lower = [draw(_constants)] + draw(st.lists(
        _rationals | _surds | _liouville, min_size=1, max_size=m - 1))
    alpha = draw(_rationals | _surds | _liouville)
    problem = ProblemSpec.unchecked((sqrt2(), alpha), (1, m),
                                    (None, tuple(lower)))
    entry, = _fast_plan([coordinate_form(problem, 1)])
    return problem, draw(_kernel_pairs(m, entry[2]))[1]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_lower_term_cases())
# (t^2 + 1)/2 is an integer at odd t: the bracket of the constant 2^63/d
# must reach above floor(2^63/d) for the residue to be right
@example(case=(ProblemSpec.unchecked(
    (sqrt2(), Rational(1, 2)), (1, 2), (None, ("1/2", "0"))),
    [(3, 1), (5, 3), (7, 1)]))
def test_kernel_sums_lower_terms_like_the_exact_engine(case):
    problem, pairs = case
    form = coordinate_form(problem, 1)
    entry, = _fast_plan([form])
    d = np.array([a for a, _ in pairs], dtype=np.uint64)
    n = np.array([b for _, b in pairs], dtype=np.uint64)
    want = [f % a for f, (a, _) in
            zip(form.floors([a * b for a, b in pairs]), pairs)]
    _assert_kernel_verdicts(d, n, entry, want)


@st.composite
def _wide_lower_term_cases(draw):
    """(problem, pairs) as `_lower_term_cases` draws them, with pairs up
    to the cap of the coordinate's 128-bit plan."""
    problem, _ = draw(_lower_term_cases())
    entry, = _fast_plan([coordinate_form(problem, 1)], 128)
    return problem, draw(_wide_pairs(problem.ms[1], entry[2]))[1]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_wide_lower_term_cases())
@example(case=(ProblemSpec.unchecked(
    (sqrt2(), Rational(1, 2)), (1, 2), (None, ("1/2", "0"))),
    [(3, 1), (5, 3), (7, 1)]))
def test_wide_kernel_sums_lower_terms_like_the_exact_engine(case):
    problem, pairs = case
    form = coordinate_form(problem, 1)
    entry, = _fast_plan([form], 128)
    d = np.array([a for a, _ in pairs], dtype=np.uint64)
    n = np.array([b for _, b in pairs], dtype=np.uint64)
    want = [f % a for f, (a, _) in
            zip(form.floors([a * b for a, b in pairs]), pairs)]
    _assert_kernel_verdicts(d, n, entry, want)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1 - 2**62, 2**62 - 1) | st.sampled_from(
           [0, -1, 1 - 2**62, 2**62 - 1]),
       b=st.integers(0, 2**64 - 1),
       ds=st.lists(st.integers(1, 2**32 - 1) | st.sampled_from(
           [1, 2, 2**32 - 1]), min_size=1, max_size=16))
def test_const_floor_is_the_big_integer_quotient(a, b, ds):
    got = _const_floor(a, b, np.array(ds, dtype=np.uint64))
    assert got.tolist() == [((a << 64) + b) // d % 2**64 for d in ds]


def test_routes_count_a_coordinate_that_lands_on_an_integer():
    # -sqrt3 n^3 + 2 sqrt12 n = sqrt3 (4n - n^3) is 0 at n = 2, where the
    # running gcd is 2 and no bracket decides the floor
    problem = ProblemSpec((sqrt2(), QuadraticSurd(0, -1, 3, 1)), (1, 3),
                          (None, (Rational(0, 1), QuadraticSurd(0, 2, 12, 1))))

    def floor_sqrt3(k):
        r = math.isqrt(3 * k * k)
        return r if k >= 0 else -r - 1
    want = sum(1 for n in range(1, 31)
               if math.gcd(n, math.isqrt(2 * n * n),
                           floor_sqrt3(4 * n - n ** 3)) == 1)
    assert direct_count(problem, 30).count == want
    assert mobius_count(problem, 30).count == want
    assert exact_reference_count(problem, 30) == want
