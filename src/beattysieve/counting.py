"""Coprimality counting for floor-of-power sequences, by two exact routes.

N(x) counts n ≤ x whose tuple (n, floor(a_1 n^{m_1} + g_1), ...,
floor(a_k n^{m_k} + g_k)) has gcd 1.  `direct_count` tests each n
against the primes of n, which a block sieve finds; `mobius_count`
expands the coprimality indicator through the Moebius function into
box-occupancy counts, the n ≤ x/d with every floor term at t = dn
divisible by d, which it sums in one pass over n: the d that pass
coordinate 1 at n are [1, top_n], and exact floors bisect to top_n
where the kernel's bracket leaves it open.  Each route drives one
coordinate engine (`_Coords`) per count for floor(a t^m + g(t)) mod d
at t = dn, the direct one with d = t and the Moebius one only whether
it is 0, and both are certified: a fixed-point kernel, at 64 bits and
then 128, decides what it can and the exact engine the rest, so with no
cutoff they must agree exactly — that identity is the strongest
self-test in the package.  The module also carries the zeta constants,
the error exponents in closed form and the density experiment with its
fit.
"""

from __future__ import annotations

import decimal
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFit, InsufficientData, InvalidSpec, \
    PrecisionExhausted, ResourceLimit
from .realnum import Interval, LinearForm, _SHIFT32, _iroot, _mul_hi, \
    _mul_hi64, as_spec

ExactLike = Union[int, Fraction, str]


def _as_exact(value: ExactLike, name: str) -> Fraction:
    """Exact rational from int/Fraction/str; floats are refused."""
    if isinstance(value, float):
        raise InvalidSpec(
            f"{name} must be exact; pass a string like '1/5' or '0.2', "
            f"or a Fraction, not a float")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidSpec(f"cannot read {name} from {value!r}") from exc


# ---------------------------------------------------------------------------
# problem description


@dataclass(frozen=True)
class ProblemSpec:
    """The tuple family: exponents ms (strictly increasing, m_1 = 1),
    one real multiplier per exponent, optional lower-order polynomials.

    lower_terms, when given, has one entry per coordinate: None, or a
    tuple of coefficients (constant first, degree < m_j).  The first
    coordinate never carries lower-order terms.
    """

    alphas: tuple
    ms: tuple
    lower_terms: tuple = ()
    strict: bool = True

    def __post_init__(self) -> None:
        alphas = tuple(as_spec(a) for a in self.alphas)
        ms = _validated_ms(self.ms)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "ms", ms)
        if len(alphas) != len(ms):
            raise InvalidSpec("need one multiplier per exponent")
        low = self.lower_terms or (None,) * len(ms)
        if len(low) != len(ms):
            raise InvalidSpec("lower_terms must align with the exponents")
        if low[0]:
            raise InvalidSpec(
                "the first coordinate admits no lower-order terms")
        low = tuple(tuple(as_spec(c) for c in e) if e else None for e in low)
        for e, m in zip(low, ms):
            if e and len(e) > m:
                raise InvalidSpec(f"lower-order degree must stay below {m}")
        object.__setattr__(self, "lower_terms", low)
        if self.strict:
            for j, a in enumerate(alphas):
                if not a.irrational():
                    raise InvalidSpec(
                        f"multiplier {j + 1} ({a.text()}) is not an "
                        f"irrational-certified variant")

    @property
    def k(self) -> int:
        return len(self.ms)

    @classmethod
    def unchecked(cls, alphas, ms, lower_terms=()) -> "ProblemSpec":
        """Skip the irrationality requirement (rational test doubles)."""
        return cls(tuple(alphas), tuple(ms), tuple(lower_terms), strict=False)

    def describe(self) -> dict:
        return {
            "alphas": [a.text() for a in self.alphas],
            "ms": list(self.ms),
            "lower_terms": [None if e is None else [c.text() for c in e]
                            for e in self.lower_terms],
        }


@dataclass(frozen=True)
class FloorStats:
    """What the counting engine did.

    fast_floors: the direct route's (n, j) floors, or the Moebius route's
    box tests, decided by the fixed-point kernel at 64 or 128 bits; the
    Moebius route decides coordinate 1 at 64 bits once per n, for all its
    d at once, and tests only the later coordinates per (d, n) pair, so
    it counts far fewer than x ln x;
    exact_fallbacks: the big-integer engine's floors, those the kernel left
    undecided or could not take, every one of an exact-only coordinate,
    and the bisection's, about log2(x/n) at an n the kernel leaves open;
    exact_coords: coordinates that only the big-integer engine evaluates.
    """

    fast_floors: int = 0
    exact_fallbacks: int = 0
    exact_coords: int = 0


@dataclass(frozen=True)
class CountResult:
    x: int
    count: int
    method: str
    d_cutoff: Optional[int]
    stats: FloorStats = FloorStats()

    def __post_init__(self) -> None:
        if self.method not in ("direct", "mobius"):
            raise InvalidSpec(f"unknown counting method {self.method!r}")
        if self.d_cutoff is None and not 0 <= self.count <= self.x:
            raise InvalidSpec("full count must lie in [0, x]")


@dataclass(frozen=True)
class DensityRun:
    problem: ProblemSpec
    grid: tuple
    counts: tuple
    target: Fraction              # midpoint enclosure of 1/zeta(k+1)
    errors: tuple                 # exact |count - x*target| per grid point
    fitted_exponent: float        # OLS slope of log error vs log x
    residual: float               # RMS residual of that fit
    theoretical_gamma: Optional[Fraction]
    stats: FloorStats = FloorStats()

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise InvalidSpec("grid must increase strictly")
        if any(e < 0 for e in self.errors):
            raise InvalidSpec("errors must be nonnegative")

    @property
    def gamma_hat(self) -> float:
        """Error exponent implied by the fit: error ~ x^(1-gamma_hat)."""
        return 1.0 - self.fitted_exponent


# ---------------------------------------------------------------------------
# Moebius function tables


_SIEVE_BLOCK = 1 << 20             # entries sieved at a time
_SIEVE_BUDGET = 1 << 29            # bytes a Moebius table may take


def _root_primes(limit: int) -> np.ndarray:
    """The primes p ≤ sqrt(limit), increasing, as int64."""
    flags = np.ones(math.isqrt(limit) + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(flags.size - 1) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def _mobius_block(start: int, end: int, primes: np.ndarray) -> np.ndarray:
    """mu(n) for n in [start, end] as int8, given all primes up to sqrt(end).

    prod collects the product of the sieved primes dividing n; where it
    falls short of a squarefree n, the one prime factor above sqrt(end)
    is missing, and it flips the sign once more.
    """
    size = end - start + 1
    mu = np.ones(size, dtype=np.int8)
    prod = np.ones(size, dtype=np.int64)
    for p in primes.tolist():
        off = -start % p
        mu[off::p] *= -1
        prod[off::p] *= p
        mu[-start % (p * p)::p * p] = 0
    mu[prod < np.arange(start, end + 1, dtype=np.int64)] *= -1
    return mu


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(d) for 1 ≤ d ≤ limit as int8, index 0 unused: one byte per
    entry, filled in blocks of _SIEVE_BLOCK entries with 18 bytes per entry
    of working arrays.  Raises ResourceLimit, before allocating, when that
    exceeds _SIEVE_BUDGET bytes."""
    if limit < 1:
        raise InvalidSpec("sieve limit must be >= 1")
    need = limit + 1 + 18 * min(limit, _SIEVE_BLOCK)
    if need > _SIEVE_BUDGET:
        raise ResourceLimit(
            f"a Moebius table to {limit} needs ~{need} bytes, over the "
            f"budget of {_SIEVE_BUDGET} bytes")
    primes = _root_primes(limit)
    out = np.zeros(limit + 1, dtype=np.int8)
    for start in range(1, limit + 1, _SIEVE_BLOCK):
        end = min(start + _SIEVE_BLOCK - 1, limit)
        out[start:end + 1] = _mobius_block(start, end, primes)
    return out


# ---------------------------------------------------------------------------
# coordinate forms


def coordinate_form(problem: ProblemSpec, j: int, d: int = 1) -> LinearForm:
    """a_j d^(m_j-1) n^(m_j) + g_j(dn)/d as a LinearForm in n.

    With d = 1 this is a_j t^(m_j) + g_j(t), whose floor the counting
    routes take at t = dn; for d > 1 it is the scaled coordinate of the
    point sets and exponential sums.  The constant lower-order
    coefficient is divided by d, so for d > 1 it must be exact.
    """
    m = problem.ms[j]
    terms = [(problem.alphas[j], d ** (m - 1), m)]
    lower = problem.lower_terms[j] or ()
    terms += [(c, d ** (e - 1), e) for e, c in enumerate(lower) if e]
    if lower:
        c0 = lower[0].exact()
        if c0 is None and d > 1:
            raise InvalidSpec(
                "the constant lower-order coefficient must be exact "
                "(it is divided by the modulus)")
        if c0 is None:
            terms.append((lower[0], 1, 0))
        elif c0:
            terms.append((as_spec(c0 / d), 1, 0))
    return LinearForm(terms)


# ---------------------------------------------------------------------------
# the two counting routes and their one fixed-point kernel


# Both routes ask of coordinate j at a pair (d, n), t = dn, for
# r = floor(f(t)) mod d, f(t) = sum_e c_e t^e: the direct route takes
# d = t, n = 1 and needs r, the Moebius route only whether r = 0.  With
# S_e = d^(e-1) n^e, f(t) = d * Phi, Phi = sum_{e>=1} c_e S_e + c_0/d, so
# r = floor(d * {Phi}).  64-bit brackets (lo_e, hi_e) of c_e*2^64 give
# {Phi}*2^64 in [L, L + W], L = sum_{e>=1} lo_e*S_e + floor(lo_0/d)
# mod 2^64 and W = sum_{e>=1} (hi_e - lo_e)*S_e + hi_0 - lo_0 + 1 (the
# constant's term only when there is one), when L + W does not pass 2^64;
# floor(lo_0/d) mod 2^64 is a long division in 32-bit digits
# (`_const_floor`).  floor(d R / 2^64) is monotone in R, so r is decided
# when both ends give the same one, and r = 0 when L + W <= q or L > q,
# q = floor((2^64 - 1) / d), which leaves about d times fewer pairs open.
# Where S_e passes 64 bits, 128-bit brackets of c_e*2^128 give the same
# [L, L + W] in the same 2^-64 units (`_wide_terms`), so both verdicts
# read either width.  `_Coords` runs the 64-bit kernel on every pair, the
# 128-bit one on the pairs it leaves open or past its cap, and exact
# floors on the rest; each width caps a pair on k t^m, as d S_m = t^m.

_FIX_BITS = 64
_WIDE_BITS = 128
_BLOCK = 4096                      # pairs per kernel block; keeps RSS flat
_S_LIMIT = 1 << 61
_D_LIMIT = (1 << 32) - 1
_U64_MAX = np.uint64((1 << 64) - 1)
_WORD = (1 << 64) - 1


def _fast_plan(forms: list, bits: int = _FIX_BITS) -> list:
    """Per coordinate form, (terms, constant, scale k) for `_kernel` at
    bits = 64 or 128, or None when the kernel may not take it at that
    width: a literal carries under `bits` bits, or its constant's bracket
    reaches 2^(bits + 62).  With s = bits - 64 and (lo, hi) the bracket of
    each coefficient at bits, terms holds (e, lo mod 2^64, hi - lo) at 64
    bits and (e, F1, F0, hi - lo), lo mod 2^128 = F1 2^64 + F0, at 128,
    per degree e >= 1, increasing; constant is (lo >> bits, (lo >> s)
    mod 2^64, ceil((hi - lo) / 2^s) + 1), or None without one.  k is
    ceil((w + w_0) / 2), w the summed widths hi - lo of the terms and
    w_0 the constant's third entry."""
    s = bits - _FIX_BITS
    plan = []
    for form in forms:
        pe, rows = form._rows(bits)
        terms = sorted((e, lo % (1 << bits), hi - lo)
                       for lo, hi, e in rows if e)
        const = next(((lo >> bits, lo >> s & _WORD, 1 - (lo - hi >> s))
                      for lo, hi, e in rows if not e), None)
        if pe < bits or const and abs(const[0]) >= 1 << 62:
            plan.append(None)
            continue
        width = sum(w for _, _, w in terms) + (const[2] if const else 0)
        if s:
            terms = [(e, f >> 64, f & _WORD, w) for e, f, w in terms]
        plan.append((terms, const, max((width + 1) // 2, 1)))
    return plan


def _s_cap(coeff: int, power: int, bits: int = _FIX_BITS) -> int:
    """Largest v ≤ 2^32 - 1 with coeff * v^power < 2^(bits - 3), power ≥ 1,
    0 if there is none or coeff ≥ 2^61."""
    room = ((1 << bits - 3) - 1) // coeff if coeff < _S_LIMIT else 0
    return min(_iroot(room, power), _D_LIMIT)


def _const_floor(a: int, b: int, d: np.ndarray) -> np.ndarray:
    """floor((a 2^64 + b) / d) mod 2^64 for |a| < 2^62, 0 <= b < 2^64 and
    uint64 0 < d < 2^32, as the long division of (a mod d) 2^64 + b, below
    d 2^64, in 32-bit digits."""
    r = (np.int64(a) % d.astype(np.int64)).astype(np.uint64)
    q, r = np.divmod(r << _SHIFT32 | np.uint64(b >> 32), d)
    return (q << _SHIFT32) + (r << _SHIFT32 | np.uint64(b & 0xFFFFFFFF)) // d


def _bracket(d: np.ndarray, n: np.ndarray, entry: tuple) -> tuple:
    """(L, L + W, whole): {Phi} 2^64 is in [L, L + W] where whole, L + W <
    2^64, for uint64 d and n within the cap of the plan entry (`_Coords`):
    S_e in one word from a 64-bit plan, in two from a 128-bit one."""
    terms, const, _ = entry
    if len(terms[0]) > 3:
        low, width = _wide_terms(d * n, n, terms)
    else:
        t = d * n if terms[-1][0] > 1 else None
        low = width = 0
        for e, lo64, w in terms:          # low wraps: exact mod 2^64
            s = n if e == 1 else n * (t if e == 2 else t ** (e - 1))  # S_e
            low, width = low + s * np.uint64(lo64), width + s * np.uint64(w)
    if const:
        low += _const_floor(*const[:2], d)
        width += np.uint64(const[2])
    high = low + width
    return low, high, high >= low


def _wide_terms(t: np.ndarray, n: np.ndarray, terms: list) -> tuple:
    """(L, W) of the degree >= 1 terms of a 128-bit plan at uint64
    t < 2^32.  S_e = n t^(e-1) < 2^125 is held as two words S1 2^64 + S0,
    built by multiplying by t.  A term's fractional product
    (F1 2^64 + F0) S_e mod 2^128 has the top word (F1 S0 + F0 S1 +
    hi64(F0 S0)) mod 2^64, which L sums, losing under one unit, and its
    width w S_e / 2^64 is below w (S1 + 1), so W sums w S1 + w + 1."""
    s1, s0, e0 = np.zeros_like(n), n, 1
    low = width = 0
    for e, f1, f0, w in terms:
        for _ in range(e - e0):
            s1, s0 = s1 * t + _mul_hi(t, s0), s0 * t
        e0, f0 = e, np.uint64(f0)
        low = low + np.uint64(f1) * s0 + f0 * s1 + _mul_hi64(f0, s0)
        width = width + np.uint64(w) * s1 + np.uint64(w + 1)
    return low, width


def _kernel(d: np.ndarray, n: np.ndarray, entry: tuple, zero: bool):
    """(r, decided mask) for r = floor(f(dn)) mod d as int64, or with zero
    (r == 0, decided mask), from the `_bracket` of f at each pair."""
    low, high, whole = _bracket(d, n, entry)
    if zero:
        q = _U64_MAX // d
        inside = whole & (high <= q)
        return inside, inside | (whole & (low > q))
    res = _mul_hi(d, low)
    # compare before the cast: numpy takes uint64 == int64 in float64
    decided = whole & (_mul_hi(d, high) == res)
    return res.astype(np.int64), decided


class _Coords:
    """The forms, the 64- and 128-bit `_fast_plan`s (plan, wide) with
    their kernel caps, and the tally [kernel verdicts, exact fallbacks]
    of one count's coordinates.

    A width takes a pair (d, n) of coordinate j when t = dn is at most its
    cap _s_cap(k, m_j, bits): t < 2^32, k < 2^61 and k t^m < 2^(bits - 3),
    k the plan's scale.  As d S_m = t^m on both routes (the direct route's
    pairs (t, 1) have S_m = t^(m-1)) and d ≥ 1, S_e ≤ S_m ≤ t^m, and
    w + w_0 ≤ 2k for the summed widths of `_fast_plan`.  At 64 bits,
    S_m < 2^61 is exact in uint64 and W = sum w_e S_e + w_0 ≤
    (w + w_0) S_m < 2^62.  At 128 bits, S_m < 2^125 fits two words and
    `_wide_terms` gives W ≤ (w + w_0)(S_m / 2^64 + 1) + m <
    2^62 + 2^62 + m.  So neither W wraps.  Each cap sits 3 bits below
    where d W, about (w + w_0) t^m / 2^(bits - 64), reaches 2^64 and no
    residue can be decided."""

    def __init__(self, problem: ProblemSpec) -> None:
        self.forms = [coordinate_form(problem, j) for j in range(problem.k)]
        self.plan = _fast_plan(self.forms)
        self.wide = _fast_plan(self.forms, _WIDE_BITS)
        self.caps, self.wide_caps = (
            [_s_cap(e[2], m, bits) if e else 0
             for e, m in zip(plan, problem.ms)]
            for plan, bits in ((self.plan, _FIX_BITS),
                               (self.wide, _WIDE_BITS)))
        self.tally = [0, 0]

    def stats(self) -> FloorStats:
        return FloorStats(*self.tally, self.plan.count(None))

    def coordinate(self, j: int, d: np.ndarray, n: np.ndarray, zero: bool,
                   exact: bool = False) -> np.ndarray:
        """floor(a_j t^(m_j) + g_j(t)) mod d at t = dn per pair, or with
        zero whether it is 0: the 64-bit kernel takes every pair, the
        128-bit one those past the 64-bit cap or left open, and exact
        floors the rest, and all when exact or j has no 64-bit plan."""
        t = d * n
        if exact or self.plan[j] is None:
            out = np.empty(d.size, dtype=bool if zero else np.int64)
            open_ = np.arange(d.size)
        else:
            out, decided = _kernel(d, n, self.plan[j], zero)
            open_ = np.flatnonzero(~(decided & (t <= self.caps[j])))
            if open_.size and self.wide[j] is not None:
                res, decided = _kernel(d[open_], n[open_], self.wide[j], zero)
                done = decided & (t[open_] <= self.wide_caps[j])
                out[open_[done]] = res[done]
                open_ = open_[~done]
            self.tally[0] += d.size - open_.size
        self.tally[1] += open_.size
        if open_.size:
            ds, ts = d[open_].tolist(), t[open_].tolist()
            try:
                res = [f % a for f, a in zip(self.forms[j].floors(ts), ds)]
            except PrecisionExhausted as exc:
                exc.term = j               # the failure names the coordinate
                raise
            out[open_] = [r == 0 for r in res] if zero else res
        return out


def _root_sieve(limit: int) -> tuple:
    """What `_radical_gcd` sieves with for n ≤ limit: every power q ≤ limit
    of each prime p ≤ sqrt(limit), as (q, p, k), the arrays q (int64) and
    p (float64) with the k primes first."""
    primes, powers = [], []
    for p in _root_primes(limit).tolist():
        q = p
        while q <= limit:
            (primes if q == p else powers).append((q, p))
            q *= p
    pairs = np.array(primes + powers, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1].astype(np.float64), len(primes)


def _radical_gcd(n_lo: int, r: np.ndarray, sieve: tuple) -> np.ndarray:
    """rad(gcd(n, r_n)), the product of the primes dividing both, at each
    n = n_lo + i of a block, as float64, given 0 ≤ r_n < 2^53 as float64
    and the `_root_sieve` of a limit below 2^53 and at least the last n.

    Each power q = p^i of the sieve multiplies smooth by p at the n it
    divides, in one pass over the block's (position, q) pairs.  So
    smooth(n) is the part of n built from the primes ≤ sqrt(limit), and
    n / smooth(n) is 1 or the one prime factor of n above sqrt(limit), as
    two such primes would exceed it.  Each prime p | n is tested once: p | r_n.

    The arithmetic is exact.  Every n, r_n, p, partial product (a
    divisor of n) and quotient here is an integer below 2^53, so float64
    holds it, and IEEE division rounds correctly: n / smooth(n) is exact,
    and p | r iff the rounded r/p is an integer.  For if p does not
    divide r, r/p lies at least 1/p from every integer, while rounding
    moves it by at most half an ulp, at most 2^-53 r/p < 1/p.
    """
    q, p, k = sieve
    size = r.size
    smooth, g = np.ones(size), np.ones(size)
    off = -n_lo % q                     # the first multiple of each q
    cnt = (size - 1 - off) // q + 1     # and how many the block holds
    q = np.minimum(q, size)             # a q past the block has one pair
    pos = np.arange(cnt.sum()) * np.repeat(q, cnt)
    pos += np.repeat(off - (np.cumsum(cnt) - cnt) * q, cnt)
    pp = np.repeat(p, cnt)
    np.multiply.at(smooth, pos, pp)
    top = cnt[:k].sum()                 # the pairs of the primes
    pos, pp = pos[:top], pp[:top]
    v = r[pos] / pp
    hit = np.flatnonzero(v == np.floor(v))
    np.multiply.at(g, pos[hit], pp[hit])
    big = np.arange(n_lo, n_lo + size, dtype=np.float64) / smooth
    v = r / big
    return np.where(v == np.floor(v), g * big, g)


def _coprime_block(coords: _Coords, sieve: tuple, n_lo: int, n_hi: int):
    """Boolean mask of n in [n_lo, n_hi] with gcd(n, floor terms) = 1.

    Coordinate 1 runs on every n ≥ 2 as the pairs (d, n) = (n, 1), and
    the sieve turns its residues r_n into g = rad(gcd(n, r_n)).
    Coordinates 2..k run in order, each only on the n whose g is still
    above 1, as g = gcd(g, r_j): a prime of n divides every floor term
    iff it divides the last g.
    """
    n = np.arange(n_lo, n_hi + 1, dtype=np.uint64)
    r = np.zeros(n.size)
    ones = np.ones_like(n)
    one = int(n_lo == 1)                 # gcd(1, ...) = 1: not evaluated
    r[one:] = coords.coordinate(0, n[one:], ones[one:], False)
    g = _radical_gcd(n_lo, r, sieve).astype(np.int64)
    for j in range(1, len(coords.forms)):
        idx = np.flatnonzero(g > 1)
        if not idx.size:
            break
        g[idx] = np.gcd(g[idx], coords.coordinate(j, n[idx], ones[idx], False))
    return g == 1


def _direct_sweep(problem: ProblemSpec, cuts: tuple):
    """Exact counts at every cut (increasing) from one sweep over the
    blocks of [1, cuts[-1]], with the sweep's FloorStats.  The sieve holds
    n in float64, so cuts[-1] must be below 2^53."""
    x = cuts[-1]
    if x >= 1 << 53:
        raise InvalidSpec("the direct route counts to x < 2^53")
    coords = _Coords(problem)
    sieve = _root_sieve(x)
    counts, total = [], 0
    for lo in range(1, x + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, x)
        ok = _coprime_block(coords, sieve, lo, hi)
        counts += [total + int(np.count_nonzero(ok[:cut - lo + 1]))
                   for cut in cuts if lo <= cut <= hi]
        total += int(np.count_nonzero(ok))
    return tuple(counts), coords.stats()


def direct_count(problem: ProblemSpec, x: int) -> CountResult:
    """Count n ≤ x < 2^53 with gcd(n, floor terms) = 1, term by term, in
    one serial sweep over blocks of _BLOCK n.

    Floors come from the 64- or 128-bit kernel where its bracket decides
    them and from the certified big-integer engine otherwise.  A block
    sieve keeps the primes of n that divide the first floor term, and the
    later terms are tested only against those (`_coprime_block`).  The
    count is the one-point case of the density sweep.
    """
    if x < 1:
        raise InvalidSpec("x must be >= 1")
    (count,), stats = _direct_sweep(problem, (x,))
    return CountResult(x, count, "direct", None, stats)


def _box_hits(coords: _Coords, d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Indices i with floor(a_j t^(m_j) + g_j(t)) ≡ 0 (mod d_i), t = d_i n_i,
    for every coordinate j ≥ 2, each on the pairs that passed j - 1."""
    idx = np.arange(n.size)
    for j in range(1, len(coords.forms)):
        if not idx.size:
            break
        idx = idx[coords.coordinate(j, d[idx], n[idx], True)]
    return idx


def _linear_tops(coords: _Coords, n: np.ndarray, x: int, cut: int):
    """top_n = min(D_n, x/n, cut) per n, the last d passing coordinate 1:
    as m_1 = 1 and coordinate 1 has no lower-order terms, floor(a dn) mod
    d = floor(d {a n}), 0 exactly for d ≤ D_n = ceil(1/{a n}) - 1.  The
    `_bracket` [L, L + W] of {a n} 2^64 at d = 1, where it does not wrap
    and k n < 2^61, puts top_n in [a, b] = [floor((2^64 - 1)/(L + W)),
    floor((2^64 - 1)/L)], capped, else in [1, x/n]; exact floors, its
    only ones, bisect an open (a, b], log2(b - a) deep."""
    a, b = np.ones_like(n), np.minimum(np.uint64(x) // n, np.uint64(cut))
    entry = coords.plan[0]
    if entry is not None:
        low, high, ok = _bracket(a, n, entry)
        ok &= n <= (_S_LIMIT - 1) // entry[2]
        a[ok] = np.minimum(_U64_MAX // np.maximum(high[ok], 1), b[ok])
        ok &= low > 0
        b[ok] = np.minimum(_U64_MAX // low[ok], b[ok])
        coords.tally[0] += int(np.count_nonzero(a == b))
    i = np.flatnonzero(a < b)
    while i.size:                       # a passes, b + 1 fails
        mid = (a[i] + b[i] + np.uint64(1)) // np.uint64(2)
        hit = coords.coordinate(0, mid, n[i], True, exact=True)
        a[i[hit]], b[i[~hit]] = mid[hit], mid[~hit] - np.uint64(1)
        i = i[a[i] < b[i]]
    return a


def _ragged(last: np.ndarray):
    """(d, i) over 2 ≤ d ≤ last_i, in slices of ≤ _BLOCK pairs."""
    size = np.maximum(last.astype(np.int64) - 1, 0)
    cum = np.cumsum(size)
    for s in range(0, int(cum[-1]), _BLOCK):
        p = np.arange(s, min(s + _BLOCK, int(cum[-1])))
        i = np.searchsorted(cum, p, side="right")
        yield (p - cum[i] + size[i] + 2).astype(np.uint64), i


def mobius_count(problem: ProblemSpec, x: int,
                 d_cutoff: Optional[int] = None) -> CountResult:
    """N(x) = sum over d of mu(d) times the number of n ≤ x/d whose scaled
    fractional vector lands in [0, 1/d)^k, that is, with every floor term
    at t = dn divisible by d, in one pass over n ≤ x in blocks of _BLOCK;
    with d_cutoff, the sum over d ≤ d_cutoff, which may leave [0, x].

    The d that pass coordinate 1 at n are [1, top_n], top_n =
    min(D_n, x/n, d_cutoff), which the kernel's bracket gives or exact
    floors bisect to (`_linear_tops`).  k = 1: an n adds M(top_n), M the
    Mertens function.  k ≥ 2: d = 1 adds x, and the squarefree
    2 ≤ d ≤ top_n go on to coordinates 2..k in slices of _BLOCK pairs.
    The Mertens table grows only to the largest top_n met, and past
    _SIEVE_BUDGET raises ResourceLimit naming that n."""
    if x < 1:
        raise InvalidSpec("x must be >= 1")
    if x >= 1 << 64:
        raise InvalidSpec("the Moebius route counts to x < 2^64, the uint64 "
                          "limit of its n and d")
    if d_cutoff is not None and not 1 <= d_cutoff <= x:
        raise InvalidSpec("d_cutoff must lie in [1, x]")
    depth = d_cutoff if d_cutoff is not None else x
    coords = _Coords(problem)
    mertens = np.zeros(1, dtype=np.int32)           # M(d) at index d
    total = x if problem.k > 1 else 0
    for lo in range(1, x + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, x + 1), dtype=np.uint64)
        top = _linear_tops(coords, n, x, depth)
        end = int(top.max())
        if end >= mertens.size:                     # doubling, in budget
            size = max(end, min(2 * mertens.size, depth, _SIEVE_BUDGET // 8))
            need = 5 * size + 18 * min(size, _SIEVE_BLOCK)   # int8 + int32
            if need > _SIEVE_BUDGET:
                raise ResourceLimit(
                    f"n = {n[top.argmax()]}, where {{a n}} < 1/{end}, needs "
                    f"the Moebius table to {end}: ~{need} bytes, over the "
                    f"budget of {_SIEVE_BUDGET} bytes")
            mertens = np.cumsum(mobius_sieve(size), dtype=np.int32)
        if problem.k == 1:
            total += int(mertens[top].sum(dtype=np.int64))
            continue
        for d, i in _ragged(top):
            mu = mertens[d] - mertens[d - np.uint64(1)]
            keep = np.flatnonzero(mu)
            hits = _box_hits(coords, d[keep], n[i[keep]])
            total += int(mu[keep[hits]].sum(dtype=np.int64))
    return CountResult(x, total, "mobius", d_cutoff, coords.stats())


# ---------------------------------------------------------------------------
# zeta values (Borwein's alternating series, with a stated bound)


def _borwein(s: int, n: int) -> Fraction:
    """P. Borwein's zeta_n (An efficient algorithm for the Riemann zeta
    function, 2000, Alg. 2) exactly: sum_{k<n} (-1)^k (d_n - d_k) (k+1)^-s
    / (d_n (1 - 2^(1-s))), d_k = u_0 + ... + u_k, where the u_i =
    n (n+i-1)! 4^i / ((n-i)! (2i)!) are, up to sign, the coefficients of
    T_n(1 - 2x): integers, so each step of their recurrence divides."""
    u, d = 1, [1]
    for i in range(n):
        u = u * 2 * (n + i) * (n - i) // ((i + 1) * (2 * i + 1))
        d.append(d[-1] + u)
    eta = sum(Fraction((-1) ** k * (d[n] - d[k]), (k + 1) ** s)
              for k in range(n))
    return eta / (d[n] * (1 - Fraction(1, 1 << (s - 1))))


def zeta_int(s: int, bits: int) -> Interval:
    """Enclosure of zeta(s) for integer s ≥ 2, width at most 2^-bits.

    The (k+1)^-s are the moments of the positive weight (-log x)^(s-1) /
    Gamma(s) on [0, 1], so `_borwein`'s sum of eta(s) = (1 - 2^(1-s))
    zeta(s) < 1 errs by at most 2 eta / (3 + sqrt 8)^n (Cohen, Rodriguez
    Villegas and Zagier, Convergence acceleration of alternating series,
    Experiment. Math. 9, 2000, Prop. 1): |zeta(s) - zeta_n| ≤
    2 / ((3 + sqrt 8)^n (1 - 2^(1-s))) ≤ 4 (5/29)^n ≤ 2^-(bits+2) at
    n = floor((bits + 4) / 2.53) + 1, as log2(29/5) > 2.536.  The ends
    are rounded outward to 2^-(bits+2).
    """
    if not isinstance(s, int) or s < 2:
        raise InvalidSpec("zeta_int needs an integer s >= 2")
    if bits < 8:
        raise InvalidSpec("bits must be >= 8")
    zeta = _borwein(s, (bits + 4) * 100 // 253 + 1)
    unit = 1 << (bits + 2)
    return Interval(Fraction(math.floor(zeta * unit) - 1, unit),
                    Fraction(math.ceil(zeta * unit) + 1, unit), bits)


def inv_zeta(s: int) -> Fraction:
    """Midpoint of the reciprocal enclosure 1/zeta(s), error < 2^-127."""
    iv = zeta_int(s, 128)
    return (1 / iv.hi + 1 / iv.lo) / 2


# ---------------------------------------------------------------------------
# closed-form error exponents


def _validated_ms(ms: Sequence[int]) -> tuple:
    ms = tuple(int(m) for m in ms)
    if not ms or ms[0] != 1 or any(b <= a for a, b in zip(ms, ms[1:])):
        raise InvalidSpec("exponents must be strictly increasing from 1")
    return ms


def theoretical_gamma(ms: Sequence[int], tau: ExactLike) -> Fraction:
    """Error exponent for multipliers of polynomial approximability tau."""
    ms = _validated_ms(ms)
    tau = _as_exact(tau, "tau")
    if tau < 1:
        raise InvalidSpec("tau must be >= 1")
    if len(ms) == 1:
        return 1 / (3 * tau + 2)
    mk = ms[-1]
    return Fraction(1, 8) * min(1 / (mk * tau), Fraction(1, mk * mk - mk))


def theoretical_gamma_star(ms: Sequence[int],
                           tau_star: ExactLike) -> Optional[Fraction]:
    """Error exponent for exponential approximability tau_star.

    Returns None in the regime where the statement degenerates:
    k ≥ 2 with tau_star ≥ 1/(m_k^2 - m_k + 1).
    """
    ms = _validated_ms(ms)
    ts = _as_exact(tau_star, "tau_star")
    if ts <= 0:
        raise InvalidSpec("tau_star must be positive")
    if len(ms) == 1:
        return min(1 / ts, (1 / ts + 1) / 2)
    mk = ms[-1]
    if ts >= Fraction(1, mk * mk - mk + 1):
        return None
    return (1 - (mk * mk - mk + 1) * ts) / ((mk * mk + 2) * ts)


# ---------------------------------------------------------------------------
# density experiment


def _fit_loglog(xs: Sequence[float], ys: Sequence[Fraction]):
    pts = [(math.log(x), math.log(e)) for x, e in zip(xs, ys) if e > 0]
    dropped = len(xs) - len(pts)
    if dropped:
        warnings.warn(f"{dropped} zero-error grid point(s) dropped from "
                      f"the log-log fit", DegenerateFit, stacklevel=3)
    if len(pts) < 2:
        raise InsufficientData("need >= 2 nonzero errors to fit a slope")
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = sum((p[1] - intercept - slope * p[0]) ** 2 for p in pts)
    return slope, math.sqrt(rss / n)


def density_experiment(problem: ProblemSpec, grid: Sequence[int], *,
                       tau: Optional[ExactLike] = None) -> DensityRun:
    """Direct counts at every grid point from one sweep to max(grid),
    exact errors against x/zeta(k+1), and the ordinary-least-squares
    slope of log error versus log x."""
    grid = tuple(int(x) for x in grid)
    if len(grid) < 3:
        raise InvalidSpec("grid needs at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidSpec("grid must increase strictly")
    if grid[0] < 1:
        raise InvalidSpec("grid points must be >= 1")
    target = inv_zeta(problem.k + 1)
    counts, stats = _direct_sweep(problem, grid)
    errors = tuple(abs(Fraction(c) - x * target)
                   for x, c in zip(grid, counts))
    slope, residual = _fit_loglog(grid, errors)
    gamma = theoretical_gamma(problem.ms, tau) if tau is not None else None
    return DensityRun(problem, grid, counts, target, errors, slope,
                      residual, gamma, stats)


# ---------------------------------------------------------------------------
# decimal rendering


def dec_str(fr: Fraction, digits: int = 30) -> str:
    """Decimal rendering of an exact rational, `digits` significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator))
