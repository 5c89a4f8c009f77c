"""Coprimality counting for floor-of-power sequences, by two exact routes.

N(x) counts n ≤ x whose tuple (n, floor(a_1 n^{m_1} + g_1), ...,
floor(a_k n^{m_k} + g_k)) has gcd 1.  `direct_count` evaluates the gcd
per n; `mobius_count` expands the coprimality indicator through the
Moebius function, reducing each divisor d to a box-occupancy count
(`inner_count`).  Both routes ask for floor(a t^m + g(t)) mod d at
t = dn, the direct one with d = t and the Moebius one only whether it
is 0, and both are certified: one 64-bit fixed-point kernel, which sums
the brackets of every term, decides what it can and the exact engine
the rest, so with no cutoff they must agree exactly — that identity is
the strongest self-test in the package.  The module also carries the
zeta constants the density converges to, the closed-form error
exponents, and the density experiment harness with its log-log error
fit.
"""

from __future__ import annotations

import bisect
import decimal
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFit, InsufficientData, InvalidSpec, \
    PrecisionExhausted, ResourceLimit
from .realnum import Interval, LinearForm, _iroot, as_spec

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
        low = self.lower_terms
        if low:
            if len(low) != len(ms):
                raise InvalidSpec("lower_terms must align with the exponents")
            norm = []
            for j, entry in enumerate(low):
                if not entry:
                    norm.append(None)
                    continue
                if j == 0:
                    raise InvalidSpec(
                        "the first coordinate admits no lower-order terms")
                coeffs = tuple(as_spec(c) for c in entry)
                if len(coeffs) > ms[j]:
                    raise InvalidSpec(
                        f"lower-order degree must stay below {ms[j]}")
                norm.append(coeffs)
            object.__setattr__(self, "lower_terms", tuple(norm))
        else:
            object.__setattr__(self, "lower_terms",
                               tuple(None for _ in ms))
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
    (d, n, j) box tests, decided by the 64-bit fixed-point kernel;
    exact_fallbacks: those the kernel left undecided or could not take,
    every one of an exact-only coordinate included, sent to the
    big-integer engine, so the two sum to the floors or tests evaluated;
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
    elapsed: float
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


def _primes_upto(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).astype(np.int64)


_SIEVE_BLOCK = 1 << 20             # entries sieved at a time
_SIEVE_BUDGET = 1 << 29            # bytes a Moebius table may take


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
    """mu(d) for 1 ≤ d ≤ limit as int8, index 0 unused.

    The table takes one byte per entry, and it is filled in blocks of
    _SIEVE_BLOCK entries, each with 18 bytes per entry of working arrays.
    Raises ResourceLimit, before allocating, when that exceeds
    _SIEVE_BUDGET bytes.
    """
    if limit < 1:
        raise InvalidSpec("sieve limit must be >= 1")
    need = limit + 1 + 18 * min(limit, _SIEVE_BLOCK)
    if need > _SIEVE_BUDGET:
        raise ResourceLimit(
            f"a Moebius table to {limit} needs ~{need} bytes, over the "
            f"budget of {_SIEVE_BUDGET} bytes")
    primes = _primes_upto(math.isqrt(limit))
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
# The kernel takes pairs with d < 2^32 and W < 2^62: as S_e <= S_m and
# S_m >= 1, W <= (w + w_0) S_m, w the sum of the widths hi_e - lo_e over
# e >= 1 and w_0 the constant's, so it caps k S_m < 2^61 with the scale
# k = ceil((w + w_0) / 2), which is 1 for one term of width <= 2.  The
# rest, and the pairs it leaves open, take the exact floor.

_FIX_BITS = 64
_BLOCK = 4096                      # pairs per kernel block; keeps RSS flat
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_S_LIMIT = 1 << 61
_D_LIMIT = (1 << 32) - 1
_U64_MAX = np.uint64((1 << 64) - 1)


def _fast_plan(forms: list) -> list:
    """Per coordinate form, (terms, constant, scale k) for `_kernel`, or
    None when only the exact engine may evaluate it: a literal carries
    under 64 bits, or its constant's bracket reaches 2^126.  From the
    64-bit bracket (lo, hi) of each coefficient, terms holds
    (e, lo mod 2^64, hi - lo) per degree e >= 1, increasing, and constant
    is (lo >> 64, lo mod 2^64, hi - lo + 1), or None without one."""
    plan = []
    for form in forms:
        pe, rows = form._rows(_FIX_BITS)
        terms = sorted((e, lo % (1 << _FIX_BITS), hi - lo)
                       for lo, hi, e in rows if e)
        const = next(((lo >> _FIX_BITS, lo % (1 << _FIX_BITS), hi - lo + 1)
                      for lo, hi, e in rows if not e), None)
        if pe < _FIX_BITS or const and abs(const[0]) >= 1 << 62:
            plan.append(None)
            continue
        width = sum(w for _, _, w in terms) + (const[2] if const else 0)
        plan.append((terms, const, max((width + 1) // 2, 1)))
    return plan


def _s_cap(coeff: int, power: int) -> int:
    """Largest v ≤ 2^32 - 1 with coeff * v^power < 2^61 (0 if none)."""
    room = (_S_LIMIT - 1) // coeff
    if power == 0:
        return _D_LIMIT if room else 0
    return min(_iroot(room, power), _D_LIMIT)


def _mul_hi(n: np.ndarray, v: np.ndarray) -> np.ndarray:
    """floor(n * v / 2^64) exactly, for uint64 n < 2^32 and any uint64 v."""
    a = n * (v >> _SHIFT32)
    b = n * (v & _LOW32)
    return (a >> _SHIFT32) + (((a & _LOW32) + (b >> _SHIFT32)) >> _SHIFT32)


def _const_floor(a: int, b: int, d: np.ndarray) -> np.ndarray:
    """floor((a 2^64 + b) / d) mod 2^64 for |a| < 2^62, 0 <= b < 2^64 and
    uint64 0 < d < 2^32, as the long division of (a mod d) 2^64 + b, below
    d 2^64, in 32-bit digits."""
    r = (np.int64(a) % d.astype(np.int64)).astype(np.uint64)
    q, r = np.divmod(r << _SHIFT32 | np.uint64(b >> 32), d)
    return (q << _SHIFT32) + (r << _SHIFT32 | np.uint64(b & 0xFFFFFFFF)) // d


def _kernel(d: np.ndarray, n: np.ndarray, entry: tuple, zero: bool):
    """(r, decided mask) for r = floor(f(dn)) mod d as int64, or with zero
    (r == 0, decided mask), for uint64 d < 2^32 and n with
    k d^(m-1) n^m < 2^61, given the `_fast_plan` entry of f with scale k."""
    terms, const, _ = entry
    t = d * n if terms[-1][0] > 1 else None
    low = None
    for e, lo64, w in terms:          # low wraps: exact mod 2^64
        s = n if e == 1 else n * (t if e == 2 else t ** (e - 1))   # S_e
        if low is None:
            low, width = s * np.uint64(lo64), s * np.uint64(w)
        else:
            low += s * np.uint64(lo64)
            width += s * np.uint64(w)
    if const:
        low += _const_floor(*const[:2], d)
        width += np.uint64(const[2])
    high = low + width
    whole = high >= low
    if zero:
        q = _U64_MAX // d
        inside = whole & (high <= q)
        return inside, inside | (whole & (low > q))
    res = _mul_hi(d, low)
    # compare before the cast: numpy takes uint64 == int64 in float64
    decided = whole & (_mul_hi(d, high) == res)
    return res.astype(np.int64), decided


def _coordinate(plan: list, forms: list, j: int, d: np.ndarray,
                n: np.ndarray, fast: np.ndarray, zero: bool,
                tally: list) -> np.ndarray:
    """floor(a_j t^(m_j) + g_j(t)) mod d at t = dn per pair, or with zero
    whether it is 0: the kernel takes the pairs in the mask fast when
    coordinate j has a plan, and the exact floor the rest and the pairs it
    leaves open.  tally accumulates [kernel verdicts, exact fallbacks]."""
    if plan[j] is None:
        out = np.empty(d.size, dtype=bool if zero else np.int64)
        open_ = np.arange(d.size)
    else:
        out, decided = _kernel(d, n, plan[j], zero)
        open_ = np.flatnonzero(~(decided & fast))
        tally[0] += d.size - open_.size
    tally[1] += open_.size
    if open_.size:
        ds = d[open_].tolist()
        ts = [a * b for a, b in zip(ds, n[open_].tolist())]
        try:
            res = [f % a for f, a in zip(forms[j].floors(ts), ds)]
        except PrecisionExhausted as exc:
            exc.term = j                   # the failure names the coordinate
            raise
        out[open_] = [r == 0 for r in res] if zero else res
    return out


def _coprime_block(plan: list, forms: list, caps: list, n_lo: int,
                   n_hi: int, tally: list):
    """Boolean mask of n in [n_lo, n_hi] with gcd(n, floor terms) = 1.

    Coordinates run in order, each only on the n whose running gcd is
    still above 1, as the pairs (d, n) = (n, 1); the kernel takes the
    n ≤ caps[j].  tally accumulates [kernel verdicts, exact fallbacks].
    """
    n = np.arange(n_lo, n_hi + 1, dtype=np.uint64)
    g = n.astype(np.int64)
    for j, cap in enumerate(caps):
        idx = np.flatnonzero(g > 1)
        if not idx.size:
            break
        t = n[idx]
        res = _coordinate(plan, forms, j, t, np.ones_like(t), t <= cap,
                          False, tally)
        g[idx] = np.gcd(g[idx], res)
    return g == 1


def _direct_chunk(args):
    """Prefix counts at each cut for the n in [n_lo, n_hi], plus the
    kernel's [fast floors, exact fallbacks] and the exact-only
    coordinates."""
    problem, n_lo, n_hi, cuts = args
    forms = [coordinate_form(problem, j) for j in range(problem.k)]
    plan = _fast_plan(forms)
    # the kernel takes n < 2^32 with k n^(m-1) < 2^61
    caps = [_s_cap(e[2], m - 1) if e else 0 for e, m in zip(plan, problem.ms)]
    tally = [0, 0]
    counts = [0] * len(cuts)
    i = bisect.bisect_left(cuts, n_lo)
    total = 0
    for b_lo in range(n_lo, n_hi + 1, _BLOCK):
        b_hi = min(b_lo + _BLOCK - 1, n_hi)
        ok = _coprime_block(plan, forms, caps, b_lo, b_hi, tally)
        while i < len(cuts) and cuts[i] <= b_hi:
            counts[i] = total + int(np.count_nonzero(ok[:cuts[i] - b_lo + 1]))
            i += 1
        total += int(np.count_nonzero(ok))
    counts[i:] = [total] * (len(cuts) - i)
    return counts, tally, plan.count(None)


def _direct_sweep(problem: ProblemSpec, cuts: tuple, workers: int):
    """Exact counts at every cut (increasing) from one sweep to cuts[-1].

    The range splits into `workers` contiguous chunks, each counted
    independently; chunk results are summed in chunk order.  Counts are
    exact integers, so they are identical for every worker count.
    """
    if workers < 1:
        raise InvalidSpec("workers must be >= 1")
    x = cuts[-1]
    if workers == 1 or x < 4096:
        parts = [_direct_chunk((problem, 1, x, cuts))]
    else:
        edges = [i * x // workers for i in range(workers + 1)]
        jobs = [(problem, lo + 1, hi, cuts)
                for lo, hi in zip(edges, edges[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_direct_chunk, jobs))
    counts = [0] * len(cuts)
    fast = fallbacks = 0
    for part, (f, fb), _ in parts:
        counts = [a + b for a, b in zip(counts, part)]
        fast += f
        fallbacks += fb
    return tuple(counts), FloorStats(fast, fallbacks, parts[0][2])


def direct_count(problem: ProblemSpec, x: int, *,
                 workers: int = 1) -> CountResult:
    """Count n ≤ x with gcd(n, floor terms) = 1, term by term.

    Floors come from the 64-bit kernel where its bracket decides them and
    from the certified big-integer engine otherwise.  The count is the
    one-point case of the density sweep, so it is identical for every
    worker count.
    """
    if x < 1:
        raise InvalidSpec("x must be >= 1")
    start = time.perf_counter()
    (count,), stats = _direct_sweep(problem, (x,), workers)
    return CountResult(x, count, "direct", None,
                       time.perf_counter() - start, stats)


def _box_hits(plan: list, forms: list, d: np.ndarray, n: np.ndarray,
              along: np.ndarray, caps: list, tally: list) -> np.ndarray:
    """Indices i with floor(a_j t^(m_j) + g_j(t)) ≡ 0 (mod d_i), t = d_i n_i,
    for every j.  Coordinates run in order, each on the pairs that passed
    the ones before; the kernel takes the pairs with along ≤ caps[j]."""
    idx = np.arange(n.size)
    for j, cap in enumerate(caps):
        if not idx.size:
            break
        hit = _coordinate(plan, forms, j, d[idx], n[idx], along[idx] <= cap,
                          True, tally)
        idx = idx[hit]
    return idx


def inner_count(problem: ProblemSpec, d: int, x: int, *,
                _plan: Optional[tuple] = None,
                _tally: Optional[list] = None) -> int:
    """Count n ≤ x/d whose scaled fractional vector lands in [0, 1/d)^k,
    that is, with floor(a_j (dn)^{m_j} + g_j(dn)) ≡ 0 (mod d) for every j.

    The n run in blocks of _BLOCK (memory stays flat in x) through
    `_box_hits`: the kernel's zero test decides each pair it can, those
    with d < 2^32 and k_j d^(m_j-1) n^(m_j) < 2^61, and the certified floor
    the rest.  _tally, when given, accumulates [box tests decided, exact
    fallbacks]; _plan, when given, is (forms, `_fast_plan(forms)`).
    """
    if d < 1:
        raise InvalidSpec("d must be >= 1")
    if x < 1:
        raise InvalidSpec("x must be >= 1")
    nmax = x // d
    if nmax == 0:
        return 0
    if d == 1:
        return nmax
    if _plan is None:
        forms = [coordinate_form(problem, j) for j in range(problem.k)]
        _plan = forms, _fast_plan(forms)
    forms, plan = _plan
    tally = _tally if _tally is not None else [0, 0]
    caps = [_s_cap(e[2] * d ** (m - 1), m) if e and d <= _D_LIMIT else 0
            for e, m in zip(plan, problem.ms)]
    cnt = 0
    for lo in range(1, nmax + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, nmax + 1), dtype=np.uint64)
        dd = np.full(n.size, d, dtype=np.uint64)
        cnt += _box_hits(plan, forms, dd, n, n, caps, tally).size
    return cnt


def _large_d_sum(problem: ProblemSpec, plan: list, forms: list,
                 mu: np.ndarray, r: int, x: int, tally: list) -> int:
    """Sum of mu(d) * inner_count(problem, d, x) over r < d < mu.size, as
    one pass per n ≤ x/(r+1) over the d in (r, x/n], in _BLOCK slices
    of the mu table."""
    total = 0
    for n in range(1, x // (r + 1) + 1):
        top = min(x // n, mu.size - 1)
        caps = [_s_cap(e[2] * n ** m, m - 1) if e else 0
                for e, m in zip(plan, problem.ms)]
        for lo in range(r + 1, top + 1, _BLOCK):
            sign = mu[lo:min(lo + _BLOCK, top + 1)]
            pos = np.flatnonzero(sign)
            d = pos.astype(np.uint64) + np.uint64(lo)
            nn = np.full(d.size, n, dtype=np.uint64)
            hits = _box_hits(plan, forms, d, nn, d, caps, tally)
            total += int(sign[pos[hits]].sum())
    return total


def mobius_count(problem: ProblemSpec, x: int,
                 d_cutoff: Optional[int] = None) -> CountResult:
    """N(x) through the divisor decomposition: sum of mu(d) * inner_count.

    The (d, n) pairs split at r = isqrt(x), as in Dirichlet's hyperbola
    method: each d ≤ r is one `inner_count` over n ≤ x/d, and the d > r
    are swept per n ≤ x/(r+1).  stats counts box tests the way
    direct_count counts floors.  With no cutoff this is an exact
    identity with direct_count; with a cutoff it is the truncation of
    that sum (reported as such, and it may leave the [0, x] range — only
    the full sum is a genuine count).
    """
    if x < 1:
        raise InvalidSpec("x must be >= 1")
    if d_cutoff is not None and not 1 <= d_cutoff <= x:
        raise InvalidSpec("d_cutoff must lie in [1, x]")
    start = time.perf_counter()
    depth = d_cutoff if d_cutoff is not None else x
    mu = mobius_sieve(depth)
    forms = [coordinate_form(problem, j) for j in range(problem.k)]
    plan = _fast_plan(forms)
    tally = [0, 0]
    r = math.isqrt(x)
    total = 0
    for d in np.flatnonzero(mu[:r + 1]).tolist():
        total += int(mu[d]) * inner_count(problem, d, x,
                                          _plan=(forms, plan), _tally=tally)
    if depth > r:
        total += _large_d_sum(problem, plan, forms, mu, r, x, tally)
    return CountResult(x, total, "mobius", d_cutoff,
                       time.perf_counter() - start,
                       FloorStats(tally[0], tally[1], plan.count(None)))


# ---------------------------------------------------------------------------
# zeta values (exact rational Euler-Maclaurin with certified remainder)


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * _bernoulli(k)
    return -acc / (m + 1)


def zeta_int(s: int, bits: int) -> Interval:
    """Enclosure of zeta(s) for integer s ≥ 2, width below 2^(1-bits).

    Plain truncation of the series would need ~2^(bits/(s-1)) terms, so
    the sum is accelerated with the Euler-Maclaurin correction; t^(-s) is
    completely monotone, which bounds the truncated remainder by the
    magnitude of the first omitted correction term.
    """
    if not isinstance(s, int) or s < 2:
        raise InvalidSpec("zeta_int needs an integer s >= 2")
    if bits < 8:
        raise InvalidSpec("bits must be >= 8")
    tol = Fraction(1, 1 << (bits + 2))
    cut = max(16, bits // 8 + 4)
    while True:
        total = sum(Fraction(1, n ** s) for n in range(1, cut))
        total += Fraction(1, 2 * cut ** s)
        total += Fraction(1, (s - 1) * cut ** (s - 1))
        prev = None
        rem = None
        j = 1
        while True:
            two_j = 2 * j
            rise = 1
            for i in range(two_j - 1):
                rise *= s + i
            term = (_bernoulli(two_j) * rise /
                    math.factorial(two_j) / cut ** (s - 1 + two_j))
            mag = abs(term)
            if prev is not None and mag >= prev:
                break                      # series turned before tol: grow cut
            if mag < tol:
                rem = mag
                break
            total += term
            prev = mag
            j += 1
        if rem is not None:
            unit = 1 << (bits + 2)
            lo = Fraction(math.floor((total - rem) * unit), unit)
            hi = Fraction(-math.floor(-(total + rem) * unit), unit)
            return Interval(lo, hi, bits)
        cut *= 2


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
                       tau: Optional[ExactLike] = None,
                       workers: int = 1) -> DensityRun:
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
    counts, stats = _direct_sweep(problem, grid, workers)
    errors = tuple(abs(Fraction(c) - x * target)
                   for x, c in zip(grid, counts))
    slope, residual = _fit_loglog(grid, errors)
    gamma = theoretical_gamma(problem.ms, tau) if tau is not None else None
    return DensityRun(problem, grid, counts, target, errors, slope,
                      residual, gamma, stats)


# ---------------------------------------------------------------------------
# serialization


def dec_str(fr: Fraction, digits: int = 30) -> str:
    """Decimal rendering of an exact rational, `digits` significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator))


def density_run_csv(run: DensityRun) -> str:
    lines = ["x,count,density,target,abs_error"]
    for x, c, e in zip(run.grid, run.counts, run.errors):
        lines.append(",".join([str(x), str(c), dec_str(Fraction(c, x), 20),
                               dec_str(run.target, 20), dec_str(e, 20)]))
    return "\n".join(lines) + "\n"


def density_run_payload(run: DensityRun) -> dict:
    return {
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
        "theoretical_gamma": None if run.theoretical_gamma is None
        else dec_str(run.theoretical_gamma),
    }
