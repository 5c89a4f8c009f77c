"""Equidistribution toolkit for scaled fractional-part sequences.

Generates the point sets ({a_j d^{m_j-1} n^{m_j} + g_j(dn)/d})_{j<=k},
measures their irregularity three ways — exact extreme discrepancy in
dimension one, the star discrepancy (a lower bound) in any dimension, and the
Erdős–Turán–Koksma upper bound through exponential sums — and evaluates
the explicit inequalities (linear, quadratic, reciprocal-sum, and
monotonicity checks) that make those sums estimable.  Everything here
measures; the only asserted facts are the certified ones (floor-pinned
fractional parts, exact-rational checks, the Erdős–Turán–Koksma bound).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .counting import ProblemSpec, _as_exact, coordinate_form
from .dioph import convergents
from .errors import InvalidSpec, NoConvergent, ResourceLimit
from .realnum import (LinearForm, SpecLike, _check_ends, _distance_ends,
                      as_spec, dist_nearest_ints)

# _TERM_ERR bounds how far each term moves `_cis_sum`'s sum and its abs(),
# so N _TERM_ERR bounds the error of either; e(t) is 1-Lipschitz in
# t = 2 pi phi.  A `phase_fracs` double is within 2^-54 + 2^-64 of its
# phase mod 1 (one that rounds to 1 is 0): 0.393 2^-50 in t.  In
# np.longdouble 80-bit extended (unit roundoff 2^-64), 2 pi and the product
# each err by under 2^-61, cosl and sinl by an ulp, and numpy's pairwise
# sum, which rounds each term at most log2(N) + 18 times, by (log2 N + 18)
# 2^-64 per term in modulus (Minkowski): under 0.006 2^-50 for N < 2^60.
# Rounding the two sums to float64 adds 2^-53 per component, 0.125 2^-50
# per term in modulus, and abs (hypot, within an ulp) 2^-52 N, 0.25 2^-50
# per term: 0.393 + 0.006 + 0.125 + 0.25 = 0.78 2^-50.  In binary64, in
# units of 2^-53: 3.2 (phase), 8 (2 pi), 4 (product), 1.5 (cos, sin),
# log2(N) + 18 (sum) and 2 (hypot), so 2^-47 = 64 for N <= 2^26.  Every
# spec's bracket is at most 2 units wide, so `linear_sum_exact`'s phases
# are as close, and N _TERM_ERR is its whole sum_error.
_LD_OK = np.finfo(np.longdouble).nmant > 52
_TERM_ERR = 2.0 ** -50 if _LD_OK else 2.0 ** -47
_TWO_PI_LD = 2 * np.arccos(np.longdouble(-1.0))


def _cis_sum(phases: Sequence[float]) -> complex:
    """Sum of e(phase) over unit-interval phases, extended-precision cis."""
    t = np.asarray(phases, dtype=np.longdouble) * _TWO_PI_LD
    return complex(float(np.cos(t).sum()), float(np.sin(t).sum()))


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class ScreenStats:
    """What the 64-bit screen of `LinearForm.frac_units` and `phase_fracs`
    did: screened values it decided, open values it left to the
    big-integer verdict loop."""

    screened: int = 0
    open: int = 0


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points in [0,1)^dim with a stated coordinate error radius.

    All discrepancy functionals in this module are computed on the stored
    double-precision coordinates; coord_error bounds the distance from
    each stored coordinate to the real it represents, so a reported value
    transfers to the true sequence up to boundary crossings within that
    radius.  stats counts how the coordinates were computed.
    """

    dim: int
    points: np.ndarray
    provenance: dict
    coord_error: float = 2.0 ** -52
    stats: ScreenStats = ScreenStats()

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise InvalidSpec("points must be an (N, dim) array")
        if arr.size and (not np.isfinite(arr).all()
                         or arr.min() < 0.0 or arr.max() >= 1.0):
            raise InvalidSpec("coordinates must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def N(self) -> int:
        return self.points.shape[0]

    @classmethod
    def synthetic(cls, points, tag: str = "synthetic",
                  coord_error: float = 0.0) -> "PointSet":
        try:
            arr = np.atleast_2d(np.asarray(points, dtype=np.float64))
        except ValueError as exc:
            raise InvalidSpec(f"points are not rectangular: {exc}") from exc
        return cls(arr.shape[1], arr, {"kind": "synthetic", "tag": tag},
                   coord_error)


def nu_sequence(problem: ProblemSpec, d: int, N: int) -> PointSet:
    """The first N scaled fractional-part vectors for modulus d.

    Point n has coordinates {a_j d^{m_j-1} n^{m_j} + g_j(dn)/d}; each is
    floor-certified and stored as a double within 2^-60 + one ulp of the
    true value.  Each coordinate is one `frac_units` batch over n <= N,
    which returns the whole column at once: its 64-bit screen gives the
    correctly rounded double of each bracket where the bracket's ends
    round alike, and the rest take the big-integer loop.  stats counts
    the two.
    """
    if d < 1:
        raise InvalidSpec("d must be >= 1")
    if N < 0:
        raise InvalidSpec("N must be >= 0")
    forms = [coordinate_form(problem, j, d) for j in range(problem.k)]
    pts = np.empty((N, problem.k), dtype=np.float64)
    err = 2.0 ** -52
    tally = [0, 0]
    for j, form in enumerate(forms):
        pts[:, j], errs = form.frac_units(range(1, N + 1), tally)
        err = float(errs.max(initial=err))
    return PointSet(problem.k, pts,
                    {"kind": "scaled_fracs", "problem": problem.describe(),
                     "d": d, "N": N}, err, ScreenStats(*tally))


# ---------------------------------------------------------------------------
# discrepancy: exact (1D), box-witness lower bound, Erdős–Turán–Koksma bound


def discrepancy_exact_1d(ps: PointSet) -> Fraction:
    """Exact extreme discrepancy sup |count/N - length| over [a, b).

    For sorted x_1 <= ... <= x_N in [0, 1) the supremum over all
    half-open subintervals of [0, 1) is
    D_N = 1/N + max_i (i/N - x_i) - min_i (i/N - x_i)
    (Kuipers–Niederreiter, *Uniform Distribution of Sequences*, Ch. 2,
    §1), here (1 + max g - min g)/N over g_i = i - N x_i.  The stored
    doubles of the 1-D point set ps are taken as exact rationals, so the
    returned Fraction is the true supremum for the stored coordinates.

    A float64 pass screens for the extremes and Fraction arithmetic
    rescores the few indices it leaves.  For N < 2^53, i and N are exact
    doubles and the float gap g~_i = i - N x_i is within eps = N 2^-51
    of g_i: the product and the difference lie in [-N, N] and each
    rounds by at most N 2^-53, 2 N 2^-53 < eps in all.  So the true
    argmax has g~ >= max g~ - 2 eps and the true argmin
    g~ <= min g~ + 2 eps, and the slack of eps over 2 N 2^-53 absorbs
    the rounding of those two thresholds.  Only the indices within 2 eps
    of the float maximum or minimum are rescored; ties, as on a lattice
    where every g_i is equal, only enlarge that candidate set.
    """
    if ps.dim != 1:
        raise InvalidSpec("exact discrepancy needs dim = 1")
    if ps.N < 1:
        raise InvalidSpec("need at least one point")
    vals = np.sort(ps.points[:, 0])
    N = len(vals)
    gaps = np.arange(1, N + 1) - N * vals
    slack = 2 * N * 2.0 ** -51

    def rescored(near):
        return [i + 1 - N * Fraction(vals[i])
                for i in np.flatnonzero(near).tolist()]

    top = max(rescored(gaps >= gaps.max() - slack))
    bottom = min(rescored(gaps <= gaps.min() + slack))
    return (1 + top - bottom) / N


@dataclass(frozen=True)
class SweepStats:
    """What discrepancy_box_lower's sweep did: the cuts of its sweep axis
    and the cuts at which it scored a side; both 0 in dimension one,
    where no sweep runs."""

    cuts: int = 0
    cuts_scored: int = 0


@dataclass(frozen=True)
class BoxLower:
    """A witnessed lower bound for the extreme discrepancy."""
    value: float
    boxes_checked: int
    stats: SweepStats = SweepStats()


_BUDGET = 4_000_000             # et_koksma_upper's most +-h pairs
_TABLE_CELLS = 1 << 15          # its complex table entries per block
_BOX_BUDGET = 2_000_000_000     # most boxes in a box sweep's critical grid


def discrepancy_box_lower(ps: PointSet) -> BoxLower:
    """The star discrepancy of the stored points, the largest
    |count/N - volume| over boxes [0, b): a lower bound for the extreme
    discrepancy.  In dimension one it is discrepancy_exact_1d, the
    extreme discrepancy itself, rounded down.

    Per axis, b runs over each point coordinate v, its one-sided upper
    limit v+, and 1: the critical grid on which the supremum is attained
    (Kuipers–Niederreiter, *Uniform Distribution of Sequences*, Ch. 2,
    §1).  boxes_checked is its size, the product of 2 n_j + 1 over the
    n_j distinct values per axis, not the number of boxes scored; past
    _BOX_BUDGET boxes ResourceLimit is raised before any table exists.

    One sweep walks the cuts of the axis s with the most distinct values
    over a below-cut count table T of the other axes: O(N^k) time in the
    worst case, O(N^(k-1)) memory.  The corners of a cut tuple share one
    count, and their volumes run from prod lo (b = v+ of each value
    below the cut) to prod hi (b = the value above it, or 1), so,
    rounding being monotone, the lo side's T/N - prod lo or the hi
    side's prod hi - T/N is the largest float deviation among them.  The
    best corner is rescored exactly and rounded down, so the value never
    exceeds the supremum.

    A side is scored at a cut only if it can beat the best so far.  With
    u = 2^-53, l the side's last scored cut, M its largest deviation
    there and every quantity in [-1, 1] rounding by at most u: T only
    grows, by at most the P points added since l, and lo_s and hi_s do
    not decrease, so at cut c every lo deviation is at most
    M + P/N + 4u (lo volumes do not shrink, rounding being monotone),
    and every hi deviation at most M + hi_s[c] - hi_s[l] + (2k + 2)u (a
    k-factor product in [0, 1] is within k u of the exact one, the other
    axes' factor is at most 1).  The next cut to score is found by a
    search on the cumulative point counts or on hi_s for the threshold
    best - M - slack.  Its float evaluation, and that of the search key,
    errs by at most 4u (N times that for the point count), so
    slack = (2k + 8)u makes every skipped deviation fall strictly below
    best.  A skipped side could not have replaced the best, so the
    maximum found first in (cut, lo before hi, flat index) order, the one
    rescored, is that of scoring every cut.  stats counts the cuts and
    those at which a side was scored.
    """
    N, k = ps.N, ps.dim
    if N < 1:
        raise InvalidSpec("need at least one point")
    axes = [np.unique(col) for col in ps.points.T]
    if k == 1:
        return BoxLower(_float_down(discrepancy_exact_1d(ps)),
                        2 * len(axes[0]) + 2)
    n_boxes = math.prod(2 * len(vj) + 1 for vj in axes)
    if n_boxes > _BOX_BUDGET:
        raise ResourceLimit(f"the critical grid has {n_boxes} boxes, past "
                            f"the budget of {_BOX_BUDGET}")
    s = max(range(k), key=lambda j: len(axes[j]))
    lo = [np.concatenate((vj[:1], vj)) for vj in axes]
    hi = [np.concatenate((vj, [1.0])) for vj in axes]
    ranks = [np.searchsorted(vj, col) for vj, col in zip(axes, ps.points.T)]
    shape = tuple(len(vj) + 1 for j, vj in enumerate(axes) if j != s)
    order = np.argsort(ranks[s])
    # each point's corner in the table, in rank order on axis s; cut c
    # holds the points of rank below c, the first ends[c] of them
    corners = np.column_stack([rj[order] + 1 for j, rj in enumerate(ranks)
                               if j != s]).tolist()
    ends = np.searchsorted(ranks[s], np.arange(len(lo[s])),
                           sorter=order).tolist()
    tops = hi[s].tolist()
    # per side, the volume's factors before axis s, on it, and after it
    sides = [([reduce(np.multiply.outer, vols[:s])] if s else [],
              vols[s], vols[s + 1:]) for vols in (lo, hi)]
    table = np.zeros(shape)
    below, vol, dev = (np.empty(shape) for _ in range(3))
    slack = (2 * k + 8) * 2.0 ** -53
    best, filled, scored = -math.inf, 0, 0
    # per side: its last scored cut, the largest deviation there, its
    # next cut to score
    last, peak, nxt = [0, 0], [0.0, 0.0], [0, 0]
    while (c := min(nxt)) < len(ends):
        for r in corners[filled:ends[c]]:
            table[tuple(slice(x, None) for x in r)] += 1
        filled = ends[c]
        np.divide(table, N, out=below)
        scored += 1
        for side, (head, cut, tail) in enumerate(sides):
            if nxt[side] > c:
                continue
            parts = head + [cut[c]] + tail
            np.multiply.outer(reduce(np.multiply.outer, parts[:-1]),
                              parts[-1], out=vol)
            np.subtract(*((vol, below) if side else (below, vol)), out=dev)
            i = int(dev.argmax())
            last[side], peak[side] = c, float(dev.flat[i])
            if peak[side] > best:
                best, at = peak[side], (side, c, i, int(table.flat[i]))
        gap = [best - m - slack for m in peak]
        nxt = [max(c + 1, bisect_left(
                   ends, ends[last[0]] + math.ceil(gap[0] * N))),
               max(c + 1, bisect_left(tops, gap[1] + tops[last[1]]))]
    side, c, i, count = at
    cuts = np.insert(np.unravel_index(i, shape), s, c)
    exact = Fraction(count, N) - math.prod(
        Fraction(vj[cj]) for vj, cj in zip((lo, hi)[side], cuts))
    return BoxLower(_float_down(-exact if side else exact), n_boxes,
                    SweepStats(len(ends), scored))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Lower/upper sandwich around the discrepancy of one point set."""
    N: int
    exact: Optional[float]
    box_lower: Optional[float]
    et_upper: float
    H: int
    weyl_terms: tuple
    sweep: SweepStats = SweepStats()

    def __post_init__(self) -> None:
        if self.box_lower is not None and self.box_lower > self.et_upper:
            raise InvalidSpec("lower bound exceeds upper bound")
        if self.exact is not None:
            if self.box_lower is not None and self.box_lower > self.exact:
                raise InvalidSpec("box lower bound exceeds the exact value")
            if self.exact > self.et_upper:
                raise InvalidSpec("exact value exceeds the upper bound")


def _half_lattice(k: int, H: int):
    """One representative of each +-h pair, 0 < max|h_j| <= H."""
    return (h for h in product(range(-H, H + 1), repeat=k)
            if next((c for c in h if c), 0) > 0)


_U = Fraction(1, 1 << 53)          # unit roundoff of a double


def _float_up(x: Fraction) -> float:
    """The least double >= x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def _float_down(x: Fraction) -> float:
    """The largest double <= x."""
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _sum_error(N: int, k: int, H: int) -> float:
    """A bound on |mag - |S_h|| for each float mag that et_koksma_upper
    computes from S_h = sum_n e(<h, x_n>) over the stored doubles x_n.

    With u = 2^-53, gamma_n = n u / (1 - n u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1) and w = e(x), 0 <= x < 1:
      * t = 2*math.pi * x rounds once, 2*math.pi is within 4u of 2 pi,
        and libm's cos t and sin t are within two ulps (2^-52) each, so
        z = np.exp(it) has |z - w| <= 11u + 3u and |z| <= 1 + 3u;
      * T[h] = T[h-1] z is within sqrt(2) gamma_2 <= 3u relative (Higham,
        Lemma 3.5): e_h = |T[h] - w^h| <= (1 + 3u)^2 e_(h-1) + 17u + 9u^2
        gives e_h <= 18 u h for h <= 2^40; conj T[h] is exact;
      * a row entry q_n takes max(k - 2, 0) products, each within 3u
        relative (by 1, exact), so q_n r_n, r_n the last coordinate's, is
        within e^y - 1 of e(<h, x_n>), |q_n r_n| <= e^y, for y = u (18 kH
        + 3 max(k - 2, 0)); under _BUDGET kH <= 4 10^6, e^y - 1 <= 1.001 y;
      * the contraction and the block sum, in any order, fused or not,
        make the real and the imaginary part real dot products of 2N
        terms, each within gamma_(2N) sum_n |q_n r_n| (Higham, (3.5));
      * abs() is hypot, within one ulp: 2u |s| <= 2u N e^y (1 + 2 gamma).
    In all, N (1.001 y + 2.1 u) + 1.5 N gamma_(2N)
    <= N u k (19 H + 4) + 2 N gamma_(2N), rounded up.
    """
    gamma = 2 * N * _U / (1 - 2 * N * _U)
    return _float_up(N * _U * k * (19 * H + 4) + 2 * N * gamma)


def _block_sums(x: np.ndarray, H: int) -> np.ndarray:
    """sum_n e(<(p, h), x_n>) over a block, rows p over the prefixes of
    coordinates 1..k-1 from 0 up, columns over the last one's h = -H..H:
    _half_lattice's order past p = 0, h <= 0.  Table row H + h is e(h x_j):
    np.exp at h = 1, products above, conjugates below.  np.einsum, as a
    BLAS matmul leaves a second thread spinning for ~0.1 s of CPU."""
    tables = np.ones((x.shape[1], 2 * H + 1, len(x)), dtype=np.complex128)
    tables[:, H + 1] = np.exp(2j * math.pi * x.T)
    for h in range(H + 2, 2 * H + 1):
        np.multiply(tables[:, h - 1], tables[:, H + 1], out=tables[:, h])
    np.conjugate(tables[:, H + 1:], out=tables[:, H - 1::-1])
    rows = reduce(lambda r, t: (r[:, None] * t).reshape(-1, len(x)),
                  tables[:-1], np.ones((1, len(x)), dtype=np.complex128))
    return np.einsum("pn,hn->ph", rows[len(rows) // 2:], tables[-1])


def et_koksma_upper(ps: PointSet, H: int) -> DiscrepancyReport:
    """Erdős–Turán–Koksma: for the stored doubles of ps, D_N is at most
    (3/2)^k (2/(H+1) + sum_{0<|h|_inf<=H} |S_h| / (N r(h))), with
    r(h) = prod max(|h_j|, 1) (Kuipers–Niederreiter, *Uniform
    Distribution of Sequences*, Ch. 2, Thm 2.5).

    Opposite frequencies have conjugate sums, so one representative per
    pair is evaluated and counted twice; weyl_terms records (h, |S_h|,
    r(h)) for each, S_h as sum_n prod_j e(x_nj)^(h_j) (_block_sums).
    Each float |S_h| carries _sum_error; the terms are
    nonnegative and rounded twice, and math.fsum once, so dividing their
    sum by (1 - u)^3 covers that, and the result is rounded up.
    """
    if H < 1:
        raise InvalidSpec("H must be >= 1")
    N = ps.N
    if N < 1:
        raise InvalidSpec("need at least one point")
    k = ps.dim
    count = (2 * H + 1) ** k - 1
    if count > 2 * _BUDGET:
        raise ResourceLimit(f"{count} frequencies in [-{H}, {H}]^{k} "
                            f"exceed the budget of {2 * _BUDGET}")
    err = _sum_error(N, k, H)
    width = 2 * H + 1               # table rows per coordinate
    block = max(1, _TABLE_CELLS // (width ** (k - 1) + k * width))
    sums = sum(_block_sums(ps.points[i:i + block], H)
               for i in range(0, N, block))
    parts, terms = [], []
    for h, mag in zip(_half_lattice(k, H),
                      np.abs(sums.ravel()[H + 1:]).tolist()):
        r = math.prod(max(abs(c), 1) for c in h)
        terms.append((h, mag, r))
        parts.append((mag + err) / r)
    total = Fraction(math.fsum(parts)) / (1 - _U) ** 3
    bound = Fraction(3, 2) ** k * (Fraction(2, H + 1) + 2 * total / N)
    return DiscrepancyReport(N, None, None, _float_up(bound), H, tuple(terms))


def discrepancy_report(ps: PointSet, H: int) -> DiscrepancyReport:
    """Assemble the exact value (dim 1), box lower bound, and upper bound;
    sweep is what the box sweep did."""
    upper = et_koksma_upper(ps, H)
    box = discrepancy_box_lower(ps)
    exact = box.value if ps.dim == 1 else None
    return DiscrepancyReport(ps.N, exact, box.value, upper.et_upper, H,
                             upper.weyl_terms, box.stats)


# ---------------------------------------------------------------------------
# exponential sums


@dataclass(frozen=True)
class WeylSum:
    value: complex
    error_bound: float
    N: int
    stats: ScreenStats = ScreenStats()

    def __abs__(self) -> float:
        return abs(self.value)


def weyl_sum(problem: ProblemSpec, d: int, hvec: Sequence[int],
             N: int) -> WeylSum:
    """sum_{n<=N} e(sum_j h_j (a_j d^{m_j-1} n^{m_j} + g_j(dn)/d)).

    Because the h_j are integers the phase equals the pairing of h with
    the scaled fractional-part vector modulo 1, so this is the Fourier
    coefficient of the corresponding point set.  Each phase double lies
    within 2^-54 + 2^-64 of the true phase mod 1, and error_bound =
    N * _TERM_ERR (2^-50, derived there) covers it, the extended-
    precision cis and sums and abs().  The phases come as
    one `phase_fracs` array over n <= N, its 64-bit screen deciding most
    of them; stats counts what it decided and what it left open.
    """
    if d < 1:
        raise InvalidSpec("d must be >= 1")
    if N < 1:
        raise InvalidSpec("N must be >= 1")
    hvec = [int(h) for h in hvec]
    if len(hvec) != problem.k:
        raise InvalidSpec("need one frequency per coordinate")
    if not any(hvec):
        raise InvalidSpec("the frequency vector must be nonzero")
    lf = LinearForm([(s, h * c, e) for j, h in enumerate(hvec)
                     for s, c, e in coordinate_form(problem, j, d).terms])
    tally = [0, 0]
    phases, _ = lf.phase_fracs(range(1, N + 1), tally)
    return WeylSum(_cis_sum(phases), N * _TERM_ERR, N, ScreenStats(*tally))


@dataclass(frozen=True)
class WeylBoundReport:
    """Measured exponential sum against its two analytic bound shapes.

    delta = |h|/q + 1/N + q/N^m + gcd(q,h)/N^(m-1) exactly; the little-o
    factor is rendered as the heuristic N^epsilon and labeled by the eps
    field.  The report asserts nothing — ratio says how sharp the bound
    shape was.
    """
    m: int
    h: int
    q: int
    N: int
    delta: Fraction
    bound_little_o: float
    bound_log: float
    actual: float
    ratio: float
    eps: float
    sum_error_bound: float

    def __post_init__(self) -> None:
        expect = (Fraction(abs(self.h), self.q) + Fraction(1, self.N)
                  + Fraction(self.q, self.N ** self.m)
                  + Fraction(math.gcd(self.q, abs(self.h)),
                             self.N ** (self.m - 1)))
        if self.delta != expect:
            raise InvalidSpec("delta disagrees with its defining formula")


def _denominator(spec, q: Optional[int], cap: int, cap_name: str) -> int:
    """q, defaulting to the largest convergent denominator <= cap."""
    if q is None:
        convs = convergents(spec, cap)
        if not convs:
            raise NoConvergent(
                f"no convergent denominator within {cap_name}")
        q = convs[-1].q
    if q < 1:
        raise InvalidSpec("q must be >= 1")
    return q


def _phases_for_poly(spec, m: int, h: int, N: int,
                     lower_poly) -> np.ndarray:
    """Phases {h a n^m + g(n)} for n <= N, g = sum_e lower_poly[e] n^e."""
    lower_poly = tuple(lower_poly)
    if len(lower_poly) > m:
        raise InvalidSpec("lower polynomial degree must stay below m")
    lf = LinearForm([(spec, h, m)] + [(c, 1, e)
                                      for e, c in enumerate(lower_poly)])
    return lf.phase_fracs(range(1, N + 1))[0]


def weyl_bound_report(spec: SpecLike, m: int, h: int, N: int,
                      lower_poly: Sequence = (), *,
                      q: Optional[int] = None,
                      eps: float = 0.05) -> WeylBoundReport:
    """Evaluate |sum e(h a n^m + g(n))| against its bound shapes.

    q is a denominator with |a - p/q| < 1/q^2 — any convergent works;
    by default the largest convergent denominator <= N is used.
    """
    if m < 2:
        raise InvalidSpec("m must be >= 2")
    if h == 0:
        raise InvalidSpec("h must be nonzero")
    if N < 1:
        raise InvalidSpec("N must be >= 1")
    spec = as_spec(spec)
    q = _denominator(spec, q, N, "N")
    delta = (Fraction(abs(h), q) + Fraction(1, N) + Fraction(q, N ** m)
             + Fraction(math.gcd(q, abs(h)), N ** (m - 1)))
    mm = m * m - m
    try:
        bound_o = float(N) ** (1.0 + eps) * float(delta) ** (1.0 / mm)
        bound_log = N * math.log(N) * float(delta) ** (1.0 / (mm + 2))
    except OverflowError as exc:
        raise InvalidSpec("N^(1+eps) or delta is out of float range") from exc
    phases = _phases_for_poly(spec, m, h, N, lower_poly)
    actual = abs(_cis_sum(phases))
    # a very negative eps drives N^(1+eps) toward 0
    ratio = actual / bound_o if bound_o > 0 else math.inf
    if math.isinf(ratio):
        raise InvalidSpec("the ratio to N^(1+eps) delta^(1/(m^2-m)) is out "
                          "of float range")
    return WeylBoundReport(m, h, q, N, delta, bound_o, bound_log, actual,
                           ratio, eps, N * _TERM_ERR)


# ---------------------------------------------------------------------------
# explicit inequality formulas


def linear_bound(q: int, h: int, N: int) -> float:
    """The bound shape N(|h|/q + q/N) for linear exponential sums."""
    if q < 1 or N < 1:
        raise InvalidSpec("q and N must be >= 1")
    if h == 0:
        raise InvalidSpec("h must be nonzero")
    try:
        return float(Fraction(abs(h) * N, q) + q)
    except OverflowError as exc:
        raise InvalidSpec("N(|h|/q + q/N) is out of float range") from exc


@dataclass(frozen=True)
class LinearSumCheck:
    """Certified check of |sum e(h a n)| <= min(N, 1/(2 ||h a||)).

    certified means the float sum plus its rounding budget stays below
    the conservative cap min(N, 1/(2 dist_hi)) — an exact-rational
    comparison, so True is a proof for the stored modulus distance.
    """
    h: int
    N: int
    actual: float
    sum_error: float
    cap: float
    certified: bool


def linear_sum_exact(spec: SpecLike, h: int, N: int) -> LinearSumCheck:
    """Evaluate a linear exponential sum against its exact reciprocal cap."""
    if h == 0:
        raise InvalidSpec("h must be nonzero")
    if N < 1:
        raise InvalidSpec("N must be >= 1")
    spec = as_spec(spec)
    prec = 64 + (abs(h) * N).bit_length()
    lo, hi = spec.bounds(prec)
    unit = 1 << prec
    step = (h * ((lo + hi) // 2)) % unit
    acc = 0
    phases = []
    for _ in range(N):
        acc = (acc + step) % unit
        phases.append(acc / unit)
    s = _cis_sum(phases)
    sum_error = N * _TERM_ERR
    dist = next(dist_nearest_ints(spec, (abs(h),), bits=64))
    if dist.hi == 0:
        cap = Fraction(N)
    else:
        cap = min(Fraction(N), 1 / (2 * dist.hi))
    actual = abs(s)
    certified = Fraction(actual) + Fraction(sum_error) <= cap
    return LinearSumCheck(h, N, actual, sum_error, float(cap), certified)


_SUM_BITS = 128     # fixed-point scale of the brackets in _exact_floats


def _exact_floats(rows) -> tuple:
    """Correctly rounded doubles of exact sums of nonnegative rationals.

    rows() returns a nonempty iterable of equal-length tuples of terms,
    each a nonnegative rational as (numerator, denominator); column j sums
    the j-th terms to S_j.  Returns [float(S_j) for each j] + [float(mean
    of the S_j)], the number of rows read, and whether the exact fallback
    ran.

    The terms stream into two integers per column, the sums of
    floor(term * 2^128) and of ceil(term * 2^128), which bracket
    S_j * 2^128; the mean's bracket is their sum over the column count.
    Rounding to a double is monotone, so when both ends of a bracket
    round to the same double, that double is the rounded sum.  When they
    differ, rows() runs once more and is summed in Fractions.
    """
    lo = hi = None
    read = 0
    for read, row in enumerate(rows(), 1):
        if lo is None:
            lo, hi = [0] * len(row), [0] * len(row)
        for j, (num, den) in enumerate(row):
            q, r = divmod(num << _SUM_BITS, den)
            lo[j] += q
            hi[j] += q + (r > 0)
    if lo is None:
        raise ValueError("an exact sum needs at least one row")
    unit = 1 << _SUM_BITS
    brackets = [(a, b, unit) for a, b in zip(lo, hi)]
    brackets.append((sum(lo), sum(hi), unit * len(lo)))
    out = [a / den for a, _, den in brackets]
    if all(b / den == f for f, (_, b, den) in zip(out, brackets)):
        return out, read, False
    exact = [Fraction(0)] * len(lo)
    for row in rows():
        read += 1
        for j, term in enumerate(row):
            exact[j] += Fraction(*term)
    exact.append(sum(exact) / len(lo))
    return [float(x) for x in exact], read, True


def _capped_inverse(dist: int, unit: int, N: int) -> tuple:
    """min(N, unit/dist) as (numerator, denominator); N when dist = 0."""
    return (unit, dist) if unit < N * dist else (N, 1)


def _distance_rows(spec, scales, N: int, bits: int):
    """A rows() for _exact_floats: (min(N, 1/d_hi), min(N, 1/d_lo)) over
    the certified enclosure [d_lo, d_hi] of ||value * s|| at each scale s,
    from one batch of distance verdicts.  It reads the enclosure's integer
    ends over 2^pe, with Interval's checks, and no Interval: the terms
    _exact_floats takes, floor(num 2^128 / den) and its remainder's sign,
    and the comparison with N are the same for the unreduced fraction."""
    def row(d_lo, d_hi, unit, pb):
        _check_ends(d_lo, d_hi, unit, pb)
        return _capped_inverse(d_hi, unit, N), _capped_inverse(d_lo, unit, N)
    return lambda: (row(*ends) for ends in _distance_ends(spec, scales, bits))


@dataclass(frozen=True)
class SumStats:
    """What a reciprocal-distance sum did.

    distance_verdicts: certified nearest-integer distances computed, one
    per term (a sum that needs the exact fallback computes each twice);
    exact_sum_fallbacks: times the sums were taken in exact Fractions,
    because a 2^-128 fixed-point bracket straddled a rounding boundary.
    """

    distance_verdicts: int = 0
    exact_sum_fallbacks: int = 0


@dataclass(frozen=True)
class QuadraticBoundReport:
    """|S|^2 against sum_v min(N, 1/||2 h d v a||), constant 1."""
    h: int
    d: int
    N: int
    rhs: float
    bound: float
    actual: float
    ratio_sq: float
    sum_error_bound: float
    stats: SumStats = SumStats()


def quadratic_bound(spec: SpecLike, h: int, d: int, N: int,
                    g: Sequence = ()) -> QuadraticBoundReport:
    """Reciprocal-distance bound for a quadratic-phase exponential sum.

    rhs is the correctly rounded double of the exact rational sum of
    min(N, 1/d_v) for v <= N, d_v the upper end of the certified 48-bit
    enclosure of ||2 h d v a|| (an under-estimate of the true right
    side, so observed ratios only overstate).  actual is
    |sum_{n<=N} e(h d a n^2 + g(n))| with g linear at most.
    """
    if h == 0:
        raise InvalidSpec("h must be nonzero")
    if d < 1 or N < 1:
        raise InvalidSpec("d and N must be >= 1")
    if len(tuple(g)) > 2:
        raise InvalidSpec("g must be a linear polynomial")
    spec = as_spec(spec)
    step = abs(2 * h * d)
    rows = _distance_rows(spec, range(step, step * N + 1, step), N, 48)
    (rhs, _), read, fallback = _exact_floats(
        lambda: (row[:1] for row in rows()))
    phases = _phases_for_poly(spec, 2, h * d, N, g)
    actual = abs(_cis_sum(phases))
    return QuadraticBoundReport(h, d, N, rhs, math.sqrt(rhs), actual,
                                actual * actual / rhs, N * _TERM_ERR,
                                SumStats(read, int(fallback)))


@dataclass(frozen=True)
class ReciprocalSumReport:
    """sum_{v<=K} min(N, 1/||v a||) against (N + q log q)(K/q + 1)."""
    K: int
    N: int
    q: int
    exact_sum: float
    enclosure: tuple
    lemma_bound: float
    stats: SumStats = SumStats()

    @property
    def ratio(self) -> float:
        return self.exact_sum / self.lemma_bound


def reciprocal_sum(spec: SpecLike, K: int, N: int, *,
                   q: Optional[int] = None) -> ReciprocalSumReport:
    """Reciprocal-distance sum and its convergent-driven bound.

    Over the certified 60-bit enclosures [d_lo, d_hi] of ||v a||, v <= K,
    enclosure holds the correctly rounded doubles of the exact rational
    sums of min(N, 1/d_hi) and of min(N, 1/d_lo) (N where the end is 0),
    and exact_sum the correctly rounded double of their exact mean.  The
    bound uses (N + q ln q)(K/q + 1) with implied constant 1; q defaults
    to the largest convergent denominator <= K.
    """
    if K < 1 or N < 1:
        raise InvalidSpec("K and N must be >= 1")
    spec = as_spec(spec)
    q = _denominator(spec, q, K, "K")
    (lo, hi, mid), read, fallback = _exact_floats(
        _distance_rows(spec, range(1, K + 1), N, 60))
    try:
        bound = (N + q * math.log(q)) * (K / q + 1.0)
    except OverflowError as exc:
        raise InvalidSpec("N + q ln q is out of float range") from exc
    return ReciprocalSumReport(K, N, q, mid, (lo, hi), bound,
                               SumStats(read, int(fallback)))


def monotone_check(u, v, M: int, variant: str) -> bool:
    """Is the merged-exponent sequence nondecreasing for m = 2..M?

    u_over_v checks b_m = (u / v^(m-1))^(1/(m^2-m)); v_over_u checks
    b_m = (v^m / u)^(1/(m^2-m+2)).  Raising the step inequality
    b_{m+1} >= b_m to the (positive) product of the two exponent
    denominators turns it into an exact rational comparison:
    v^(m-1) >= u^2 for the first family, u^(2m) >= v^(m^2+m-2) for the
    second.  No rounding is involved.
    """
    uf = _as_exact(u, "u")
    vf = _as_exact(v, "v")
    if uf <= 0:
        raise InvalidSpec("u must be positive")
    if vf < 1:
        raise InvalidSpec("v must be >= 1")
    M = int(M)
    if M < 2:
        raise InvalidSpec("M must be >= 2")
    if variant not in ("u_over_v", "v_over_u"):
        raise InvalidSpec(f"unknown variant {variant!r}")
    if variant == "u_over_v":
        return all(vf ** (m - 1) >= uf * uf for m in range(2, M))
    return all(uf ** (2 * m) >= vf ** (m * m + m - 2) for m in range(2, M))
