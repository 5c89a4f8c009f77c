"""Continued-fraction machinery with certified partial quotients.

Convergent tables, best-approximation window searches, and empirical
growth-rate estimation of how well a number is rationally approximable.
Partial quotients are certified by expanding both endpoints of a dyadic
enclosure and keeping the common prefix: the reals whose expansion begins
with a given prefix form an interval, so a prefix shared by the endpoints
is correct for everything in between.  The certified-evaluation kernel
(realnum.LinearForm) escalates the precision until the convergent
denominators provably exceed the requested cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Iterator, Sequence, Union

from .errors import (InsufficientData, InvalidSpec, NoConvergent,
                     RationalTerminated)
from .realnum import Interval, LinearForm, RealSpec, dist_nearest_ints

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class Convergent:
    """One continued-fraction approximation a/q with a certified quality."""

    index: int
    a: int
    q: int
    quality: Interval    # encloses the distance from q*alpha to nearest int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise InvalidSpec("convergent denominator must be positive")
        if math.gcd(self.a, self.q) != 1:
            raise InvalidSpec("convergent must be in lowest terms")


@dataclass(frozen=True)
class ApproxWindow:
    """Best approximation with denominator in (lower, Q]."""

    a: int
    q: int
    Q: float
    lower: float
    satisfied: bool


@dataclass(frozen=True)
class TypeEstimate:
    """Empirical approximability exponent from denominator growth."""

    tau_hat: float
    samples: tuple        # of (q_i, ratio) pairs, every usable i
    mode: str             # "polynomial" or "exponential"


def _euclid_terms(num: int, den: int) -> list[int]:
    """Greedy partial quotients of num/den (den > 0)."""
    terms = []
    while den:
        a, rem = divmod(num, den)
        terms.append(a)
        num, den = den, rem
    return terms


def _ladder(terms: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The convergents of [a_0; a_1, ...] as (p_j, q_j) pairs, from
    p_j = a_j p_{j-1} + p_{j-2} and q_j = a_j q_{j-1} + q_{j-2}."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for a in terms:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p, q


def _certified_quotients(spec: RealSpec,
                         max_q: int) -> tuple[list[int], bool]:
    """Partial quotients valid until the denominators pass max_q.

    Returns (terms, terminated); terminated means the expansion is the
    complete (finite) expansion of an exact rational.
    """
    exact = spec.exact()
    if exact is not None:
        return _euclid_terms(exact.numerator, exact.denominator), True

    def verdict(lo, hi, pe):
        pairs = zip(_euclid_terms(lo, 1 << pe), _euclid_terms(hi, 1 << pe))
        common = [a for a, b in takewhile(lambda ab: ab[0] == ab[1], pairs)]
        return (common if any(q > max_q for _, q in _ladder(common))
                else None)

    form = LinearForm([(spec, 1, 0)])
    return next(form._decide((1,), lambda _: 64, "partial quotients",
                             verdict)), False


def convergents(spec: RealSpec, max_q: int) -> list[Convergent]:
    """All convergents of spec with denominator ≤ max_q, in increasing order.

    Emits the RationalTerminated warning when the expansion of an exact
    rational ends below max_q (the final convergent equals the value).
    When the zeroth and first convergents share denominator 1 the zeroth
    is dropped: the survivor is the better approximation and denominators
    then increase strictly.
    """
    if max_q < 1:
        raise InvalidSpec("max_q must be a positive integer")
    terms, terminated = _certified_quotients(spec, max_q)
    pairs = list(takewhile(lambda pq: pq[1] <= max_q, _ladder(terms)))
    if terminated and len(pairs) == len(terms):
        warnings.warn(f"expansion of {spec.text()} terminates at denominator "
                      f"{pairs[-1][1]}", RationalTerminated, stacklevel=2)
    if len(pairs) >= 2 and pairs[1][1] == 1:
        pairs = pairs[1:]
    out = []
    for i, (p, q) in enumerate(pairs):
        bits = max(48, 2 * q.bit_length() + 8)
        quality = next(dist_nearest_ints(spec, (q,), bits=bits))
        out.append(Convergent(i, p, q, quality))
    return out


def find_window(ladder: Sequence[Convergent], Q: Number, varpi: Number,
                mode: str) -> ApproxWindow:
    """Best approximation with q ≤ Q, against the floor Q^varpi or (log Q)^(varpi+1).

    ladder is `convergents(spec, cap)` for some cap ≥ Q; the window reads
    its convergents with q ≤ Q, which do not depend on the cap.  The
    returned window always carries the largest convergent denominator
    ≤ Q; `satisfied` records whether it also clears the floor, so callers
    can observe exactly where the two-sided window starts to exist.
    """
    try:
        Qf = float(Q)
    except OverflowError as exc:
        raise InvalidSpec("window cap Q is out of float range") from exc
    if Qf < 2:
        raise InvalidSpec("window cap Q must be >= 2")
    v = float(varpi)
    if v <= 0:
        raise InvalidSpec("varpi must be positive")
    if mode == "polynomial":
        if v >= 1:
            raise InvalidSpec("polynomial mode needs varpi in (0, 1)")
        lower = Qf ** v
    elif mode == "exponential":
        try:
            lower = math.log(Qf) ** (v + 1)
        except OverflowError as exc:
            raise InvalidSpec("window floor (log Q)^(varpi+1) is out of "
                              "float range") from exc
    else:
        raise InvalidSpec(f"unknown window mode {mode!r}")
    convs = [c for c in ladder if c.q <= Qf]
    if not convs:
        raise NoConvergent(f"no convergent with denominator <= {Qf}")
    best = convs[-1]
    return ApproxWindow(best.a, best.q, Qf, lower, best.q > lower)


def estimate_type(ladder: Sequence[Convergent], max_q: int,
                  mode: str) -> TypeEstimate:
    """Approximability exponent from convergent-denominator growth.

    ladder is `convergents(spec, cap)` for some cap ≥ max_q, of which the
    convergents with q ≤ max_q are read.  Ratios log q_{i+1}/log q_i
    (polynomial) or log log q_{i+1}/log q_i (exponential) are reported
    for every consecutive pair with q_i ≥ 2; tau_hat is the maximum over
    the later half of the samples, where the small-denominator transient
    has died out — early ratios like log 5/log 2 would otherwise
    dominate forever and mask the trend.
    """
    if mode not in ("polynomial", "exponential"):
        raise InvalidSpec(f"unknown type-estimation mode {mode!r}")
    qs = [c.q for c in ladder if c.q <= max_q]
    if len(qs) < 3:
        raise InsufficientData(
            f"need at least 3 convergents below {max_q}, found {len(qs)}")
    grown = math.log if mode == "polynomial" else (
        lambda q: math.log(math.log(q)))
    samples = [(q1, grown(q2) / math.log(q1))
               for q1, q2 in zip(qs, qs[1:]) if q1 >= 2]
    if not samples:
        raise InsufficientData("no denominator pairs with q_i >= 2")
    tail = samples[len(samples) // 2:]
    tau_hat = max(r for _, r in tail)
    return TypeEstimate(tau_hat, tuple(samples), mode)
