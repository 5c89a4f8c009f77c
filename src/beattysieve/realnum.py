"""Exact real numbers with certified dyadic enclosures.

Five immutable representations cover every constant the experiments need:
exact rationals, quadratic surds (a + b*sqrt(d))/c, finite continued
fractions, decimal literals of stated accuracy, and lacunary series of
Liouville type.  Every query either returns an answer together with a
dyadic interval certificate or raises; nothing is silently rounded.

The workhorse primitive is ``spec.bounds(prec)``: integers (lo, hi) with
lo <= value * 2**prec <= hi and hi - lo <= 2.  One kernel turns it into
answers: ``LinearForm`` brackets sum_i spec_i * c_i * t**e_i at integers
t, and every certified question (floors, fractional parts, phases,
nearest-integer distances, partial quotients) is a verdict over that
bracket.  One loop, ``LinearForm._decide``, takes a batch of t, splits
it into runs of equal start precision and yields one verdict per t;
``floors``, ``frac_units``, ``phase_fracs`` and ``dist_nearest_ints``
pass it a batch of t, and ``floor_scaled``, which returns a
certificate, a batch of one.  A verdict the bracket leaves open doubles
the precision of that t alone, from a start of 64 + the bit length of
the scale, up to the fixed ceiling of DEFAULT_MAX_BITS = 2**20 bits; a
decimal literal stops the doubling at its stated digits.  Either way
PrecisionExhausted names what ran out: the literal and its bits, or the
ceiling.  Floors and fractional-part verdicts decide a rational value
(all-exact coefficients, or irrational parts that cancel) exactly.

``frac_units`` and ``phase_fracs`` return whole batches at once, as
float64 arrays of values and error bounds, not lazily.  Before
``_decide``, a 64-bit fixed-point screen (``_screen``) decides most t
bit for bit, from the coefficients' bracket ends split into words
(``_words``) and summed in one uint64 word (``_fixed_sum``), as the
counting kernel's 64-bit tier does.  Only the t it leaves open take
``_decide``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidSpec, PrecisionExhausted

DEFAULT_MAX_BITS = 1 << 20
MIN_ENCLOSURE_BITS = 8


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if k == 1 or n < 2:
        return n
    # Newton iteration seeded above the root; monotone descent to the floor.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------------------
# interval certificates


def _check_ends(a: int, b: int, den: int, bits: int) -> None:
    """Interval's order and width checks on the ends a/den and b/den over
    one dyadic denominator: a <= b, bits >= 1 and
    b - a <= 2**(1-bits) * max(den, |a|)."""
    if a > b:
        raise InvalidSpec("interval endpoints out of order")
    if bits < 1:
        raise InvalidSpec("precision_bits must be >= 1")
    if (b - a) << (bits - 1) > max(den, abs(a)):
        raise InvalidSpec("interval wider than its stated precision")


@dataclass(frozen=True)
class Interval:
    """Closed dyadic interval [lo, hi] certified to contain a real value.

    Endpoints are dyadic rationals; width obeys
    hi - lo <= 2**(1 - precision_bits) * max(1, |lo|).
    """

    lo: Fraction
    hi: Fraction
    precision_bits: int

    def __post_init__(self) -> None:
        for end in (self.lo, self.hi):
            d = end.denominator
            if d & (d - 1):
                raise InvalidSpec(f"interval endpoint {end} is not dyadic")
        den = max(self.lo.denominator, self.hi.denominator)
        _check_ends(self.lo.numerator * (den // self.lo.denominator),
                    self.hi.numerator * (den // self.hi.denominator), den,
                    self.precision_bits)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class CertifiedFloor:
    """floor(alpha * scale) together with the enclosure that certified it."""

    value: int
    certificate: Interval
    scale: int
    bits_used: int

    def __post_init__(self) -> None:
        lo_f = self.certificate.lo.numerator // self.certificate.lo.denominator
        hi_f = self.certificate.hi.numerator // self.certificate.hi.denominator
        if not (lo_f == hi_f == self.value):
            raise InvalidSpec("certificate does not pin the floor")


# ---------------------------------------------------------------------------
# real-number specs


class RealSpec:
    """Base class for exact real-number descriptions."""

    __slots__ = ()

    def bounds(self, prec: int) -> tuple[int, int]:
        """Integers (lo, hi), lo <= value*2**prec <= hi, hi - lo <= 2;
        by default the floor and ceiling of the exact value's."""
        v = self.exact()
        num = v.numerator << prec
        lo = num // v.denominator
        return (lo, lo) if lo * v.denominator == num else (lo, lo + 1)

    def exact(self) -> Optional[Fraction]:
        """The exact rational value, when the variant has one."""
        return None

    def irrational(self) -> bool:
        """True when irrationality is guaranteed by the representation."""
        return False

    def max_prec(self) -> Optional[int]:
        """Finest usable prec, or None when unbounded."""
        return None

    def text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


@dataclass(frozen=True)
class Rational(RealSpec):
    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise InvalidSpec("rational parts must be integers")
        if self.q < 1:
            raise InvalidSpec("rational denominator must be positive")

    def exact(self) -> Fraction:
        return Fraction(self.p, self.q)

    def text(self) -> str:
        return f"rat:{self.p}/{self.q}"


@dataclass(frozen=True)
class QuadraticSurd(RealSpec):
    """(a + b*sqrt(d)) / c with integer a, b != 0, nonsquare d >= 2, c >= 1."""

    a: int
    b: int
    d: int
    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise InvalidSpec("surd denominator must be positive")
        if self.b == 0:
            raise InvalidSpec("surd coefficient b must be nonzero")
        if self.d < 2 or math.isqrt(self.d) ** 2 == self.d:
            raise InvalidSpec("surd radicand must be a nonsquare integer >= 2")

    def bounds(self, prec: int) -> tuple[int, int]:
        r = math.isqrt(self.b * self.b * self.d << (2 * prec))
        base = self.a << prec
        if self.b > 0:
            num_lo, num_hi = base + r, base + r + 1
        else:
            num_lo, num_hi = base - r - 1, base - r
        return num_lo // self.c, _ceil_div(num_hi, self.c)

    def irrational(self) -> bool:
        return True

    def text(self) -> str:
        return f"surd:({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


@dataclass(frozen=True)
class FiniteCF(RealSpec):
    """Finite continued fraction [a0; a1, a2, ...]; an exact rational."""

    quotients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.quotients:
            raise InvalidSpec("continued fraction needs at least a0")
        if any(a < 1 for a in self.quotients[1:]):
            raise InvalidSpec("partial quotients after a0 must be >= 1")

    def exact(self) -> Fraction:
        value = Fraction(self.quotients[-1])
        for a in reversed(self.quotients[:-1]):
            value = a + 1 / value
        return value

    def text(self) -> str:
        head, *rest = self.quotients
        tail = ",".join(str(a) for a in rest)
        return f"cf:[{head};{tail}]" if rest else f"cf:[{head}]"


_DEC_RE = re.compile(r"^-?\d+(\.\d+)?$")


@dataclass(frozen=True)
class DecimalLiteral(RealSpec):
    """A decimal string whose first `stated_precision` fractional digits are trusted.

    The value is only known to lie within +-10**-stated_precision of the
    literal, so queries needing more than ~3.32*stated_precision bits raise
    PrecisionExhausted instead of inventing digits.
    """

    digits: str
    stated_precision: int

    def __post_init__(self) -> None:
        if not _DEC_RE.match(self.digits):
            raise InvalidSpec(f"bad decimal literal {self.digits!r}")
        frac_digits = len(self.digits.split(".")[1]) if "." in self.digits else 0
        if not 1 <= self.stated_precision <= max(frac_digits, 1):
            raise InvalidSpec("stated_precision exceeds the digits supplied")

    def _mid(self) -> Fraction:
        return Fraction(self.digits)

    def max_prec(self) -> int:
        # Keep 2*10**-sp * 2**prec <= 1/2 so the bracket stays <= 2 ulps wide.
        return (10 ** self.stated_precision).bit_length() - 3

    def bounds(self, prec: int) -> tuple[int, int]:
        if prec > self.max_prec():
            raise PrecisionExhausted(
                f"{prec} bits requested: {self.text()} carries only "
                f"{self.max_prec()} bits", spec=self, bits=self.max_prec())
        delta = Fraction(1, 10 ** self.stated_precision)
        lo_fr, hi_fr = self._mid() - delta, self._mid() + delta
        lo = (lo_fr.numerator << prec) // lo_fr.denominator
        hi = _ceil_div(hi_fr.numerator << prec, hi_fr.denominator)
        return lo, hi

    def text(self) -> str:
        return f"dec:{self.digits}:{self.stated_precision}"


@dataclass(frozen=True)
class LiouvilleSeries(RealSpec):
    """sum_j base**(-c_j) with a strictly increasing exponent schedule.

    The schedule is generated from c1 by rule
      poly: c_{j+1} = max(c_j + 1, floor(c_j ** tau)),  tau > 1
      exp:  c_{j+1} = max(c_j + 1, floor(beta ** (theta * c_j))),  theta > 0
    and continues forever.  Its gaps c_{j+1} - c_j grow without bound, so
    the sum is irrational.  Enclosures materialize exactly as many terms
    as the requested precision demands.  Nothing reads `depth`: it only
    round-trips through text(), so descriptions that carry it still parse.
    """

    base: int
    rule: str
    param: Fraction
    c1: int = 2
    beta: int = 2
    depth: int = 8

    def __post_init__(self) -> None:
        if self.base < 2:
            raise InvalidSpec("series base must be >= 2")
        if self.rule not in ("poly", "exp"):
            raise InvalidSpec("rule must be 'poly' or 'exp'")
        param = Fraction(self.param)
        object.__setattr__(self, "param", param)
        if self.rule == "poly" and param <= 1:
            # tau = 1 takes every exponent from c1 on: a rational sum
            raise InvalidSpec("poly rule needs tau > 1")
        if self.rule == "exp" and param <= 0:
            raise InvalidSpec("exp rule needs theta > 0")
        if self.c1 < 1 or self.beta < 2 or self.depth < 1:
            raise InvalidSpec("c1 >= 1, beta >= 2, depth >= 1 required")

    def next_exponent(self, c: int, cap: int) -> Optional[int]:
        """Exact next exponent after c, or None when certified > cap."""
        if c + 1 > cap:
            return None
        p, q = self.param.numerator, self.param.denominator
        if self.rule == "poly":
            raw = _iroot(c ** p, q)
        else:
            # beta >= 2, so floor(pc/q) >= bit_length(cap) forces
            # beta**(pc/q) >= 2**bit_length(cap) > cap without expanding it.
            if (p * c) // q >= cap.bit_length():
                return None
            raw = _iroot(self.beta ** (p * c), q)
        nxt = max(c + 1, raw)
        return nxt if nxt <= cap else None

    def schedule(self, cap: int) -> tuple[int, ...]:
        """All exponents <= cap (monotone; lazily extended on demand)."""
        return _liouville_schedule(self, cap)

    def bounds(self, prec: int) -> tuple[int, int]:
        # Include every term with c_j <= prec + 2; the rest is a tail
        # below 2 * base**-(prec+3) <= 2**-(prec+2), i.e. < 1/2 ulp here.
        exps = self.schedule(prec + 2)
        if not exps:
            return 0, 1
        clast = exps[-1]
        num = sum(self.base ** (clast - c) for c in exps)
        if self.base == 2:
            lo = num << (prec - clast) if prec >= clast else num >> (clast - prec)
        else:
            lo = (num << prec) // self.base ** clast
        return lo, lo + 2

    def irrational(self) -> bool:
        return True

    def text(self) -> str:
        key = "tau" if self.rule == "poly" else "theta"
        beta = f",beta={self.beta}" if self.rule == "exp" else ""
        return (f"liouville:base={self.base},rule={self.rule},"
                f"{key}={self.param}{beta},c1={self.c1},depth={self.depth}")


@lru_cache(maxsize=None)
def _liouville_schedule(spec: LiouvilleSeries, cap: int) -> tuple[int, ...]:
    if spec.c1 > cap:
        return ()
    exps = [spec.c1]
    while True:
        nxt = spec.next_exponent(exps[-1], cap)
        if nxt is None:
            return tuple(exps)
        exps.append(nxt)


def sqrt2() -> QuadraticSurd:
    return QuadraticSurd(0, 1, 2, 1)


def sqrt3() -> QuadraticSurd:
    return QuadraticSurd(0, 1, 3, 1)


def golden_ratio() -> QuadraticSurd:
    return QuadraticSurd(1, 1, 5, 2)


# ---------------------------------------------------------------------------
# text forms


_SURD_RE = re.compile(r"^\((-?\d+)\+(-?\d+)\*sqrt\((\d+)\)\)/(\d+)$")
_CF_RE = re.compile(r"^\[(-?\d+)(?:;([\d,]*))?\]$")


def parse_real(text: str) -> RealSpec:
    """Parse the textual real-number forms (rat:, surd:, cf:, dec:, liouville:)."""
    kind, _, body = text.strip().partition(":")
    if kind == "rat":
        num, _, den = body.partition("/")
        try:
            return Rational(int(num), int(den) if den else 1)
        except ValueError as exc:
            raise InvalidSpec(f"bad rational {body!r}") from exc
    if kind == "surd":
        m = _SURD_RE.match(body)
        if not m:
            raise InvalidSpec(f"bad surd {body!r}")
        a, b, d, c = map(int, m.groups())
        return QuadraticSurd(a, b, d, c)
    if kind == "cf":
        m = _CF_RE.match(body)
        if not m:
            raise InvalidSpec(f"bad continued fraction {body!r}")
        try:
            head = int(m.group(1))
            rest = m.group(2)
            tail = tuple(int(x) for x in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise InvalidSpec(f"bad continued fraction {body!r}") from exc
        return FiniteCF((head,) + tail)
    if kind == "dec":
        digits, _, sp = body.rpartition(":")
        try:
            return DecimalLiteral(digits, int(sp))
        except ValueError as exc:
            raise InvalidSpec(f"bad decimal form {body!r}") from exc
    if kind == "liouville":
        fields = {}
        for item in body.split(","):
            key, _, val = item.partition("=")
            fields[key.strip()] = val.strip()
        rule = fields.get("rule", "poly")
        try:
            param = Fraction(fields["tau" if rule == "poly" else "theta"])
            series = LiouvilleSeries(
                base=int(fields.get("base", 2)),
                rule=rule,
                param=param,
                c1=int(fields.get("c1", 2)),
                beta=int(fields.get("beta", 2)),
                depth=int(fields.get("depth", 8)),
            )
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"bad liouville form {body!r}") from exc
        read = {"base", "rule", "c1", "depth"} | (
            {"tau"} if rule == "poly" else {"theta", "beta"})
        for key in fields:
            if key not in read:
                raise InvalidSpec(
                    f"liouville field {key!r} is not read with rule={rule}")
        return series
    raise InvalidSpec(f"unknown real-number form {text!r}")


SpecLike = Union[RealSpec, int, Fraction, str]


def as_spec(value: SpecLike) -> RealSpec:
    """Coerce ints, Fractions, and strings to specs; pass RealSpecs through.

    Strings may be plain rationals ("1/2", "0.25") or any prefixed form
    accepted by parse_real.  Floats are rejected: they carry no statement
    of intent about the real they approximate.
    """
    if isinstance(value, RealSpec):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InvalidSpec(
            f"refusing float/bool {value!r}; use an exact or described form")
    if isinstance(value, int):
        return Rational(value, 1)
    if isinstance(value, Fraction):
        return Rational(value.numerator, value.denominator)
    if isinstance(value, str):
        try:
            f = Fraction(value)
            return Rational(f.numerator, f.denominator)
        except (ValueError, ZeroDivisionError):
            return parse_real(value)
    raise InvalidSpec(f"cannot interpret {value!r} as a real number")


# ---------------------------------------------------------------------------
# the certified-evaluation kernel


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SCREEN_T = (1 << 32) - 1       # the screen takes t with every t^e <= this


def _mul_hi(n: np.ndarray, v: np.ndarray) -> np.ndarray:
    """floor(n * v / 2^64) exactly, for uint64 n < 2^32 and any uint64 v."""
    a = n * (v >> _SHIFT32)
    b = n * (v & _LOW32)
    return (a >> _SHIFT32) + (((a & _LOW32) + (b >> _SHIFT32)) >> _SHIFT32)


def _words(a: int, pe: int) -> tuple:
    """(F1, F0) with (a mod 2^pe) 2^(128 - pe) = F1 2^64 + F0, 64 <= pe <=
    128: the bracket end a at pe as a 128-bit fraction; F0 = 0 at 64."""
    return divmod(a % (1 << pe) << 128 - pe, 1 << 64)


def _fixed_sum(t, n: np.ndarray, terms) -> tuple:
    """(L, W), wrapping uint64 sums over terms (e, F1, F0, w), e >= 0, of
    F1 S_e + floor(F0 S_e / 2^64) and w S_e, S_e = n t^(e-1) (1 at e = 0)
    exact in uint64, and below 2^32 where F0 > 0 (`_mul_hi`).  With
    (F1, F0) the `_words` of a bracket end a at pe, L is the sum of
    {a S_e / 2^pe} 2^64 mod 2^64, less under 1 per term with F0 > 0.  t is
    read only for e >= 2; no terms give the scalars (0, 0)."""
    low = width = 0
    for e, f1, f0, w in terms:
        s = (np.ones_like(n) if not e else n if e == 1
             else n * (t if e == 2 else t ** (e - 1)))
        low += s * np.uint64(f1)
        if f0:
            low += _mul_hi(s, np.uint64(f0))
        width += s * np.uint64(w)
    return low, width


def _mul_hi64(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """floor(u * v / 2^64) exactly, for any uint64 u and v: the four
    products of their 32-bit halves, with the carry out of the middle."""
    u1, u0, v1, v0 = u >> _SHIFT32, u & _LOW32, v >> _SHIFT32, v & _LOW32
    a, b = u1 * v0, u0 * v1
    carry = ((a & _LOW32) + (b & _LOW32) + (u0 * v0 >> _SHIFT32)) >> _SHIFT32
    return u1 * v1 + (a >> _SHIFT32) + (b >> _SHIFT32) + carry


def _unit_float(r: int, width: int, unit: int):
    """(r / unit as a float below 1, width / unit + 2**-52): a fractional
    part in [0, 1) known to within `width` units, and its error bound."""
    frac = r / unit
    if frac >= 1.0:                # float rounding of (unit-1)/unit
        frac = math.nextafter(1.0, 0.0)
    return frac, width / unit + 2.0 ** -52


def _frac_unit(lo: int, hi: int, pe: int):
    """The fractional-part verdict: the floor pinned and the bracket no
    wider than 2^-60."""
    f = lo >> pe
    if hi >> pe == f and hi - lo <= 1 << max(pe - 60, 0):
        return _unit_float(lo - (f << pe), hi - lo, 1 << pe)
    return None


def _exact_unit(value: Fraction):
    """The fractional-part verdict on an exact value."""
    value %= 1
    return _unit_float(value.numerator, 0, value.denominator)


def _phase_frac(lo: int, hi: int, pe: int):
    """The phase verdict: the bracket no wider than 2^-64, mod 1 (a
    double that rounds to 1 is 0, within 2^-54 of the phase mod 1)."""
    if hi - lo <= 1 << max(pe - 64, 0):
        unit = 1 << pe
        return lo % unit / unit % 1.0, (hi - lo) / unit + 2.0 ** -52
    return None


def _screen(t: np.ndarray, rows: tuple, pe: int, floor: bool):
    """(decided mask, fracs, errs) of `_frac_unit` (floor) or `_phase_frac`
    at uint64 t with every t^e <= _SCREEN_T, over nonempty rows of one
    precision pe = 64 + s, 0 <= s <= 64, whose widths b - a sum below 2^32;
    where decided, fracs and errs are the verdict's floats bit for bit.

    With r = lo mod 2^pe, lo = sum a t^e, the `_fixed_sum` at (t, t) of
    each row's `_words(a, pe)` puts r / 2^s in [L, L + rows) when
    L + rows does not wrap.  Rounding to a double is monotone, so when
    float(L) == float(L + rows) that double times 2^-64 is r / 2^pe
    correctly rounded, which both verdicts take; it is left open at 2^64,
    where `_unit_float` clamps and `_phase_frac` wraps.  The width w =
    hi - lo = sum (b - a) t^e is exact in uint64 and gives the width test
    and the error float(w) 2^-pe + 2^-52.  For a floor, r + w < 2^s
    (L + rows + floor(w / 2^s) + 1), so L + rows + floor(w / 2^s) not
    wrapping certifies hi >> pe == lo >> pe."""
    s = pe - 64
    low, w = _fixed_sum(t, t, [(e, *_words(a, pe), b - a)
                               for a, b, e in rows])
    high = low + np.uint64(len(rows))
    flo = low.astype(np.float64)
    ok = (high >= low) & (flo == high.astype(np.float64)) & (flo < 2.0 ** 64)
    ok &= w <= np.uint64(min(1 << (s + 4 if floor else s), (1 << 64) - 1))
    if floor:
        ok &= high + (w >> np.uint64(s)) >= high
    return ok, flo * 2.0 ** -64, w.astype(np.float64) * 2.0 ** -pe + 2.0 ** -52


class LinearForm:
    """Certified evaluator of sum_i spec_i * c_i * t**e_i at an integer t >= 0.

    Each term is a (spec, integer multiplier c_i, exponent e_i >= 0) triple.
    Every certified question the package asks (floors, fractional-part
    tests and values, phases mod 1, nearest-integer distances, partial
    quotients) is a verdict over the form's bracket: integers lo <= hi
    with lo <= value * 2**pe <= hi, which `_decide` sums at each t of a
    batch.  Brackets are built from each spec's `bounds` and cached on the
    form per precision; every term is taken at pe = min(prec, cap), where
    cap is the smallest max_prec() among the terms, so a form is only as
    fine as its coarsest literal.

    `_escalate` is the one precision policy: a verdict the bracket leaves
    open doubles the precision, up to DEFAULT_MAX_BITS; once the coarsest
    literal is at its cap, the failure names it.  A value that is rational
    can sit exactly on an integer or on a rational threshold, where no
    bracket decides, so `_decide` hands it to the verdict's exact hook
    (`_rational_value`): at every t when the coefficients are all exact
    rationals, and at an open t where the irrational parts of the terms
    cancel, as -sqrt3 t^3 + 4 sqrt3 t does at t = 2.
    """

    def __init__(self, terms: Sequence[tuple]):
        self.terms = [(as_spec(s), int(c), int(e)) for s, c, e in terms]
        for s, c, e in self.terms:
            if e < 0:
                raise InvalidSpec(f"term ({s.text()}, {c}, {e}): exponent < 0")
        capped = [s for s, _, _ in self.terms if s.max_prec() is not None]
        self._limit = min(capped, key=lambda s: s.max_prec(), default=None)
        self._cap = None if self._limit is None else self._limit.max_prec()
        self._exact = [s.exact() for s, _, _ in self.terms]
        self._rational = None not in self._exact
        self._cache = {}
        self._band = (1, 0, 0)          # no t yet: see _start

    # -- the kernel ----------------------------------------------------------

    def _rows(self, prec: int) -> tuple:
        """(pe, rows), rows[i] = (lo_i*c_i, hi_i*c_i, e_i) in increasing
        order, from each spec's bracket (lo_i, hi_i) at pe."""
        hit = self._cache.get(prec)
        if hit is None:
            pe = prec if self._cap is None else min(prec, self._cap)
            rows = []
            for spec, c, e in self.terms:
                lo, hi = spec.bounds(pe)
                rows.append((lo * c, hi * c, e) if c >= 0
                            else (hi * c, lo * c, e))
            hit = self._cache[prec] = pe, tuple(rows)
        return hit

    def _start(self, t: int) -> int:
        """64 bits past the size of len(terms) times the largest |c| t^e,
        cached on the band of t ≥ 0 where it holds: it grows with t, and
        stays while every len(terms) |c| t^e < 2^(start - 64)."""
        lo, hi, start = self._band
        if lo <= t <= hi:
            return start
        biggest = max([abs(c) * t ** e for _, c, e in self.terms], default=1)
        start = 64 + max(biggest * len(self.terms), 1).bit_length()
        room = ((1 << start - 64) - 1) // max(len(self.terms), 1)
        self._band = (t, min((_iroot(room // abs(c), e)
                              for _, c, e in self.terms if c and e),
                             default=math.inf), start)
        return start

    def _rational_value(self, t: int) -> Optional[Fraction]:
        """The exact value at t when the irrational parts of the terms
        cancel there, else None.  A surd (a + b sqrt(d))/c counts on the
        basis sqrt(r) of the first radicand r with d r a square, as
        sqrt(d) = isqrt(d r)/r * sqrt(r); any other irrational spec is
        its own basis."""
        num, den, irrational = 0, 1, {}
        for exact, (spec, c, e) in zip(self._exact, self.terms):
            w = c * t ** e
            if exact is not None:
                p, q = exact.numerator * w, exact.denominator
            elif isinstance(spec, QuadraticSurd):
                r = next(r for r in (*irrational, spec.d) if isinstance(r, int)
                         and math.isqrt(r * spec.d) ** 2 == r * spec.d)
                p, q = spec.a * w, spec.c
                irrational[r] = irrational.get(r, 0) + Fraction(
                    spec.b * math.isqrt(spec.d * r) * w, spec.c * r)
            else:
                irrational[spec] = irrational.get(spec, 0) + w
                continue
            num, den = num * q + p * den, den * q   # the rational part
        return None if any(irrational.values()) else Fraction(num, den)

    def _escalate(self, t: int, prec: int, need: str) -> int:
        """The precision to try after `prec` left `need` open at t."""
        # a t past 64 bits is named by its size: a decimal string of over
        # 4300 digits is refused by int -> str
        at = f"t={t}" if t.bit_length() <= 64 else f"a {t.bit_length()}-bit t"
        if self._cap is not None and prec >= self._cap:
            raise PrecisionExhausted(
                f"{need} undecided at {at}: {self._limit.text()} carries "
                f"only {self._cap} bits", spec=self._limit, n=t,
                bits=self._cap)
        if prec >= DEFAULT_MAX_BITS:
            raise PrecisionExhausted(
                f"{need} undecided at {at} within the {DEFAULT_MAX_BITS}-bit "
                f"ceiling", spec=self.terms[0][0], n=t, bits=prec)
        return min(2 * prec, DEFAULT_MAX_BITS)

    def _decide(self, ts, start, need: str, verdict, exact=None):
        """Yield verdict(lo, hi, pe) at each t in ts, lazily, on one
        bracket per run of equal start(t).  With an exact hook, an all-exact
        form yields exact(value) at every t with no bracket, and so does an
        open t whose value is rational; any other open t is decided alone,
        as a batch of one at the next precision `_escalate` allows."""
        if exact is not None and self._rational:
            yield from map(exact, map(self._rational_value, ts))
            return
        for prec, run in groupby(ts, start):
            pe, rows = self._rows(prec)
            # hi = lo + sum (b - a) t^e: one big product per row, as b - a
            # is at most 2|c|
            steps = [(a, b - a, e) for a, b, e in rows]
            for t in run:
                lo = width = 0
                for a, step, e in steps:
                    w = t ** e
                    lo += a * w
                    width += step * w
                answer = verdict(lo, lo + width, pe)
                if answer is None:
                    value = None if exact is None else self._rational_value(t)
                    if value is not None:
                        answer = exact(value)
                    else:
                        higher = self._escalate(t, prec, need)
                        answer = next(self._decide((t,), lambda _: higher,
                                                   need, verdict))
                yield answer

    # -- verdicts ------------------------------------------------------------

    def floors(self, ts: Sequence[int]):
        """Certified floor at each t in ts, lazily, every t started at the
        largest t's precision: a floor does not depend on the precision."""
        def verdict(lo, hi, pe):
            f = lo >> pe
            return f if hi >> pe == f else None
        prec = self._start(max(ts, default=0))
        return self._decide(ts, lambda _: prec, "floor", verdict, math.floor)

    def _phase_start(self, t: int) -> int:
        return max(self._start(t), 68)

    def frac_units(self, ts, tally: Optional[list] = None):
        """Floor-certified fractional parts at the t in ts, as float64
        arrays (fracs in [0, 1), error bounds), the bracket no wider than
        2^-60 and started at _start(t), so no float depends on the other
        t.  tally accumulates [screened, open], as in `_batch`."""
        return self._batch(ts, self._start, "fractional part", _frac_unit,
                           _exact_unit, True, tally)

    def phase_fracs(self, ts, tally: Optional[list] = None):
        """Phases at the t in ts, as float64 arrays (fracs in [0, 1), error
        bounds valid modulo 1): fractional parts with no floor
        certificate, the bracket no wider than 2^-64 and started at
        max(_start(t), 68).  tally is as in `_batch`."""
        return self._batch(ts, self._phase_start, "phase", _phase_frac,
                           None, False, tally)

    def _batch(self, ts, start, need: str, verdict, exact, floor: bool,
               tally):
        """(fracs, errs) arrays of a (float, error) verdict at each t in
        ts.  On each run of equal start(t), a function of _start(t),
        `_screen` decides the t with t^e <= _SCREEN_T in 64-bit fixed
        point (with the floor test when floor is set), and the t it
        leaves open go through `_decide` as one batch with the same
        start, so every float is the one `_decide` gives.  A form that
        `_decide` evaluates exactly is left to it.  tally, when given,
        accumulates [t the screen decided, t left open]."""
        ts = list(ts)
        fracs, errs = np.empty(len(ts)), np.empty(len(ts))
        done = np.zeros(len(ts), dtype=bool)
        if exact is None or not self._rational:
            top = max([e for _, _, e in self.terms] + [1])
            limit = _iroot(_SCREEN_T, top)
            t = np.array([v if 0 <= v <= limit else -1 for v in ts],
                         dtype=np.int64)
            order = np.argsort(t, kind="stable")
            t = t[order]
            i = int(np.searchsorted(t, 0))
            while i < t.size:
                prec = start(int(t[i]))
                # the run is _start's band, from its least t
                j = int(np.searchsorted(t, min(self._band[1], limit),
                                        "right"))
                pe, rows = self._rows(prec)
                width = sum(b - a for a, b, _ in rows)
                if rows and 64 <= pe <= 128 and width < 1 << 32:
                    ok, f, e = _screen(t[i:j].astype(np.uint64), rows, pe,
                                       floor)
                    idx = order[i:j][ok]
                    fracs[idx], errs[idx], done[idx] = f[ok], e[ok], True
                i = j
        open_ = np.flatnonzero(~done)
        if tally is not None:
            tally[0] += len(ts) - open_.size
            tally[1] += open_.size
        if open_.size:
            fracs[open_], errs[open_] = zip(*self._decide(
                [ts[i] for i in open_.tolist()], start, need, verdict, exact))
        return fracs, errs


@lru_cache(maxsize=256)
def _unit_form(spec: RealSpec) -> LinearForm:
    """The one-term form spec * t of floor_scaled and dist_nearest_ints."""
    return LinearForm([(spec, 1, 1)])


# ---------------------------------------------------------------------------
# verdicts on spec * scale


def eval_enclosure(spec: RealSpec, bits: int) -> Interval:
    """Dyadic enclosure of the value, width <= 2**(1-bits) * max(1, |lo|)."""
    if bits < MIN_ENCLOSURE_BITS:
        raise ValueError(f"bits must be >= {MIN_ENCLOSURE_BITS}")
    if bits > DEFAULT_MAX_BITS:
        raise PrecisionExhausted("requested bits exceed the ceiling",
                                 spec=spec, bits=bits)
    prec = bits + 1
    cap = spec.max_prec()
    if cap is not None and prec > cap:
        raise PrecisionExhausted(
            f"{bits} bits requested: {spec.text()} carries only {cap} bits",
            spec=spec, bits=bits)
    lo, hi = spec.bounds(prec)
    return Interval(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec), bits)


def floor_scaled(spec: RealSpec, scale: int) -> CertifiedFloor:
    """Certified floor(value * scale) for a positive integer scale."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    form = _unit_form(spec)
    sbits = scale.bit_length()

    def verdict(lo, hi, pe):
        f = lo >> pe
        if hi >> pe != f:
            return None
        cert = Interval(Fraction(lo, 1 << pe), Fraction(hi, 1 << pe),
                        max(1, pe - sbits - 2))
        return CertifiedFloor(f, cert, scale, pe)

    def exact(value):
        # rounding past the denominator keeps a non-integer value strictly
        # inside its unit interval; a dyadic value is its own certificate
        pe = max(form._start(scale), value.denominator.bit_length())
        num, den = value.numerator << pe, value.denominator
        return verdict(num // den, -(-num // den), pe)
    return next(form._decide((scale,), form._start, "floor", verdict, exact))


def dist_nearest_ints(spec: RealSpec, scales, *, bits: int = 48):
    """Enclosures of ||value * s|| (distance to the nearest integer) for
    each positive integer s in scales, lazily.

    Each s starts at the precision max(64 + its bit length, bits + its
    bit length + 2), by splitting the scales into runs of equal start, so
    every Interval is the one a batch of s alone returns.  A
    stated-precision representation that cannot reach `bits` returns the
    tightest interval its digits certify (visible through the interval's
    precision_bits) rather than refusing outright; it only raises when
    the digits certify nothing at all.
    """
    return (Interval(Fraction(d_lo, unit), Fraction(d_hi, unit), pb)
            for d_lo, d_hi, unit, pb in _distance_ends(spec, scales, bits))


def _distance_ends(spec: RealSpec, scales, bits: int):
    """The enclosures of dist_nearest_ints as integer ends, lazily:
    (d_lo, d_hi, 2^pe, precision bits) with d_lo/2^pe <= ||value * s||
    <= d_hi/2^pe, unchecked until an Interval or `_check_ends` takes
    them."""
    form = _unit_form(spec)
    cap = form._cap

    def start(scale):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        return max(form._start(scale), bits + scale.bit_length() + 2)

    def verdict(lo, hi, pe):
        width = hi - lo
        tight = width <= 1 << max(pe - bits - 1, 1)
        if not tight and (cap is None or pe < cap):
            return None
        # ||x|| is piecewise linear: minima only at integers, maxima
        # only at half-integers, so extremes over [lo, hi]/unit are at
        # those lattice points when inside, else at the endpoints.  The
        # first multiple of unit at or above lo lies (-lo) mod unit past
        # it, the first odd multiple of half (half - lo) mod unit past it.
        unit = 1 << pe
        half = unit >> 1
        mask = unit - 1
        r_lo, r_hi = lo & mask, hi & mask
        d_lo_end = min(r_lo, unit - r_lo)
        d_hi_end = min(r_hi, unit - r_hi)
        int_inside = -r_lo & mask <= width
        half_inside = (half - r_lo) & mask <= width
        d_lo = 0 if int_inside else min(d_lo_end, d_hi_end)
        d_hi = half if half_inside else max(d_lo_end, d_hi_end)
        # d_hi - d_lo <= hi - lo, so this precision is always honest
        pb = min(bits, pe - 1) if tight else \
            min(bits, pe + 1 - width.bit_length())
        if pb < 1:
            return None
        return d_lo, d_hi, unit, pb

    return form._decide(scales, start, "nearest-integer distance", verdict)
