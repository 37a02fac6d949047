"""Dense exact polynomials over the integers and the rationals.

Coefficients are stored lowest degree first with trailing zeros stripped;
the zero polynomial has an empty coefficient tuple and degree -1.
``IntPoly`` coefficients are Python ints (arbitrary precision), ``RatPoly``
coefficients are ``fractions.Fraction``.  Interpolation through integer
data stays in integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConstantTermNotOneError, ExactDivisionFailure, IntegralityViolation


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPoly:
    """Univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        self.coeffs = _trim([int(c) for c in coeffs])

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPoly":
        if coeff == 0:
            return cls()
        return cls([0] * degree + [coeff])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        """Coefficient of degree k (0 beyond the stored length)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.to_string()

    def to_string(self, var: str = "u") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative polynomial exponent")
        result = IntPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction, float, complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """Polynomial composition self(inner(u))."""
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPoly((c,))
        return acc

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by u^k."""
        if not self.coeffs:
            return IntPoly()
        return IntPoly([0] * k + list(self.coeffs))

    def divexact(self, divisor: "IntPoly") -> "IntPoly":
        """Exact polynomial division over the integers.

        Raises ExactDivisionFailure if any coefficient division is inexact
        or a nonzero remainder is left.
        """
        if divisor.is_zero():
            raise ExactDivisionFailure("division by zero polynomial")
        rem = list(self.coeffs)
        d = divisor.coeffs
        lead = d[-1]
        dd = len(d) - 1
        if len(rem) - 1 < dd:
            if not rem:
                return IntPoly()
            raise ExactDivisionFailure("degree of divisor exceeds dividend")
        quot = [0] * (len(rem) - dd)
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + dd]
            if top % lead:
                raise ExactDivisionFailure(
                    f"leading coefficient {top} not divisible by {lead}"
                )
            q = top // lead
            quot[k] = q
            if q:
                for i, c in enumerate(d):
                    rem[k + i] -= q * c
        if any(rem):
            raise ExactDivisionFailure("nonzero remainder in exact division")
        return IntPoly(quot)

    def primitive(self) -> "IntPoly":
        """Divide out the content; leading coefficient made positive."""
        if not self.coeffs:
            return IntPoly()
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    # -- serialization (coefficient arrays, low degree first) -----------------

    def to_decimal_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_decimal_strings(cls, strings: Sequence[str]) -> "IntPoly":
        return cls(int(s) for s in strings)


class RatPoly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        self.coeffs = _trim([Fraction(c) for c in coeffs])

    @classmethod
    def from_int_poly(cls, p: IntPoly) -> "RatPoly":
        return cls(p.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            other = RatPoly.from_int_poly(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({[str(c) for c in self.coeffs]!r})"

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if isinstance(other, IntPoly):
            other = RatPoly.from_int_poly(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "RatPoly":
        if isinstance(other, IntPoly):
            other = RatPoly.from_int_poly(other)
        elif isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if isinstance(other, IntPoly):
            other = RatPoly.from_int_poly(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0 * Fraction(x) if isinstance(x, (int, Fraction)) else 0.0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncated(self, order: int) -> "RatPoly":
        """Drop all terms of degree greater than ``order``."""
        return RatPoly(self.coeffs[: order + 1])


def _trunc_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a):
        if i > order or ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ca * cb
    return out


def series_log(p: IntPoly | RatPoly, order: int) -> RatPoly:
    """Truncation of -log p(u) to the given order; requires p(0) = 1.

    Computed as sum_{j>=1} q^j / j with q = 1 - p, which has valuation
    at least 1, so the sum is finite after truncating at ``order``.
    """
    coeffs = [Fraction(c) for c in p.coeffs]
    if not coeffs or coeffs[0] != 1:
        raise ConstantTermNotOneError("series_log requires constant term 1")
    q = [-c for c in coeffs[: order + 1]]
    if q:
        q[0] = Fraction(0)
    acc = [Fraction(0)] * (order + 1)
    power = q[:] + [Fraction(0)] * (order + 1 - len(q))
    for j in range(1, order + 1):
        if all(c == 0 for c in power):
            break
        for i, c in enumerate(power):
            if c:
                acc[i] += c / j
        power = _trunc_mul(power, q, order)
    return RatPoly(acc)


# -- gcd and square-free structure -------------------------------------------
#
# The helpers below work on trimmed lists of Fractions (lowest degree
# first); keeping one representation through Yun's algorithm avoids
# renormalization between steps, which would break its invariants.


def _frac_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _frac_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a mod b over the rationals."""
    a = a[:]
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db:
        f = a[-1] / lead
        k = len(a) - 1 - db
        for i in range(db + 1):
            a[k + i] -= f * b[i]
        a.pop()
        _frac_trim(a)
        if not a:
            break
    return a


def _frac_divexact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Exact quotient a/b over the rationals."""
    if not b:
        raise ExactDivisionFailure("division by zero polynomial")
    a = a[:]
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        f = a[-1] / lead
        quot[len(a) - 1 - db] = f
        k = len(a) - 1 - db
        for i in range(db + 1):
            a[k + i] -= f * b[i]
        a.pop()
        _frac_trim(a)
    if a:
        raise ExactDivisionFailure("inexact rational polynomial division")
    return _frac_trim(quot)


def _frac_derivative(a: list[Fraction]) -> list[Fraction]:
    return _frac_trim([k * c for k, c in enumerate(a)][1:])


def _frac_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _frac_trim(out)


def _frac_gcd_monic(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _frac_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _frac_to_primitive(a: list[Fraction]) -> IntPoly:
    if not a:
        return IntPoly()
    scale = math.lcm(*(c.denominator for c in a))
    return IntPoly(int(c * scale) for c in a).primitive()


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor, primitive with positive leading coefficient."""
    g = _frac_gcd_monic(
        [Fraction(c) for c in p.coeffs], [Fraction(c) for c in q.coeffs]
    )
    return _frac_to_primitive(g)


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition into square-free parts.

    Returns pairs (g, multiplicity) with each g primitive and square-free,
    pairwise coprime, and p proportional to the product of g^multiplicity.
    """
    if p.degree <= 0:
        return []
    f = [Fraction(c) for c in p.coeffs]
    df = _frac_derivative(f)
    g = _frac_gcd_monic(f, df)
    if len(g) == 1:
        return [(p.primitive(), 1)]
    w = _frac_divexact(f, g)
    y = _frac_divexact(df, g)
    z = _frac_sub(y, _frac_derivative(w))
    out: list[tuple[IntPoly, int]] = []
    mult = 1
    while len(w) > 1:
        if mult > p.degree:
            raise ExactDivisionFailure("square-free decomposition did not terminate")
        a = _frac_gcd_monic(w, z)
        if len(a) > 1:
            out.append((_frac_to_primitive(a), mult))
        w = _frac_divexact(w, a)
        y = _frac_divexact(z, a)
        z = _frac_sub(y, _frac_derivative(w))
        mult += 1
    # reassembly sanity: the factor product must be proportional to p
    prod = IntPoly.one()
    for gi, k in out:
        prod = prod * gi**k
    if p * prod.coeffs[-1] != prod * p.coeffs[-1]:
        raise ExactDivisionFailure("square-free reassembly mismatch")
    return out


# -- interpolation ------------------------------------------------------------


def interpolation_points(count: int) -> list[int]:
    """The canonical evaluation grid 0, 1, -1, 2, -2, ..."""
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts[:count]


def interpolate_at_integers(points: Sequence[int], values: Sequence[int]) -> IntPoly:
    """Exact Lagrange interpolation through integer data at distinct integers.

    Newton divided differences in integer arithmetic.  At distinct
    integer points every divided difference of an integer polynomial is
    an integer, so an inexact division occurs exactly when the
    interpolant has a non-integer coefficient; it raises
    ``IntegralityViolation``.
    """
    if len(points) != len(values):
        raise ValueError("points and values must have equal length")
    n = len(points)
    coef = [int(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(coef[i] - coef[i - 1], points[i] - points[i - j])
            if r:
                raise IntegralityViolation("interpolant has a non-integer coefficient")
            coef[i] = q
    # Horner in the Newton basis: acc = acc * (u - points[k]) + coef[k]
    acc: list[int] = []
    for k in range(n - 1, -1, -1):
        nxt = [coef[k]] + acc
        for d, a in enumerate(acc):
            nxt[d] -= a * points[k]
        acc = nxt
    return IntPoly(acc)
