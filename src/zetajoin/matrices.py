"""Exact integer and polynomial-matrix linear algebra.

``bareiss_det`` is the fraction-free elimination determinant used for all
plain integer matrices (Matrix-Tree minors, Schur-style block checks,
evaluation points).  ``charpoly`` reduces the matrix to Hessenberg form
modulo 31-bit primes, runs the Hessenberg characteristic-polynomial
recurrence per prime and combines the primes by CRT; the prime budget is
certified by a Hadamard/Cauchy coefficient bound on x I - M and the
result is spot-checked against a fraction-free determinant.
``polymat_det`` computes determinants of matrices with polynomial
entries by fraction-free evaluation on the grid 0, 1, -1, 2, -2, ... and
exact integer interpolation; it uses no primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IntegralityViolation
from .polynomials import (
    IntPoly,
    interpolate_at_integers,
    interpolation_points,
)


class IntMatrix:
    """Immutable rectangular matrix with integer entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix rows")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.entries[i][j]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[x * other for x in row] for row in self.entries])
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = other.transpose().entries
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries))) if self.entries else IntMatrix([])

    def trace(self) -> int:
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def minor(self, i: int, j: int) -> "IntMatrix":
        """Delete row i and column j."""
        return IntMatrix(
            [
                [x for c, x in enumerate(row) if c != j]
                for r, row in enumerate(self.entries)
                if r != i
            ]
        )

    def to_float_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float).reshape(self.rows, self.cols)

    def to_int64_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)


def bareiss_det(m: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Pivoting is deterministic: the first nonzero entry in column order is
    used, with row swaps tracked for the sign.  A singular matrix gives 0.
    """
    rows = m.entries if isinstance(m, IntMatrix) else m
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(m: IntMatrix) -> IntMatrix:
    """Exact adjugate (transposed cofactor matrix); m * adjugate(m) = det(m) * I."""
    if not m.is_square():
        raise ValueError("adjugate of non-square matrix")
    n = m.rows
    if n == 0:
        return IntMatrix([])
    if n == 1:
        return IntMatrix([[1]])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = bareiss_det(m.minor(j, i))
            out[i][j] = c if (i + j) % 2 == 0 else -c
    return IntMatrix(out)


def poly_of_matrix(p: IntPoly, m: IntMatrix) -> IntMatrix:
    """Evaluate a polynomial at a square matrix (Horner)."""
    if not m.is_square():
        raise ValueError("polynomial of non-square matrix")
    n = m.rows
    acc = IntMatrix.zeros(n, n)
    ident = IntMatrix.identity(n)
    for c in reversed(p.coeffs):
        acc = acc * m + ident * c
    return acc


# -- polynomial matrices -------------------------------------------------------


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix of integer polynomials with a determinant degree bound.

    ``degree_bound`` must cover the sum over rows of the largest entry
    degree, which dominates the determinant degree.  Overestimates are
    fine; underestimates are a caller bug and are rejected here.
    """

    entries: tuple[tuple[IntPoly, ...], ...]
    degree_bound: int

    def __post_init__(self) -> None:
        rows = tuple(tuple(e) for e in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("polynomial matrix must be square")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        row_degree_sum = sum(max(max(e.degree for e in r), 0) for r in rows)
        if self.degree_bound < row_degree_sum:
            raise ValueError(
                f"degree bound {self.degree_bound} below row degree sum {row_degree_sum}"
            )

    @property
    def size(self) -> int:
        return len(self.entries)

    def eval_at(self, t: int) -> IntMatrix:
        return IntMatrix([[e(t) for e in row] for row in self.entries])


def polymat_det(pm: PolyMatrix) -> IntPoly:
    """Exact determinant of a polynomial matrix, fraction-free.

    ``bareiss_det`` at each of the degree_bound + 1 points of the grid
    0, 1, -1, 2, -2, ..., then exact integer interpolation.  No primes
    or CRT are involved, so this shares no kernel with ``charpoly``.
    """
    points = interpolation_points(pm.degree_bound + 1)
    return interpolate_at_integers(points, [bareiss_det(pm.eval_at(t)) for t in points])


# -- characteristic polynomial ------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic Miller-Rabin witnesses for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_POOL: list[int] = []
_prime_cursor = 2**31 - 1


def _primes_31bit(count: int) -> list[int]:
    """The first ``count`` primes descending from 2^31, cached."""
    global _prime_cursor
    while len(_PRIME_POOL) < count:
        if _is_prime(_prime_cursor):
            _PRIME_POOL.append(_prime_cursor)
        _prime_cursor -= 2
    return _PRIME_POOL[:count]


def _hadamard_coeff_bound_sq(row_norms_sq: Iterable[int]) -> int:
    """Square of an upper bound on |any coefficient of a determinant polynomial|.

    ``row_norms_sq`` gives, per row, the sum over its entries of the
    squared l1 norm of the entry's coefficients.  On |u| = 1 every entry is
    bounded by that l1 norm, so Hadamard's inequality bounds
    max_{|u|=1} |det| by the product of row norms, and Cauchy's estimate
    bounds every coefficient by that maximum.  Returned squared to stay in
    integer arithmetic.
    """
    bound_sq = 1
    for row_sq in row_norms_sq:
        bound_sq *= max(row_sq, 1)
    return bound_sq


def _certified_primes(bound_sq: int) -> list[int]:
    """The fewest 31-bit primes whose product exceeds twice the bound.

    With ``bound_sq`` from ``_hadamard_coeff_bound_sq``, the symmetric CRT
    lift over these primes recovers every coefficient exactly.
    """
    primes: list[int] = []
    prod = 1
    while prod * prod <= 4 * bound_sq:
        primes = _primes_31bit(len(primes) + 1)
        prod *= primes[-1]
    return primes


def _crt(residue_lists: list[list[int]], primes: list[int]) -> list[int]:
    """Combine per-prime coefficient residues; symmetric lift to ints."""
    count = len(residue_lists[0])
    modulus = 1
    combined = [0] * count
    for res, p in zip(residue_lists, primes):
        if modulus == 1:
            combined = [r % p for r in res]
            modulus = p
            continue
        inv = pow(modulus % p, p - 2, p)
        for i in range(count):
            delta = (res[i] - combined[i]) % p
            combined[i] = combined[i] + modulus * (delta * inv % p)
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in combined]


def _charpoly_mod_p(a: np.ndarray, p: int) -> list[int]:
    """Coefficients mod p of det(x I - a), lowest degree first.

    The matrix is brought to upper Hessenberg form H by similarity
    transforms mod p, then the characteristic polynomials p_c of the
    leading c x c blocks of H follow from

        p_{c+1} = (x - h_cc) p_c - sum_{r<c} h_rc (h_{r+1,r} ... h_{c,c-1}) p_r

    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    A product of two residues is below 2^62, and products are reduced mod
    p before they are summed, so every int64 sum has at most n + 1 terms
    below p.
    """
    h = np.mod(a, p).astype(np.int64, copy=False)
    n = h.shape[0]
    for k in range(1, n - 1):
        if h[k, k - 1] == 0:
            i = k + int(h[k:, k - 1].argmax())
            if h[i, k - 1] == 0:
                continue  # column already zero below the subdiagonal
            h[[k, i]] = h[[i, k]]
            h[:, [k, i]] = h[:, [i, k]]
        # row_i -= u_i row_k for i > k, then the inverse column operation
        u = h[k + 1 :, k - 1] * pow(int(h[k, k - 1]), -1, p) % p
        h[k + 1 :, k - 1 :] = (h[k + 1 :, k - 1 :] - u[:, None] * h[k, k - 1 :]) % p
        h[:, k] = (h[:, k] + (h[:, k + 1 :] * u % p).sum(axis=1)) % p

    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    sub_prod = np.zeros(n, dtype=np.int64)  # r -> h_{r+1,r} ... h_{c,c-1} mod p
    for c in range(n):
        prev, nxt = polys[c, : c + 1], polys[c + 1]
        nxt[1 : c + 2] = prev
        nxt[: c + 1] -= h[c, c] * prev % p
        if c:
            sub_prod[c - 1] = 1
            sub_prod[:c] = sub_prod[:c] * h[c, c - 1] % p
            coef = h[:c, c] * sub_prod[:c] % p
            nxt[:c] -= (coef[:, None] * polys[:c, :c] % p).sum(axis=0)
        nxt %= p
    return polys[n].tolist()


# fixed point of the exact spot check det(t I - M) = charpoly(M)(t)
_SPOT_CHECK_T = 2


def charpoly(m: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(x I - m), exact.

    One Hessenberg reduction per 31-bit prime, CRT over a prime budget
    certified by the Hadamard/Cauchy bound on x I - m (a diagonal entry
    counts as 1 + |m_ii|), then an exact fraction-free spot check at
    x = 2.  A failed check raises ``IntegralityViolation``.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    if n == 0:
        return IntPoly.one()
    rows = m.entries
    bound_sq = _hadamard_coeff_bound_sq(
        sum(x * x for x in row) + 2 * abs(row[i]) + 1 for i, row in enumerate(rows)
    )
    primes = _certified_primes(bound_sq)
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = np.array(rows, dtype=object)
    result = IntPoly(_crt([_charpoly_mod_p(a, p) for p in primes], primes))
    if result.coeffs[-1] != 1:
        raise IntegralityViolation("characteristic polynomial is not monic")
    t = _SPOT_CHECK_T
    shifted = [[(t if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if result(t) != bareiss_det(shifted):
        raise IntegralityViolation("characteristic polynomial failed exact spot check")
    return result
