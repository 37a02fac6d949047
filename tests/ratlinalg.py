"""Exact rational linear algebra used as an independent test oracle.

Deliberately separate from the package: determinants and inverses here
are plain Gaussian elimination over Fraction, so they share no code with
the fraction-free routines they are checking.
"""

from fractions import Fraction


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def frac_det(m):
    a = [row[:] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def frac_inv(m):
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def frac_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def frac_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def frac_interpolate(points, values):
    """Coefficients, lowest degree first, of the interpolant through the data.

    Newton divided differences over Fraction, expanded into the monomial
    basis; the result may have non-integer coefficients.
    """
    n = len(points)
    coef = [Fraction(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - j])
    acc = [Fraction(0)] * n
    basis = [Fraction(1)]
    for k in range(n):
        for d, b in enumerate(basis):
            acc[d] += coef[k] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for d, b in enumerate(basis):
            nxt[d] -= b * points[k]
            nxt[d + 1] += b
        basis = nxt
    return acc
