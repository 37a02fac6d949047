import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ratlinalg import frac_det, frac_inv, frac_matmul, frac_matrix, frac_sub
from zetajoin import (
    IntegralityViolation,
    IntMatrix,
    IntPoly,
    PolyMatrix,
    adjugate,
    bareiss_det,
    charpoly,
    jacobi_eigenvalues,
    poly_of_matrix,
    polymat_det,
)
from zetajoin import matrices


def _random_int_matrix(rng, n, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_bareiss_identity():
    assert bareiss_det(IntMatrix.identity(5)) == 1


def test_bareiss_2x2():
    assert bareiss_det(IntMatrix([[2, 1], [1, 2]])) == 3


def test_bareiss_singular():
    assert bareiss_det(IntMatrix([[1, 2], [2, 4]])) == 0


def test_bareiss_empty():
    assert bareiss_det(IntMatrix([])) == 1


def test_bareiss_k4_laplacian_minor(k4):
    # Cayley: tau(K_n) = n^(n-2)
    assert bareiss_det(k4.laplacian().minor(0, 0)) == 16


def test_bareiss_needs_row_swaps():
    m = IntMatrix([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
    assert bareiss_det(m) == Fraction(frac_det(frac_matrix(m.entries)))


def test_bareiss_matches_rational_elimination():
    rng = random.Random(3)
    for _ in range(60):
        m = _random_int_matrix(rng, rng.randint(1, 6))
        assert bareiss_det(m) == frac_det(frac_matrix(m.entries))


def test_adjugate_identity():
    assert adjugate(IntMatrix.identity(3)) == IntMatrix.identity(3)


def test_adjugate_diagonal():
    assert adjugate(IntMatrix([[2, 0], [0, 3]])) == IntMatrix([[3, 0], [0, 2]])


def test_adjugate_defining_property():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = _random_int_matrix(rng, n)
        d = bareiss_det(m)
        assert m * adjugate(m) == IntMatrix.identity(n) * d


def test_rank_one_update_example():
    # det(A + 2J) = det A + 2 * 1^T adj(A) 1 on random 4x4 matrices
    rng = random.Random(9)
    for _ in range(20):
        a = _random_int_matrix(rng, 4)
        j = IntMatrix([[1] * 4 for _ in range(4)])
        adj = adjugate(a)
        ones_sum = sum(sum(row) for row in adj.entries)
        assert bareiss_det(a + j * 2) == bareiss_det(a) + 2 * ones_sum


def test_polymat_det_charpoly_swap():
    x = IntPoly.x()
    entries = ((x, IntPoly([-1])), (IntPoly([-1]), x))
    assert polymat_det(PolyMatrix(entries, degree_bound=2)) == IntPoly([-1, 0, 1])


def test_polymat_det_1x1():
    pm = PolyMatrix(((IntPoly([1, 0, 1]),),), degree_bound=2)
    assert polymat_det(pm) == IntPoly([1, 0, 1])


def test_polymat_det_empty():
    assert polymat_det(PolyMatrix((), degree_bound=0)) == IntPoly.one()


def _random_poly_matrix(rng, n, max_deg=2):
    entries = tuple(
        tuple(
            IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, max_deg + 1))])
            for _ in range(n)
        )
        for _ in range(n)
    )
    return PolyMatrix(entries, degree_bound=n * max_deg)


def test_polymat_det_matches_reversed_charpoly():
    from zetajoin import gen_even_cycle, hashimoto

    # det(I - uB) on 40 arcs against the modular Hessenberg kernel
    b = hashimoto(gen_even_cycle(5).graph)
    minus_u = IntPoly([0, -1])
    rows = tuple(
        tuple(
            IntPoly([1]) if i == j else (minus_u if b.matrix[i, j] else IntPoly())
            for j in range(b.size)
        )
        for i in range(b.size)
    )
    pm = PolyMatrix(rows, degree_bound=b.size)
    assert polymat_det(pm) == IntPoly(reversed(charpoly(b.matrix).coeffs))


def _laplace_det(rows):
    # cofactor expansion along the first row, straight in IntPoly arithmetic
    if not rows:
        return IntPoly.one()
    acc = IntPoly()
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = entry * _laplace_det(minor)
            acc = acc - term if j % 2 else acc + term
    return acc


def test_polymat_engines_agree():
    # the interpolating engine against cofactor expansion over IntPoly
    rng = random.Random(17)
    for _ in range(15):
        pm = _random_poly_matrix(rng, rng.randint(1, 5))
        assert polymat_det(pm) == _laplace_det([list(row) for row in pm.entries])


def test_polymat_det_matches_integer_substitution():
    rng = random.Random(23)
    for _ in range(10):
        pm = _random_poly_matrix(rng, rng.randint(1, 4))
        det = polymat_det(pm)
        for _ in range(10):
            t = rng.randint(-20, 20)
            assert det(t) == bareiss_det(pm.eval_at(t))


def test_polymat_det_overestimated_bound():
    x = IntPoly.x()
    entries = ((x, IntPoly([-1])), (IntPoly([-1]), x))
    loose = PolyMatrix(entries, degree_bound=7)
    assert polymat_det(loose) == IntPoly([-1, 0, 1])


def test_charpoly_k2():
    a = IntMatrix([[0, 1], [1, 0]])
    assert charpoly(a) == IntPoly([-1, 0, 1])


def test_charpoly_k23():
    # spectrum of K_{2,3} is {±sqrt(6), 0, 0, 0}: x^5 - 6x^3
    a = IntMatrix(
        [
            [0, 0, 1, 1, 1],
            [0, 0, 1, 1, 1],
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
        ]
    )
    assert charpoly(a) == IntPoly([0, 0, 0, -6, 0, 1])


def test_charpoly_k4(k4):
    # (x - 3)(x + 1)^3 expanded
    chi = charpoly(k4.adjacency())
    assert chi == IntPoly([-3, -8, -6, 0, 1])
    numeric = jacobi_eigenvalues(k4.adjacency().to_float_array())
    assert numeric == pytest.approx([3, -1, -1, -1], abs=1e-9)


def test_cayley_hamilton_random_01():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 1)
        m = IntMatrix(rows)
        assert poly_of_matrix(charpoly(m), m) == IntMatrix.zeros(n, n)


@st.composite
def int_matrices(draw):
    """Square integer matrices of size 0-12 with entries of both signs.

    The entry scale reaches 10^6, where the coefficients need several
    primes.  Half the time the matrix is block upper triangular with a
    leading block of size j, so column j - 1 is zero below the
    subdiagonal when the Hessenberg reduction reaches it.
    """
    n = draw(st.integers(0, 12))
    scale = draw(st.sampled_from([1, 9, 10**6]))
    entry = st.integers(-scale, scale)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        j = draw(st.integers(1, n - 2))
        for i in range(j, n):
            rows[i][:j] = [0] * j
    return IntMatrix(rows)


def _char_matrix(m):
    """x I - m as a polynomial matrix."""
    n = m.rows
    return PolyMatrix(
        tuple(
            tuple(IntPoly([-m[i, j], 1 if i == j else 0]) for j in range(n))
            for i in range(n)
        ),
        degree_bound=n,
    )


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(int_matrices())
def test_charpoly_matches_bareiss_interpolation(m):
    assert charpoly(m) == polymat_det(_char_matrix(m))


def test_charpoly_large_entries_beyond_int64():
    m = IntMatrix([[2**70, 3], [-5, -(2**65)]])
    expected = IntPoly([-(2**135) + 15, 2**65 - 2**70, 1])
    assert charpoly(m) == expected


def test_charpoly_spot_check_fires_on_missing_prime(monkeypatch):
    rng = random.Random(47)
    m = _random_int_matrix(rng, 6, -(10**6), 10**6)
    certified = matrices._certified_primes
    budgets = []

    def one_prime_short(bound_sq):
        primes = certified(bound_sq)
        budgets.append(len(primes))
        return primes[:-1]

    monkeypatch.setattr(matrices, "_certified_primes", one_prime_short)
    with pytest.raises(IntegralityViolation, match="spot check"):
        charpoly(m)
    assert budgets[0] > 1


def test_schur_complement_determinant():
    # det M = det(M22) * det(M11 - M12 M22^-1 M21) for invertible M22
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 6)
        n1 = rng.randint(1, n - 1)
        n2 = n - n1
        while True:
            m = _random_int_matrix(rng, n)
            m22 = [row[n1:] for row in m.entries[n1:]]
            if frac_det(frac_matrix(m22)) != 0:
                break
        m11 = frac_matrix([row[:n1] for row in m.entries[:n1]])
        m12 = frac_matrix([row[n1:] for row in m.entries[:n1]])
        m21 = frac_matrix([row[:n1] for row in m.entries[n1:]])
        schur = frac_sub(m11, frac_matmul(frac_matmul(m12, frac_inv(frac_matrix(m22))), m21))
        assert bareiss_det(m) == frac_det(frac_matrix(m22)) * frac_det(schur)


def test_block_inverse_row_sums():
    # with constant block row sums r1..r4 and r1 r4 != r2 r3:
    # 1^T M^-1 1 = (n1 (r4 - r2) + n2 (r1 - r3)) / (r1 r4 - r2 r3)
    rng = random.Random(43)
    done = 0
    while done < 30:
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        r = [rng.randint(-4, 4) for _ in range(4)]
        if r[0] * r[3] - r[1] * r[2] == 0:
            continue

        def block(h, w, target):
            rows = []
            for _ in range(h):
                head = [rng.randint(-3, 3) for _ in range(w - 1)]
                rows.append(head + [target - sum(head)])
            return rows

        rows = [
            a + b
            for a, b in zip(block(n1, n1, r[0]), block(n1, n2, r[1]))
        ] + [
            a + b
            for a, b in zip(block(n2, n1, r[2]), block(n2, n2, r[3]))
        ]
        m = frac_matrix(rows)
        if frac_det(m) == 0:
            continue
        inv = frac_inv(m)
        total = sum(sum(row) for row in inv)
        expected = Fraction(
            n1 * (r[3] - r[1]) + n2 * (r[0] - r[2]), r[0] * r[3] - r[1] * r[2]
        )
        assert total == expected
        done += 1


def test_int_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        bareiss_det(IntMatrix([[1, 2, 3], [4, 5, 6]]).entries)


def test_polymat_rejects_underestimated_bound():
    x = IntPoly.x()
    entries = ((x * x, IntPoly()), (IntPoly(), x * x))
    with pytest.raises(ValueError):
        PolyMatrix(entries, degree_bound=3)
