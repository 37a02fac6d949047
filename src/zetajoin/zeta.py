"""Ihara zeta machinery for arbitrary simple graphs.

The reciprocal zeta function of a connected graph G with m edges and n
vertices is (1 - u^2)^(m-n) * f(u) where f(u) = det(I - u*A + u^2*(D - I))
is the Bass determinant polynomial.  Independent oracles computed here:

* the Hashimoto (non-backtracking edge) operator B, whose determinant
  det(I - u*B) equals the reciprocal zeta function; it is the reversed
  characteristic polynomial of B, computed by the modular Hessenberg
  kernel ``charpoly``, while f goes through the prime-free
  ``polymat_det``, so the two sides share no determinant kernel;
* the closed non-backtracking walk series sum_k trace(B^k) u^k / k, which
  must match the truncated -log of the reciprocal zeta function;
* the Matrix-Tree spanning tree count tau, tied to f by the derivative
  identity f'(1) = 2 (m - n) tau.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeOneWarning, DisconnectedError
from .graphs import Graph
from .matrices import IntMatrix, PolyMatrix, bareiss_det, charpoly, polymat_det
from .polynomials import IntPoly, RatPoly, series_log

_ONE_MINUS_U2 = IntPoly((1, 0, -1))


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedError("operation requires a connected graph")


def _warn_degree_one(g: Graph) -> None:
    if any(d == 1 for d in g.degrees):
        warnings.warn(
            "graph has degree-1 vertices; the zeta interpretation assumes none",
            DegreeOneWarning,
            stacklevel=3,
        )


def bass_poly(g: Graph) -> IntPoly:
    """The determinant polynomial det(I - u*A(G) + u^2*(D(G) - I)).

    Exact, degree at most 2n, constant term 1.
    """
    if g.n == 0:
        raise ValueError("bass_poly requires a nonempty graph")
    adj = g.adjacency_sets()
    minus_u = IntPoly((0, -1))
    zero = IntPoly()
    rows = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            if i == j:
                row.append(IntPoly((1, 0, g.degrees[i] - 1)))
            elif j in adj[i]:
                row.append(minus_u)
            else:
                row.append(zero)
        rows.append(tuple(row))
    return polymat_det(PolyMatrix(tuple(rows), degree_bound=2 * g.n))


def zeta_reciprocal(g: Graph) -> IntPoly:
    """Reciprocal zeta function as a polynomial; requires m >= n.

    For trees (m < n) the reciprocal zeta function is the rational
    function (1 - u^2)^(m-n) * f(u); use ``zeta_report`` for that case.
    """
    _require_connected(g)
    _warn_degree_one(g)
    exponent = g.m - g.n
    if exponent < 0:
        raise ValueError("m < n: reciprocal zeta is not a polynomial (see zeta_report)")
    return bass_poly(g) * _ONE_MINUS_U2**exponent


@dataclass(frozen=True)
class HashimotoMatrix:
    """Non-backtracking operator on directed edges.

    Edge e = (u, v) of the graph (u < v, lexicographic order) produces the
    arcs u->v at index 2e and v->u at index 2e+1.  Entry (a->b, c->d) is 1
    iff b = c and a != d; the row sum of row (a->b) is degree(b) - 1.
    """

    matrix: IntMatrix
    arcs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.arcs)


def hashimoto(g: Graph) -> HashimotoMatrix:
    if g.n == 0:
        raise ValueError("hashimoto requires a nonempty graph")
    arcs: list[tuple[int, int]] = []
    for u, v in g.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    arcs_at: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for idx, (a, b) in enumerate(arcs):
        arcs_at[a].append(idx)
    size = len(arcs)
    rows = [[0] * size for _ in range(size)]
    for idx, (a, b) in enumerate(arcs):
        for nxt in arcs_at[b]:
            if arcs[nxt][1] != a:
                rows[idx][nxt] = 1
    return HashimotoMatrix(matrix=IntMatrix(rows), arcs=tuple(arcs))


def edge_zeta_reciprocal(g: Graph) -> IntPoly:
    """det(I - u*B) for the Hashimoto operator B, exact, degree <= 2m.

    det(I - u*B) = u^(2m) det(u^-1 I - B), so its coefficients are those
    of charpoly(B) in reverse order.  Serves as an independent oracle for
    the Bass route to the reciprocal zeta function.
    """
    _require_connected(g)
    return IntPoly(reversed(charpoly(hashimoto(g).matrix).coeffs))


def _traces_fit_int64(size: int, max_step: int, order: int) -> bool:
    """Whether int64 arithmetic computes trace(B^k), k <= order, exactly.

    A row of B sums to at most ``max_step``, so every entry of B^k and
    every partial sum of the product that forms it are at most
    max_step**k, and every partial sum of trace(B^k) is at most
    size * max_step**k.
    """
    return size * max_step**order < 2**63


def _hashimoto_traces(g: Graph, order: int) -> list[int]:
    """trace(B^k) for k = 1..order, exact."""
    if order == 0:
        return []
    h = hashimoto(g)
    size = h.size
    if size == 0:
        return [0] * order
    if not _traces_fit_int64(size, max(g.degrees) - 1, order):
        # big-integer fallback; int64 sums could overflow
        cur = h.matrix
        traces = [cur.trace()]
        for _ in range(order - 1):
            cur = cur * h.matrix
            traces.append(cur.trace())
        return traces
    b = h.matrix.to_int64_array()
    cur = b.copy()
    traces = [int(np.trace(cur))]
    for _ in range(order - 1):
        cur = cur @ b
        traces.append(int(np.trace(cur)))
    return traces


def nb_walk_series(g: Graph, order: int = 12) -> RatPoly:
    """Truncated closed non-backtracking walk series sum trace(B^k) u^k / k."""
    if order < 0 or order > 16:
        raise ValueError("walk series order must be between 0 and 16")
    traces = _hashimoto_traces(g, order)
    coeffs = [Fraction(0)] * (order + 1)
    for k, t in enumerate(traces, start=1):
        coeffs[k] = Fraction(t, k)
    return RatPoly(coeffs)


def zeta_log_series(g: Graph, order: int = 12) -> RatPoly:
    """Truncated -log of the reciprocal zeta function.

    Works for any connected graph, trees included, via
    -log[(1-u^2)^(m-n) f] = (m-n) * (-log(1-u^2)) + (-log f).
    """
    f = bass_poly(g)
    return (g.m - g.n) * series_log(_ONE_MINUS_U2, order) + series_log(f, order)


def spanning_trees(g: Graph) -> int:
    """Number of spanning trees via the Matrix-Tree theorem.

    Determinant of the Laplacian with row and column 0 deleted (any
    choice is valid; 0 is fixed for reproducibility).
    """
    _require_connected(g)
    if g.n <= 1:
        return 1
    return bareiss_det(g.laplacian().minor(0, 0))


def northshield_check(g: Graph) -> bool:
    """Exact check of the derivative identity f'(1) = 2 (m - n) tau."""
    _require_connected(g)
    lhs = bass_poly(g).derivative()(1)
    return lhs == 2 * (g.m - g.n) * spanning_trees(g)


@dataclass(frozen=True)
class ZetaReport:
    """Zeta data for one connected graph plus its oracle cross-checks.

    ``zeta_reciprocal`` is the expanded polynomial when m >= n; for trees
    it is None and the (negative) exponent together with ``f`` describe
    the rational function (1-u^2)^exponent * f.
    """

    m: int
    n: int
    f: IntPoly
    exponent: int
    zeta_reciprocal: IntPoly | None
    tau: int
    checks: dict[str, bool]

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "f": self.f.to_decimal_strings(),
            "zeta_reciprocal": (
                self.zeta_reciprocal.to_decimal_strings()
                if self.zeta_reciprocal is not None
                else None
            ),
            "exponent": self.exponent,
            "tau": str(self.tau),
            "checks": dict(self.checks),
        }


def zeta_report(g: Graph, order: int = 12) -> ZetaReport:
    """Compute the full zeta report with all three oracle checks."""
    _require_connected(g)
    _warn_degree_one(g)
    f = bass_poly(g)
    exponent = g.m - g.n
    zr = f * _ONE_MINUS_U2**exponent if exponent >= 0 else None
    tau = spanning_trees(g)

    edge_det = edge_zeta_reciprocal(g)
    if exponent >= 0:
        hashimoto_match = edge_det == f * _ONE_MINUS_U2**exponent
    else:
        hashimoto_match = edge_det * _ONE_MINUS_U2 ** (-exponent) == f

    series_match = zeta_log_series(g, order) == nb_walk_series(g, order)
    northshield_match = f.derivative()(1) == 2 * exponent * tau
    return ZetaReport(
        m=g.m,
        n=g.n,
        f=f,
        exponent=exponent,
        zeta_reciprocal=zr,
        tau=tau,
        checks={
            "hashimoto_match": hashimoto_match,
            "series_match": series_match,
            "northshield_match": northshield_match,
        },
    )
