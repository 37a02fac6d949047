"""Closed forms for the join of two semi-regular bipartite graphs.

For factors G1 ((q1,q2)-semi-regular, part sizes n1 <= n2) and G2
((q3,q4)-semi-regular, part sizes n3 <= n4), with nu1 = n1+n2,
nu2 = n3+n4, eps1 = n1*q1, eps2 = n3*q3, the join G = G1 v G2 has:

* adjacency spectrum: the four roots of the quartic
  f(t) = t^4 - (q1*q2 + q3*q4 + nu1*nu2) t^2 - 2 (nu1*eps2 + nu2*eps1) t
         + q1*q2*q3*q4 - 4*eps1*eps2,
  the non-Perron eigenvalue pairs of both factors, and zeros;
* a product closed form for the reciprocal zeta function built from the
  quadratics x1 = 1 + (q1 + nu2 - 1) u^2, ..., x4 = 1 + (q4 + nu1 - 1) u^2;
* a product closed form for the spanning tree count.

Every closed form is verified against the generic machinery of the zeta
module: the spectrum and zeta statements as cleared-denominator integer
polynomial identities, the tree count against the Matrix-Tree oracle.
``verify_join`` computes the join, the factor spectra, the Bass
polynomial and the tree count once and runs every check on them.
The nonzero factor eigenvalues enter through the monic integer
polynomial whose roots are their squares (from the characteristic
polynomial of E E^T, E the biadjacency block), never through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BiconditionalViolation,
    ExactDivisionFailure,
    IdentityViolation,
    OracleMismatchError,
)
from .graphs import (
    Graph,
    SemiRegularBipartite,
    build_graph,
    gen_complete_bipartite,
    gen_crown,
    gen_even_cycle,
    gen_subdivision,
    join,
)
from .matrices import charpoly
from .numeric import jacobi_eigenvalues, real_roots
from .polynomials import IntPoly, poly_gcd, series_log
from .zeta import (
    bass_poly,
    edge_zeta_reciprocal,
    nb_walk_series,
    spanning_trees,
    zeta_reciprocal,
)

_U = IntPoly((0, 1))
_U2 = IntPoly((0, 0, 1))
_ONE_MINUS_U2 = IntPoly((1, 0, -1))


@dataclass(frozen=True)
class FactorSpectrum:
    """Exact nonzero spectrum data of one semi-regular bipartite factor.

    ``p_nonzero`` is the monic integer polynomial whose roots are the
    squares of the k positive adjacency eigenvalues (the characteristic
    polynomial of E E^T with the zero roots stripped); ``zero_mult`` is
    the multiplicity of 0 in the factor's adjacency spectrum.
    """

    p_nonzero: IntPoly
    k: int
    zero_mult: int


def factor_spectrum(g: SemiRegularBipartite) -> FactorSpectrum:
    e = g.biadjacency()
    gram = e * e.transpose()
    chi = charpoly(gram)
    first_nonzero = 0
    while chi.coeffs[first_nonzero] == 0:
        first_nonzero += 1
    p = IntPoly(chi.coeffs[first_nonzero:])
    k = p.degree
    if first_nonzero != g.n1 - k:
        raise ExactDivisionFailure("inconsistent zero multiplicity in factor spectrum")
    return FactorSpectrum(p_nonzero=p, k=k, zero_mult=g.nu - 2 * k)


@dataclass(frozen=True)
class JoinParams:
    """The parameter bundle of a join of two semi-regular bipartite graphs."""

    nu1: int
    nu2: int
    eps1: int
    eps2: int
    q1: int
    q2: int
    q3: int
    q4: int
    n1: int
    n2: int
    n3: int
    n4: int
    k1: int
    k2: int

    def to_dict(self) -> dict:
        return {
            "nu1": self.nu1, "nu2": self.nu2,
            "eps1": self.eps1, "eps2": self.eps2,
            "q1": self.q1, "q2": self.q2, "q3": self.q3, "q4": self.q4,
            "n1": self.n1, "n2": self.n2, "n3": self.n3, "n4": self.n4,
            "k1": self.k1, "k2": self.k2,
        }


@dataclass(frozen=True)
class _Join:
    """The quantities of one join G1 v G2, each computed at most once.

    Every field is computed on first use, so a check reads only what it
    needs (the spectrum check never computes the Bass polynomial).  An
    instance lives for one call; nothing is cached across calls.
    """

    g1: SemiRegularBipartite
    g2: SemiRegularBipartite

    @cached_property
    def fs1(self) -> FactorSpectrum:
        return factor_spectrum(self.g1)

    @cached_property
    def fs2(self) -> FactorSpectrum:
        return factor_spectrum(self.g2)

    @cached_property
    def params(self) -> JoinParams:
        g1, g2 = self.g1, self.g2
        return JoinParams(
            nu1=g1.nu, nu2=g2.nu,
            eps1=g1.eps, eps2=g2.eps,
            q1=g1.q1, q2=g1.q2, q3=g2.q1, q4=g2.q2,
            n1=g1.n1, n2=g1.n2, n3=g2.n1, n4=g2.n2,
            k1=self.fs1.k, k2=self.fs2.k,
        )

    @cached_property
    def graph(self) -> Graph:
        return join(self.g1.graph, self.g2.graph)

    @cached_property
    def f(self) -> IntPoly:
        """The Bass polynomial of the join."""
        return bass_poly(self.graph)

    @cached_property
    def zeta_reciprocal(self) -> IntPoly:
        """(1 - u^2)^(m - n) f; a join always has m > n."""
        return self.f * _ONE_MINUS_U2 ** (self.graph.m - self.graph.n)

    @cached_property
    def tau(self) -> int:
        """Matrix-Tree count of the join."""
        return spanning_trees(self.graph)


def join_params(g1: SemiRegularBipartite, g2: SemiRegularBipartite) -> JoinParams:
    return _Join(g1, g2).params


def quartic_f(p: JoinParams) -> IntPoly:
    """The quartic whose roots are the four non-inherited join eigenvalues."""
    return IntPoly(
        (
            p.q1 * p.q2 * p.q3 * p.q4 - 4 * p.eps1 * p.eps2,
            -2 * (p.nu1 * p.eps2 + p.nu2 * p.eps1),
            -(p.q1 * p.q2 + p.q3 * p.q4 + p.nu1 * p.nu2),
            0,
            1,
        )
    )


@dataclass(frozen=True)
class JoinSpectrum:
    """Numeric join spectrum assembled from the closed form."""

    values: tuple[float, ...]
    quartic: IntPoly
    zero_multiplicity: int


def spectrum_closed_form(
    g1: SemiRegularBipartite, g2: SemiRegularBipartite
) -> JoinSpectrum:
    """Join spectrum from the factor data, with an exact certificate.

    Raises IdentityViolation unless, as integer polynomials,

      (t^2 - q1q2)(t^2 - q3q4) * charpoly(A(G)) =
          t^z * f(t) * p1(t^2) * p2(t^2)

    where z is the total zero multiplicity, f the quartic, and p1, p2 the
    monic nonzero-square polynomials of the factors.
    """
    return _spectrum_closed_form(_Join(g1, g2))


def _spectrum_closed_form(j: _Join) -> JoinSpectrum:
    fs1, fs2, p = j.fs1, j.fs2, j.params
    f = quartic_f(p)
    z = p.nu1 - 2 * p.k1 + p.nu2 - 2 * p.k2

    phi = charpoly(j.graph.adjacency())
    t2 = _U2
    lhs = (t2 - p.q1 * p.q2) * (t2 - p.q3 * p.q4) * phi
    rhs = (
        IntPoly.monomial(z)
        * f
        * fs1.p_nonzero.compose(t2)
        * fs2.p_nonzero.compose(t2)
    )
    if lhs != rhs:
        raise IdentityViolation("join spectrum identity failed")

    quartic_roots = real_roots(f)
    if quartic_roots.has_complex or len(quartic_roots.roots) != 4:
        raise IdentityViolation("join quartic must have four real roots")
    values = list(quartic_roots.roots)
    for fs, perron_sq in ((fs1, p.q1 * p.q2), (fs2, p.q3 * p.q4)):
        reduced = fs.p_nonzero.divexact(IntPoly((-perron_sq, 1)))
        if reduced.degree > 0:
            rr = real_roots(reduced)
            if rr.has_complex:
                raise IdentityViolation("factor squared eigenvalues must be real")
            for t in rr.roots:
                root = math.sqrt(max(t, 0.0))
                values.append(root)
                values.append(-root)
    values.extend([0.0] * z)
    return JoinSpectrum(
        values=tuple(sorted(values, reverse=True)), quartic=f, zero_multiplicity=z
    )


@dataclass(frozen=True)
class ClosedFormZeta:
    """The factored closed form of the join's reciprocal zeta function.

    Z^{-1} = (1-u^2)^exp_one_minus_u2 * x1^exp_x1 * x2^exp_x2 * x3^exp_x3
             * x4^exp_x4 * h(u) * [non-Perron quadratic products], where
    p1_homog and p2_homog are the full homogenized factor polynomials
    u^{2k} p(x_a x_b / u^2), whose Perron factors cancel against the two
    denominators inside h.
    """

    x1: IntPoly
    x2: IntPoly
    x3: IntPoly
    x4: IntPoly
    h: IntPoly
    p1_homog: IntPoly
    p2_homog: IntPoly
    exp_x1: int
    exp_x2: int
    exp_x3: int
    exp_x4: int
    exp_one_minus_u2: int


def _homogenize(p: IntPoly, base: IntPoly, top: int) -> IntPoly:
    """u^{2*top} * p(base/u^2) as an exact integer polynomial (deg p <= top)."""
    acc = IntPoly()
    for a, c in enumerate(p.coeffs):
        if c:
            acc = acc + IntPoly.monomial(2 * (top - a), c) * base**a
    return acc


def zeta_closed_form(
    g1: SemiRegularBipartite, g2: SemiRegularBipartite
) -> tuple[ClosedFormZeta, IntPoly]:
    """Closed-form reciprocal zeta of the join, verified exactly.

    Two checks run before returning, both as integer polynomial
    identities (denominators multiplied through, never divided):

      (x1 x2 - q1q2 u^2)(x3 x4 - q3q4 u^2) * f_G =
          x1^{n1-k1} x2^{n2-k1} x3^{n3-k2} x4^{n4-k2} * h * P1 * P2

    with h = (x1x2 - q1q2 u^2)(x3x4 - q3q4 u^2)
             - u^2 [n1(x2+u q1) + n2(x1+u q2)] [n3(x4+u q3) + n4(x3+u q4)],
    and the assembled polynomial (the Perron factor of each P stripped by
    one exact division) equals the reciprocal zeta of the join.

    Returns the closed form and the assembled reciprocal zeta polynomial.
    """
    return _zeta_closed_form(_Join(g1, g2))


def _zeta_closed_form(j: _Join) -> tuple[ClosedFormZeta, IntPoly]:
    fs1, fs2, p = j.fs1, j.fs2, j.params

    x1 = IntPoly((1, 0, p.q1 + p.nu2 - 1))
    x2 = IntPoly((1, 0, p.q2 + p.nu2 - 1))
    x3 = IntPoly((1, 0, p.q3 + p.nu1 - 1))
    x4 = IntPoly((1, 0, p.q4 + p.nu1 - 1))
    qa = x1 * x2 - p.q1 * p.q2 * _U2
    qb = x3 * x4 - p.q3 * p.q4 * _U2
    num2 = p.n1 * (x2 + p.q1 * _U) + p.n2 * (x1 + p.q2 * _U)
    num1 = p.n3 * (x4 + p.q3 * _U) + p.n4 * (x3 + p.q4 * _U)
    h = qa * qb - _U2 * num1 * num2
    p1_homog = _homogenize(fs1.p_nonzero, x1 * x2, p.k1)
    p2_homog = _homogenize(fs2.p_nonzero, x3 * x4, p.k2)

    x_powers = (
        x1 ** (p.n1 - p.k1)
        * x2 ** (p.n2 - p.k1)
        * x3 ** (p.n3 - p.k2)
        * x4 ** (p.n4 - p.k2)
    )
    if qa * qb * j.f != x_powers * h * p1_homog * p2_homog:
        raise IdentityViolation("zeta multiply-through identity failed")

    # assembled polynomial: strip one Perron factor from each P exactly
    p1_hat = _homogenize(
        fs1.p_nonzero.divexact(IntPoly((-p.q1 * p.q2, 1))), x1 * x2, p.k1 - 1
    )
    p2_hat = _homogenize(
        fs2.p_nonzero.divexact(IntPoly((-p.q3 * p.q4, 1))), x3 * x4, p.k2 - 1
    )
    exponent = p.eps1 + p.eps2 + p.nu1 * p.nu2 - p.nu1 - p.nu2
    assembled = _ONE_MINUS_U2**exponent * x_powers * h * p1_hat * p2_hat
    if assembled != j.zeta_reciprocal:
        raise IdentityViolation("assembled closed form differs from reciprocal zeta")

    closed = ClosedFormZeta(
        x1=x1, x2=x2, x3=x3, x4=x4,
        h=h,
        p1_homog=p1_homog, p2_homog=p2_homog,
        exp_x1=p.n1 - p.k1, exp_x2=p.n2 - p.k1,
        exp_x3=p.n3 - p.k2, exp_x4=p.n4 - p.k2,
        exp_one_minus_u2=exponent,
    )
    return closed, assembled


def tau_closed_form(g1: SemiRegularBipartite, g2: SemiRegularBipartite) -> int:
    """Spanning tree count of the join from the factor spectra.

    tau = (q1+q2+nu2)(q3+q4+nu1)
          * (q1+nu2)^{n1-k1} (q2+nu2)^{n2-k1} (q3+nu1)^{n3-k2} (q4+nu1)^{n4-k2}
          * prod over non-Perron squares s of factor 1 of [(q1+nu2)(q2+nu2) - s]
          * prod over non-Perron squares s of factor 2 of [(q3+nu1)(q4+nu1) - s]

    The eigenvalue products are evaluated exactly as p((q+nu)(q'+nu))
    divided by the Perron term, with the division asserted exact.  The
    result is compared against the Matrix-Tree count of the join and an
    OracleMismatchError is raised on disagreement.
    """
    return _tau_closed_form(_Join(g1, g2))


def _tau_closed_form(j: _Join) -> int:
    fs1, fs2, p = j.fs1, j.fs2, j.params

    big1 = (p.q1 + p.nu2) * (p.q2 + p.nu2)
    big2 = (p.q3 + p.nu1) * (p.q4 + p.nu1)
    prods = []
    for fs, big, perron_sq in ((fs1, big1, p.q1 * p.q2), (fs2, big2, p.q3 * p.q4)):
        value = fs.p_nonzero(big)
        den = big - perron_sq
        if den == 0 or value % den:
            raise ExactDivisionFailure("non-exact eigenvalue product in tau closed form")
        prods.append(value // den)
    tau = (
        (p.q1 + p.q2 + p.nu2)
        * (p.q3 + p.q4 + p.nu1)
        * (p.q1 + p.nu2) ** (p.n1 - p.k1)
        * (p.q2 + p.nu2) ** (p.n2 - p.k1)
        * (p.q3 + p.nu1) ** (p.n3 - p.k2)
        * (p.q4 + p.nu1) ** (p.n4 - p.k2)
        * prods[0]
        * prods[1]
    )
    if tau != j.tau:
        raise OracleMismatchError(f"closed form {tau} != Matrix-Tree {j.tau}")
    return tau


def tau_complete_multipartite(m: int, n: int, p: int, q: int) -> int:
    """Spanning trees of K_{m,n} v K_{p,q} = K_{m,n,p,q} by direct formula."""
    if min(m, n, p, q) < 1:
        raise ValueError("all part sizes must be positive")
    return (
        (m + n + p + q) ** 2
        * (m + p + q) ** (n - 1)
        * (n + p + q) ** (m - 1)
        * (p + m + n) ** (q - 1)
        * (q + m + n) ** (p - 1)
    )


@dataclass(frozen=True)
class CycleJoinReport:
    """Cosine-product formula for tau(C_2m v C_2n) versus Matrix-Tree.

    ``formula_value`` evaluates the corrected reading in which the second
    cosine product runs over its own index j (the printed form reuses the
    letter i, which is out of scope there).  ``literal_value`` evaluates
    the misprinted reading with that stale i frozen at its final value;
    it is None when the first product is empty.  The Matrix-Tree count is
    authoritative either way.
    """

    m: int
    n: int
    formula_value: float
    rounded: int
    matrix_tree: int
    pre_rounding_error: float
    matches: bool
    literal_value: float | None
    literal_matches: bool | None


def tau_cycle_join(m: int, n: int) -> CycleJoinReport:
    if m < 2 or n < 2:
        raise ValueError("cycle join formula needs m, n >= 2")
    mt = spanning_trees(join(gen_even_cycle(m).graph, gen_even_cycle(n).graph))

    prefactor = float((4 + 2 * m) * (4 + 2 * n))
    if m % 2 == 0:
        prefactor *= (2 + 2 * n) ** 2
    if n % 2 == 0:
        prefactor *= (2 + 2 * m) ** 2
    i_top = (m - 1) // 2
    j_top = (n - 1) // 2
    prod_i = 1.0
    for i in range(1, i_top + 1):
        prod_i *= ((2 + 2 * n) ** 2 - 4 * math.cos(i * math.pi / m) ** 2) ** 2
    prod_j = 1.0
    for j in range(1, j_top + 1):
        prod_j *= ((2 + 2 * m) ** 2 - 4 * math.cos(j * math.pi / n) ** 2) ** 2
    value = prefactor * prod_i * prod_j
    rounded = round(value)
    err = abs(value - rounded)

    literal_value = None
    literal_matches = None
    if i_top >= 1:
        stale = i_top
        prod_literal = 1.0
        for _ in range(1, j_top + 1):
            prod_literal *= (
                (2 + 2 * m) ** 2 - 4 * math.cos(stale * math.pi / n) ** 2
            ) ** 2
        literal_value = prefactor * prod_i * prod_literal
        literal_matches = round(literal_value) == mt

    return CycleJoinReport(
        m=m,
        n=n,
        formula_value=value,
        rounded=rounded,
        matrix_tree=mt,
        pre_rounding_error=err,
        matches=(rounded == mt),
        literal_value=literal_value,
        literal_matches=literal_matches,
    )


def no_symmetric_roots_check(p: JoinParams) -> bool:
    """True iff no two roots of the join quartic sum to zero.

    f(0) < 0 rules out a zero root, so it suffices that f(t) and f(-t)
    have no common root, checked exactly through their gcd.
    """
    f = quartic_f(p)
    if f(0) >= 0:
        return False
    f_neg = IntPoly([c if k % 2 == 0 else -c for k, c in enumerate(f.coeffs)])
    return poly_gcd(f, f_neg).degree == 0


@dataclass(frozen=True)
class CospectralReport:
    """Outcome of the zeta-versus-spectrum experiment for a pair of joins."""

    zeta_equal: bool
    charpoly_equal: bool


def cospectral_iff_zeta(
    g1: SemiRegularBipartite,
    g2: SemiRegularBipartite,
    g2_alt: SemiRegularBipartite,
) -> CospectralReport:
    """Compare G1 v G2 with G1 v G2' by exact zeta and spectrum equality.

    Raises BiconditionalViolation if one equality holds without the
    other, which would contradict the equivalence these joins satisfy.
    """
    ga = join(g1.graph, g2.graph)
    gb = join(g1.graph, g2_alt.graph)
    zeta_equal = zeta_reciprocal(ga) == zeta_reciprocal(gb)
    charpoly_equal = charpoly(ga.adjacency()) == charpoly(gb.adjacency())
    if zeta_equal != charpoly_equal:
        raise BiconditionalViolation(
            f"zeta_equal={zeta_equal} but charpoly_equal={charpoly_equal}"
        )
    return CospectralReport(zeta_equal=zeta_equal, charpoly_equal=charpoly_equal)


# -- test corpus -----------------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    """Bounds for the deterministic verification corpus.

    Factors come from the complete bipartite, even cycle, crown and
    subdivision families; pairs are kept when the join stays within
    ``max_join_vertices`` (the hard ceiling is 60).
    """

    max_join_vertices: int = 10
    max_bipartite_sum: int = 7
    max_cycle_half: int = 5
    max_crown: int = 5
    include_subdivision: bool = True

    def __post_init__(self) -> None:
        if self.max_join_vertices > 60:
            raise ValueError("corpus joins are capped at 60 vertices")


@dataclass(frozen=True)
class CorpusPair:
    label: str
    factor1: SemiRegularBipartite
    factor2: SemiRegularBipartite


def corpus_factors(
    config: CorpusConfig = CorpusConfig(),
) -> tuple[tuple[str, SemiRegularBipartite], ...]:
    """The labeled factor pool, in deterministic order."""
    out: list[tuple[str, SemiRegularBipartite]] = []
    for total in range(2, config.max_bipartite_sum + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            out.append((f"K{a},{b}", gen_complete_bipartite(a, b)))
    for k in range(2, config.max_cycle_half + 1):
        out.append((f"C{2 * k}", gen_even_cycle(k)))
    for k in range(3, config.max_crown + 1):
        out.append((f"crown{k}", gen_crown(k)))
    if config.include_subdivision:
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        out.append(("subdivisionK4", gen_subdivision(k4)))
    return tuple(out)


def corpus(config: CorpusConfig = CorpusConfig()) -> tuple[CorpusPair, ...]:
    """All factor pairs whose join respects the configured vertex bound."""
    factors = corpus_factors(config)
    pairs: list[CorpusPair] = []
    for i, (label1, f1) in enumerate(factors):
        for label2, f2 in factors[i:]:
            if f1.nu + f2.nu <= config.max_join_vertices:
                pairs.append(CorpusPair(f"{label1} v {label2}", f1, f2))
    return tuple(pairs)


# -- one-pair verification --------------------------------------------------------


@dataclass(frozen=True)
class JoinVerification:
    """All closed-form checks for one join, each as a plain boolean."""

    label: str
    vertices: int
    edges: int
    tau: int
    spectrum_identity: bool
    spectrum_numeric_error: float
    spectrum_numeric_ok: bool
    zeta_identity: bool
    tau_triple: bool
    no_symmetric_roots: bool
    edge_oracle: bool | None
    series_match: bool | None

    @property
    def passed(self) -> bool:
        checks = [
            self.spectrum_identity,
            self.spectrum_numeric_ok,
            self.zeta_identity,
            self.tau_triple,
            self.no_symmetric_roots,
        ]
        if self.edge_oracle is not None:
            checks.append(self.edge_oracle)
        if self.series_match is not None:
            checks.append(self.series_match)
        return all(checks)

    def to_dict(self) -> dict:
        err = self.spectrum_numeric_error
        return {
            "label": self.label,
            "vertices": self.vertices,
            "edges": self.edges,
            "tau": str(self.tau),
            "checks": {
                "spectrum_identity": self.spectrum_identity,
                "spectrum_numeric": self.spectrum_numeric_ok,
                "zeta_identity": self.zeta_identity,
                "tau_triple": self.tau_triple,
                "no_symmetric_roots": self.no_symmetric_roots,
                "edge_oracle": self.edge_oracle,
                "series_match": self.series_match,
            },
            "spectrum_numeric_error": err if math.isfinite(err) else None,
        }


def verify_join(
    g1: SemiRegularBipartite,
    g2: SemiRegularBipartite,
    label: str = "",
    numeric_tol: float = 1e-6,
    include_edge_oracle: bool = False,
    series_order: int = 12,
    series_vertex_cap: int = 14,
) -> JoinVerification:
    """Run every closed-form identity for one pair of factors.

    The edge-operator oracle (a 2m x 2m exact determinant) runs only when
    requested; the walk-series check runs when the join has at most
    ``series_vertex_cap`` vertices.  The join, its factor spectra, Bass
    polynomial and tree count are each computed once and shared by the
    checks.
    """
    j = _Join(g1, g2)
    jg = j.graph

    try:
        spec = _spectrum_closed_form(j)
        spectrum_identity = True
        numeric = jacobi_eigenvalues(jg.adjacency().to_float_array())
        err = max(
            abs(a - b) for a, b in zip(spec.values, numeric)
        ) if numeric else 0.0
        spectrum_numeric_ok = len(spec.values) == len(numeric) and err <= numeric_tol
    except IdentityViolation:
        spectrum_identity = False
        err = float("inf")
        spectrum_numeric_ok = False

    try:
        _zeta_closed_form(j)
        zeta_identity = True
    except IdentityViolation:
        zeta_identity = False

    try:
        tau = _tau_closed_form(j)  # equals j.tau or raises
        deriv = j.f.derivative()(1)
        denom = 2 * (jg.m - jg.n)
        tau_triple = (deriv % denom == 0) and (deriv // denom == tau)
    except (OracleMismatchError, ExactDivisionFailure):
        tau = j.tau
        tau_triple = False

    roots_ok = no_symmetric_roots_check(j.params)

    edge_oracle = None
    if include_edge_oracle:
        edge_oracle = edge_zeta_reciprocal(jg) == j.zeta_reciprocal

    # -log of the reciprocal zeta; equals zeta_log_series since m >= n
    series_ok = None
    if jg.n <= series_vertex_cap:
        series_ok = series_log(j.zeta_reciprocal, series_order) == nb_walk_series(
            jg, series_order
        )

    return JoinVerification(
        label=label or "join",
        vertices=jg.n,
        edges=jg.m,
        tau=tau,
        spectrum_identity=spectrum_identity,
        spectrum_numeric_error=err,
        spectrum_numeric_ok=spectrum_numeric_ok,
        zeta_identity=zeta_identity,
        tau_triple=tau_triple,
        no_symmetric_roots=roots_ok,
        edge_oracle=edge_oracle,
        series_match=series_ok,
    )
