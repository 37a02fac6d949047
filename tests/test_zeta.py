import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from zetajoin import (
    DegreeOneWarning,
    DisconnectedError,
    IntPoly,
    NotBipartiteError,
    NotSemiRegularError,
    RatPoly,
    bass_poly,
    build_graph,
    charpoly,
    corpus_factors,
    detect_semiregular,
    edge_zeta_reciprocal,
    gen_complete_bipartite,
    gen_even_cycle,
    hashimoto,
    join,
    nb_walk_series,
    northshield_check,
    spanning_trees,
    zeta_log_series,
    zeta_reciprocal,
    zeta_report,
)
from zetajoin import matrices, zeta

ONE_MINUS_U2 = IntPoly([1, 0, -1])


def test_bass_constant_term_is_one():
    for label, srb in corpus_factors():
        assert bass_poly(srb.graph)(0) == 1, label


def test_bass_c4():
    # the 4-cycle has two primitive classes of length 4: Z^-1 = (1 - u^4)^2
    c4 = gen_even_cycle(2).graph
    assert bass_poly(c4) == IntPoly([1, 0, 0, 0, -1]) ** 2


def test_zeta_reciprocal_c6():
    c6 = gen_even_cycle(3).graph
    assert zeta_reciprocal(c6) == IntPoly([1, 0, 0, 0, 0, 0, -1]) ** 2


def test_zeta_reciprocal_k4_degree(k4):
    assert zeta_reciprocal(k4).degree == 2 * k4.m


def test_zeta_reciprocal_rejects_trees():
    k2 = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        with pytest.warns(DegreeOneWarning):
            zeta_reciprocal(k2)


def test_zeta_report_tree_rational_form():
    k2 = build_graph(2, [(0, 1)])
    with pytest.warns(DegreeOneWarning):
        rep = zeta_report(k2)
    assert rep.exponent == -1
    assert rep.zeta_reciprocal is None
    assert rep.f == ONE_MINUS_U2
    assert rep.all_checks_pass


def test_hashimoto_k2_is_zero():
    h = hashimoto(build_graph(2, [(0, 1)]))
    assert h.size == 2
    assert all(all(x == 0 for x in row) for row in h.matrix.entries)


def test_hashimoto_row_sums(k4):
    c4 = gen_even_cycle(2).graph
    for g, expected in [(c4, 1), (k4, 2)]:
        h = hashimoto(g)
        assert h.size == 2 * g.m
        for arc, row in zip(h.arcs, h.matrix.entries):
            assert sum(row) == expected == g.degrees[arc[1]] - 1


def test_hashimoto_row_sum_invariant_on_corpus():
    for label, srb in corpus_factors():
        g = srb.graph
        h = hashimoto(g)
        for arc, row in zip(h.arcs, h.matrix.entries):
            assert sum(row) == g.degrees[arc[1]] - 1, label


def test_hashimoto_excludes_backtracking():
    g = build_graph(2, [(0, 1)])
    h = hashimoto(g)
    # arcs are (0,1) then (1,0); stepping back along the reverse arc is barred
    assert h.arcs == ((0, 1), (1, 0))
    assert h.matrix[0, 1] == 0 and h.matrix[1, 0] == 0


def test_edge_oracle_c4():
    c4 = gen_even_cycle(2).graph
    assert edge_zeta_reciprocal(c4) == IntPoly([1, 0, 0, 0, -1]) ** 2


def test_edge_oracle_k4(k4):
    assert edge_zeta_reciprocal(k4) == ONE_MINUS_U2**2 * bass_poly(k4)


def test_edge_oracle_k23():
    g = gen_complete_bipartite(2, 3).graph
    assert g.m - g.n == 1
    assert edge_zeta_reciprocal(g) == ONE_MINUS_U2 * bass_poly(g)


def test_edge_oracle_requires_connected():
    with pytest.raises(DisconnectedError):
        edge_zeta_reciprocal(build_graph(4, [(0, 1), (2, 3)]))


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2-12 vertices plus random chords.

    Each vertex v > 0 hangs off a random earlier vertex, so leaves
    (degree-1 vertices) are common.
    """
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges.update((min(u, v), max(u, v)) for u, v in chords if u != v)
    return build_graph(n, sorted(edges))


def _semiregular_bipartite(g):
    """Whether g lies in the class of the four generator families."""
    try:
        detect_semiregular(g)
    except (NotBipartiteError, NotSemiRegularError):
        return False
    return True


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(connected_graphs())
def test_edge_oracle_matches_bass_on_random_graphs(g):
    assume(not _semiregular_bipartite(g))
    edge = edge_zeta_reciprocal(g)
    f = bass_poly(g)
    exponent = g.m - g.n
    if exponent >= 0:
        assert edge == ONE_MINUS_U2**exponent * f
    else:
        assert edge * ONE_MINUS_U2 ** (-exponent) == f


def _forbidden(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} must not run here")

    return fail


def test_edge_oracle_uses_no_polymat_det(monkeypatch, petersen):
    graphs = [petersen, join(gen_complete_bipartite(2, 3).graph, gen_even_cycle(3).graph)]
    expected = [ONE_MINUS_U2 ** (g.m - g.n) * bass_poly(g) for g in graphs]
    for module, name in [
        (zeta, "polymat_det"),
        (matrices, "polymat_det"),
    ]:
        monkeypatch.setattr(module, name, _forbidden(name))
    assert [edge_zeta_reciprocal(g) for g in graphs] == expected


def test_bass_poly_uses_no_hessenberg_kernel(monkeypatch, k4):
    # the Bass side is prime-free: no Hessenberg kernel, primes or CRT
    c26 = gen_even_cycle(13).graph  # n = 26: 53 Bareiss evaluations
    expected_k4 = edge_zeta_reciprocal(k4).divexact(ONE_MINUS_U2**2)
    for name in ("_charpoly_mod_p", "charpoly", "_certified_primes", "_crt"):
        monkeypatch.setattr(matrices, name, _forbidden(name))
    monkeypatch.setattr(zeta, "charpoly", _forbidden("charpoly"))
    assert bass_poly(k4) == expected_k4
    assert bass_poly(c26) == IntPoly([1] + [0] * 25 + [-1]) ** 2


def test_trace_guard_rejects_overflow_reproducer():
    # five K16 - e blocks chained into a 15-regular graph (n = 80,
    # 2m = 1200): 14**16 < 2**62, yet trace(B^16) ~ 9.5e18 exceeds int64
    assert not zeta._traces_fit_int64(1200, 14, 16)


def test_trace_guard_accepts_largest_int64_benchmark_graphs():
    # n = 29, m = 87, maximum degree 10, order 16: 174 * 9**16 ~ 0.035 * 2**63
    assert zeta._traces_fit_int64(174, 9, 16)
    # K3,3 v K3,3 (2m = 108, degree 9) at the default order 12
    assert zeta._traces_fit_int64(108, 8, 12)
    # a degree-17 hub at order 16 stays on the big-integer path
    assert not zeta._traces_fit_int64(108, 16, 16)


def test_trace_paths_agree(monkeypatch, petersen):
    fast = zeta._hashimoto_traces(petersen, 16)
    monkeypatch.setattr(zeta, "_traces_fit_int64", lambda *args: False)
    assert zeta._hashimoto_traces(petersen, 16) == fast


def test_nb_walk_series_c4():
    got = nb_walk_series(gen_even_cycle(2).graph, 8)
    assert got == RatPoly([0, 0, 0, 0, 2, 0, 0, 0, 1])


def test_nb_walk_series_tree_is_zero():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert nb_walk_series(path, 10) == RatPoly()


def test_nb_walk_series_k4_triangles(k4):
    # closed non-backtracking walks of length 3 start anywhere on one of
    # the 8 directed triangles: trace(B^3) = 3 * 8 = 24
    got = nb_walk_series(k4, 3)
    assert got.coeffs[3] * 3 == 24
    # second route: exact big-integer matrix powers
    h = hashimoto(k4)
    b3 = h.matrix * h.matrix * h.matrix
    assert b3.trace() == 24


def test_nb_walk_series_order_cap():
    with pytest.raises(ValueError):
        nb_walk_series(gen_even_cycle(2).graph, 17)


def test_nb_walk_series_order_zero():
    assert nb_walk_series(gen_even_cycle(2).graph, 0) == RatPoly()


def test_series_consistency_on_small_graphs(k4):
    graphs = [srb.graph for _, srb in corpus_factors()]
    graphs.append(k4)
    graphs.append(join(gen_even_cycle(2).graph, gen_complete_bipartite(1, 2).graph))
    for g in graphs:
        if g.n <= 12:
            assert zeta_log_series(g, 12) == nb_walk_series(g, 12)


def test_spanning_trees_values(k4):
    assert spanning_trees(k4) == 16
    assert spanning_trees(gen_even_cycle(3).graph) == 6
    assert spanning_trees(gen_complete_bipartite(2, 3).graph) == 12  # m^(n-1) n^(m-1)


def test_spanning_trees_single_vertex():
    assert spanning_trees(build_graph(1, [])) == 1


def test_spanning_trees_requires_connected():
    with pytest.raises(DisconnectedError):
        spanning_trees(build_graph(4, [(0, 1), (2, 3)]))


def test_spanning_trees_relabeling_invariant():
    rng = random.Random(37)
    for g in (
        gen_complete_bipartite(2, 3).graph,
        gen_even_cycle(4).graph,
        build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    ):
        base = spanning_trees(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert spanning_trees(g.relabeled(perm)) == base


def test_northshield_k4(k4):
    f = bass_poly(k4)
    assert f.derivative()(1) == 2 * 2 * 16 == 64
    assert northshield_check(k4)


def test_northshield_c6():
    c6 = gen_even_cycle(3).graph
    assert bass_poly(c6).derivative()(1) == 0
    assert northshield_check(c6)


def test_northshield_k23():
    g = gen_complete_bipartite(2, 3).graph
    assert bass_poly(g).derivative()(1) == 2 * 1 * 12 == 24
    assert northshield_check(g)


def test_northshield_on_generator_set():
    # f'(1) = 2 (m - n) tau across every corpus factor, trees included
    for label, srb in corpus_factors():
        assert northshield_check(srb.graph), label


def test_bipartite_charpoly_parity():
    # spectrum symmetry: for bipartite graphs the characteristic
    # polynomial only carries terms with the parity of n
    for label, srb in corpus_factors():
        chi = charpoly(srb.graph.adjacency())
        n = srb.graph.n
        for k, c in enumerate(chi.coeffs):
            if (n - k) % 2 == 1:
                assert c == 0, label


def test_zeta_report_k4(k4):
    rep = zeta_report(k4)
    assert rep.m == 6 and rep.n == 4 and rep.exponent == 2
    assert rep.tau == 16
    assert rep.all_checks_pass
    d = rep.to_dict()
    assert d["tau"] == "16"
    assert d["f"][0] == "1"
    assert set(d["checks"]) == {"hashimoto_match", "series_match", "northshield_match"}


def test_zeta_report_degree_one_warning():
    star = gen_complete_bipartite(1, 3).graph
    with pytest.warns(DegreeOneWarning):
        rep = zeta_report(star)
    assert rep.exponent == -1 and rep.all_checks_pass


def test_zeta_report_requires_connected():
    with pytest.raises(DisconnectedError):
        zeta_report(build_graph(4, [(0, 1), (2, 3)]))
