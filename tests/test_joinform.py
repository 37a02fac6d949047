import pytest

from zetajoin import (
    CorpusConfig,
    IntPoly,
    charpoly,
    corpus,
    corpus_factors,
    cospectral_iff_zeta,
    detect_semiregular,
    factor_spectrum,
    gen_complete_bipartite,
    gen_crown,
    gen_even_cycle,
    gen_subdivision,
    jacobi_eigenvalues,
    join,
    join_params,
    no_symmetric_roots_check,
    quartic_f,
    spanning_trees,
    spectrum_closed_form,
    tau_closed_form,
    tau_complete_multipartite,
    tau_cycle_join,
    verify_join,
    zeta_closed_form,
    zeta_reciprocal,
)
from zetajoin import joinform

K11 = gen_complete_bipartite(1, 1)
K23 = gen_complete_bipartite(2, 3)
C6 = gen_even_cycle(3)


def test_join_params_k11_pair():
    p = join_params(K11, K11)
    assert (p.nu1, p.nu2, p.eps1, p.eps2) == (2, 2, 1, 1)
    assert (p.q1, p.q2, p.q3, p.q4) == (1, 1, 1, 1)
    assert (p.k1, p.k2) == (1, 1)


def test_join_params_k23_pair():
    p = join_params(K23, K23)
    assert (p.nu1, p.eps1, p.q1, p.q2) == (5, 6, 3, 2)
    assert p.k1 == p.k2 == 1


def test_join_params_c6_pair():
    p = join_params(C6, C6)
    assert (p.nu1, p.eps1, p.q1) == (6, 6, 2)
    assert p.k1 == factor_spectrum(C6).k == 3


def test_factor_spectrum_k23():
    fs = factor_spectrum(K23)
    assert fs.p_nonzero == IntPoly([-6, 1])
    assert fs.k == 1 and fs.zero_mult == 3


def test_factor_spectrum_k11():
    fs = factor_spectrum(K11)
    assert fs.p_nonzero == IntPoly([-1, 1])
    assert fs.k == 1 and fs.zero_mult == 0


def test_factor_spectrum_c8():
    fs = factor_spectrum(gen_even_cycle(4))
    assert fs.k == 3 and fs.zero_mult == 2
    assert fs.p_nonzero(4) == 0  # Perron square q1*q2 = 4 is always a root
    assert fs.p_nonzero == IntPoly([-4, 1]) * IntPoly([-2, 1]) ** 2


def test_factor_spectrum_crown4():
    fs = factor_spectrum(gen_crown(4))
    assert fs.p_nonzero == IntPoly([-9, 1]) * IntPoly([-1, 1]) ** 3
    assert fs.k == 4 and fs.zero_mult == 0


def test_quartic_k4_case():
    assert quartic_f(join_params(K11, K11)) == IntPoly([-3, -8, -6, 0, 1])


def test_quartic_k23_pair():
    assert quartic_f(join_params(K23, K23)) == IntPoly([-108, -120, -37, 0, 1])


def test_quartic_structure_on_corpus():
    for pair in corpus():
        p = join_params(pair.factor1, pair.factor2)
        assert p.eps1 == p.n1 * p.q1 == p.n2 * p.q2, pair.label
        assert p.eps2 == p.n3 * p.q3 == p.n4 * p.q4, pair.label
        assert p.k1 <= p.n1 and p.k2 <= p.n3, pair.label
        f = quartic_f(p)
        assert f.degree == 4, pair.label
        assert f[3] == 0, pair.label
        assert f[0] < 0, pair.label


def test_spectrum_closed_form_k4():
    spec = spectrum_closed_form(K11, K11)
    assert spec.values == pytest.approx([3, -1, -1, -1], abs=1e-8)
    assert spec.zero_multiplicity == 0
    numeric = jacobi_eigenvalues(join(K11.graph, K11.graph).adjacency().to_float_array())
    assert spec.values == pytest.approx(numeric, abs=1e-8)


def test_spectrum_closed_form_k23_pair():
    spec = spectrum_closed_form(K23, K23)
    assert spec.quartic == IntPoly([-108, -120, -37, 0, 1])
    assert spec.zero_multiplicity == 6
    assert sum(1 for v in spec.values if v == 0.0) == 6
    numeric = jacobi_eigenvalues(join(K23.graph, K23.graph).adjacency().to_float_array())
    assert spec.values == pytest.approx(numeric, abs=1e-8)


def test_spectrum_zero_multiplicity_c6_pair():
    spec = spectrum_closed_form(C6, C6)
    assert spec.zero_multiplicity == 12 - 2 * 3 - 2 * 3 + 0  # nu1-2k1+nu2-2k2


def test_zeta_closed_form_k4():
    closed, assembled = zeta_closed_form(K11, K11)
    assert assembled == zeta_reciprocal(join(K11.graph, K11.graph))
    assert closed.exp_one_minus_u2 == 2
    assert closed.exp_x1 == 0


def test_zeta_closed_form_k23_pair():
    closed, assembled = zeta_closed_form(K23, K23)
    assert closed.exp_one_minus_u2 == 27  # eps1+eps2+nu1*nu2-nu1-nu2 = m-n
    assert closed.x1 == IntPoly([1, 0, 7])  # 1 + (q1 + nu2 - 1) u^2
    assert closed.x2 == IntPoly([1, 0, 6])
    jg = join(K23.graph, K23.graph)
    assert closed.exp_one_minus_u2 == jg.m - jg.n
    assert assembled == zeta_reciprocal(jg)


def test_zeta_closed_form_mixed_degrees(k4):
    sub = gen_subdivision(k4)
    closed, assembled = zeta_closed_form(sub, K23)
    jg = join(sub.graph, K23.graph)
    assert assembled == zeta_reciprocal(jg)


def test_tau_closed_form_k4():
    assert tau_closed_form(K11, K11) == 16


def test_tau_closed_form_k23_pair():
    # equals the complete multipartite value 10^2 7^2 8 7^2 8
    assert tau_closed_form(K23, K23) == 15366400


def test_tau_closed_form_subdivision_join(k4):
    sub = gen_subdivision(k4)
    tau = tau_closed_form(sub, K23)  # raises OracleMismatchError on failure
    assert tau == spanning_trees(join(sub.graph, K23.graph))


def test_tau_complete_multipartite_values():
    assert tau_complete_multipartite(1, 1, 1, 1) == 16
    assert tau_complete_multipartite(2, 3, 2, 3) == 15366400
    mt = spanning_trees(
        join(gen_complete_bipartite(1, 2).graph, gen_complete_bipartite(1, 2).graph)
    )
    assert tau_complete_multipartite(1, 2, 1, 2) == mt
    with pytest.raises(ValueError):
        tau_complete_multipartite(0, 1, 1, 1)


def test_tau_cycle_join_small_cases():
    for m, n in [(2, 2), (3, 3), (2, 3)]:
        rep = tau_cycle_join(m, n)
        assert rep.matches, (m, n)
        assert rep.pre_rounding_error < 0.4
        assert rep.rounded == rep.matrix_tree


def test_tau_cycle_join_validation():
    with pytest.raises(ValueError):
        tau_cycle_join(1, 3)


def test_no_symmetric_roots_k4():
    assert no_symmetric_roots_check(join_params(K11, K11))


def test_no_symmetric_roots_k23_pair():
    assert no_symmetric_roots_check(join_params(K23, K23))


def test_no_symmetric_roots_on_corpus():
    for pair in corpus():
        assert no_symmetric_roots_check(
            join_params(pair.factor1, pair.factor2)
        ), pair.label


def test_cospectral_identical_factor():
    rep = cospectral_iff_zeta(gen_complete_bipartite(1, 2), K23, K23)
    assert rep.zeta_equal and rep.charpoly_equal


def test_cospectral_isomorphic_factors():
    # crown(3) is a relabeled 6-cycle
    rep = cospectral_iff_zeta(gen_complete_bipartite(1, 2), C6, gen_crown(3))
    assert rep.zeta_equal and rep.charpoly_equal


def test_cospectral_different_edge_counts():
    # K_{1,5} and K_{2,4} share nu = 6 but have 5 and 8 edges
    rep = cospectral_iff_zeta(
        gen_complete_bipartite(1, 2),
        gen_complete_bipartite(1, 5),
        gen_complete_bipartite(2, 4),
    )
    assert not rep.zeta_equal and not rep.charpoly_equal


def test_corpus_defaults():
    pairs = corpus()
    assert len(pairs) >= 20
    for pair in pairs:
        assert pair.factor1.nu + pair.factor2.nu <= 60
        jg = join(pair.factor1.graph, pair.factor2.graph)
        assert jg.is_connected()
    # deterministic ordering
    again = corpus()
    assert [p.label for p in pairs] == [q.label for q in again]


def test_corpus_factors_all_detectable():
    for label, srb in corpus_factors():
        again = detect_semiregular(srb.graph)
        assert (again.n1, again.n2, again.q1, again.q2) == (
            srb.n1,
            srb.n2,
            srb.q1,
            srb.q2,
        ), label


def test_corpus_config_vertex_cap():
    with pytest.raises(ValueError):
        CorpusConfig(max_join_vertices=61)
    small = corpus(CorpusConfig(max_join_vertices=6))
    assert 0 < len(small) < len(corpus())


def test_verify_join_with_edge_oracle():
    result = verify_join(K11, K23, label="K1,1 v K2,3", include_edge_oracle=True)
    assert result.passed
    assert result.edge_oracle is True
    assert result.series_match is True
    d = result.to_dict()
    assert d["checks"]["spectrum_identity"] is True
    assert d["tau"] == str(result.tau)


def test_verify_join_charpoly_vs_quartic_anchor(k4):
    # K4 as a join: its characteristic polynomial equals the quartic
    assert charpoly(join(K11.graph, K11.graph).adjacency()) == quartic_f(
        join_params(K11, K11)
    )


def test_verify_join_computes_each_quantity_once(monkeypatch):
    calls = dict.fromkeys(("bass_poly", "factor_spectrum", "spanning_trees", "join"), 0)
    for name in calls:

        def counted(*args, _name=name, _real=getattr(joinform, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(joinform, name, counted)
    result = verify_join(K23, C6, include_edge_oracle=True)
    assert result.passed
    assert result.edge_oracle is True and result.series_match is True
    assert calls == {"bass_poly": 1, "factor_spectrum": 2, "spanning_trees": 1, "join": 1}


def test_verify_join_reports_only_the_failed_identity(monkeypatch):
    real = joinform.quartic_f
    # f - 1 breaks the spectrum identity but keeps f(0) < 0, and its odd
    # part is linear, so no two of its roots sum to zero
    monkeypatch.setattr(joinform, "quartic_f", lambda p: real(p) - 1)
    result = verify_join(K23, C6, include_edge_oracle=True)
    checks = result.to_dict()["checks"]
    assert checks.pop("spectrum_identity") is False
    assert checks.pop("spectrum_numeric") is False  # compared only after the identity
    assert all(value is True for value in checks.values())
    assert result.tau == 131383296
