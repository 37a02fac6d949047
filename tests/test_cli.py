import json
import pathlib

import pytest

from zetajoin import gen_complete_bipartite, gen_even_cycle
from zetajoin.cli import main


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(gen_even_cycle(2).graph.to_json())
    return str(path)


@pytest.fixture()
def k11_file(tmp_path):
    path = tmp_path / "k11.json"
    path.write_text(gen_complete_bipartite(1, 1).graph.to_json())
    return str(path)


def _graph_file(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(graph.to_json())
    return str(path)


def test_zeta_c4(c4_file, capsys):
    assert main(["zeta", c4_file]) == 0
    report = json.loads(capsys.readouterr().out)
    # f = (1 - u^4)^2 = 1 - 2u^4 + u^8
    assert report["f"] == ["1", "0", "0", "0", "-2", "0", "0", "0", "1"]
    assert all(report["checks"].values())


def test_zeta_tree_rational_form(tmp_path, capsys):
    path = tmp_path / "k2.json"
    path.write_text('{"n": 2, "edges": [[0, 1]]}')
    with pytest.warns(UserWarning):
        assert main(["zeta", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zeta_reciprocal"] is None
    assert report["exponent"] == -1


def test_zeta_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["zeta", str(path)]) == 2


def test_zeta_invalid_graph(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text('{"n": 2, "edges": [[0, 0]]}')
    assert main(["zeta", str(path)]) == 2


def test_zeta_disconnected_graph(tmp_path):
    path = tmp_path / "disc.json"
    path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
    assert main(["zeta", str(path)]) == 3


def test_zeta_missing_file():
    assert main(["zeta", "/nonexistent/graph.json"]) == 2


def test_spectrum(c4_file, capsys):
    assert main(["spectrum", c4_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["charpoly"] == ["0", "0", "-4", "0", "1"]
    assert report["eigenvalues"] == [2.0, 0.0, 0.0, -2.0]


def test_trees(c4_file, capsys):
    assert main(["trees", c4_file]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == "4"


def test_join_output_is_deterministic(k11_file, capsys):
    assert main(["join", k11_file, k11_file]) == 0
    first = capsys.readouterr().out
    assert main(["join", k11_file, k11_file]) == 0
    assert capsys.readouterr().out == first
    joined = json.loads(first)
    assert joined["n"] == 4 and len(joined["edges"]) == 6


def test_stdin_input(k11_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "edges": [[0, 1]]}'))
    assert main(["trees", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == "1"


def test_verify_join_k11(k11_file, capsys):
    assert main(["verify-join", k11_file, k11_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == "16"
    assert report["checks"]["edge_oracle"] is True
    assert report["params"]["k1"] == 1


def test_verify_join_rejects_non_semiregular(tmp_path, k11_file):
    k3 = tmp_path / "k3.json"
    k3.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    assert main(["verify-join", k11_file, str(k3)]) == 3


def test_cospectral(tmp_path, capsys):
    g1 = _graph_file(tmp_path, "g1.json", gen_complete_bipartite(1, 2).graph)
    g2 = _graph_file(tmp_path, "g2.json", gen_complete_bipartite(1, 5).graph)
    g2p = _graph_file(tmp_path, "g2p.json", gen_complete_bipartite(2, 4).graph)
    assert main(["cospectral", g1, g2, g2p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "zeta_equal": False,
        "charpoly_equal": False,
        "biconditional_holds": True,
    }


def test_verify_join_exit_code_on_check_failure(k11_file, capsys, monkeypatch):
    # the identities are theorems, so force a failing report to pin the
    # exit-code contract
    import dataclasses

    import zetajoin.cli as cli

    real = cli.verify_join

    def broken(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), zeta_identity=False)

    monkeypatch.setattr(cli, "verify_join", broken)
    assert main(["verify-join", k11_file, k11_file]) == 1


def test_corpus_verify_small(capsys):
    assert main(["corpus-verify", "--max-vertices", "7"]) == 0
    out = capsys.readouterr().out
    assert "joins passed" in out
    assert "FAIL" not in out


def test_corpus_verify_deterministic_output(capsys):
    assert main(["corpus-verify", "--max-vertices", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus-verify", "--max-vertices", "6"]) == 0
    assert capsys.readouterr().out == first


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_corpus_verify_stdout_matches_golden(capsys):
    assert main(["corpus-verify", "--max-vertices", "8"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "corpus_verify_max8.stdout").read_text()


def test_verify_join_report_matches_golden(tmp_path, capsys):
    k23 = _graph_file(tmp_path, "k23.json", gen_complete_bipartite(2, 3).graph)
    c6 = _graph_file(tmp_path, "c6.json", gen_even_cycle(3).graph)
    assert main(["verify-join", k23, c6]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["spectrum_numeric_error"]  # a float, not an exact output
    checks = (
        "spectrum_identity", "spectrum_numeric", "zeta_identity", "tau_triple",
        "no_symmetric_roots", "edge_oracle", "series_match",
    )
    assert report == {
        "label": "join",
        "vertices": 11,
        "edges": 42,
        "tau": "131383296",
        "checks": dict.fromkeys(checks, True),
        "params": {
            "nu1": 5, "nu2": 6, "eps1": 6, "eps2": 6,
            "q1": 3, "q2": 2, "q3": 2, "q4": 2,
            "n1": 2, "n2": 3, "n3": 3, "n4": 3,
            "k1": 1, "k2": 3,
        },
    }
