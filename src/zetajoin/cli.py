"""Command-line interface.

Subcommands: zeta, spectrum, trees, join, verify-join, cospectral,
corpus-verify.  Graphs are read from JSON files ({"n": ..., "edges":
[[u, v], ...]}) or from stdin when the path is "-".  Reports go to
stdout as JSON (byte-identical for identical inputs), logs and timing to
stderr.  Exit codes: 0 success, 1 identity-check failure, 2 input parse
error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    BiconditionalViolation,
    DisconnectedError,
    IdentityViolation,
    NotBipartiteError,
    NotSemiRegularError,
    OracleMismatchError,
    ZetaJoinError,
)
from .graphs import Graph, detect_semiregular, graph_from_json, join
from .joinform import (
    CorpusConfig,
    CospectralReport,
    corpus,
    cospectral_iff_zeta,
    join_params,
    verify_join,
)
from .matrices import charpoly
from .numeric import jacobi_eigenvalues
from .zeta import spanning_trees, zeta_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3


def _read_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return graph_from_json(text)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_zeta(args: argparse.Namespace) -> int:
    report = zeta_report(_read_graph(args.graph), order=args.order)
    _emit(report.to_dict())
    return EXIT_OK if report.all_checks_pass else EXIT_CHECK_FAILED


def _cmd_spectrum(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    chi = charpoly(g.adjacency())
    eigenvalues = jacobi_eigenvalues(g.adjacency().to_float_array())
    _emit(
        {
            "n": g.n,
            "m": g.m,
            "charpoly": chi.to_decimal_strings(),
            "eigenvalues": [round(x, 10) for x in eigenvalues],
        }
    )
    return EXIT_OK


def _cmd_trees(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    _emit({"n": g.n, "m": g.m, "tau": str(spanning_trees(g))})
    return EXIT_OK


def _cmd_join(args: argparse.Namespace) -> int:
    g = join(_read_graph(args.graph1), _read_graph(args.graph2))
    _emit(g.to_dict())
    return EXIT_OK


def _cmd_verify_join(args: argparse.Namespace) -> int:
    f1 = detect_semiregular(_read_graph(args.graph1))
    f2 = detect_semiregular(_read_graph(args.graph2))
    started = time.perf_counter()
    result = verify_join(f1, f2, include_edge_oracle=True, series_order=args.order)
    elapsed = time.perf_counter() - started
    payload = result.to_dict()
    payload["params"] = join_params(f1, f2).to_dict()
    _emit(payload)
    print(f"verify-join finished in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_cospectral(args: argparse.Namespace) -> int:
    f1 = detect_semiregular(_read_graph(args.graph1))
    f2 = detect_semiregular(_read_graph(args.graph2))
    f2_alt = detect_semiregular(_read_graph(args.graph2alt))
    report: CospectralReport = cospectral_iff_zeta(f1, f2, f2_alt)
    _emit(
        {
            "zeta_equal": report.zeta_equal,
            "charpoly_equal": report.charpoly_equal,
            "biconditional_holds": report.zeta_equal == report.charpoly_equal,
        }
    )
    return EXIT_OK


def _cmd_corpus_verify(args: argparse.Namespace) -> int:
    config = CorpusConfig(max_join_vertices=args.max_vertices)
    pairs = corpus(config)
    failures = 0
    started = time.perf_counter()
    for pair in pairs:
        result = verify_join(
            pair.factor1,
            pair.factor2,
            label=pair.label,
            include_edge_oracle=True,
            series_order=args.order,
        )
        status = "ok  " if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        marks = " ".join(
            name
            for name, value in (
                ("spectrum", result.spectrum_identity and result.spectrum_numeric_ok),
                ("zeta", result.zeta_identity),
                ("tau", result.tau_triple),
                ("roots", result.no_symmetric_roots),
                ("oracle", result.edge_oracle),
                ("series", result.series_match),
            )
            if value
        )
        print(f"{status} {pair.label:28s} [{marks}]")
    elapsed = time.perf_counter() - started
    print(f"{len(pairs) - failures}/{len(pairs)} joins passed")
    print(f"corpus-verify finished in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetajoin",
        description="Exact zeta functions, spectra and spanning-tree counts of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="zeta report with oracle checks for one graph")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--order", type=int, default=12, help="walk-series truncation order")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("spectrum", help="characteristic polynomial and eigenvalues")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("trees", help="spanning tree count (Matrix-Tree)")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("join", help="join of two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser(
        "verify-join",
        help="verify all closed forms for the join of two semi-regular factors",
    )
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=_cmd_verify_join)

    p = sub.add_parser(
        "cospectral",
        help="zeta-equals-iff-cospectral experiment for G1 v G2 versus G1 v G2'",
    )
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("graph2alt")
    p.set_defaults(func=_cmd_cospectral)

    p = sub.add_parser("corpus-verify", help="run the deterministic corpus")
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=_cmd_corpus_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotBipartiteError, NotSemiRegularError, DisconnectedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (BiconditionalViolation, IdentityViolation, OracleMismatchError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, ValueError, json.JSONDecodeError, ZetaJoinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
