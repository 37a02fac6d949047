"""Seeded inputs, timed items and exactness checks of the benchmark workloads.

Each workload builds a list of items from the seed.  An item is one
verified answer: its ``run`` is the only code inside the timed region,
and ``check`` judges the raw output afterwards, returning the reason it
failed (or None) and the exact outputs that every later pass must repeat.

Library functions are looked up on the ``zetajoin`` modules when an item
runs, never bound here, so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

SERIES_ORDER = 16


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str | None, Any]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Any, int, Path], list[Item]]
    warmup_id: str


def reference_tau(n: int, edges) -> int:
    """Spanning-tree count by rational Gaussian elimination.

    Shares no code with the library's fraction-free Bareiss kernel, so it
    is an independent expected value for every tau the items return.
    """
    if n <= 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, size):
            factor = a[i][k] / a[k][k]
            if factor:
                row_i, row_k = a[i], a[k]
                for j in range(k, size):
                    row_i[j] -= factor * row_k[j]
    if det.denominator != 1:
        raise ArithmeticError("reference determinant is not an integer")
    return det.numerator


def _relabeled(zj, factor, rng: random.Random):
    perm = list(range(factor.graph.n))
    rng.shuffle(perm)
    return zj.detect_semiregular(factor.graph.relabeled(perm))


def _factor(zj, label: str):
    if label.startswith("C"):
        return zj.gen_even_cycle(int(label[1:]) // 2)
    a, b = label[1:].split(",")
    return zj.gen_complete_bipartite(int(a), int(b))


def _join_reference(zj, f1, f2) -> tuple[int, int, int]:
    g = zj.join(f1.graph, f2.graph)
    return g.n, g.m, reference_tau(g.n, g.edges)


# -- corpus-closed-forms -----------------------------------------------------------

CORPUS_MAX_JOIN_VERTICES = 12


def _check_corpus(expected: tuple[int, int, int]):
    n, m, tau = expected

    def check(result) -> tuple[str | None, Any]:
        checks = {
            "spectrum_identity": result.spectrum_identity,
            "spectrum_numeric_ok": result.spectrum_numeric_ok,
            "zeta_identity": result.zeta_identity,
            "tau_triple": result.tau_triple,
            "no_symmetric_roots": result.no_symmetric_roots,
            "series_match": result.series_match,
        }
        exact = (result.vertices, result.edges, result.tau, tuple(checks.values()))
        false = [name for name, ok in checks.items() if ok is not True]
        if false:
            return f"checks not true: {', '.join(false)}", exact
        if (result.vertices, result.edges, result.tau) != (n, m, tau):
            return (
                f"(n, m, tau) = {(result.vertices, result.edges, result.tau)}, "
                f"expected {(n, m, tau)}"
            ), exact
        return None, exact

    return check


def build_corpus(zj, seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for pair in zj.corpus(zj.CorpusConfig(max_join_vertices=CORPUS_MAX_JOIN_VERTICES)):
        f1 = _relabeled(zj, pair.factor1, rng)
        f2 = _relabeled(zj, pair.factor2, rng)

        def run(f1=f1, f2=f2, label=pair.label):
            return zj.verify_join(f1, f2, label=label)

        items.append(Item(pair.label, run, _check_corpus(_join_reference(zj, f1, f2))))
    rng.shuffle(items)
    return items


# -- verify-join-oracle ------------------------------------------------------------

ORACLE_PAIRS = (
    ("K2,2", "K2,2"),  # 2m = 48
    ("K1,3", "K2,3"),  # 2m = 58
    ("K2,2", "K3,3"),  # 2m = 74
    ("K3,3", "K3,3"),  # 2m = 108
)

_JOIN_CHECKS = (
    "spectrum_identity",
    "spectrum_numeric",
    "zeta_identity",
    "tau_triple",
    "no_symmetric_roots",
    "edge_oracle",
    "series_match",
)


def _check_cli(expected: tuple[int, int, int]):
    n, m, tau = expected

    def check(output) -> tuple[str | None, Any]:
        code, stdout = output
        if code != 0:
            return f"exit code {code}", output
        report = json.loads(stdout)
        false = [name for name in _JOIN_CHECKS if report["checks"][name] is not True]
        got = (report["vertices"], report["edges"], int(report["tau"]))
        # every exact output; floats such as spectrum_numeric_error are left out
        exact = (got, report["checks"])
        if false:
            return f"checks not true: {', '.join(false)}", exact
        if got != (n, m, tau):
            return f"(n, m, tau) = {got}, expected {(n, m, tau)}", exact
        return None, exact

    return check


def build_oracle(zj, seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for label1, label2 in ORACLE_PAIRS:
        f1 = _relabeled(zj, _factor(zj, label1), rng)
        f2 = _relabeled(zj, _factor(zj, label2), rng)
        label = f"{label1} v {label2}"
        paths = []
        for side, f in (("1", f1), ("2", f2)):
            path = workdir / f"{label1}_{label2}_{side}.json".replace(",", "-")
            path.write_text(f.graph.to_json(), encoding="utf-8")
            paths.append(str(path))

        def run(argv=("verify-join", *paths)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = zj.cli.main(list(argv))
            return code, out.getvalue()

        items.append(Item(label, run, _check_cli(_join_reference(zj, f1, f2))))
    rng.shuffle(items)
    return items


# -- walk-series-deep --------------------------------------------------------------

# (n, m, hub) per slot: the shape is fixed, the seed only wires the edges,
# so the work per pass does not depend on the seed.  Average degree 6, or 4
# on the hub graphs, whose big-integer traces cost about (2m)**3.
WALK_SHAPES = tuple(
    (n, 2 * n if slot % 3 == 0 else 3 * n, slot % 3 == 0)
    for slot, n in enumerate(range(18, 30))
)
HUB_DEGREE = 17  # (17 - 1)**16 >= 2**62 sends the trace to the big-integer path
OTHER_DEGREE_CAP = 10  # 2m * 9**16 < 2**62 keeps the rest on the int64 path


def random_walk_graph(zj, rng: random.Random, n: int, m: int, hub: bool):
    """A connected graph with n vertices, m edges and minimum degree 2.

    A random Hamiltonian cycle plus random chords; with ``hub`` one vertex
    has degree HUB_DEGREE and every other vertex degree <= OTHER_DEGREE_CAP.
    None of the corpus generator families produces these graphs.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    degree = [0] * n

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    for i in range(n):
        add(order[i], order[(i + 1) % n])
    center = order[0] if hub else None
    if hub:
        free = [v for v in range(n) if v != center and (min(center, v), max(center, v)) not in edges]
        for v in rng.sample(free, HUB_DEGREE - degree[center]):
            add(center, v)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        if center in (u, v) or (min(u, v), max(u, v)) in edges:
            continue
        if degree[u] >= OTHER_DEGREE_CAP or degree[v] >= OTHER_DEGREE_CAP:
            continue
        add(u, v)
    return zj.build_graph(n, edges)


def _check_walk(tau_expected: int):
    def check(output) -> tuple[str | None, Any]:
        walks, log_series, northshield, tau = output
        exact = (tuple(log_series.coeffs), northshield, tau)
        if walks != log_series:
            return "walk series differs from -log Z^-1", exact
        if northshield is not True:
            return "f'(1) != 2(m - n) tau", exact
        if tau != tau_expected:
            return f"tau = {tau}, expected {tau_expected}", exact
        return None, exact

    return check


def build_walk(zj, seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for slot, (n, m, hub) in enumerate(WALK_SHAPES):
        g = random_walk_graph(zj, rng, n, m, hub)

        def run(g=g):
            return (
                zj.nb_walk_series(g, SERIES_ORDER),
                zj.zeta_log_series(g, SERIES_ORDER),
                zj.northshield_check(g),
                zj.spanning_trees(g),
            )

        label = f"slot{slot}-n{n}-m{m}{'-hub' if hub else ''}"
        items.append(Item(label, run, _check_walk(reference_tau(n, g.edges))))
    rng.shuffle(items)
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-closed-forms",
            build_corpus,
            warmup_id="K3,3 v K3,3",
        ),
        Workload(
            "verify-join-oracle",
            build_oracle,
            warmup_id="K2,2 v K2,2",
        ),
        Workload(
            "walk-series-deep",
            build_walk,
            warmup_id="slot1-n19-m57",
        ),
    )
}
