"""Graph construction, traversal, and TSV interchange.

Traversal results are checked against independent brute-force oracles:
boolean matrix powers for reachability and worklist path enumeration
over the raw edge set for simple paths.
"""
from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conceptgraph.graph as graph_module
from conceptgraph.graph import (
    Concept,
    ConceptGraph,
    EdgeRow,
    GraphError,
    PathResult,
    SelfLoop,
    TsvFormatError,
    UnknownConcept,
    build_graph,
    load_concepts,
    load_edge_rows,
    save_edge_rows,
)


def make_graph(n: int, edges: list[tuple[int, int]]) -> ConceptGraph:
    concepts = tuple(Concept(id=f"c{i}", name=f"node {i}") for i in range(n))
    return ConceptGraph(concepts, frozenset((f"c{a}", f"c{b}") for a, b in edges))


# -- oracles ---------------------------------------------------------------


def oracle_reachable(n: int, edges: set[tuple[int, int]], a: int, b: int) -> bool:
    """Walk reachability via boolean matrix powers A + A^2 + ... + A^n."""
    adj = np.zeros((n, n), dtype=bool)
    for s, t in edges:
        adj[s, t] = True
    power = adj.copy()
    closure = adj.copy()
    for _ in range(n - 1):
        power = power @ adj
        closure |= power
    return bool(closure[a, b])


def oracle_simple_paths(
    edges: set[tuple[int, int]], starts: list[int], max_len: int
) -> list[tuple[int, ...]]:
    """Every simple path of 1..max_len edges starting in `starts`,
    grown breadth-wise from the raw edge set."""
    paths: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [(s,) for s in starts]
    for _ in range(max_len):
        extended: list[tuple[int, ...]] = []
        for path in frontier:
            for s, t in edges:
                if s == path[-1] and t not in path:
                    extended.append(path + (t,))
        paths.extend(extended)
        frontier = extended
    return paths


def oracle_shortest(
    n: int, edges: set[tuple[int, int]], a: int, b: int
) -> list[tuple[int, ...]]:
    if a == b:
        return []
    everything = oracle_simple_paths(edges, [a], n)
    hits = [p for p in everything if p[-1] == b]
    if not hits:
        return []
    best = min(len(p) for p in hits)
    return sorted(p for p in hits if len(p) == best)


def as_int_paths(result: PathResult) -> list[tuple[int, ...]]:
    return [tuple(int(cid[1:]) for cid in path) for path in result.paths]


def random_edges(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < p
    }


# -- construction ----------------------------------------------------------


def test_concepts_are_sorted_by_id_and_lookup_works():
    g = make_graph(3, [(2, 0)])
    assert [c.id for c in g.concepts] == ["c0", "c1", "c2"]
    assert g.concept("c1").name == "node 1"
    assert g.resolve("  Node   2 ").id == "c2"
    assert "c0" in g and "c9" not in g


def test_path_names_reads_names_and_names_an_unknown_id():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert g.path_names(("c0", "c1", "c2")) == ("node 0", "node 1", "node 2")
    assert g.path_names(["c2"]) == ("node 2",)
    with pytest.raises(UnknownConcept, match="'c9'"):
        g.path_names(("c0", "c9", "c1"))


def test_duplicate_ids_rejected():
    concepts = (Concept("x", "one"), Concept("x", "two"))
    with pytest.raises(GraphError, match="duplicate"):
        ConceptGraph(concepts)


def test_colliding_normalized_names_rejected():
    concepts = (Concept("a", "Neural  Networks"), Concept("b", "neural networks"))
    with pytest.raises(GraphError, match="collide"):
        ConceptGraph(concepts)


@pytest.mark.parametrize(
    "extra, problem",
    [
        (Concept("c7", "extra"), r"duplicate concept ids: \['c7'\]"),
        (Concept("x", "Name  7"), r"collide after normalization: \['name 7'\]"),
    ],
    ids=["id", "name"],
)
def test_duplicate_check_takes_linear_time(extra, problem):
    # a check that counts each id in the whole list takes seconds here
    concepts = tuple(Concept(f"c{i}", f"name {i}") for i in range(20_000)) + (extra,)
    start = time.perf_counter()
    with pytest.raises(GraphError, match=problem):
        ConceptGraph(concepts)
    assert time.perf_counter() - start < 1.5


def test_edges_must_reference_known_concepts():
    concepts = (Concept("a", "alpha"), Concept("b", "beta"))
    with pytest.raises(UnknownConcept):
        ConceptGraph(concepts, frozenset({("a", "zzz")}))


def test_self_loops_rejected_at_construction_and_add():
    g = make_graph(2, [])
    with pytest.raises(SelfLoop):
        ConceptGraph(g.concepts, frozenset({("c0", "c0")}))
    with pytest.raises(SelfLoop):
        g.add_edge("c1", "c1")


def test_empty_concept_fields_rejected():
    with pytest.raises(GraphError):
        Concept("", "name")
    with pytest.raises(GraphError):
        Concept("id", "   ")


def test_add_edge_returns_new_graph_and_is_idempotent():
    g0 = make_graph(3, [])
    g1 = g0.add_edge("c0", "c1")
    assert g0.edges == frozenset()
    assert g1.edges == {("c0", "c1")}
    assert g1.add_edge("c0", "c1") is g1
    with pytest.raises(UnknownConcept):
        g1.add_edge("c0", "missing")


def test_graphs_compare_by_value():
    a = make_graph(2, [(0, 1)])
    b = make_graph(2, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)


# -- reachability ------------------------------------------------------------


def test_has_path_follows_edges_transitively():
    g = make_graph(4, [(0, 1), (1, 2)])
    assert g.has_path("c0", "c1")
    assert g.has_path("c0", "c2")
    assert not g.has_path("c2", "c0")
    assert not g.has_path("c0", "c3")
    with pytest.raises(UnknownConcept):
        g.has_path("c0", "nope")


def test_has_path_self_requires_a_cycle():
    line = make_graph(3, [(0, 1), (1, 2)])
    loop = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert not line.has_path("c0", "c0")
    assert loop.has_path("c0", "c0")


def test_has_path_matches_matrix_power_oracle_on_random_graphs():
    rng = random.Random(1301)
    for trial in range(60):
        n = rng.randint(2, 7)
        edges = random_edges(rng, n, 0.3)
        g = make_graph(n, sorted(edges))
        for a in range(n):
            for b in range(n):
                got = g.has_path(f"c{a}", f"c{b}")
                want = oracle_reachable(n, edges, a, b)
                assert got == want, (trial, sorted(edges), a, b)


def test_has_path_is_transitive_on_random_graphs():
    rng = random.Random(2402)
    for _ in range(30):
        n = rng.randint(3, 6)
        g = make_graph(n, sorted(random_edges(rng, n, 0.35)))
        ids = [f"c{i}" for i in range(n)]
        for a in ids:
            for b in ids:
                for c in ids:
                    if g.has_path(a, b) and g.has_path(b, c):
                        assert g.has_path(a, c)


# -- shortest paths ----------------------------------------------------------


def test_shortest_path_returns_all_minimal_routes():
    g = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    result = g.shortest_path("c0", "c3")
    assert as_int_paths(result) == [(0, 1, 3), (0, 2, 3)]


def test_shortest_path_empty_when_unreachable_or_same_node():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.shortest_path("c0", "c0") == PathResult()
    isolated = make_graph(2, [])
    assert isolated.shortest_path("c0", "c1") == PathResult()


def test_shortest_path_terminates_and_ignores_cycles():
    g = make_graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4)])
    result = g.shortest_path("c0", "c4")
    assert as_int_paths(result) == [(0, 1, 2, 3, 4)]


def test_shortest_path_matches_enumeration_oracle_on_random_graphs():
    rng = random.Random(3503)
    for trial in range(60):
        n = rng.randint(2, 6)
        edges = random_edges(rng, n, 0.3)
        g = make_graph(n, sorted(edges))
        for a in range(n):
            for b in range(n):
                got = as_int_paths(g.shortest_path(f"c{a}", f"c{b}"))
                want = oracle_shortest(n, edges, a, b)
                assert got == want, (trial, sorted(edges), a, b)


# -- bounded neighborhoods ----------------------------------------------------


def test_prerequisite_paths_end_at_target_within_depth():
    g = make_graph(4, [(0, 1), (1, 2), (3, 2)])
    depth1 = g.prerequisite_paths("c2", 1)
    assert as_int_paths(depth1) == [(1, 2), (3, 2)]
    depth2 = g.prerequisite_paths("c2", 2)
    assert as_int_paths(depth2) == [(0, 1, 2), (1, 2), (3, 2)]


def test_neighborhood_paths_out_direction():
    g = make_graph(4, [(0, 1), (1, 2), (0, 3)])
    got = as_int_paths(g.neighborhood_paths("c0", "out", 2))
    assert got == [(0, 1), (0, 1, 2), (0, 3)]


def test_neighborhood_paths_validates_arguments():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        g.neighborhood_paths("c0", "sideways", 1)
    with pytest.raises(GraphError):
        g.neighborhood_paths("c0", "out", 0)
    with pytest.raises(UnknownConcept):
        g.neighborhood_paths("zzz", "out", 1)


def test_neighborhood_paths_match_worklist_oracle_on_random_graphs():
    rng = random.Random(4604)
    for trial in range(40):
        n = rng.randint(2, 6)
        edges = random_edges(rng, n, 0.3)
        g = make_graph(n, sorted(edges))
        hops = rng.randint(1, 3)
        node = rng.randrange(n)
        got_out = as_int_paths(g.neighborhood_paths(f"c{node}", "out", hops))
        want_out = sorted(oracle_simple_paths(edges, [node], hops))
        assert got_out == want_out, (trial, sorted(edges), node, hops)

        reversed_edges = {(t, s) for s, t in edges}
        got_in = as_int_paths(g.neighborhood_paths(f"c{node}", "in", hops))
        want_in = sorted(
            tuple(reversed(p))
            for p in oracle_simple_paths(reversed_edges, [node], hops)
        )
        assert got_in == want_in, (trial, sorted(edges), node, hops)


def test_traversals_terminate_on_dense_cyclic_graph():
    n = 7
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    g = make_graph(n, edges)
    assert g.has_path("c0", "c0")
    assert len(g.shortest_path("c0", "c6")) == 1
    assert g.neighborhood_paths("c3", "out", 2)


@pytest.mark.parametrize("concept_id, direction", [("source", "out"), ("sink", "in")])
def test_traversals_hold_one_copy_of_their_paths(concept_id, direction):
    # 7 fully linked layers of 6 concepts between a source and a sink:
    # 6 + 36 + ... + 6**6 = 55,986 paths of up to 6 hops from either end
    layers = [[f"l{i}c{j}" for j in range(6)] for i in range(7)]
    edges = {("source", c) for c in layers[0]} | {(c, "sink") for c in layers[-1]}
    edges |= {(a, b) for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower}
    ids = ["source", "sink", *(c for layer in layers for c in layer)]
    g = ConceptGraph(tuple(Concept(c, f"name {c}") for c in ids), frozenset(edges))
    g.neighborhood_paths(concept_id, direction, 1)  # builds the lookup tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = g.neighborhood_paths(concept_id, direction, 6)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(result) == 55_986
    assert peak < 1.5 * kept


# -- path containers -----------------------------------------------------------


def test_path_result_sorts_and_deduplicates_nothing():
    result = PathResult((("b", "c"), ("a", "b")))
    assert result.paths == (("a", "b"), ("b", "c"))
    assert list(result) == [("a", "b"), ("b", "c")]
    assert bool(result) and len(result) == 2
    assert not PathResult()


# -- TSV interchange -------------------------------------------------------------


def test_concept_tsv_round_trip(tmp_path):
    concepts = [Concept("c1", "Hidden Markov Model"), Concept("c2", "Viterbi")]
    path = tmp_path / "concepts.tsv"
    path.write_text("c1\tHidden Markov Model\nc2\tViterbi\n")
    assert load_concepts(path) == concepts


def test_concept_tsv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("c1\tname\textra\tmore\n")
    with pytest.raises(TsvFormatError, match="expected 2 columns"):
        load_concepts(path)


def test_edge_tsv_round_trip_with_and_without_labels(tmp_path):
    rows = [EdgeRow("a", "b"), EdgeRow("a", "c", 1), EdgeRow("b", "c", 0)]
    path = tmp_path / "edges.tsv"
    save_edge_rows(rows, path)
    assert path.read_text() == "a\tb\na\tc\t1\nb\tc\t0\n"
    assert load_edge_rows(path) == rows


def test_edge_tsv_rejects_bad_labels(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\t2\n")
    with pytest.raises(TsvFormatError, match="label"):
        load_edge_rows(path)
    path.write_text("a\tb\tyes\n")
    with pytest.raises(TsvFormatError, match="label"):
        load_edge_rows(path)


def test_build_graph_skips_negative_rows():
    concepts = [Concept("a", "alpha"), Concept("b", "beta"), Concept("c", "gamma")]
    rows = [EdgeRow("a", "b", 1), EdgeRow("b", "c", 0), EdgeRow("a", "c")]
    g = build_graph(concepts, rows)
    assert g.edges == {("a", "b"), ("a", "c")}


def test_blank_lines_ignored_in_tsv(tmp_path):
    path = tmp_path / "concepts.tsv"
    path.write_text("c1\tone\n\nc2\ttwo\n")
    assert [c.id for c in load_concepts(path)] == ["c1", "c2"]


def test_tsv_fields_are_read_verbatim_and_a_field_cannot_span_lines(tmp_path):
    path = tmp_path / "concepts.tsv"
    path.write_text('c1\t"Fed" policy\nc2\tU.S. "Fed"\nc3\t"multi\nline"\n', encoding="utf-8")
    with pytest.raises(TsvFormatError, match=r":4: expected 2 columns, got 1"):
        load_concepts(path)
    path.write_text('c1\t"Fed" policy\nc2\tU.S. "Fed"\n', encoding="utf-8")
    assert [c.name for c in load_concepts(path)] == ['"Fed" policy', 'U.S. "Fed"']
    edges = tmp_path / "edges.tsv"
    edges.write_text('"a\tb"\t1\n', encoding="utf-8")
    assert load_edge_rows(edges) == [EdgeRow('"a', 'b"', 1)]


def test_tsv_round_trips_quotes_byte_identically(tmp_path):
    path = tmp_path / "concepts.tsv"
    text = 'c1\tU.S. "Fed"\nc2\t"Fed" policy\n'
    path.write_text(text, encoding="utf-8")
    copy = tmp_path / "copy.tsv"
    save_edge_rows(load_edge_rows(path), copy)
    assert copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
def test_tsv_writers_refuse_tabs_and_line_breaks(tmp_path, bad):
    path = tmp_path / "out.tsv"
    path.write_text("before\n")
    with pytest.raises(TsvFormatError, match="tab or a line break"):
        save_edge_rows([EdgeRow("a", "b"), EdgeRow(bad, "b")], path)
    with pytest.raises(TsvFormatError, match="tab or a line break"):
        save_edge_rows([EdgeRow("a", bad, 1)], path)
    assert path.read_text() == "before\n"


# -- imports ----------------------------------------------------------------------


def test_the_graph_side_loads_no_numpy():
    # recovery, traversal and QA grounding need only dicts and sets
    src = str(Path(graph_module.__file__).parents[1])
    modules = "graph, llm, pipeline, recovery, query, corpus, textnorm, files"
    code = f"import sys; from conceptgraph import {modules}; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def cli_cases(inputs: Path, work: Path) -> dict[str, tuple[list[str], bool]]:
    """CLI argv per case, and whether the run computes with numpy."""
    lines = {"pred": "Probability; Syntax Trees", "gold": "probability", "yes": "yes", "no": "no"}
    for name, line in lines.items():
        (work / f"{name}.txt").write_text(line + "\n", encoding="utf-8")
    concepts = ["--concepts", str(inputs / "concepts.tsv")]
    hidden = f"mock-graph:{inputs / 'uniform-dag.tsv'}"
    qa = [
        "qa", *concepts, "--edges", str(inputs / "noisy.tsv"),
        "--tutorqa", str(inputs / "tutorqa.jsonl"),
    ]

    def scored(predictions: str, gold: str, *mode: str) -> list[str]:
        files = ["--predictions", str(work / predictions), "--gold", str(work / gold)]
        return ["eval", *files, "--mode", *mode]

    # fixtures reads the judgments that the recover case writes before it
    return {
        "version": (["--version"], False),
        "recover": (["recover", *concepts, "--oracle", hidden, "--output-dir", "recover"], False),
        "fixtures": (
            ["fixtures", *concepts, "--judgments", "recover/judgments.jsonl", "--output-dir", "fx"],
            False,
        ),
        "qa": ([*qa, "--output-dir", "qa"], False),
        "eval-list-exact": (scored("pred.txt", "gold.txt", "list", "--embedder", "exact"), False),
        "eval-binary": (scored("yes.txt", "no.txt", "binary"), False),
        "train": (
            [
                "train", "--embeddings", str(inputs / "embeddings.jsonl"),
                "--edges", str(inputs / "train-pairs.tsv"), "--epochs", "2",
                "--output-dir", "train",
            ],
            True,
        ),
        "qa-hash": ([*qa, "--embedder", "hash", "--output-dir", "qa-hash"], True),
        "eval-list-hash": (scored("pred.txt", "gold.txt", "list", "--embedder", "hash"), True),
    }


def test_cli_runs_load_numpy_only_to_compute_with_it(small_inputs, tmp_path):
    # each case runs cli.main in a fresh interpreter; only training and
    # hashed embeddings compute with numpy
    src = str(Path(graph_module.__file__).parents[1])
    code = (
        "import sys; from conceptgraph import cli; "
        "status = cli.main(sys.argv[1:]); print(status, 'numpy' in sys.modules)"
    )
    for case, (argv, loads) in cli_cases(small_inputs, tmp_path).items():
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (case, done.stderr)
        assert done.stdout.splitlines()[-1] == f"0 {loads}", (case, done.stderr)


def test_only_linkpred_and_metrics_name_numpy_and_neither_imports_it_on_load():
    # a numpy import outside a function body would load it on every CLI run
    package = Path(graph_module.__file__).parent
    named, loaded = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {
            inner
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
                    named.add(path.name)
                continue
            if any(name.partition(".")[0] == "numpy" for name in imported):
                named.add(path.name)
                if node not in in_functions:
                    loaded.append(f"{path.name}:{node.lineno}")
    assert named == {"linkpred.py", "metrics.py"}
    assert loaded == []
