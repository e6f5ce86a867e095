"""Acceptance gate: ten end-to-end criteria with wall-clock budgets.

Each criterion records exactly one PASS/FAIL line; the conftest hook
replays them as a summary section so they always land in the run log.
A criterion fails if its tolerance or time budget is missed. Oracle
routes are independent of the implementation under test: matrix powers
and worklist enumeration for traversals, central finite differences
for gradients, brute-force confusion counts for metrics.
"""
from __future__ import annotations

import json
import random
import string
import time
from contextlib import contextmanager

import numpy as np

from synth import (
    FD_EPSILON,
    SEPARABLE_LR,
    SEPARABLE_MOMENTUM,
    SEPARABLE_WIDTHS,
    gradient_check_instance,
    relative_error,
    separable_task,
)
from test_graph import (
    as_int_paths,
    make_graph,
    oracle_reachable,
    oracle_simple_paths,
    random_edges,
)

from conceptgraph import cli
from conceptgraph.graph import Concept, ConceptGraph
from conceptgraph.linkpred import (
    TrainConfig,
    gcn_forward,
    gcn_loss_and_grads,
    labels_from_scores,
    predict_gcn,
    train_gcn,
)
from conceptgraph.llm import (
    GarbageCommandOracle,
    GraphBackedOracle,
    GroundedAnswerOracle,
    TemplateCommandOracle,
)
from conceptgraph.metrics import (
    ExactMatcher,
    HashEmbedder,
    SimilarityMatcher,
    binary_report,
    confusion_counts,
    similarity_f1,
)
from conceptgraph.pipeline import TutorQaItem, run_items
from conceptgraph.query import QuerySyntaxError, parse_query, render_query
from conceptgraph.recovery import (
    EdgeJudgment,
    PromptVariant,
    SamplingPlan,
    VariantKind,
    Verdict,
    load_judgments,
    recover_graph,
    save_judgments,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _announce(f"criterion {number:2d}: FAIL  {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        _announce(
            f"criterion {number:2d}: FAIL  {description} "
            f"(over budget: {elapsed:.2f}s >= {budget_seconds:.0f}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds:.0f}s budget: {elapsed:.2f}s"
        )
    _announce(
        f"criterion {number:2d}: PASS  {description} "
        f"({elapsed:.2f}s < {budget_seconds:.0f}s)"
    )


CRITERION_LINES: list[str] = []


def _announce(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


def hidden_dag(n: int = 50, density: float = 0.05, seed: int = 11):
    """Random DAG over n concepts: edges only i -> j for i < j."""
    rng = random.Random(seed)
    concepts = tuple(Concept(id=f"n{i:02d}", name=f"concept {i:02d}") for i in range(n))
    edges = frozenset(
        (f"n{i:02d}", f"n{j:02d}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    )
    return concepts, ConceptGraph(concepts, edges)


def zs() -> PromptVariant:
    return PromptVariant(VariantKind("zs"))


def test_criterion_1_perfect_oracle_recovery_identity():
    with criterion(1, "perfect-oracle recovery equals the hidden DAG", 10.0):
        concepts, hidden = hidden_dag()
        oracle = GraphBackedOracle(hidden, flip_probability=0.0, seed=0)
        result = recover_graph(
            concepts,
            oracle,
            zs(),
            SamplingPlan("all"),
            domain="synthetic prerequisites",
            concurrency=16,
        )
        assert len(result.judgments) == 50 * 49
        assert result.graph.edges == hidden.edges


def test_criterion_2_noisy_oracle_calibration():
    with criterion(2, "noisy oracle lands at its configured error rate", 10.0):
        concepts, hidden = hidden_dag()
        oracle = GraphBackedOracle(hidden, flip_probability=0.1, seed=0)
        result = recover_graph(
            concepts,
            oracle,
            zs(),
            SamplingPlan("all"),
            domain="synthetic prerequisites",
            concurrency=16,
        )
        assert len(result.judgments) >= 2450
        predicted = [
            "Yes" if j.verdict is Verdict.YES else "No" for j in result.judgments
        ]
        gold = [
            "Yes" if (j.source, j.target) in hidden.edges else "No"
            for j in result.judgments
        ]
        report = binary_report(predicted, gold)
        error_rate = 1.0 - report.accuracy
        # 3-sigma binomial band around p = 0.1 at n = 2450 is under 0.02
        assert abs(error_rate - 0.10) <= 0.02, error_rate


def test_criterion_3_metric_replay_fidelity(tmp_path):
    with criterion(3, "eval command matches brute-force confusion counts", 1.0):
        concepts, hidden = hidden_dag(n=30, density=0.08, seed=5)
        oracle = GraphBackedOracle(hidden, flip_probability=0.15, seed=3)
        result = recover_graph(
            concepts,
            oracle,
            zs(),
            SamplingPlan("all"),
            domain="synthetic prerequisites",
            concurrency=16,
        )
        save_judgments(result.judgments, tmp_path / "judgments.jsonl")
        judgments = load_judgments(tmp_path / "judgments.jsonl")
        predicted = ["Yes" if j.verdict is Verdict.YES else "No" for j in judgments]
        gold = [
            "Yes" if (j.source, j.target) in hidden.edges else "No" for j in judgments
        ]
        (tmp_path / "pred.txt").write_text("\n".join(predicted) + "\n")
        (tmp_path / "gold.txt").write_text("\n".join(gold) + "\n")
        argv = [
            "eval",
            "--predictions",
            str(tmp_path / "pred.txt"),
            "--gold",
            str(tmp_path / "gold.txt"),
            "--output-dir",
            str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "out" / "eval-report.json").read_text())

        tp = fp = tn = fn = 0
        for p, g in zip(predicted, gold, strict=True):
            if p == "Yes" and g == "Yes":
                tp += 1
            elif p == "Yes" and g == "No":
                fp += 1
            elif p == "No" and g == "No":
                tn += 1
            else:
                fn += 1
        accuracy = (tp + tn) / (tp + fp + tn + fn)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
        assert round(report["accuracy"], 4) == round(accuracy, 4)
        assert round(report["precision"], 4) == round(precision, 4)
        assert round(report["recall"], 4) == round(recall, 4)
        assert round(report["f1"], 4) == round(f1, 4)
        assert (report["tp"], report["fp"], report["tn"], report["fn"]) == (
            tp,
            fp,
            tn,
            fn,
        )


def test_criterion_4_similarity_f1_ground_cases():
    with criterion(4, "similarity F1 ground cases and threshold monotonicity", 1.0):
        exact = ExactMatcher()
        same = ["alpha", "beta", "gamma"]
        assert similarity_f1(same, list(same), exact) == (1.0, 1.0, 1.0)

        disjoint = similarity_f1(["alpha", "beta"], ["gamma", "delta"], exact)
        assert disjoint == (0.0, 0.0, 0.0)

        _, _, s_f1 = similarity_f1(["alpha"], ["alpha", "beta"], exact)
        assert abs(s_f1 - 0.6667) <= 1e-4

        rng = random.Random(19)
        words = [f"concept {i}" for i in range(14)]
        thresholds = (0.2, 0.4, 0.6, 0.8)
        matchers = {
            mu: SimilarityMatcher(HashEmbedder(seed=0), mu) for mu in thresholds
        }
        for _ in range(100):
            predicted = rng.sample(words, rng.randint(2, 5))
            relevant = rng.sample(words, rng.randint(2, 5))
            scores = [
                similarity_f1(predicted, relevant, matchers[mu])[2]
                for mu in thresholds
            ]
            assert all(a >= b for a, b in zip(scores, scores[1:])), (
                predicted,
                relevant,
                scores,
            )


def test_criterion_5_gcn_gradient_check():
    with criterion(5, "analytic GCN gradients match finite differences", 5.0):
        x, a_norm, model, batch = gradient_check_instance()
        state = gcn_forward(x, a_norm, model)
        margin = min(float(np.min(np.abs(z))) for z in state.pre_activations)
        assert margin > 10 * FD_EPSILON, "instance sits too close to a ReLU kink"

        _, grads = gcn_loss_and_grads(x, a_norm, model, batch)
        for arr, grad in [
            (model.w_proj, grads.w_proj),
            (model.r, grads.r),
            *zip(model.w_layers, grads.w_layers, strict=True),
        ]:
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + FD_EPSILON
                up = gcn_loss_and_grads(x, a_norm, model, batch)[0]
                arr[idx] = orig - FD_EPSILON
                down = gcn_loss_and_grads(x, a_norm, model, batch)[0]
                arr[idx] = orig
                numeric = (up - down) / (2 * FD_EPSILON)
                assert relative_error(float(grad[idx]), numeric) <= 1e-4


def test_criterion_6_gcn_learnability():
    with criterion(6, "GCN reaches F1 >= 0.95 on the separable task", 30.0):
        store, rows = separable_task(40)
        assert len(rows) == 80
        config = TrainConfig(
            learning_rate=SEPARABLE_LR,
            epochs=200,
            seed=0,
            momentum=SEPARABLE_MOMENTUM,
        )
        first = train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
        pairs = [(a, b) for a, b, _ in rows]
        scores = predict_gcn(first.model, store, rows, pairs)
        predicted = labels_from_scores(scores, 0.5)
        gold = np.array([y for _, _, y in rows])
        tp = int(np.sum((predicted == 1) & (gold == 1)))
        fp = int(np.sum((predicted == 1) & (gold == 0)))
        fn = int(np.sum((predicted == 0) & (gold == 1)))
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        assert f1 >= 0.95, f1

        second = train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
        assert first.losses == second.losses
        again = predict_gcn(second.model, store, rows, pairs)
        assert np.array_equal(scores, again)


def test_criterion_7_traversal_oracle_equivalence():
    with criterion(7, "graph traversals match brute-force enumeration", 30.0):
        rng = random.Random(4242)
        for trial in range(200):
            n = rng.randint(2, 10)
            # expected out-degree 0.5..2 keeps enumeration tractable
            p = rng.uniform(0.5, 2.0) / n
            edges = random_edges(rng, n, p)
            g = make_graph(n, sorted(edges))

            for a in range(n):
                for b in range(n):
                    got = g.has_path(f"c{a}", f"c{b}")
                    want = oracle_reachable(n, edges, a, b)
                    assert got == want, (trial, sorted(edges), a, b)

            for a in range(n):
                from_a = oracle_simple_paths(edges, [a], n)
                for b in range(n):
                    got_paths = as_int_paths(g.shortest_path(f"c{a}", f"c{b}"))
                    hits = [p_ for p_ in from_a if a != b and p_[-1] == b]
                    if not hits:
                        assert got_paths == []
                        continue
                    best = min(len(p_) for p_ in hits)
                    want_paths = sorted(p_ for p_ in hits if len(p_) == best)
                    assert got_paths == want_paths, (trial, a, b)
                    hops = {len(p_) - 1 for p_ in got_paths}
                    assert hops == {best - 1}

            target = rng.randrange(n)
            depth = rng.randint(1, 3)
            got_prereq = as_int_paths(g.prerequisite_paths(f"c{target}", depth))
            everything = oracle_simple_paths(edges, list(range(n)), depth)
            want_prereq = sorted(p_ for p_ in everything if p_[-1] == target)
            assert got_prereq == want_prereq, (trial, target, depth)

        # a chain longer than the interpreter's recursion limit
        n = 1200
        edges = {(i, i + 1) for i in range(n - 1)}
        g = make_graph(n, sorted(edges))
        from_first = oracle_simple_paths(edges, [0], n)
        assert as_int_paths(g.shortest_path("c0", f"c{n - 1}")) == [from_first[-1]]
        got_out = sorted(as_int_paths(g.neighborhood_paths("c0", "out", n)))
        assert got_out == sorted(from_first)
        into_last = oracle_simple_paths({(b, a) for a, b in edges}, [n - 1], n)
        got_prereq = sorted(as_int_paths(g.prerequisite_paths(f"c{n - 1}", n)))
        assert got_prereq == sorted(p_[::-1] for p_ in into_last)


def fuzz_input(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 40))).decode(
            "latin-1"
        )
    if kind == 1:
        return "".join(
            chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randint(0, 30))
        )
    pieces = [
        "REACHABLE",
        "SHORTEST",
        "PREREQ",
        "NEIGHBORS",
        '"a"',
        '"x y"',
        "->",
        "IN",
        "OUT",
        "HOPS",
        "DEPTH",
        "3",
        "0",
        "\\",
        '"',
        "",
    ]
    return " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))


def random_query_ast(rng: random.Random):
    from conceptgraph.query import Neighbors, Prerequisites, Reachable, ShortestPath

    def name() -> str:
        alphabet = string.ascii_letters + ' "\\é→\n\t-'
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))

    kind = rng.randrange(4)
    if kind == 0:
        return Reachable(name(), name())
    if kind == 1:
        return ShortestPath(name(), name())
    if kind == 2:
        return Prerequisites(name(), rng.randint(1, 9))
    return Neighbors(name(), rng.choice(["in", "out"]), rng.randint(1, 9))


def test_criterion_8_parser_totality_and_round_trip():
    with criterion(8, "parser is total under fuzz and round-trips ASTs", 30.0):
        rng = random.Random(501)
        for _ in range(10_000):
            text = fuzz_input(rng)
            try:
                parse_query(text)
            except QuerySyntaxError as exc:
                assert 0 <= exc.offset <= len(text.encode("utf-8"))

        for _ in range(1_000):
            ast = random_query_ast(rng)
            assert parse_query(render_query(ast)) == ast


def test_criterion_9_pipeline_determinism():
    with criterion(9, "QA pipeline hits accuracy 1.0 with and without fallback", 10.0):
        rng = random.Random(23)
        names = [f"concept {i:02d}" for i in range(20)]
        concepts = tuple(
            Concept(id=f"g{i:02d}", name=name) for i, name in enumerate(names)
        )
        edges = frozenset(
            (f"g{i:02d}", f"g{j:02d}")
            for i in range(20)
            for j in range(20)
            if i != j and rng.random() < 0.12
        )
        graph = ConceptGraph(concepts, edges)

        items = []
        gold = []
        for _ in range(100):
            a, b = rng.sample(range(20), 2)
            expected = "Yes" if graph.has_path(f"g{a:02d}", f"g{b:02d}") else "No"
            items.append(
                TutorQaItem(
                    task=1,
                    question=(
                        f"Does {names[a]} come before {names[b]} in the study order?"
                    ),
                    answer=expected,
                )
            )
            gold.append(expected)

        answer_oracle = GroundedAnswerOracle()
        direct = list(run_items(
            items, graph, TemplateCommandOracle(names), answer_oracle, concurrency=8
        ))
        report = binary_report([answer for answer, _ in direct], gold)
        assert report.accuracy == 1.0

        fallback = list(run_items(
            items, graph, GarbageCommandOracle(), answer_oracle, concurrency=8
        ))
        report = binary_report([answer for answer, _ in fallback], gold)
        assert report.accuracy == 1.0
        assert all(trace.fallback_used for _, trace in fallback)


def test_criterion_10_confusion_count_reproduction(tmp_path):
    with criterion(10, "judgment fixture reproduces its 258/52 verdict split", 1.0):
        judgments = []
        for i in range(310):
            verdict = Verdict.YES if i < 258 else Verdict.NO
            judgments.append(
                EdgeJudgment(
                    source=f"a{i:03d}",
                    target=f"b{i:03d}",
                    verdict=verdict,
                    variant="zs",
                    raw_response="YES" if verdict is Verdict.YES else "NO",
                )
            )
        save_judgments(judgments, tmp_path / "judgments.jsonl")
        loaded = load_judgments(tmp_path / "judgments.jsonl")
        assert confusion_counts(loaded) == (258, 52)
