"""qa streams: each answer and trace leaves memory once its question is written.

run_items yields results in item order as questions finish, with at most
2 * concurrency questions started but not yet consumed, and cmd_qa writes
each trace as it arrives. Peak memory therefore stays near one question's
paths plus the answers, however many questions the file holds, and the
written bytes do not depend on concurrency.
"""
from __future__ import annotations

import contextlib
import io
import json
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from conceptgraph import cli
from conceptgraph.cli import EXIT_OK, EXIT_ORACLE
from conceptgraph.graph import Concept, ConceptGraph
from conceptgraph.llm import GroundedAnswerOracle, TemplateCommandOracle
from conceptgraph.pipeline import PipelineError, TutorQaItem, run_items

# Four layers of six concepts, each concept a prerequisite of every concept in
# the next layer: a task 2 question about a last-layer concept grounds on
# 6 + 36 + 216 paths at the template's DEPTH 3, a task 4 question on 6 + 36.
LAYERS = "abcd"
WIDTH = 6


def layered_names() -> list[list[str]]:
    return [[f"Topic {layer}{i}" for i in range(WIDTH)] for layer in LAYERS]


def write_layered_inputs(directory: Path) -> Path:
    names = layered_names()
    concepts = "".join(
        f"n{layer}{i}\t{name}\n" for layer, row in enumerate(names) for i, name in enumerate(row)
    )
    edges = "".join(
        f"n{layer}{i}\tn{layer + 1}{j}\n"
        for layer in range(len(LAYERS) - 1)
        for i in range(WIDTH)
        for j in range(WIDTH)
    )
    (directory / "concepts.tsv").write_text(concepts, encoding="utf-8")
    (directory / "edges.tsv").write_text(edges, encoding="utf-8")
    return directory


def layered_questions(count: int) -> list[dict]:
    names = layered_names()
    rows = []
    for k in range(count):
        target = names[-1][k % WIDTH]
        if k % 3 == 2:
            question = f"I keep failing exams about {target}. What should I revisit?"
            rows.append({"task": 4, "question": question, "answer": [names[-2][0]]})
        else:
            question = f"I want to learn {target}. What should I study first?"
            rows.append({"task": 2, "question": question, "answer": [names[0][0]]})
    return rows


def write_questions(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def qa(directory: Path, questions: Path, out: Path, *extra: str) -> int:
    argv = [
        "qa",
        "--concepts", str(directory / "concepts.tsv"),
        "--edges", str(directory / "edges.tsv"),
        "--tutorqa", str(questions),
        "--output-dir", str(out),
        *extra,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def traced_peak(directory: Path, questions: Path, out: Path, concurrency: int) -> int:
    tracemalloc.start()
    try:
        assert qa(directory, questions, out, "--concurrency", str(concurrency)) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("concurrency", [1, 4])
def test_qa_peak_memory_does_not_grow_with_the_question_count(tmp_path, concurrency):
    write_layered_inputs(tmp_path)
    few = write_questions(tmp_path / "few.jsonl", layered_questions(12))
    many = write_questions(tmp_path / "many.jsonl", layered_questions(120))
    # one untraced run first, so one-time costs land in neither measurement
    assert qa(tmp_path, few, tmp_path / "warm") == EXIT_OK
    small = traced_peak(tmp_path, few, tmp_path / "few", concurrency)
    large = traced_peak(tmp_path, many, tmp_path / "many", concurrency)
    assert large < 2.5 * small, (small, large)
    traces = (tmp_path / "many" / "traces.jsonl").read_text(encoding="utf-8")
    assert traces.count("\n") == 120


def layered_graph() -> ConceptGraph:
    names = layered_names()
    concepts = tuple(
        Concept(id=f"n{layer}{i}", name=name)
        for layer, row in enumerate(names)
        for i, name in enumerate(row)
    )
    edges = frozenset(
        (f"n{layer}{i}", f"n{layer + 1}{j}")
        for layer in range(len(LAYERS) - 1)
        for i in range(WIDTH)
        for j in range(WIDTH)
    )
    return ConceptGraph(concepts, edges)


class CountingOracle:
    """A template command oracle that counts the questions it was asked."""

    def __init__(self, graph: ConceptGraph):
        self._inner = TemplateCommandOracle(graph.matcher)
        self._lock = threading.Lock()
        self.started = 0

    def __call__(self, prompt: str) -> str:
        with self._lock:
            self.started += 1
        return self._inner(prompt)


def layered_items(count: int) -> list[TutorQaItem]:
    return [
        TutorQaItem(row["task"], row["question"], tuple(row["answer"]))
        for row in layered_questions(count)
    ]


def test_run_items_starts_at_most_two_questions_per_thread_ahead_of_the_consumer():
    graph = layered_graph()
    oracle = CountingOracle(graph)
    items = layered_items(40)
    consumed = 0
    ahead = []
    for _answer, _trace in run_items(items, graph, oracle, GroundedAnswerOracle(), concurrency=4):
        consumed += 1
        time.sleep(0.005)  # a slow writer: the threads would run ahead
        ahead.append(oracle.started - consumed)
    assert consumed == len(items)
    assert max(ahead) <= 2 * 4, ahead


class GatedOracle(CountingOracle):
    """Holds every question marked "later" until the gate opens."""

    def __init__(self, graph: ConceptGraph):
        super().__init__(graph)
        self.gate = threading.Event()

    def __call__(self, prompt: str) -> str:
        answer = super().__call__(prompt)
        if "later" in prompt:
            assert self.gate.wait(timeout=10)
        return answer


def test_run_items_cancels_unstarted_questions_when_the_consumer_stops():
    graph = layered_graph()
    oracle = GatedOracle(graph)
    items = layered_items(3) + [
        TutorQaItem(item.task, item.question + " (later)", item.answer)
        for item in layered_items(37)
    ]
    results = run_items(items, graph, oracle, GroundedAnswerOracle(), concurrency=4)
    assert oracle.started == 0  # nothing runs before the first result is asked for
    for _ in range(3):
        next(results)
    # 3 + 2 * 4 questions were submitted; the threads hold up to 4 "later" ones
    opener = threading.Timer(0.05, oracle.gate.set)
    opener.start()
    results.close()
    opener.join(timeout=10)
    assert not opener.is_alive()
    assert oracle.started <= 3 + 4  # the queued rest were cancelled


def test_run_items_checks_concept_names_before_the_first_question():
    graph = ConceptGraph((Concept("c0", "a;b"), Concept("c1", "c")), frozenset())
    oracle = CountingOracle(layered_graph())
    with pytest.raises(PipelineError, match="holds ';'"):
        run_items(layered_items(2), graph, oracle, GroundedAnswerOracle())
    assert oracle.started == 0


@pytest.mark.parametrize("command_oracle", ["template", "garbage"])
def test_qa_threads_write_the_same_bytes_as_one_thread(small_inputs, tmp_path, command_oracle):
    outputs = {}
    for concurrency in (1, 4):
        out = tmp_path / f"c{concurrency}"
        argv = [
            "qa",
            "--concepts", str(small_inputs / "concepts.tsv"),
            "--edges", str(small_inputs / "noisy.tsv"),
            "--tutorqa", str(small_inputs / "tutorqa.jsonl"),
            "--command-oracle", command_oracle,
            "--concurrency", str(concurrency),
            "--output-dir", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == EXIT_OK
        outputs[concurrency] = {
            path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"
        }
    names = set(outputs[1])
    assert {"answers.jsonl", "traces.jsonl", "qa-report-task1.json"} <= names
    assert {f"qa-report-task{t}.json" for t in (2, 3, 4)} <= names
    assert "qa-mentions-task5.json" in names
    assert outputs[4] == outputs[1]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_qa_exhausted_fallback_midway_leaves_no_outputs(tmp_path, concurrency):
    write_layered_inputs(tmp_path)
    rows = layered_questions(30)
    # a task 1 question naming one concept has no template to fall back on
    rows.insert(15, {"task": 1, "question": "Is Topic a0 hard?", "answer": "No"})
    questions = write_questions(tmp_path / "questions.jsonl", rows)
    out = tmp_path / "out"
    code = qa(
        tmp_path, questions, out,
        "--command-oracle", "garbage", "--concurrency", str(concurrency),
    )
    assert code == EXIT_ORACLE
    assert not (out / "answers.jsonl").exists()
    assert not (out / "traces.jsonl").exists()
    assert not (out / "manifest.json").exists()
    assert list(tmp_path.rglob("*.tmp")) == []
