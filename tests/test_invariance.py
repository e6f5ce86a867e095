"""Metamorphic tests: the row order of an input table changes no output.

Each test runs a subcommand on the generator's inputs, then again with
the rows of its input tables shuffled, and compares every output but the
manifest, which records the input paths. `qa` and `recover` must write
the same bytes; `train` sums its gradients in row order, so its numbers
may differ in the last bits and are compared within 1e-12.
"""
from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from conceptgraph.cli import EXIT_OK, MANIFEST_NAME, main

TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, gen) -> Path:
    """Seed-1 inputs with 240 hidden edges, so a balanced plan can draw
    200 positives and 200 negatives."""
    sizes = gen.Sizes(
        concepts=60, uniform_edges=240, documents=40, embed_dim=16, questions_per_task=10
    )
    return gen.generate(1, tmp_path_factory.mktemp("inputs"), sizes)


def shuffled_copy(inputs: Path, target: Path, *tables: str) -> Path:
    """inputs copied to target, with the rows of each table in random order."""
    shutil.copytree(inputs, target)
    rng = random.Random(target.name)
    for name in tables:
        rows = (inputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
        before = list(rows)
        while rows == before:
            rng.shuffle(rows)
        (target / name).write_text("".join(rows), encoding="utf-8")
    return target


def outputs(directory: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.name != MANIFEST_NAME
    }


def run_both(tmp_path: Path, inputs: Path, argv, *tables: str) -> tuple[Path, Path]:
    """Output directories of argv on inputs and on a shuffled copy of them."""
    shuffled = shuffled_copy(inputs, tmp_path / "shuffled", *tables)
    for source, out in ((inputs, tmp_path / "a"), (shuffled, tmp_path / "b")):
        assert main(argv(source, out)) == EXIT_OK
    return tmp_path / "a", tmp_path / "b"


@pytest.mark.parametrize("command_oracle", ["template", "garbage"])
def test_qa_outputs_ignore_the_row_order_of_concepts_and_edges(
    tmp_path, inputs, command_oracle
):
    def argv(source: Path, out: Path) -> list[str]:
        return [
            "qa", "--concepts", str(source / "concepts.tsv"),
            "--edges", str(source / "noisy.tsv"), "--tutorqa", str(source / "tutorqa.jsonl"),
            "--command-oracle", command_oracle, "--output-dir", str(out),
        ]

    a, b = run_both(tmp_path, inputs, argv, "concepts.tsv", "noisy.tsv")
    assert "traces.jsonl" in outputs(a)
    assert outputs(a) == outputs(b)


def test_recover_outputs_ignore_the_row_order_of_concepts_labels_and_hidden_edges(
    tmp_path, inputs
):
    def argv(source: Path, out: Path) -> list[str]:
        return [
            "recover", "--concepts", str(source / "concepts.tsv"),
            "--oracle", f"mock-graph:{source / 'uniform-dag.tsv'}", "--flip-p", "0.1",
            "--pairs", "balanced:200", "--labels", str(source / "labels.tsv"),
            "--seed", "1", "--output-dir", str(out),
        ]

    a, b = run_both(tmp_path, inputs, argv, "concepts.tsv", "labels.tsv", "uniform-dag.tsv")
    assert len((a / "judgments.jsonl").read_text(encoding="utf-8").splitlines()) == 400
    assert outputs(a) == outputs(b)


def assert_close(x, y, where: str = "") -> None:
    """x and y are the same JSON value, with numbers equal within TOLERANCE."""
    if isinstance(x, dict):
        assert isinstance(y, dict) and x.keys() == y.keys(), where
        for key in x:
            assert_close(x[key], y[key], f"{where}.{key}")
    elif isinstance(x, list):
        assert isinstance(y, list) and len(x) == len(y), where
        for i, (u, v) in enumerate(zip(x, y)):
            assert_close(u, v, f"{where}[{i}]")
    elif isinstance(x, float):
        assert abs(x - y) <= TOLERANCE, f"{where}: {x!r} != {y!r}"
    else:
        assert x == y, where


def test_concat_training_ignores_the_row_order_of_its_pairs(tmp_path, inputs):
    def argv(source: Path, out: Path) -> list[str]:
        return [
            "train", "--embeddings", str(source / "embeddings.jsonl"),
            "--edges", str(source / "train-pairs.tsv"), "--model", "concat",
            "--epochs", "50", "--seed", "1", "--output-dir", str(out),
        ]

    a, b = run_both(tmp_path, inputs, argv, "train-pairs.tsv")
    first, second = outputs(a), outputs(b)
    assert sorted(first) == ["concat-checkpoint.json", "train-report.json"]
    for name in first:
        assert_close(json.loads(first[name]), json.loads(second[name]), name)
