"""The output checks accept real outputs and reject planted corruptions.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
from conceptgraph import cli  # noqa: E402

SEED = 3


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    return gen.generate(SEED, tmp_path_factory.mktemp("inputs"), gen.SMALL)


def _recover(inputs: Path, out: Path, *extra: str) -> Path:
    _cli(
        "recover", "--concepts", str(inputs / "concepts.tsv"),
        "--oracle", f"mock-graph:{inputs / 'uniform-dag.tsv'}", "--flip-p", "0.05",
        "--seed", str(SEED), "--output-dir", str(out), *extra,
    )
    return out


def _rewrite_jsonl(path: Path, change) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    change(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def test_recovery_check_accepts_and_rejects_a_flipped_verdict(inputs, tmp_path):
    out = _recover(inputs, tmp_path / "all")
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.05, variant="zs", sample_size=None) == []
    # the rule must matter: without noise the same outputs are wrong
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.0, variant="zs", sample_size=None)

    def flip_first(rows):
        rows[0]["verdict"] = "NO" if rows[0]["verdict"] == "YES" else "YES"

    _rewrite_jsonl(out / "judgments.jsonl", flip_first)
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.05, variant="zs", sample_size=None)


def test_recovery_check_rejects_an_extra_edge(inputs, tmp_path):
    out = _recover(inputs, tmp_path / "all")
    edges = out / "recovered-edges.tsv"
    present = set(edges.read_text().splitlines())
    extra = next(f"c000\tc{i:03d}" for i in range(1, 30) if f"c000\tc{i:03d}" not in present)
    edges.write_text(edges.read_text() + extra + "\n")
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.05, variant="zs", sample_size=None)


def test_balanced_check_rejects_an_unlabeled_pair(inputs, tmp_path):
    plan = ("--pairs", "balanced:10", "--labels", str(inputs / "labels.tsv"))
    out = _recover(inputs, tmp_path / "bal", "--variant", "zs-doc", "--documents", str(inputs / "corpus.txt"), *plan)
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.05, variant="zs-doc", sample_size=10) == []
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.05, variant="zs-doc", sample_size=9)
    labeled = {tuple(line.split("\t")[:2]) for line in (inputs / "labels.tsv").read_text().splitlines()}
    ids = [f"c{i:03d}" for i in range(gen.SMALL.concepts)]
    unlabeled = next((a, b) for a in ids for b in ids if a != b and (a, b) not in labeled)

    def swap_first(rows):
        rows[0]["a"], rows[0]["b"] = unlabeled

    _rewrite_jsonl(out / "judgments.jsonl", swap_first)
    assert check.check_recovery(inputs, out, seed=SEED, flip_p=0.05, variant="zs-doc", sample_size=10)


@pytest.fixture(scope="module")
def qa_outputs(inputs, tmp_path_factory) -> tuple[Path, Path]:
    base = tmp_path_factory.mktemp("qa")
    for oracle in ("template", "garbage"):
        _cli(
            "qa", "--concepts", str(inputs / "concepts.tsv"), "--edges", str(inputs / "noisy.tsv"),
            "--tutorqa", str(inputs / "tutorqa.jsonl"), "--command-oracle", oracle,
            "--output-dir", str(base / oracle),
        )
    return base / "template", base / "garbage"


def test_qa_check_accepts_both_passes(inputs, qa_outputs):
    assert check.check_qa(inputs, *qa_outputs) == []


@pytest.mark.parametrize("task", [1, 2, 3, 4, 5])
def test_qa_check_rejects_a_corrupted_answer(inputs, qa_outputs, tmp_path, task):
    answers = tmp_path / "answers.jsonl"
    answers.write_text((qa_outputs[0] / "answers.jsonl").read_text())

    def corrupt(rows):
        row = next(r for r in rows if r["task"] == task and r["answer"])
        if task == 1:
            row["answer"] = "No" if row["answer"] == "Yes" else "Yes"
        elif task == 5:
            names = row["answer"][len(check.ANSWER_PREFIX) : -1].split("; ")
            row["answer"] = check.ANSWER_PREFIX + "; ".join(names[:-1]) + "."
        else:
            # as if a path were dropped: its last concept goes missing
            row["answer"] = "; ".join(row["answer"].split("; ")[:-1])

    _rewrite_jsonl(answers, corrupt)
    assert check.check_answers(inputs, answers)


def test_qa_check_rejects_passes_that_differ(inputs, qa_outputs, tmp_path):
    garbage = tmp_path / "garbage"
    garbage.mkdir()
    text = (qa_outputs[1] / "answers.jsonl").read_text()
    (garbage / "answers.jsonl").write_text(text.replace("\n", "\n\n", 1))
    assert check.check_qa(inputs, qa_outputs[0], garbage)


@pytest.fixture(scope="module")
def train_outputs(inputs, tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("train")
    for model in ("gcn", "concat"):
        _cli(
            "train", "--embeddings", str(inputs / "embeddings.jsonl"), "--edges", str(inputs / "train-pairs.tsv"),
            "--model", model, "--epochs", "20", "--proj-width", "8", "--layer-widths", "4",
            "--output-dir", str(base / model),
        )
    return base


GCN_SHAPES = {"w_proj": (16, 8), "w_layers": ((8, 4),), "r": (4, 4)}


def test_training_check_accepts_real_runs(train_outputs):
    assert check.check_training(train_outputs / "gcn", "gcn", GCN_SHAPES) == []
    assert check.check_training(train_outputs / "concat", "concat", {"weights": (32,)}) == []
    assert check.check_training(train_outputs / "concat", "concat", {"weights": (31,)})


@pytest.mark.parametrize(
    "model, change",
    [
        ("gcn", lambda losses: losses.__setitem__(-1, losses[0] + 1e-3)),
        ("gcn", lambda losses: losses.__setitem__(5, float("nan"))),
        ("concat", lambda losses: losses.__setitem__(0, losses[0] + 1e-9)),
    ],
)
def test_training_check_rejects_an_altered_loss(train_outputs, tmp_path, model, change):
    out = tmp_path / model
    out.mkdir()
    for path in (train_outputs / model).iterdir():
        (out / path.name).write_bytes(path.read_bytes())
    report = json.loads((out / "train-report.json").read_text())
    change(report["losses"])
    (out / "train-report.json").write_text(json.dumps(report))
    shapes = GCN_SHAPES if model == "gcn" else {"weights": (32,)}
    assert check.check_training(out, model, shapes)
