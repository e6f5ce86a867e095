"""Seeded file-mutation fuzz: a damaged input file is a classified error.

Each run copies one input of a CLI workflow, mutates one line or one byte
of it, and runs the workflow on the copy. Whatever the damage, the run
must exit 0, 1, 2 or 3, never 4 (an unclassified internal error); no
temporary "*.tmp" file may survive it, and no output may hold NaN or
Infinity. The inputs are perfbench/gen.py's
SMALL files and the mutations come from a fixed seed, so a failure
reproduces.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
from pathlib import Path

import pytest

from conceptgraph import cli
from conceptgraph.cli import EXIT_INTERNAL

SEED = 20
RUNS_PER_WORKFLOW = 40
# bytes that carry meaning to some reader: separators, quotes, line ends,
# JSON punctuation, a digit, a letter, NUL, and an invalid UTF-8 lead byte
INTERESTING = b'\t\n\r";,{}[]:-0x \x00\xff'
NON_FINITE = re.compile(rb"NaN|Infinity")


def _recover(variant: str, *extra: str):
    def argv(files: dict[str, Path], out: Path) -> list[str]:
        return [
            "recover", "--concepts", str(files["concepts.tsv"]),
            "--oracle", f"mock-graph:{files['uniform-dag.tsv']}", "--flip-p", "0.05",
            "--variant", variant, "--concurrency", "2", "--seed", "1",
            "--output-dir", str(out),
            *(str(files[arg[1:]]) if arg.startswith("@") else arg for arg in extra),
        ]

    return argv


def _train(model: str):
    def argv(files: dict[str, Path], out: Path) -> list[str]:
        return [
            "train", "--embeddings", str(files["embeddings.jsonl"]),
            "--edges", str(files["train-pairs.tsv"]), "--model", model,
            "--epochs", "3", "--proj-width", "8", "--layer-widths", "4",
            "--seed", "1", "--output-dir", str(out),
        ]

    return argv


def _qa(files: dict[str, Path], out: Path) -> list[str]:
    return [
        "qa", "--concepts", str(files["concepts.tsv"]), "--edges", str(files["noisy.tsv"]),
        "--tutorqa", str(files["tutorqa.jsonl"]), "--trace", "on", "--concurrency", "2",
        "--output-dir", str(out),
    ]


# "@name" stands for the path of input file name
BALANCED = ("--pairs", "balanced:20", "--labels", "@labels.tsv")
# workflow -> (the input files it reads, its command line over those files)
WORKFLOWS = {
    "recover-zs": (("concepts.tsv", "uniform-dag.tsv"), _recover("zs")),
    "recover-zs-doc": (
        ("concepts.tsv", "uniform-dag.tsv", "labels.tsv", "corpus.txt"),
        _recover("zs-doc", *BALANCED, "--documents", "@corpus.txt"),
    ),
    "recover-zs-rag": (
        ("concepts.tsv", "uniform-dag.tsv", "labels.tsv", "rag-index.json"),
        _recover("zs-rag", *BALANCED, "--rag-index", "@rag-index.json"),
    ),
    "train-gcn": (("embeddings.jsonl", "train-pairs.tsv"), _train("gcn")),
    "train-concat": (("embeddings.jsonl", "train-pairs.tsv"), _train("concat")),
    "qa": (("concepts.tsv", "noisy.tsv", "tutorqa.jsonl"), _qa),
}


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One line dropped, repeated or cut short, or one byte replaced,
    inserted or deleted; returns a description and the new content."""
    lines = data.splitlines(keepends=True)
    kind = rng.choice(["drop line", "repeat line", "cut line", "replace", "insert", "delete"])
    if kind.endswith("line"):
        k = rng.randrange(len(lines))
        line = lines[k]
        new = {
            "drop line": [],
            "repeat line": [line, line],
            "cut line": [line[: rng.randrange(len(line))]],
        }[kind]
        return f"{kind} {k + 1}", b"".join(lines[:k] + new + lines[k + 1 :])
    at = rng.randrange(len(data))
    byte = bytes([rng.choice(INTERESTING)])
    if kind == "replace":
        return f"byte {at} -> {byte!r}", data[:at] + byte + data[at + 1 :]
    if kind == "insert":
        return f"insert {byte!r} at {at}", data[:at] + byte + data[at:]
    return f"delete byte {at}", data[:at] + data[at + 1 :]


@pytest.mark.parametrize("workflow", sorted(WORKFLOWS))
def test_mutated_inputs_never_exit_4_or_leave_tmp_files(small_inputs, tmp_path, workflow):
    names, argv = WORKFLOWS[workflow]
    rng = random.Random(f"{SEED}-{workflow}")
    failures = []
    for run in range(RUNS_PER_WORKFLOW):
        target = rng.choice(names)
        description, content = mutate((small_inputs / target).read_bytes(), rng)
        work = tmp_path / f"run{run}"
        work.mkdir()
        files = {name: small_inputs / name for name in names}
        files[target] = work / target
        files[target].write_bytes(content)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv(files, work / "out"))
        bad = sorted(p.name for p in work.rglob("*.tmp"))
        # no output may hold a number that JSON does not allow
        bad += [p.name for p in work.glob("out/*") if NON_FINITE.search(p.read_bytes())]
        if code == EXIT_INTERNAL or bad:
            failures.append(f"{target}: {description}: exit {code} {bad} {stderr.getvalue()}")
        shutil.rmtree(work)
    assert failures == []
