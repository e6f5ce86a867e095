"""Output checks for the benchmark workloads.

Each check recomputes the expected result without the program's code:
the mock oracle's documented sha256 flip rule is reimplemented with
hashlib, graph answers come from brute-force BFS and simple-path
enumeration over the edge list, and the zero-initialised concat loss is
compared with ln 2. A check returns a list of problems; empty means the
outputs are correct.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from pathlib import Path

ANSWER_PREFIX = "To improve, review these related concepts: "


def _norm(name: str) -> str:
    return " ".join(name.split()).lower()


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _names(inputs: Path) -> dict[str, str]:
    return {cid: name for cid, name in _rows(inputs / "concepts.tsv")}


def _edges(path: Path) -> set[tuple[str, str]]:
    return {(row[0], row[1]) for row in _rows(path) if len(row) == 2 or row[2] == "1"}


def flips(seed: int, a_name: str, b_name: str, p: float) -> bool:
    """The mock's rule: flip when the first 8 bytes of
    sha256(f"{seed}|{a}|{b}") over 2**64 fall below p (names normalized)."""
    digest = hashlib.sha256(f"{seed}|{_norm(a_name)}|{_norm(b_name)}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 < p


# -- recovery ---------------------------------------------------------------------


def check_recovery(
    inputs: Path, out: Path, *, seed: int, flip_p: float, variant: str, sample_size: int | None
) -> list[str]:
    """Recovered edges are the hidden edges XOR the recomputed flips over
    the planned pairs, with exactly one judgment per planned pair."""
    names = _names(inputs)
    hidden = _edges(inputs / "uniform-dag.tsv")
    judgments = _jsonl(out / "judgments.jsonl")
    judged = [(j["a"], j["b"]) for j in judgments]
    problems: list[str] = []
    if len(set(judged)) != len(judged):
        problems.append(f"{len(judged) - len(set(judged))} pairs judged twice")
    if sample_size is None:
        planned = {(a, b) for a in names for b in names if a != b}
        if set(judged) != planned:
            problems.append(f"{len(set(judged) ^ planned)} pairs differ from the all-pairs plan")
    else:
        labels = {(row[0], row[1]): row[2] for row in _rows(inputs / "labels.tsv")}
        drawn = [labels.get(pair) for pair in judged]
        if drawn.count("1") != sample_size or drawn.count("0") != sample_size:
            problems.append(
                f"sample has {drawn.count('1')} positives, {drawn.count('0')} negatives and "
                f"{drawn.count(None)} unlabeled pairs; expected {sample_size} of each label"
            )
    expected = {
        (a, b) for a, b in judged if ((a, b) in hidden) != flips(seed, names[a], names[b], flip_p)
    }
    for judgment in judgments:
        pair = (judgment["a"], judgment["b"])
        want = "YES" if pair in expected else "NO"
        if judgment["verdict"] != want or judgment["variant"] != variant:
            problems.append(f"judgment {pair}: {judgment['verdict']}/{judgment['variant']}, expected {want}/{variant}")
            break
    recovered = _edges(out / "recovered-edges.tsv")
    if recovered != expected:
        problems.append(
            f"recovered graph has {len(recovered - expected)} extra and {len(expected - recovered)} missing edges"
        )
    return problems


# -- TutorQA ----------------------------------------------------------------------


def reachable(succ: dict[str, list[str]], a: str, b: str) -> bool:
    """A walk of one or more edges leads a -> b (BFS)."""
    seen = set(succ.get(a, ()))
    frontier = deque(seen)
    while frontier:
        node = frontier.popleft()
        if node == b:
            return True
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def bfs_distances(adj: dict[str, list[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for nxt in adj.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                frontier.append(nxt)
    return dist


def simple_paths(adj: dict[str, list[str]], start: str, max_hops: int) -> list[tuple[str, ...]]:
    """Every simple path of 1..max_hops edges from start, by exhaustive search."""
    found: list[tuple[str, ...]] = []
    todo = [(start,)]
    while todo:
        path = todo.pop()
        for nxt in adj.get(path[-1], ()):
            if nxt not in path:
                found.append(path + (nxt,))
                if len(path) < max_hops:
                    todo.append(path + (nxt,))
    return found


def expected_answer(task: int, ids: list[str], succ, pred) -> tuple[str, set[str]] | bool:
    """Reachability for task 1, else the answer's kind and concept-id set."""
    if task == 1:
        return reachable(succ, ids[0], ids[1])
    if task in (2, 4):
        paths = simple_paths(pred, ids[0], 3 if task == 2 else 2)
        return "list", {node for path in paths for node in path}
    if task == 3:
        a, b = ids
        from_a, to_b = bfs_distances(succ, a), bfs_distances(pred, b)
        if b not in from_a or a == b:
            return "list", set()
        return "list", {v for v in from_a if v in to_b and from_a[v] + to_b[v] == from_a[b]}
    t = ids[0]
    return "proposal", {t, *succ.get(t, ()), *pred.get(t, ())}


def check_answers(inputs: Path, answers_path: Path) -> list[str]:
    """Every answer equals the brute-force reachability or concept set."""
    names = _names(inputs)
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for a, b in sorted(_edges(inputs / "noisy.tsv")):
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    keys = _jsonl(inputs / "tutorqa-key.jsonl")
    answers = _jsonl(answers_path)
    if len(answers) != len(keys):
        return [f"{len(answers)} answers for {len(keys)} questions"]
    problems: list[str] = []
    for number, (key, row) in enumerate(zip(keys, answers), start=1):
        want = expected_answer(key["task"], key["concepts"], succ, pred)
        answer = row["answer"]
        if isinstance(want, bool):
            ok = answer == ("Yes" if want else "No")
        else:
            kind, wanted = want
            text = answer
            if kind == "proposal":
                ok = text.startswith(ANSWER_PREFIX) and text.endswith(".")
                text = text[len(ANSWER_PREFIX) : -1]
            else:
                ok = True
            got = [part.strip() for part in text.split(";") if part.strip()]
            ok = ok and len(got) == len(set(map(_norm, got)))
            ok = ok and set(map(_norm, got)) == {_norm(names[c]) for c in wanted}
        if not ok:
            problems.append(f"answer {number} (task {key['task']}) is wrong: {answer[:80]!r}")
            if len(problems) >= 5:
                break
    return problems


def check_qa(inputs: Path, template_out: Path, garbage_out: Path) -> list[str]:
    problems = check_answers(inputs, template_out / "answers.jsonl")
    if (template_out / "answers.jsonl").read_bytes() != (garbage_out / "answers.jsonl").read_bytes():
        problems.append("answers.jsonl differs between the template and garbage passes")
    return problems


# -- link prediction --------------------------------------------------------------


def check_training(out: Path, model: str, shapes: dict[str, tuple[int, ...]]) -> list[str]:
    """Finite, decreasing losses; the concat run starts at ln 2; the
    checkpoint reloads through the program's loader with the given shapes."""
    from conceptgraph import linkpred

    report = json.loads((out / "train-report.json").read_text(encoding="utf-8"))
    losses = report["losses"]
    problems: list[str] = []
    if not all(math.isfinite(loss) for loss in losses):
        problems.append(f"{model}: non-finite loss")
    elif not losses[-1] < losses[0]:
        problems.append(f"{model}: final loss {losses[-1]} is not below initial loss {losses[0]}")
    if model == "concat" and abs(losses[0] - math.log(2)) > 1e-12:
        problems.append(f"concat: initial loss {losses[0]!r} differs from ln 2")
    if model == "gcn":
        loaded = linkpred.GcnModel.load(out / "gcn-checkpoint.json")
        got = {"w_proj": loaded.w_proj.shape, "w_layers": tuple(w.shape for w in loaded.w_layers), "r": loaded.r.shape}
    else:
        loaded = linkpred.ConcatModel.load(out / "concat-checkpoint.json")
        got = {"weights": loaded.weights.shape}
    if got != shapes:
        problems.append(f"{model}: checkpoint shapes {got}, expected {shapes}")
    return problems
