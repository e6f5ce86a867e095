"""Seeded input generator for the conceptgraph benchmark.

    python3 perfbench/gen.py --seed 1 --out .perfbench_out/inputs-1

writes every input the four workloads read. The same seed gives
byte-identical files. Contents at full size (N = 322 concepts):

    concepts.tsv        id<TAB>name; names are made-up words, so the
                        English filler around them never matches a concept
    uniform-dag.tsv     1,500 edges over a random topological order; the
                        hidden graph of the recovery mock
    hub-dag.tsv         preferential-attachment DAG (hub-heavy out-degree)
    noisy.tsv           hub-dag with 2 % of ordered pairs flipped
                        (about 3.5k edges, cyclic); the graph qa-tutor reads
    labels.tsv          ids: every uniform-dag edge (label 1) and as many
                        non-edges (label 0)
    train-pairs.tsv     labels.tsv with names in place of ids, for train
    train-edges.tsv     half of the uniform-dag edges; the zs-con graph
    corpus.txt          400 documents, each naming three concepts
    rag-index.json      the program's saved TF-IDF index over corpus.txt
    embeddings.jsonl    322 x 768 vectors with a planted edge signal
    tutorqa.jsonl       500 questions, 100 per task; task 1 and 3 gold from
                        hub-dag; task 2 and 4 concepts chosen by their path
                        counts in noisy.tsv, gold lists cut to 20 and 10
    tutorqa-key.jsonl   the concept ids each question names, for the checker
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    concepts: int = 322
    uniform_edges: int = 1500
    documents: int = 400
    embed_dim: int = 768
    questions_per_task: int = 100


FULL = Sizes()
# For the checker tests: the same shapes, small enough to run in a second.
SMALL = Sizes(concepts=30, uniform_edges=120, documents=40, embed_dim=16, questions_per_task=6)

HUB_PARENTS = (4, 5)  # taken in turn, so every seed gives the same edge count
NOISE_P = 0.02
# Task 2 and 4 questions ask about concepts whose 3-hop (2-hop) path counts
# in the graph the questions are asked over come nearest to values spread
# over these spans, and their gold lists are cut to these lengths, so every
# seed asks for about the same amount of traversal and F1 scoring.
PREREQ_PATHS = (800, 1600)
NEIGHBOR_PATHS = (85, 160)
GOLD_PREREQS = 20
GOLD_NEIGHBORS = 10
MENTIONS_PER_DOC = 3
# Large enough that the default learning rate visibly trains both models.
EMBED_SCALE = 4.0

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_NUCLEI = ("a", "e", "i", "o", "u")
_CODAS = ("", "", "n", "r", "x")

_FILLER = (
    "the study of this topic builds on earlier material and prepares "
    "students for later lectures while the course notes describe worked "
    "examples exercises and common mistakes that appear in practice"
).split()

QUESTION_TEMPLATES = {
    1: "In this course I already know {a}. Is {a} a prerequisite I need before I learn {b}?",
    2: "I want to learn {a}. Which concepts should I study first, and in what order?",
    3: "What is the shortest study route that starts at {a} and ends at {b}?",
    4: "I keep failing my exam questions about {a}. Which related concepts should I revisit?",
    5: "Propose a small class project built around {a} for students of this course.",
}


def concept_names(rng: random.Random, count: int) -> list[str]:
    """Distinct made-up names of one to three words, none a filler word."""
    filler = set(_FILLER) | {
        word.strip(".,?").lower() for text in QUESTION_TEMPLATES.values() for word in text.split()
    }
    seen: set[str] = set()
    names: list[str] = []
    while len(names) < count:
        tokens = [
            "".join(
                rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                for _ in range(rng.choice((2, 3)))
            )
            for _ in range(rng.choice((1, 2, 2, 3)))
        ]
        name = " ".join(tokens).title()
        if any(t in filler for t in tokens) or name.lower() in seen:
            continue
        seen.add(name.lower())
        names.append(name)
    return names


def uniform_dag(rng: random.Random, ids: list[str], edges: int) -> list[tuple[str, str]]:
    order = ids[:]
    rng.shuffle(order)
    forward = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))]
    return sorted(rng.sample(forward, edges))


def hub_dag(rng: random.Random, ids: list[str]) -> list[tuple[str, str]]:
    """Each new node takes parents chosen in proportion to out-degree + 1."""
    order = ids[:]
    rng.shuffle(order)
    out_degree = {cid: 0 for cid in ids}
    edges: set[tuple[str, str]] = set()
    for j in range(1, len(order)):
        earlier = order[:j]
        wanted = min(j, HUB_PARENTS[j % len(HUB_PARENTS)])
        parents: set[str] = set()
        while len(parents) < wanted:
            weights = [out_degree[p] + 1 for p in earlier]
            parents.add(rng.choices(earlier, weights=weights)[0])
        for parent in sorted(parents):
            out_degree[parent] += 1
            edges.add((parent, order[j]))
    return sorted(edges)


def flip_pairs(
    rng: random.Random, ids: list[str], edges: list[tuple[str, str]], p: float
) -> list[tuple[str, str]]:
    """Flip the membership of round(p * pairs) ordered pairs drawn at random."""
    pairs = [(a, b) for a in sorted(ids) for b in sorted(ids) if a != b]
    flipped = set(rng.sample(pairs, round(p * len(pairs))))
    present = set(edges)
    return [pair for pair in pairs if (pair in present) != (pair in flipped)]


def adjacency(edges) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    return succ, pred


def reachable_from(succ: dict[str, list[str]], start: str) -> set[str]:
    seen: set[str] = set(succ.get(start, ()))
    frontier = deque(seen)
    while frontier:
        for nxt in succ.get(frontier.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def in_closure(pred: dict[str, list[str]], target: str, hops: int) -> list[str]:
    """Nodes within `hops` backward steps of target, target first."""
    out = [target]
    seen = {target}
    layer = [target]
    for _ in range(hops):
        nxt_layer = []
        for node in layer:
            for p in pred.get(node, ()):
                if p not in seen:
                    seen.add(p)
                    nxt_layer.append(p)
        out.extend(nxt_layer)
        layer = nxt_layer
    return out


def shortest_route(succ: dict[str, list[str]], a: str, b: str) -> list[str]:
    parent: dict[str, str | None] = {a: None}
    frontier = deque([a])
    while frontier and b not in parent:
        node = frontier.popleft()
        for nxt in succ.get(node, ()):
            if nxt not in parent:
                parent[nxt] = node
                frontier.append(nxt)
    route: list[str] = []
    node: str | None = b
    while node is not None:
        route.append(node)
        node = parent[node]
    return route[::-1]


def count_paths(pred: dict[str, list[str]], node: str, hops: int, on_path: frozenset[str]) -> int:
    """Simple paths of 1..hops edges ending at node."""
    total = 0
    for p in pred.get(node, ()):
        if p not in on_path:
            total += 1
            if hops > 1:
                total += count_paths(pred, p, hops - 1, on_path | {p})
    return total


def scheduled_targets(
    rng: random.Random, pred: dict[str, list[str]], ids: list[str], hops: int, span: tuple[int, int], k: int
) -> list[str]:
    """k distinct concepts whose path counts come nearest to k values spaced
    evenly, in log scale, over span."""
    counts = {cid: count_paths(pred, cid, hops, frozenset((cid,))) for cid in ids}
    free = sorted(ids)
    chosen = []
    lo, hi = span
    for i in range(k):
        want = lo * (hi / lo) ** (i / max(k - 1, 1))
        best = min(free, key=lambda cid: abs(counts[cid] - want))
        free.remove(best)
        chosen.append(best)
    rng.shuffle(chosen)
    return chosen


def tutorqa_items(
    rng: random.Random,
    ids: list[str],
    names: dict[str, str],
    gold: list[tuple[str, str]],
    asked: list[tuple[str, str]],
    per_task: int,
) -> list[tuple[dict, list[str]]]:
    """(item, concept ids it names) pairs. Task 1 and 3 gold answers come from
    the `gold` edges; task 2 and 4 concepts and gold lists from `asked`."""
    succ, pred = adjacency(gold)
    _, asked_pred = adjacency(asked)
    reach = {cid: reachable_from(succ, cid) for cid in ids}
    ordered = sorted(ids)
    with_reach = [cid for cid in ordered if reach[cid]]
    out: list[tuple[dict, list[str]]] = []

    def add(task: int, answer, *named: str) -> None:
        question = QUESTION_TEMPLATES[task].format(**dict(zip("ab", (names[c] for c in named))))
        out.append(({"task": task, "question": question, "answer": answer}, list(named)))

    for k in range(per_task):
        a, b = rng.sample(ordered, 2)
        if k % 2 == 0 and reach[a]:
            b = rng.choice(sorted(reach[a]))
        add(1, "Yes" if b in reach[a] else "No", a, b)
    for t in scheduled_targets(rng, asked_pred, ordered, 3, PREREQ_PATHS, per_task):
        add(2, [names[c] for c in in_closure(asked_pred, t, 3)[:GOLD_PREREQS]], t)
    for _ in range(per_task):
        a = rng.choice(with_reach)
        b = rng.choice(sorted(reach[a]))
        add(3, [names[c] for c in shortest_route(succ, a, b)], a, b)
    for t in scheduled_targets(rng, asked_pred, ordered, 2, NEIGHBOR_PATHS, per_task):
        add(4, [names[c] for c in in_closure(asked_pred, t, 2)[:GOLD_NEIGHBORS]], t)
    for _ in range(per_task):
        t = rng.choice(ordered)
        add(5, f"A project on {names[t]}.", t)
    return out


def corpus_lines(rng: random.Random, ids: list[str], names: dict[str, str], count: int) -> list[str]:
    lines = []
    for _ in range(count):
        words: list[str] = []
        for cid in rng.sample(ids, MENTIONS_PER_DOC):
            words.extend(rng.choices(_FILLER, k=rng.randint(8, 14)))
            words.append(names[cid])
        words.extend(rng.choices(_FILLER, k=rng.randint(4, 10)))
        lines.append(" ".join(words) + ".")
    return lines


def embeddings(
    seed: int, ids: list[str], names: dict[str, str], edges: list[tuple[str, str]], dim: int
) -> list[dict]:
    """Gaussian vectors plus source and target directions scaled by degree."""
    rng = np.random.default_rng(seed)
    scale = EMBED_SCALE / np.sqrt(dim)
    index = {cid: i for i, cid in enumerate(ids)}
    x = rng.normal(0.0, scale, size=(len(ids), dim))
    signal = rng.normal(0.0, scale, size=(2, dim))
    degree = np.zeros((len(ids), 2))
    for a, b in edges:
        degree[index[a], 0] += 1
        degree[index[b], 1] += 1
    x += (degree / np.maximum(degree.max(axis=0), 1)) @ signal
    return [{"concept": names[cid], "vector": [round(float(v), 6) for v in x[index[cid]]]} for cid in ids]


def _write_rows(path: Path, rows) -> None:
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


def generate(seed: int, out: Path, sizes: Sizes = FULL) -> Path:
    """Write every benchmark input for `seed` under `out`; returns `out`."""
    from conceptgraph.corpus import RetrievalIndex, ingest
    from conceptgraph.textnorm import VocabularyMatcher, ordered_unique

    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    ids = [f"c{i:03d}" for i in range(sizes.concepts)]
    names = dict(zip(ids, concept_names(rng, sizes.concepts)))
    _write_rows(out / "concepts.tsv", [(cid, names[cid]) for cid in ids])

    uniform = uniform_dag(rng, ids, sizes.uniform_edges)
    _write_rows(out / "uniform-dag.tsv", uniform)
    hub = hub_dag(rng, ids)
    _write_rows(out / "hub-dag.tsv", hub)
    noisy = flip_pairs(rng, ids, hub, NOISE_P)
    _write_rows(out / "noisy.tsv", noisy)

    present = set(uniform)
    non_edges = [(a, b) for a in ids for b in ids if a != b and (a, b) not in present]
    negatives = sorted(rng.sample(non_edges, len(uniform)))
    labels = [(a, b, 1) for a, b in uniform] + [(a, b, 0) for a, b in negatives]
    _write_rows(out / "labels.tsv", labels)
    _write_rows(out / "train-pairs.tsv", [(names[a], names[b], y) for a, b, y in labels])
    _write_rows(out / "train-edges.tsv", sorted(rng.sample(uniform, len(uniform) // 2)))

    lines = corpus_lines(rng, ids, names, sizes.documents)
    (out / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    documents = ingest(lines, source="corpus.txt")
    if len(documents) != sizes.documents:
        raise SystemExit(f"corpus kept {len(documents)} of {sizes.documents} documents")
    RetrievalIndex(documents).save(out / "rag-index.json")

    _write_jsonl(out / "embeddings.jsonl", embeddings(seed, ids, names, uniform, sizes.embed_dim))

    keyed = tutorqa_items(rng, ids, names, hub, noisy, sizes.questions_per_task)
    matcher = VocabularyMatcher(names.values())
    for item, named in keyed:
        found = ordered_unique(matcher.scan(item["question"]))
        if found != [names[c] for c in named]:
            raise SystemExit(f"question names {found}, expected {named}: {item['question']!r}")
    _write_jsonl(out / "tutorqa.jsonl", [item for item, _ in keyed])
    _write_jsonl(out / "tutorqa-key.jsonl", [{"task": i["task"], "concepts": c} for i, c in keyed])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    generate(args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
