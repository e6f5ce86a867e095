"""Immutable directed concept graph with path enumeration.

Nodes are concepts (stable string id plus display name); a directed edge
(a, b) records that a is a prerequisite of b. Cycles are allowed, so
every traversal here either walks breadth-first over a visited set or
enumerates simple paths (no repeated node) with a depth bound.
"""
from __future__ import annotations

import csv
import io
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import files
from .textnorm import normalize_name


class GraphError(Exception):
    """Base class for graph construction and traversal failures."""


class UnknownConcept(GraphError):
    """An id or name does not resolve to a concept in the graph."""


class SelfLoop(GraphError):
    """Self-referential edges are rejected everywhere."""


class OrderingMismatch(GraphError):
    """A node ordering is not a permutation of the graph's concept ids."""


class TsvFormatError(GraphError):
    """A TSV row does not match the expected column layout."""


@dataclass(frozen=True)
class Concept:
    """A node: stable id, human-readable name, optional domain tag."""

    id: str
    name: str
    domain: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise GraphError("concept id must be non-empty")
        if not self.name.strip():
            raise GraphError(f"concept {self.id!r} has an empty name")


@dataclass(frozen=True)
class PathResult:
    """An ordered collection of simple paths (tuples of concept ids).

    Paths are stored sorted lexicographically so two traversals of the
    same graph always compare equal.
    """

    paths: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(sorted(tuple(p) for p in self.paths)))

    def __bool__(self) -> bool:
        return bool(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    @property
    def is_empty(self) -> bool:
        return not self.paths

    def nodes(self) -> tuple[str, ...]:
        """Unique concept ids over all paths, in scan order."""
        seen: set[str] = set()
        out: list[str] = []
        for path in self.paths:
            for node in path:
                if node not in seen:
                    seen.add(node)
                    out.append(node)
        return tuple(out)


@dataclass(frozen=True)
class EdgeRow:
    """One row of an edge TSV; label 0 marks a negative pair, not an edge."""

    source: str
    target: str
    label: int | None = None


@dataclass(frozen=True)
class ConceptGraph:
    """Immutable graph; all mutating operations return a new instance."""

    concepts: tuple[Concept, ...]
    edges: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.concepts, key=lambda c: c.id))
        object.__setattr__(self, "concepts", ordered)
        object.__setattr__(
            self, "edges", frozenset((str(a), str(b)) for a, b in self.edges)
        )
        ids = [c.id for c in ordered]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise GraphError(f"duplicate concept ids: {dupes}")
        names = [normalize_name(c.name) for c in ordered]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise GraphError(f"concept names collide after normalization: {dupes}")
        known = set(ids)
        for a, b in sorted(self.edges):
            if a == b:
                raise SelfLoop(f"edge ({a!r}, {b!r}) is a self-loop")
            for endpoint in (a, b):
                if endpoint not in known:
                    raise UnknownConcept(f"edge endpoint {endpoint!r} is not a concept")

    # -- lookup ---------------------------------------------------------

    @cached_property
    def _by_id(self) -> dict[str, Concept]:
        return {c.id: c for c in self.concepts}

    @cached_property
    def _by_name(self) -> dict[str, Concept]:
        return {normalize_name(c.name): c for c in self.concepts}

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.concepts)

    def concept(self, concept_id: str) -> Concept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise UnknownConcept(f"no concept with id {concept_id!r}") from None

    def resolve(self, name: str) -> Concept:
        """Look a concept up by display name (case/whitespace-insensitive)."""
        try:
            return self._by_name[normalize_name(name)]
        except KeyError:
            raise UnknownConcept(f"no concept named {name!r}") from None

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._by_id

    def path_names(self, path: Sequence[str]) -> tuple[str, ...]:
        return tuple(self.concept(cid).name for cid in path)

    # -- adjacency ------------------------------------------------------

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {c.id: [] for c in self.concepts}
        for a, b in self.edges:
            out[a].append(b)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {c.id: [] for c in self.concepts}
        for a, b in self.edges:
            out[b].append(a)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def add_edge(self, source_id: str, target_id: str) -> "ConceptGraph":
        """New graph with the edge added; adding an existing edge is a no-op."""
        if source_id == target_id:
            raise SelfLoop(f"cannot add self-loop on {source_id!r}")
        for endpoint in (source_id, target_id):
            if endpoint not in self._by_id:
                raise UnknownConcept(f"no concept with id {endpoint!r}")
        if (source_id, target_id) in self.edges:
            return self
        return ConceptGraph(self.concepts, self.edges | {(source_id, target_id)})

    # -- traversal ------------------------------------------------------

    def has_path(self, source_id: str, target_id: str) -> bool:
        """True when a walk of one or more edges leads source -> target.

        Walk semantics keep reachability transitive on cyclic graphs:
        has_path(a, a) is true exactly when a sits on a cycle.
        """
        self.concept(source_id)
        self.concept(target_id)
        frontier = deque(self.successors[source_id])
        visited: set[str] = set(frontier)
        while frontier:
            node = frontier.popleft()
            if node == target_id:
                return True
            for nxt in self.successors[node]:
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)
        return False

    def shortest_path(self, source_id: str, target_id: str) -> PathResult:
        """Every minimum-hop path source -> target; empty when unreachable.

        source == target yields an empty result: a zero-hop path carries
        no edges and a cycle back to the start is never minimal.
        """
        self.concept(source_id)
        self.concept(target_id)
        if source_id == target_id:
            return PathResult()
        dist: dict[str, int] = {source_id: 0}
        frontier = deque([source_id])
        while frontier:
            node = frontier.popleft()
            if node == target_id:
                break
            for nxt in self.successors[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    frontier.append(nxt)
        if target_id not in dist:
            return PathResult()
        # Walk backwards through the BFS layering; every minimum-hop
        # path is simple, so no visited bookkeeping is needed. The stack is
        # explicit, so path length is not limited by the recursion limit.
        paths: list[tuple[str, ...]] = []
        pending: list[tuple[str, ...]] = [(target_id,)]
        while pending:
            backwards = pending.pop()
            node = backwards[-1]
            if node == source_id:
                paths.append(backwards[::-1])
                continue
            for prev in self.predecessors[node]:
                if dist.get(prev) == dist[node] - 1:
                    pending.append(backwards + (prev,))
        return PathResult(tuple(paths))

    def _simple_paths_from(
        self, start: str, neighbors: dict[str, tuple[str, ...]], max_hops: int
    ) -> list[tuple[str, ...]]:
        if max_hops < 1:
            raise GraphError(f"hop bound must be at least 1, got {max_hops}")
        # an explicit stack, so the hop bound alone limits path length
        found: list[tuple[str, ...]] = []
        pending: list[tuple[str, ...]] = [(start,)]
        while pending:
            path = pending.pop()
            for nxt in neighbors[path[-1]]:
                if nxt in path:
                    continue
                extended = path + (nxt,)
                found.append(extended)
                if len(extended) <= max_hops:
                    pending.append(extended)
        return found

    def neighborhood_paths(
        self, concept_id: str, direction: str, max_hops: int
    ) -> PathResult:
        """Simple paths of 1..max_hops edges touching the concept.

        direction "out" walks edges forward (paths start at the concept);
        "in" walks them backward and reports each path in forward edge
        orientation, ending at the concept.
        """
        self.concept(concept_id)
        if direction == "out":
            return PathResult(
                tuple(self._simple_paths_from(concept_id, self.successors, max_hops))
            )
        if direction == "in":
            raw = self._simple_paths_from(concept_id, self.predecessors, max_hops)
            return PathResult(tuple(tuple(reversed(p)) for p in raw))
        raise GraphError(f"direction must be 'in' or 'out', got {direction!r}")

    def prerequisite_paths(self, target_id: str, max_depth: int) -> PathResult:
        """Simple prerequisite chains of 1..max_depth edges ending at the
        target, in forward edge orientation."""
        return self.neighborhood_paths(target_id, "in", max_depth)

    # -- matrix form ----------------------------------------------------

    def adjacency(self, ordering: Sequence[str]) -> np.ndarray:
        """Dense 0/1 adjacency under the given id ordering.

        The ordering must be a permutation of the graph's concept ids.
        """
        if sorted(ordering) != sorted(self.ids) or len(ordering) != len(self.ids):
            raise OrderingMismatch(
                "ordering must list every concept id exactly once"
            )
        index = {cid: i for i, cid in enumerate(ordering)}
        matrix = np.zeros((len(ordering), len(ordering)), dtype=np.int64)
        for a, b in self.edges:
            matrix[index[a], index[b]] = 1
        return matrix

    @classmethod
    def from_adjacency(
        cls, concepts: Sequence[Concept], matrix: np.ndarray
    ) -> "ConceptGraph":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {matrix.shape}")
        if matrix.shape[0] != len(concepts):
            raise GraphError(
                f"adjacency is {matrix.shape[0]}x{matrix.shape[0]} "
                f"but {len(concepts)} concepts were given"
            )
        ids = [c.id for c in concepts]
        edges = {
            (ids[i], ids[j])
            for i, j in zip(*np.nonzero(matrix), strict=True)
        }
        return cls(tuple(concepts), frozenset(edges))


# -- TSV interchange -----------------------------------------------------


def load_concepts(path: str | Path) -> list[Concept]:
    """Read `id<TAB>name` rows; blank lines are skipped."""
    out: list[Concept] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise TsvFormatError(
                    f"{path}:{lineno}: expected 2 columns, got {len(row)}"
                )
            out.append(Concept(id=row[0].strip(), name=row[1].strip()))
    return out


def _write_tsv(path: str | Path, records: Iterable[Sequence[str]]) -> None:
    buffer = io.StringIO()
    csv.writer(buffer, delimiter="\t", lineterminator="\n").writerows(records)
    files.write_text_atomic(path, buffer.getvalue())


def save_concepts(concepts: Iterable[Concept], path: str | Path) -> None:
    _write_tsv(path, ([concept.id, concept.name] for concept in concepts))


def load_edge_rows(path: str | Path) -> list[EdgeRow]:
    """Read `source<TAB>target[<TAB>label]` rows; labels must be 0 or 1."""
    out: list[EdgeRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) not in (2, 3):
                raise TsvFormatError(
                    f"{path}:{lineno}: expected 2 or 3 columns, got {len(row)}"
                )
            label: int | None = None
            if len(row) == 3:
                try:
                    label = int(row[2])
                except ValueError:
                    raise TsvFormatError(
                        f"{path}:{lineno}: label must be an integer, got {row[2]!r}"
                    ) from None
                if label not in (0, 1):
                    raise TsvFormatError(
                        f"{path}:{lineno}: label must be 0 or 1, got {label}"
                    )
            out.append(EdgeRow(row[0].strip(), row[1].strip(), label))
    return out


def save_edge_rows(rows: Iterable[EdgeRow], path: str | Path) -> None:
    _write_tsv(
        path,
        (
            [row.source, row.target] + ([] if row.label is None else [str(row.label)])
            for row in rows
        ),
    )


def build_graph(concepts: Sequence[Concept], rows: Iterable[EdgeRow]) -> ConceptGraph:
    """Assemble a graph from TSV rows; label-0 rows are negatives and are
    not added as edges."""
    edges = frozenset((row.source, row.target) for row in rows if row.label != 0)
    return ConceptGraph(tuple(concepts), edges)
