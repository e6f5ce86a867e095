"""A four-command graph query language: parser, printer, executor.

The surface syntax is the wire format between the question-answering
pipeline and whatever emits commands (a language model or a fallback
template). The parser is total: any input string either yields an AST
or a syntax error carrying a byte offset and the expected tokens.

    REACHABLE "<a>" -> "<b>"
    SHORTEST "<a>" -> "<b>"
    PREREQ "<a>" DEPTH <n>
    NEIGHBORS "<a>" <IN|OUT> HOPS <n>

Keywords are case-insensitive; whitespace between tokens is free-form;
quoted names may contain any character, with \" and \\ escapes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graph import Concept, ConceptGraph, PathResult

GRAMMAR_REFERENCE = """\
Commands (keywords are case-insensitive; concept names go in double quotes):
  REACHABLE "<a>" -> "<b>"          can one reach <b> from <a>?
  SHORTEST "<a>" -> "<b>"           every fewest-hop path from <a> to <b>
  PREREQ "<a>" DEPTH <n>            prerequisite paths leading into <a>, up to <n> hops
  NEIGHBORS "<a>" <IN|OUT> HOPS <n> paths along incoming or outgoing edges, up to <n> hops
Write a literal quote inside a name as \\" and a backslash as \\\\.
<n> must be a positive integer."""

_COMMANDS = ("REACHABLE", "SHORTEST", "PREREQ", "NEIGHBORS")
_WHITESPACE = " \t\r\n"


class QueryError(Exception):
    """Base class for query language failures."""


class QuerySyntaxError(QueryError):
    """Input does not match the grammar.

    Carries the byte offset of the failure and the tokens that would
    have been accepted there.
    """

    def __init__(self, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"expected {' | '.join(expected)} at byte {offset}"
        )


def _require_name(name: str) -> None:
    if not name:
        raise QueryError("concept name must be non-empty")


def _require_count(value: int, label: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise QueryError(f"{label} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Reachable:
    a: str
    b: str

    def __post_init__(self) -> None:
        _require_name(self.a)
        _require_name(self.b)


@dataclass(frozen=True)
class ShortestPath:
    a: str
    b: str

    def __post_init__(self) -> None:
        _require_name(self.a)
        _require_name(self.b)


@dataclass(frozen=True)
class Prerequisites:
    a: str
    depth: int

    def __post_init__(self) -> None:
        _require_name(self.a)
        _require_count(self.depth, "depth")


@dataclass(frozen=True)
class Neighbors:
    a: str
    direction: str
    hops: int

    def __post_init__(self) -> None:
        _require_name(self.a)
        if self.direction not in ("in", "out"):
            raise QueryError(
                f"direction must be 'in' or 'out', got {self.direction!r}"
            )
        _require_count(self.hops, "hops")


GraphQuery = Union[Reachable, ShortestPath, Prerequisites, Neighbors]


@dataclass(frozen=True)
class QueryOutcome:
    """What a command returned.

    kind mirrors the command keyword; paths are the id paths the command
    found, which for reachability are the witness shortest paths;
    concept_ids are the resolved ids of the names the command referenced,
    in order. named_paths carries the same paths as concept names for
    prompt rendering.
    """

    kind: str
    paths: PathResult
    concept_ids: tuple[str, ...]
    named_paths: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("reachable", "shortest", "prereq", "neighbors"):
            raise QueryError(f"unknown outcome kind: {self.kind!r}")
        if len(self.named_paths) != len(self.paths):
            raise QueryError(
                f"{len(self.named_paths)} named paths for {len(self.paths)} id paths"
            )

    @property
    def payload(self) -> bool | PathResult:
        """The answer: a boolean for reachability, the paths for everything else."""
        return bool(self.paths) if self.kind == "reachable" else self.paths


class _Parser:
    """Cursor-based recursive descent; offsets are reported in bytes."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    def _byte_offset(self, char_index: int) -> int:
        return len(self._text[:char_index].encode("utf-8"))

    def _fail(self, expected: tuple[str, ...], at: int | None = None) -> None:
        raise QuerySyntaxError(
            self._byte_offset(self._pos if at is None else at), expected
        )

    def _skip_ws(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos] in _WHITESPACE:
            self._pos += 1

    def _keyword(self, options: tuple[str, ...]) -> str:
        self._skip_ws()
        start = self._pos
        while self._pos < len(self._text) and self._text[self._pos].isalpha():
            self._pos += 1
        word = self._text[start : self._pos].upper()
        if not word or word not in options:
            self._pos = start
            self._fail(options, at=start)
        return word

    def _string(self) -> str:
        self._skip_ws()
        start = self._pos
        if start >= len(self._text) or self._text[start] != '"':
            self._fail(('"',))
        self._pos += 1
        chars: list[str] = []
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch == "\\":
                if self._pos + 1 >= len(self._text):
                    self._fail(("escaped character",), at=self._pos)
                chars.append(self._text[self._pos + 1])
                self._pos += 2
            elif ch == '"':
                self._pos += 1
                name = "".join(chars)
                if not name:
                    self._fail(("non-empty concept name",), at=start)
                return name
            else:
                chars.append(ch)
                self._pos += 1
        self._fail(('closing "',), at=start)
        raise AssertionError("unreachable")

    def _arrow(self) -> None:
        self._skip_ws()
        if self._text[self._pos : self._pos + 2] != "->":
            self._fail(("->",))
        self._pos += 2

    def _integer(self) -> int:
        self._skip_ws()
        start = self._pos
        while self._pos < len(self._text) and self._text[self._pos].isdigit():
            self._pos += 1
        if self._pos == start:
            self._fail(("positive integer",))
        value = int(self._text[start : self._pos])
        if value < 1:
            self._pos = start
            self._fail(("positive integer",), at=start)
        return value

    def _end(self) -> None:
        self._skip_ws()
        if self._pos < len(self._text):
            self._fail(("end of input",))

    def parse(self) -> GraphQuery:
        command = self._keyword(_COMMANDS)
        if command in ("REACHABLE", "SHORTEST"):
            a = self._string()
            self._arrow()
            b = self._string()
            self._end()
            return Reachable(a, b) if command == "REACHABLE" else ShortestPath(a, b)
        if command == "PREREQ":
            a = self._string()
            self._keyword(("DEPTH",))
            depth = self._integer()
            self._end()
            return Prerequisites(a, depth)
        a = self._string()
        direction = self._keyword(("IN", "OUT"))
        self._keyword(("HOPS",))
        hops = self._integer()
        self._end()
        return Neighbors(a, direction.lower(), hops)


def parse_query(text: str) -> GraphQuery:
    """Parse one command; raises QuerySyntaxError on anything else."""
    if not isinstance(text, str):
        raise QuerySyntaxError(0, _COMMANDS)
    return _Parser(text).parse()


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_query(query: GraphQuery) -> str:
    """Canonical surface form; parse_query(render_query(q)) == q."""
    if isinstance(query, Reachable):
        return f"REACHABLE {_quote(query.a)} -> {_quote(query.b)}"
    if isinstance(query, ShortestPath):
        return f"SHORTEST {_quote(query.a)} -> {_quote(query.b)}"
    if isinstance(query, Prerequisites):
        return f"PREREQ {_quote(query.a)} DEPTH {query.depth}"
    if isinstance(query, Neighbors):
        return (
            f"NEIGHBORS {_quote(query.a)} {query.direction.upper()}"
            f" HOPS {query.hops}"
        )
    raise QueryError(f"not a query AST: {query!r}")


def _outcome(
    graph: ConceptGraph, kind: str, paths: PathResult, *concepts: Concept
) -> QueryOutcome:
    return QueryOutcome(
        kind, paths, tuple(c.id for c in concepts), tuple(map(graph.path_names, paths))
    )


def execute(query: GraphQuery, graph: ConceptGraph) -> QueryOutcome:
    """Run a parsed command against a graph.

    Raises UnknownConcept when a referenced name does not resolve.
    Reachability of a concept from itself is always false: an empty
    walk does not count and self-loops cannot exist.
    """
    if isinstance(query, (Reachable, ShortestPath)):
        a = graph.resolve(query.a)
        b = graph.resolve(query.b)
        kind = "reachable" if isinstance(query, Reachable) else "shortest"
        return _outcome(graph, kind, graph.shortest_path(a.id, b.id), a, b)
    if isinstance(query, Prerequisites):
        a = graph.resolve(query.a)
        return _outcome(graph, "prereq", graph.prerequisite_paths(a.id, query.depth), a)
    if isinstance(query, Neighbors):
        a = graph.resolve(query.a)
        paths = graph.neighborhood_paths(a.id, query.direction, query.hops)
        return _outcome(graph, "neighbors", paths, a)
    raise QueryError(f"not a query AST: {query!r}")


def merge_path_outcomes(outcomes: "list[QueryOutcome]") -> QueryOutcome:
    """Union several path-valued outcomes of one kind into one.

    Used when a task fans out into one command per concept and the
    grounding stage wants a single combined context.
    """
    if not outcomes:
        raise QueryError("nothing to merge")
    kinds = {outcome.kind for outcome in outcomes}
    if len(kinds) != 1 or "reachable" in kinds:
        raise QueryError(f"cannot merge outcomes of kinds {sorted(kinds)}")
    # one graph names an id path one way, so a later duplicate changes nothing
    names: dict[tuple[str, ...], tuple[str, ...]] = {}
    for outcome in outcomes:
        names.update(zip(outcome.paths, outcome.named_paths))
    ids = dict.fromkeys(cid for outcome in outcomes for cid in outcome.concept_ids)
    merged = PathResult(names)
    return QueryOutcome(kinds.pop(), merged, tuple(ids), tuple(map(names.__getitem__, merged)))
