"""Query language: grammar, canonical printing, execution.

Execution outcomes are checked against direct graph calls that bypass
the parser; parser totality is fuzzed with random byte strings.
"""
from __future__ import annotations

import random
import re
import string

import pytest

from conceptgraph.graph import Concept, ConceptGraph, PathResult, UnknownConcept
from conceptgraph.query import (
    GRAMMAR_REFERENCE,
    Neighbors,
    Prerequisites,
    QueryError,
    QueryOutcome,
    QuerySyntaxError,
    Reachable,
    ShortestPath,
    execute,
    merge_path_outcomes,
    parse_query,
    render_query,
)


def make_graph(n: int, edges: list[tuple[int, int]]) -> ConceptGraph:
    concepts = tuple(Concept(id=f"c{i}", name=f"node {i}") for i in range(n))
    return ConceptGraph(concepts, frozenset((f"c{a}", f"c{b}") for a, b in edges))


def random_ast(rng: random.Random):
    def name() -> str:
        alphabet = string.ascii_letters + ' "\\é→\n\t-'
        while True:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            if text:
                return text

    kind = rng.randrange(4)
    if kind == 0:
        return Reachable(name(), name())
    if kind == 1:
        return ShortestPath(name(), name())
    if kind == 2:
        return Prerequisites(name(), rng.randint(1, 9))
    return Neighbors(name(), rng.choice(["in", "out"]), rng.randint(1, 9))


# -- parsing ------------------------------------------------------------------


def test_parse_each_command_form():
    assert parse_query(
        'SHORTEST "word distributions" -> "sentence simplification"'
    ) == ShortestPath("word distributions", "sentence simplification")
    assert parse_query('REACHABLE "x" -> "y"') == Reachable("x", "y")
    assert parse_query('PREREQ "x" DEPTH 3') == Prerequisites("x", 3)
    assert parse_query('NEIGHBORS "x" IN HOPS 2') == Neighbors("x", "in", 2)
    assert parse_query('NEIGHBORS "x" OUT HOPS 11') == Neighbors("x", "out", 11)


def test_parse_self_reference_is_admitted():
    assert parse_query('REACHABLE "a" -> "a"') == Reachable("a", "a")


def test_parse_is_case_and_whitespace_insensitive():
    assert parse_query('  reachable\t"x"->"y"  \n') == Reachable("x", "y")
    assert parse_query('Neighbors "x" Out hops 2') == Neighbors("x", "out", 2)


def test_parse_handles_escapes():
    assert parse_query('PREREQ "say \\"hi\\"" DEPTH 1') == Prerequisites('say "hi"', 1)
    assert parse_query('PREREQ "a\\\\b" DEPTH 1') == Prerequisites("a\\b", 1)
    assert parse_query('PREREQ "line\nbreak" DEPTH 1') == Prerequisites(
        "line\nbreak", 1
    )


def failure(text: str) -> QuerySyntaxError:
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    return info.value


def test_unquoted_name_fails_at_its_offset():
    err = failure('SHORTEST a -> b')
    assert err.offset == 9
    assert err.expected == ('"',)


def test_error_offsets_and_expectations():
    err = failure("WALK somewhere")
    assert err.offset == 0
    assert set(err.expected) == {"REACHABLE", "SHORTEST", "PREREQ", "NEIGHBORS"}

    err = failure('REACHABLE "a" "b"')
    assert err.expected == ("->",) and err.offset == 14

    err = failure('PREREQ "a" DEEP 3')
    assert err.expected == ("DEPTH",) and err.offset == 11

    err = failure('NEIGHBORS "a" SIDEWAYS HOPS 1')
    assert set(err.expected) == {"IN", "OUT"} and err.offset == 14

    err = failure('NEIGHBORS "a" IN JUMPS 1')
    assert err.expected == ("HOPS",)

    err = failure('PREREQ "a" DEPTH 0')
    assert err.expected == ("positive integer",) and err.offset == 17

    err = failure('PREREQ "a" DEPTH x')
    assert err.expected == ("positive integer",)

    err = failure('REACHABLE "a" -> "b" extra')
    assert err.expected == ("end of input",) and err.offset == 21

    err = failure('REACHABLE "a" -> "b')
    assert err.expected == ('closing "',) and err.offset == 17

    err = failure('PREREQ "" DEPTH 1')
    assert err.expected == ("non-empty concept name",) and err.offset == 7

    err = failure('PREREQ "a\\')
    assert err.expected == ("escaped character",)

    err = failure("")
    assert err.offset == 0


def test_offsets_are_bytes_not_characters():
    text = 'REACHABLE "é" -> x'
    err = failure(text)
    prefix = text[: text.index("x")]
    assert err.offset == len(prefix.encode("utf-8"))
    assert err.offset != len(prefix)


# -- printing -----------------------------------------------------------------


def test_render_canonical_forms():
    assert render_query(Prerequisites("x", 3)) == 'PREREQ "x" DEPTH 3'
    assert render_query(Reachable("a", "b")) == 'REACHABLE "a" -> "b"'
    assert render_query(ShortestPath("a", "b")) == 'SHORTEST "a" -> "b"'
    assert render_query(Neighbors("x", "in", 2)) == 'NEIGHBORS "x" IN HOPS 2'


def test_render_escapes_re_parse():
    query = Reachable('say "hi"', "back\\slash")
    text = render_query(query)
    assert '\\"' in text and "\\\\" in text
    assert parse_query(text) == query


def test_parse_render_round_trip_on_random_asts():
    rng = random.Random(8101)
    for _ in range(300):
        ast = random_ast(rng)
        assert parse_query(render_query(ast)) == ast


def test_render_parse_is_canonicalizing():
    sloppy = '  shortest   "a b"->"c"  '
    once = render_query(parse_query(sloppy))
    assert once == 'SHORTEST "a b" -> "c"'
    assert render_query(parse_query(once)) == once


def test_render_rejects_non_ast():
    with pytest.raises(QueryError):
        render_query("REACHABLE")


# -- AST validation -------------------------------------------------------------


def test_ast_invariants():
    with pytest.raises(QueryError):
        Reachable("", "b")
    with pytest.raises(QueryError):
        Prerequisites("x", 0)
    with pytest.raises(QueryError):
        Prerequisites("x", True)
    with pytest.raises(QueryError):
        Neighbors("x", "sideways", 1)
    with pytest.raises(QueryError):
        Neighbors("x", "in", 0)


def test_outcome_payload_validation():
    with pytest.raises(QueryError):
        QueryOutcome("sideways", PathResult(), ("c0",), ())
    # named paths must align one-to-one with id paths
    with pytest.raises(QueryError):
        QueryOutcome("shortest", PathResult((("c0", "c1"),)), ("c0", "c1"), ())


# -- fuzzing --------------------------------------------------------------------


def test_parser_is_total_on_random_bytes():
    rng = random.Random(999)
    pieces = [
        "REACHABLE",
        "SHORTEST",
        "PREREQ",
        "NEIGHBORS",
        "DEPTH",
        "HOPS",
        '"',
        "->",
        "\\",
        " ",
    ]
    for _ in range(2000):
        if rng.random() < 0.5:
            text = "".join(
                chr(rng.randrange(0, 0x500)) for _ in range(rng.randint(0, 40))
            )
        else:
            text = "".join(
                rng.choice(pieces) for _ in range(rng.randint(0, 12))
            )
        try:
            query = parse_query(text)
        except QuerySyntaxError as err:
            assert 0 <= err.offset <= len(text.encode("utf-8"))
            assert err.expected
        else:
            assert parse_query(render_query(query)) == query


# -- execution ----------------------------------------------------------------


def test_reachable_on_chain():
    graph = make_graph(3, [(0, 1), (1, 2)])
    outcome = execute(parse_query('REACHABLE "node 0" -> "node 2"'), graph)
    assert outcome.payload is True
    assert outcome.kind == "reachable"
    assert outcome.concept_ids == ("c0", "c2")
    assert outcome.named_paths == (("node 0", "node 1", "node 2"),)
    back = execute(parse_query('REACHABLE "node 2" -> "node 0"'), graph)
    assert back.payload is False
    assert back.named_paths == ()


def test_self_reachability_is_false_even_on_a_cycle():
    graph = make_graph(2, [(0, 1), (1, 0)])
    assert graph.has_path("c0", "c0")
    outcome = execute(Reachable("node 0", "node 0"), graph)
    assert outcome.payload is False


def test_shortest_on_unreachable_pair_is_empty_not_error():
    graph = make_graph(3, [(0, 1)])
    outcome = execute(ShortestPath("node 2", "node 0"), graph)
    assert isinstance(outcome.payload, PathResult)
    assert not outcome.payload


def test_unknown_concepts_are_errors():
    graph = make_graph(2, [(0, 1)])
    with pytest.raises(UnknownConcept):
        execute(Reachable("node 0", "nowhere"), graph)
    with pytest.raises(UnknownConcept):
        execute(Prerequisites("nowhere", 2), graph)


def test_execution_matches_direct_graph_calls():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.3
        ]
        graph = make_graph(n, edges)
        a, b = rng.randrange(n), rng.randrange(n)
        na, nb = f"node {a}", f"node {b}"
        ca, cb = f"c{a}", f"c{b}"

        reach = execute(Reachable(na, nb), graph)
        assert reach.payload == (a != b and graph.has_path(ca, cb))
        assert reach.payload == bool(reach.named_paths)

        short = execute(ShortestPath(na, nb), graph)
        assert short.payload == graph.shortest_path(ca, cb)
        assert short.named_paths == tuple(
            graph.path_names(p) for p in short.payload.paths
        )

        depth = rng.randint(1, 3)
        prereq = execute(Prerequisites(nb, depth), graph)
        assert prereq.payload == graph.prerequisite_paths(cb, depth)

        direction = rng.choice(["in", "out"])
        hood = execute(Neighbors(na, direction, 2), graph)
        assert hood.payload == graph.neighborhood_paths(ca, direction, 2)


def test_merge_path_outcomes_unions_and_dedupes():
    graph = make_graph(4, [(0, 2), (1, 2), (0, 3)])
    first = execute(Neighbors("node 2", "in", 1), graph)
    second = execute(Neighbors("node 3", "in", 1), graph)
    merged = merge_path_outcomes([first, second])
    assert merged.kind == "neighbors"
    assert set(merged.payload.paths) == set(first.payload.paths) | set(
        second.payload.paths
    )
    assert merged.concept_ids == ("c2", "c3")
    assert merged.named_paths == tuple(
        graph.path_names(p) for p in merged.payload.paths
    )
    twice = merge_path_outcomes([first, first])
    assert twice.payload == first.payload


def test_merge_path_outcomes_rejects_mixed_or_empty():
    graph = make_graph(3, [(0, 1)])
    hood = execute(Neighbors("node 1", "in", 1), graph)
    reach = execute(Reachable("node 0", "node 1"), graph)
    with pytest.raises(QueryError):
        merge_path_outcomes([])
    with pytest.raises(QueryError):
        merge_path_outcomes([hood, reach])
    with pytest.raises(QueryError):
        merge_path_outcomes([reach])


def test_execute_does_not_mutate_the_graph():
    graph = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    before = (graph.concepts, graph.edges)
    execute(Reachable("node 0", "node 3"), graph)
    execute(Neighbors("node 1", "in", 3), graph)
    assert (graph.concepts, graph.edges) == before


# -- grammar reference ----------------------------------------------------------


def test_grammar_reference_covers_all_commands():
    for keyword in ("REACHABLE", "SHORTEST", "PREREQ", "NEIGHBORS", "DEPTH", "HOPS"):
        assert keyword in GRAMMAR_REFERENCE
    # must embed cleanly into task prompts: no section markers, no task lines
    assert "***" not in GRAMMAR_REFERENCE
    assert not re.search(r"^Task [1-5] question:$", GRAMMAR_REFERENCE, re.MULTILINE)
    assert "\n\n" not in GRAMMAR_REFERENCE
