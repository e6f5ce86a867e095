"""Two-stage QA pipeline: prompts, fallback protocol, traces, JSONL.

End-to-end behavior is checked with deterministic mock oracles; Task 1
batch answers are verified against direct graph reachability.
"""
from __future__ import annotations

import dataclasses
import random

import pytest

from conceptgraph.graph import Concept, ConceptGraph
from conceptgraph.llm import (
    GarbageCommandOracle,
    GroundedAnswerOracle,
    TemplateCommandOracle,
)
from conceptgraph.metrics import binary_report, concept_mentions
from conceptgraph.pipeline import (
    EMPTY_SECTION,
    FallbackExhausted,
    PipelineError,
    PipelineTrace,
    TutorQaFormatError,
    TutorQaItem,
    build_command_prompt,
    build_grounding_prompt,
    build_proposal_prompt,
    extract_concepts,
    generate_command,
    ground_and_answer,
    load_traces,
    load_tutorqa,
    oracle_from_trace,
    parse_concept_list,
    render_path_section,
    run_items,
    run_task,
    run_task_5,
    save_traces,
    save_tutorqa,
)
from conceptgraph.query import Neighbors, Reachable, execute, parse_query, render_query
from conceptgraph.recovery import RETRY_SUFFIX, UnparseableVerdict

NAMES = [
    "Probability",
    "Hidden Markov Model",
    "Viterbi Algorithm",
    "Word Distributions",
    "Sentence Simplification",
    "Syntax Trees",
]
EDGES = [(0, 1), (1, 2), (0, 3), (3, 4)]


@pytest.fixture()
def graph() -> ConceptGraph:
    concepts = tuple(
        Concept(id=f"c{i}", name=name) for i, name in enumerate(NAMES)
    )
    return ConceptGraph(
        concepts, frozenset((f"c{a}", f"c{b}") for a, b in EDGES)
    )


def item1(a: str, b: str, answer: str) -> TutorQaItem:
    return TutorQaItem(
        task=1,
        question=f"I know about {a}. Can I proceed to learn {b} directly?",
        answer=answer,
    )


# -- items ---------------------------------------------------------------------


def test_item_validation():
    assert TutorQaItem(1, "q", "Yes").answer == "Yes"
    with pytest.raises(PipelineError):
        TutorQaItem(1, "q", "yes")
    with pytest.raises(PipelineError):
        TutorQaItem(6, "q", "Yes")
    with pytest.raises(PipelineError):
        TutorQaItem(2, "q", "not a list")
    with pytest.raises(PipelineError):
        TutorQaItem(2, "q", [])
    with pytest.raises(PipelineError):
        TutorQaItem(3, "q", ["ok", "  "])
    with pytest.raises(PipelineError):
        TutorQaItem(5, "q", ["lists", "are", "wrong"])
    with pytest.raises(PipelineError):
        TutorQaItem(1, "   ", "Yes")
    listy = TutorQaItem(2, "q", ["a", "b"])
    assert listy.answer == ("a", "b")
    assert TutorQaItem(5, "q", "free text").answer == "free text"


# -- prompts --------------------------------------------------------------------


def test_command_prompt_shape():
    prompt = build_command_prompt("Can I learn X?", 3)
    assert prompt.startswith("You can query a concept graph with one command.\n\n")
    assert "REACHABLE" in prompt and "NEIGHBORS" in prompt
    assert "Task 3 question:\nCan I learn X?\n\n" in prompt
    assert prompt.endswith("Reply with exactly one command on a single line, nothing else.")
    with pytest.raises(PipelineError):
        build_command_prompt("q", 5)


def test_generate_command_passes_text_through(graph):
    vocab = [c.name for c in graph.concepts]
    question = "I know about Probability. Can I learn the Viterbi Algorithm?"
    assert (
        generate_command(question, 1, TemplateCommandOracle(vocab))
        == 'REACHABLE "Probability" -> "Viterbi Algorithm"'
    )
    assert (
        generate_command(question, 3, TemplateCommandOracle(vocab))
        == 'SHORTEST "Probability" -> "Viterbi Algorithm"'
    )
    assert generate_command(question, 2, GarbageCommandOracle()) == (
        "FOO ??? not a command"
    )


def test_grounding_prompt_exact_text(graph):
    outcome = execute(Reachable("Probability", "Viterbi Algorithm"), graph)
    prompt = build_grounding_prompt("Q?", outcome)
    assert prompt == (
        "There is a concept graph that includes the relations between concepts.\n"
        "Based on the question, the path between concepts has been returned.\n"
        "If the path is empty, then there is no relationship.\n"
        "Only use the returned path as the information for answering.\n"
        'Only return "Yes" or "No".\n'
        "***Question**:\n"
        "Q?\n"
        "***Path**:\n"
        "Probability;Hidden Markov Model;Viterbi Algorithm"
    )


def test_list_grounding_prompt_omits_yes_no_rule(graph):
    outcome = execute(parse_query('PREREQ "Viterbi Algorithm" DEPTH 3'), graph)
    prompt = build_grounding_prompt("Q?", outcome)
    assert 'Only return "Yes" or "No".' not in prompt
    assert "***Path**:" in prompt


def test_render_path_section():
    assert render_path_section((("a", "b", "c"),)) == "a;b;c"
    assert render_path_section((("a", "b"), ("c", "d"))) == "a;b\nc;d"
    assert render_path_section(()) == EMPTY_SECTION


# -- concept extraction -----------------------------------------------------------


def test_extract_concepts_in_question_order():
    got = extract_concepts(
        "I know about word distributions, now I want to learn about"
        " sentence simplification.",
        NAMES,
    )
    assert got == ["Word Distributions", "Sentence Simplification"]
    assert extract_concepts("nothing known here", NAMES) == []
    with pytest.raises(PipelineError):
        extract_concepts("q", [])


def test_extract_concepts_agrees_with_mention_counter():
    rng = random.Random(31)
    fillers = ["the", "study", "of", "learning", "with", "data"]
    for _ in range(25):
        words = [
            rng.choice(NAMES) if rng.random() < 0.4 else rng.choice(fillers)
            for _ in range(rng.randint(1, 12))
        ]
        text = " ".join(words)
        extracted = set(extract_concepts(text, NAMES))
        _, _, counts = concept_mentions(text, NAMES)
        assert extracted == set(counts)


# -- grounded answering ------------------------------------------------------------


def test_ground_and_answer_yes_no(graph):
    oracle = GroundedAnswerOracle()
    linked = execute(Reachable("Probability", "Viterbi Algorithm"), graph)
    assert ground_and_answer("Q?", linked, oracle) == "Yes"
    apart = execute(Reachable("Syntax Trees", "Probability"), graph)
    assert ground_and_answer("Q?", apart, oracle) == "No"


def test_ground_and_answer_retries_once_then_fails(graph):
    outcome = execute(Reachable("Probability", "Viterbi Algorithm"), graph)

    seen: list[str] = []

    def wobbly(prompt: str) -> str:
        seen.append(prompt)
        return "I cannot say" if len(seen) == 1 else "fine: YES then"

    assert ground_and_answer("Q?", outcome, wobbly) == "Yes"
    assert len(seen) == 2
    assert seen[1] == seen[0] + RETRY_SUFFIX

    with pytest.raises(UnparseableVerdict):
        ground_and_answer("Q?", outcome, lambda p: "shrug")


def test_ground_and_answer_list_answers_verbatim(graph):
    outcome = execute(parse_query('PREREQ "Viterbi Algorithm" DEPTH 3'), graph)
    answer = ground_and_answer("What first?", outcome, GroundedAnswerOracle())
    assert answer == "Probability; Hidden Markov Model; Viterbi Algorithm"


# -- run_task ------------------------------------------------------------------------


def oracles(graph):
    vocab = [c.name for c in graph.concepts]
    return TemplateCommandOracle(vocab), GroundedAnswerOracle()


def test_task1_happy_path(graph):
    command_oracle, answer_oracle = oracles(graph)
    answer, trace = run_task(
        item1("Probability", "Viterbi Algorithm", "Yes"),
        graph,
        command_oracle,
        answer_oracle,
    )
    assert answer == "Yes"
    assert trace.fallback_used is False
    assert trace.parsed_query == Reachable("Probability", "Viterbi Algorithm")
    assert trace.generated_command == 'REACHABLE "Probability" -> "Viterbi Algorithm"'
    assert trace.final_answer == "Yes"
    assert "***Path**:" in trace.grounding_prompt

    answer, trace = run_task(
        item1("Viterbi Algorithm", "Probability", "No"),
        graph,
        command_oracle,
        answer_oracle,
    )
    assert answer == "No" and trace.fallback_used is False


def test_garbage_command_falls_back(graph):
    _, answer_oracle = oracles(graph)
    answer, trace = run_task(
        item1("Probability", "Viterbi Algorithm", "Yes"),
        graph,
        GarbageCommandOracle(),
        answer_oracle,
    )
    assert answer == "Yes"
    assert trace.fallback_used is True
    assert trace.generated_command == "FOO ??? not a command"
    assert trace.parsed_query == Reachable("Probability", "Viterbi Algorithm")
    # fallback commands always come from the canonical printer
    assert parse_query(render_query(trace.parsed_query)) == trace.parsed_query


def test_unresolvable_command_falls_back(graph):
    _, answer_oracle = oracles(graph)

    def wrong_names(prompt: str) -> str:
        return 'REACHABLE "unknown" -> "unknown"'

    answer, trace = run_task(
        item1("Probability", "Word Distributions", "Yes"),
        graph,
        wrong_names,
        answer_oracle,
    )
    assert answer == "Yes" and trace.fallback_used is True


def test_fallback_exhausted_without_mentions(graph):
    _, answer_oracle = oracles(graph)
    item = TutorQaItem(1, "no graph concepts appear here", "No")
    with pytest.raises(FallbackExhausted):
        run_task(item, graph, GarbageCommandOracle(), answer_oracle)


def test_task2_and_task3_routes(graph):
    command_oracle, answer_oracle = oracles(graph)
    prereq_item = TutorQaItem(
        2,
        "What should I study before the Hidden Markov Model?",
        ["Probability"],
    )
    answer, trace = run_task(prereq_item, graph, command_oracle, answer_oracle)
    assert "Probability" in answer
    assert trace.parsed_query == parse_query('PREREQ "Hidden Markov Model" DEPTH 3')

    path_item = TutorQaItem(
        3,
        "I know about word distributions, now I want to learn about"
        " sentence simplification.",
        ["Word Distributions", "Sentence Simplification"],
    )
    answer, trace = run_task(path_item, graph, command_oracle, answer_oracle)
    assert parse_concept_list(answer) == [
        "Word Distributions",
        "Sentence Simplification",
    ]


def test_task4_fallback_unions_neighborhoods(graph):
    _, answer_oracle = oracles(graph)
    item = TutorQaItem(
        4,
        "I struggled with Viterbi Algorithm and Sentence Simplification.",
        ["Probability"],
    )
    answer, trace = run_task(item, graph, GarbageCommandOracle(), answer_oracle)
    assert trace.fallback_used is True
    assert trace.outcome.kind == "neighbors"
    assert trace.outcome.concept_ids == ("c2", "c4")
    names = set(parse_concept_list(answer))
    assert {"Probability", "Hidden Markov Model", "Word Distributions"} <= names
    direct = execute(Neighbors("Viterbi Algorithm", "in", 2), graph)
    assert set(direct.payload.paths) <= set(trace.outcome.payload.paths)


def test_task1_batch_matches_graph_reachability(graph):
    command_oracle, answer_oracle = oracles(graph)
    rng = random.Random(90)
    items, gold = [], []
    for _ in range(40):
        a, b = rng.sample(NAMES, 2)
        reachable = graph.has_path(graph.resolve(a).id, graph.resolve(b).id)
        gold.append("Yes" if reachable else "No")
        items.append(item1(a, b, gold[-1]))
    results = run_items(items, graph, command_oracle, answer_oracle)
    answers = [answer for answer, _ in results]
    assert answers == gold
    assert binary_report(answers, gold).accuracy == 1.0


def test_run_items_concurrency_is_invisible(graph):
    command_oracle, answer_oracle = oracles(graph)
    rng = random.Random(91)
    items = []
    for _ in range(12):
        a, b = rng.sample(NAMES, 2)
        items.append(item1(a, b, "Yes" if graph.has_path(
            graph.resolve(a).id, graph.resolve(b).id) else "No"))
    serial = run_items(items, graph, command_oracle, answer_oracle, concurrency=1)
    threaded = run_items(items, graph, command_oracle, answer_oracle, concurrency=4)
    assert serial == threaded
    with pytest.raises(PipelineError):
        run_items(items, graph, command_oracle, answer_oracle, concurrency=0)


# -- task 5 -------------------------------------------------------------------------


def test_task5_proposal_grounded_on_neighborhood(graph):
    item = TutorQaItem(
        5,
        "I want to build a project around the Hidden Markov Model."
        " What related concepts should I review?",
        "open ended",
    )
    answer, trace = run_task(item, graph, GarbageCommandOracle(), GroundedAnswerOracle())
    assert "Hidden Markov Model" in answer
    assert "Probability" in answer and "Viterbi Algorithm" in answer
    assert trace.parsed_query is None and trace.outcome is None
    assert trace.fallback_used is True
    assert trace.generated_command == ""
    assert "***Neighborhood**:" in trace.grounding_prompt

    bare = TutorQaItem(5, "nothing the graph knows about", "open")
    answer, trace = run_task_5(bare, graph, GroundedAnswerOracle())
    assert "No related concepts" in answer
    assert EMPTY_SECTION in trace.grounding_prompt


def test_proposal_prompt_shape():
    prompt = build_proposal_prompt("How?", ["a", "b"])
    assert prompt.endswith("***Neighborhood**:\na; b")
    assert "***Question**:\nHow?" in prompt
    assert build_proposal_prompt("How?", []).endswith(EMPTY_SECTION)


def test_run_task_5_rejects_other_tasks(graph):
    with pytest.raises(PipelineError):
        run_task_5(item1("Probability", "Syntax Trees", "No"), graph, lambda p: "")


# -- traces --------------------------------------------------------------------------


def test_trace_invariants():
    with pytest.raises(PipelineError):
        PipelineTrace(
            question="q",
            generated_command="",
            parsed_query=None,
            outcome=None,
            grounding_prompt="***Path**:\nEMPTY",
            final_answer="",
            fallback_used=False,
        )
    with pytest.raises(PipelineError):
        PipelineTrace(
            question="q",
            generated_command="",
            parsed_query=None,
            outcome=None,
            grounding_prompt="no sections at all",
            final_answer="",
            fallback_used=True,
        )


def test_trace_replay_reproduces_answers(graph):
    command_oracle, answer_oracle = oracles(graph)
    cases = [
        (item1("Probability", "Viterbi Algorithm", "Yes"), command_oracle),
        (item1("Probability", "Viterbi Algorithm", "Yes"), GarbageCommandOracle()),
        (
            TutorQaItem(
                2, "What comes before the Hidden Markov Model?", ["Probability"]
            ),
            command_oracle,
        ),
        (
            TutorQaItem(5, "A project on Probability please.", "open"),
            command_oracle,
        ),
    ]
    for item, cmd_oracle in cases:
        answer, trace = run_task(item, graph, cmd_oracle, answer_oracle)
        replay = oracle_from_trace(item, trace)
        again, trace2 = run_task(item, graph, replay, replay)
        assert again == answer
        assert trace2 == trace
    with pytest.raises(PipelineError):
        oracle_from_trace(cases[0][0], trace)("never seen prompt")


# -- JSONL interchange ------------------------------------------------------------


def test_tutorqa_round_trip(tmp_path):
    items = [
        TutorQaItem(1, "Can I?", "Yes"),
        TutorQaItem(2, "What first?", ["a", "b"]),
        TutorQaItem(5, "Propose something.", "free"),
    ]
    path = tmp_path / "qa.jsonl"
    save_tutorqa(items, path)
    assert load_tutorqa(path) == items
    save_tutorqa(items, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_tutorqa_format_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TutorQaFormatError, match="line 1"):
        load_tutorqa(path)
    path.write_text('{"task": 1, "question": "q"}\n')
    with pytest.raises(TutorQaFormatError, match="keys"):
        load_tutorqa(path)
    path.write_text('{"task": 1, "question": "q", "answer": "maybe"}\n')
    with pytest.raises(TutorQaFormatError, match="Yes"):
        load_tutorqa(path)


def test_trace_round_trip(tmp_path, graph):
    command_oracle, answer_oracle = oracles(graph)
    traces = []
    for item, oracle in [
        (item1("Probability", "Viterbi Algorithm", "Yes"), command_oracle),
        (item1("Probability", "Syntax Trees", "No"), GarbageCommandOracle()),
        (TutorQaItem(5, "A project on Probability.", "x"), command_oracle),
    ]:
        _, trace = run_task(item, graph, oracle, answer_oracle)
        traces.append(trace)
    path = tmp_path / "traces.jsonl"
    save_traces(traces, path)
    assert load_traces(path) == traces
    save_traces(traces, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"question": "q"}\n')
    with pytest.raises(TutorQaFormatError):
        load_traces(bad)


def test_unicode_line_breaks_survive_save_and_load(tmp_path, graph):
    # json leaves U+2028 and U+0085 unescaped, so they must not end a row
    breaks = "one\u2028two\u0085three"
    items = [
        item1("Probability", f"Viterbi Algorithm {breaks}", "Yes"),
        TutorQaItem(3, f"Which path{breaks}?", [breaks, "Probability"]),
    ]
    save_tutorqa(items, tmp_path / "qa.jsonl")
    assert load_tutorqa(tmp_path / "qa.jsonl") == items
    command_oracle, answer_oracle = oracles(graph)
    _, trace = run_task(items[0], graph, command_oracle, answer_oracle)
    assert breaks in trace.grounding_prompt
    save_traces([trace], tmp_path / "traces.jsonl")
    assert load_traces(tmp_path / "traces.jsonl") == [trace]


def test_failed_save_leaves_the_previous_traces_file(tmp_path, graph):
    command_oracle, answer_oracle = oracles(graph)
    item = item1("Probability", "Viterbi Algorithm", "Yes")
    _, trace = run_task(item, graph, command_oracle, answer_oracle)
    path = tmp_path / "traces.jsonl"
    save_traces([trace], path)
    before = path.read_bytes()
    unencodable = dataclasses.replace(trace, final_answer=object())
    with pytest.raises(TypeError):
        save_traces([trace, unencodable], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]


def test_parse_concept_list():
    assert parse_concept_list("a; b ;a;") == ["a", "b"]
    assert parse_concept_list("") == []
    assert parse_concept_list("one") == ["one"]
