"""Two-stage question answering over a concept graph.

Stage one asks an oracle to emit a single graph-query command for the
question; stage two executes that command and asks the oracle again,
this time grounded on the returned paths. When the emitted command is
unparseable or references unknown concepts, a deterministic template
built from the question's own concept mentions takes over.

Tasks: 1 reachability (Yes/No), 2 prerequisite paths, 3 shortest paths,
4 neighborhood suggestions (all concept lists), 5 open-ended proposal
writing grounded on concept neighborhoods (free text, no query stage).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import files
from .graph import ConceptGraph, PathResult, UnknownConcept
from .query import (
    GRAMMAR_REFERENCE,
    GraphQuery,
    Neighbors,
    Prerequisites,
    QueryOutcome,
    QuerySyntaxError,
    Reachable,
    ShortestPath,
    execute,
    merge_path_outcomes,
    parse_query,
    render_query,
)
from .recovery import RETRY_SUFFIX, UnparseableVerdict, Verdict, parse_verdict
from .textnorm import VocabularyMatcher, ordered_unique

Oracle = Callable[[str], str]

FALLBACK_DEPTH = 3
FALLBACK_HOPS = 2
QUESTION_MARKER = "***Question**:"
PATH_MARKER = "***Path**:"
NEIGHBORHOOD_MARKER = "***Neighborhood**:"
EMPTY_SECTION = "EMPTY"

_GROUNDING_OPENING = (
    "There is a concept graph that includes the relations between concepts.",
    "Based on the question, the path between concepts has been returned.",
    "If the path is empty, then there is no relationship.",
    "Only use the returned path as the information for answering.",
)
YES_NO_RULE = 'Only return "Yes" or "No".'
_PROPOSAL_OPENING = (
    "There is a concept graph that includes the relations between concepts.",
    "Based on the question, nearby concepts from the graph have been returned.",
    "Only use the returned concepts as the information for answering.",
)


class PipelineError(Exception):
    """Base class for pipeline failures."""


class FallbackExhausted(PipelineError):
    """Both the emitted command and the deterministic template failed."""


class TutorQaFormatError(PipelineError):
    """A question/answer file or trace file does not match the format."""


@dataclass(frozen=True)
class TutorQaItem:
    """One question with its reference answer.

    Task 1 answers are exactly "Yes" or "No"; tasks 2 to 4 answer with
    concept-name lists; task 5 answers are free text.
    """

    task: int
    question: str
    answer: str | tuple[str, ...]

    def __post_init__(self) -> None:
        if self.task not in (1, 2, 3, 4, 5):
            raise PipelineError(f"task must be 1..5, got {self.task!r}")
        if not isinstance(self.question, str) or not self.question.strip():
            raise PipelineError("question must be non-empty text")
        if self.task == 1:
            if self.answer not in ("Yes", "No"):
                raise PipelineError(
                    f'task 1 answers "Yes" or "No", got {self.answer!r}'
                )
        elif self.task == 5:
            if not isinstance(self.answer, str):
                raise PipelineError("task 5 answers free text")
        else:
            if not isinstance(self.answer, (list, tuple)) or not self.answer:
                raise PipelineError(
                    f"task {self.task} answers a non-empty concept list"
                )
            object.__setattr__(self, "answer", tuple(self.answer))
            if not all(isinstance(c, str) and c.strip() for c in self.answer):
                raise PipelineError("concept list entries must be non-empty text")


@dataclass(frozen=True)
class PipelineTrace:
    """Everything one question's run did, sufficient to replay it."""

    question: str
    generated_command: str
    parsed_query: GraphQuery | None
    outcome: QueryOutcome | None
    grounding_prompt: str
    final_answer: str
    fallback_used: bool

    def __post_init__(self) -> None:
        if self.parsed_query is None and not self.fallback_used:
            raise PipelineError(
                "a trace without a parsed query must be marked as fallback"
            )
        if (
            PATH_MARKER not in self.grounding_prompt
            and NEIGHBORHOOD_MARKER not in self.grounding_prompt
        ):
            raise PipelineError("grounding prompt lacks a context section")


def build_command_prompt(question: str, task: int) -> str:
    """The stage-one prompt: question plus the command grammar."""
    if task not in (1, 2, 3, 4):
        raise PipelineError(f"tasks 1..4 use the query stage, got {task!r}")
    return (
        "You can query a concept graph with one command.\n\n"
        f"{GRAMMAR_REFERENCE}\n\n"
        f"Task {task} question:\n{question}\n\n"
        "Reply with exactly one command on a single line, nothing else."
    )


def generate_command(question: str, task: int, oracle: Oracle) -> str:
    """Ask the oracle for a command; returned verbatim, unvalidated."""
    return oracle(build_command_prompt(question, task))


def extract_concepts(question: str, vocabulary: list[str]) -> list[str]:
    """Vocabulary names mentioned in the question, in order, deduplicated."""
    if not vocabulary:
        raise PipelineError("vocabulary is empty")
    return ordered_unique(VocabularyMatcher(vocabulary).scan(question))


def render_path_section(named_paths: tuple[tuple[str, ...], ...]) -> str:
    """Semicolon-joined names per path, one path per line."""
    if not named_paths:
        return EMPTY_SECTION
    return "\n".join(";".join(path) for path in named_paths)


def build_grounding_prompt(question: str, outcome: QueryOutcome) -> str:
    """The stage-two prompt, grounded on the outcome's paths."""
    lines = list(_GROUNDING_OPENING)
    if outcome.kind == "reachable":
        lines.append(YES_NO_RULE)
    lines += [
        QUESTION_MARKER,
        question,
        PATH_MARKER,
        render_path_section(outcome.named_paths),
    ]
    return "\n".join(lines)


def ground_and_answer(question: str, outcome: QueryOutcome, oracle: Oracle) -> str:
    """Answer the question from the outcome's paths alone.

    Reachability answers are normalized to exactly "Yes" or "No", with
    one retry when the response contains neither token; other kinds
    return the oracle's text verbatim.
    """
    prompt = build_grounding_prompt(question, outcome)
    response = oracle(prompt)
    if outcome.kind != "reachable":
        return response
    try:
        verdict = parse_verdict(response)
    except UnparseableVerdict:
        verdict = parse_verdict(oracle(prompt + RETRY_SUFFIX))
    return "Yes" if verdict is Verdict.YES else "No"


def _fallback_queries(item: TutorQaItem, names: list[str], hops: int) -> list[GraphQuery]:
    if item.task == 1:
        if len(names) < 2:
            raise FallbackExhausted(
                f"task 1 template needs two known concepts, found {len(names)}"
            )
        return [Reachable(names[0], names[1])]
    if item.task == 2:
        if not names:
            raise FallbackExhausted("task 2 template needs a known concept")
        return [Prerequisites(names[0], FALLBACK_DEPTH)]
    if item.task == 3:
        if len(names) < 2:
            raise FallbackExhausted(
                f"task 3 template needs two known concepts, found {len(names)}"
            )
        return [ShortestPath(names[0], names[1])]
    if not names:
        raise FallbackExhausted("task 4 template needs a known concept")
    return [Neighbors(name, "in", hops) for name in names]


def _run_fallback(
    item: TutorQaItem, graph: ConceptGraph, hops: int
) -> tuple[GraphQuery, QueryOutcome]:
    names = extract_concepts(item.question, [c.name for c in graph.concepts])
    queries = _fallback_queries(item, names, hops)
    try:
        outcomes = [execute(query, graph) for query in queries]
    except UnknownConcept as exc:
        raise FallbackExhausted(str(exc)) from exc
    if len(outcomes) == 1:
        return queries[0], outcomes[0]
    return queries[0], merge_path_outcomes(outcomes)


def run_task(
    item: TutorQaItem,
    graph: ConceptGraph,
    command_oracle: Oracle,
    answer_oracle: Oracle,
    *,
    neighbor_hops: int = FALLBACK_HOPS,
    task5_hops: int = 1,
) -> tuple[str, PipelineTrace]:
    """One question end to end: command, parse, execute, ground, answer.

    When parsing or concept resolution fails, the deterministic
    template built from the question's concept mentions runs instead
    and the trace says so. Task 5 skips the query stage entirely.
    """
    if item.task == 5:
        return run_task_5(item, graph, answer_oracle, hops=task5_hops)
    generated = generate_command(item.question, item.task, command_oracle)
    fallback_used = False
    try:
        query: GraphQuery = parse_query(generated)
        outcome = execute(query, graph)
    except (QuerySyntaxError, UnknownConcept) as exc:
        fallback_used = True
        try:
            query, outcome = _run_fallback(item, graph, neighbor_hops)
        except FallbackExhausted as final:
            raise FallbackExhausted(
                f"command {generated!r} failed ({exc}); {final}"
            ) from exc
    answer = ground_and_answer(item.question, outcome, answer_oracle)
    trace = PipelineTrace(
        question=item.question,
        generated_command=generated,
        parsed_query=query,
        outcome=outcome,
        grounding_prompt=build_grounding_prompt(item.question, outcome),
        final_answer=answer,
        fallback_used=fallback_used,
    )
    return answer, trace


def build_proposal_prompt(question: str, neighborhood: list[str]) -> str:
    """The task 5 prompt: question plus nearby concept names."""
    section = "; ".join(neighborhood) if neighborhood else EMPTY_SECTION
    lines = list(_PROPOSAL_OPENING) + [
        QUESTION_MARKER,
        question,
        NEIGHBORHOOD_MARKER,
        section,
    ]
    return "\n".join(lines)


def run_task_5(
    item: TutorQaItem,
    graph: ConceptGraph,
    answer_oracle: Oracle,
    *,
    hops: int = 1,
) -> tuple[str, PipelineTrace]:
    """Open-ended proposal answering, grounded on concept neighborhoods.

    There is no command stage: the question's concept mentions are
    expanded with their in- and out-neighborhoods and handed to the
    oracle as context. The trace carries no query, and fallback_used is
    true because the deterministic route is the only route.
    """
    if item.task != 5:
        raise PipelineError(f"run_task_5 got a task {item.task} item")
    mentioned = extract_concepts(item.question, [c.name for c in graph.concepts])
    neighborhood: list[str] = list(mentioned)
    for name in mentioned:
        concept = graph.resolve(name)
        for direction in ("out", "in"):
            for path in graph.neighborhood_paths(concept.id, direction, hops).paths:
                neighborhood.extend(graph.path_names(path))
    neighborhood = ordered_unique(neighborhood)
    prompt = build_proposal_prompt(item.question, neighborhood)
    answer = answer_oracle(prompt)
    trace = PipelineTrace(
        question=item.question,
        generated_command="",
        parsed_query=None,
        outcome=None,
        grounding_prompt=prompt,
        final_answer=answer,
        fallback_used=True,
    )
    return answer, trace


def run_items(
    items: list[TutorQaItem],
    graph: ConceptGraph,
    command_oracle: Oracle,
    answer_oracle: Oracle,
    *,
    concurrency: int = 1,
    neighbor_hops: int = FALLBACK_HOPS,
    task5_hops: int = 1,
) -> list[tuple[str, PipelineTrace]]:
    """Run a batch; results keep item order regardless of concurrency."""
    if concurrency < 1:
        raise PipelineError(f"concurrency must be >= 1, got {concurrency}")

    def one(item: TutorQaItem) -> tuple[str, PipelineTrace]:
        return run_task(
            item,
            graph,
            command_oracle,
            answer_oracle,
            neighbor_hops=neighbor_hops,
            task5_hops=task5_hops,
        )

    if concurrency == 1 or len(items) <= 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(one, items))


def parse_concept_list(answer: str) -> list[str]:
    """Split a concept-list answer on semicolons, keeping order."""
    return ordered_unique(
        [part.strip() for part in answer.split(";") if part.strip()]
    )


def oracle_from_trace(item: TutorQaItem, trace: PipelineTrace) -> Oracle:
    """A replay oracle serving exactly the prompts the trace answered.

    Feeding it back through run_task reproduces the original answer;
    any other prompt is an error.
    """
    responses: dict[str, str] = {trace.grounding_prompt: trace.final_answer}
    if item.task != 5:
        responses[build_command_prompt(item.question, item.task)] = (
            trace.generated_command
        )

    def replay(prompt: str) -> str:
        if prompt not in responses:
            raise PipelineError(
                f"trace has no response for prompt starting {prompt[:60]!r}"
            )
        return responses[prompt]

    return replay


# -- JSON Lines interchange -------------------------------------------------


def load_tutorqa(path: str | Path) -> list[TutorQaItem]:
    """Read items from JSON Lines with keys task/question/answer."""
    items: list[TutorQaItem] = []
    for number, row in files.read_jsonl(path, TutorQaFormatError):
        if set(row) != {"task", "question", "answer"}:
            raise TutorQaFormatError(
                f"{path}: line {number}: expected task/question/answer keys"
            )
        try:
            items.append(TutorQaItem(**row))
        except PipelineError as exc:
            raise TutorQaFormatError(f"{path}: line {number}: {exc}") from exc
    return items


def save_tutorqa(items: list[TutorQaItem], path: str | Path) -> None:
    # json writes the tuple answers of tasks 2 to 4 as arrays
    rows = ({"task": i.task, "question": i.question, "answer": i.answer} for i in items)
    files.write_jsonl(path, rows)


def _outcome_to_dict(outcome: QueryOutcome) -> dict[str, object]:
    payload: object
    if isinstance(outcome.payload, bool):
        payload = outcome.payload
    else:
        payload = [list(path) for path in outcome.payload.paths]
    return {
        "kind": outcome.kind,
        "payload": payload,
        "concept_ids": list(outcome.concept_ids),
        "named_paths": [list(path) for path in outcome.named_paths],
    }


def _outcome_from_dict(row: dict[str, object]) -> QueryOutcome:
    payload = row["payload"]
    if not isinstance(payload, bool):
        payload = PathResult(tuple(tuple(path) for path in payload))
    return QueryOutcome(
        kind=row["kind"],
        payload=payload,
        concept_ids=tuple(row["concept_ids"]),
        named_paths=tuple(tuple(path) for path in row["named_paths"]),
    )


def trace_to_dict(trace: PipelineTrace) -> dict[str, object]:
    return {
        "question": trace.question,
        "generated_command": trace.generated_command,
        "parsed_query": (
            None if trace.parsed_query is None else render_query(trace.parsed_query)
        ),
        "outcome": (
            None if trace.outcome is None else _outcome_to_dict(trace.outcome)
        ),
        "grounding_prompt": trace.grounding_prompt,
        "final_answer": trace.final_answer,
        "fallback_used": trace.fallback_used,
    }


def trace_from_dict(row: dict[str, object]) -> PipelineTrace:
    try:
        return PipelineTrace(
            question=row["question"],
            generated_command=row["generated_command"],
            parsed_query=(
                None
                if row["parsed_query"] is None
                else parse_query(row["parsed_query"])
            ),
            outcome=(
                None if row["outcome"] is None else _outcome_from_dict(row["outcome"])
            ),
            grounding_prompt=row["grounding_prompt"],
            final_answer=row["final_answer"],
            fallback_used=row["fallback_used"],
        )
    except (KeyError, TypeError) as exc:
        raise TutorQaFormatError(f"bad trace row: {exc}") from exc


def save_traces(traces: list[PipelineTrace], path: str | Path) -> None:
    files.write_jsonl(path, map(trace_to_dict, traces))


def load_traces(path: str | Path) -> list[PipelineTrace]:
    return [trace_from_dict(row) for _, row in files.read_jsonl(path, TutorQaFormatError)]
