"""Prompt readers invert the prompt renderers that sit next to them.

recovery reads the pair prompts it renders and pipeline reads its
command, grounding and proposal prompts; the mock oracles in llm only
answer what these readers return.
"""
from __future__ import annotations

import pytest

from conceptgraph.corpus import CorpusDocument, RetrievalIndex
from conceptgraph.graph import Concept, ConceptGraph
from conceptgraph.llm import GroundedAnswerOracle, parse_pair_prompt
from conceptgraph.pipeline import (
    build_command_prompt,
    build_grounding_prompt,
    build_proposal_prompt,
    read_command_prompt,
    read_grounding_prompt,
    read_proposal_prompt,
)
from conceptgraph.query import Neighbors, Prerequisites, Reachable, ShortestPath, execute
from conceptgraph.recovery import (
    BARE_PROMPT_CODES,
    RETRY_SUFFIX,
    PromptVariant,
    RecoveryContext,
    VariantKind,
    build_pair_prompt,
    read_pair_prompt,
)
from conceptgraph.textnorm import normalize_name

DOMAIN = "natural language processing"
FED = Concept("c1", 'U.S. "Fed" policy.')
NODE = Concept("c2", "Node.js")
# holds the zero-shot template's own separator between the two names
SEPARATOR = Concept("c3", "A. and B: C.")
HMM = Concept("c4", "Hidden Markov Model")
CONCEPTS = (FED, NODE, SEPARATOR, HMM)
PAIRS = [(a, b) for a in CONCEPTS for b in CONCEPTS if a != b]

DOCUMENTS = tuple(
    CorpusDocument(i, text)
    for i, text in enumerate(
        [
            'The U.S. "Fed" policy moved rates. Node.js servers logged it.',
            "A hidden Markov model decodes tags.",
            "A. and B: C. is a phrase with punctuation.",
        ]
    )
)


def full_context(**overrides) -> RecoveryContext:
    settings = dict(
        documents=DOCUMENTS,
        training_graph=ConceptGraph(CONCEPTS, frozenset({("c1", "c2"), ("c2", "c4")})),
        wiki_pages={
            normalize_name(c.name): f"{c.name} is introduced here. It has two lines?"
            for c in CONCEPTS
        },
        retrieval_index=RetrievalIndex(DOCUMENTS),
    )
    settings.update(overrides)
    return RecoveryContext(**settings)


def render(kind: VariantKind, a: Concept, b: Concept, context: RecoveryContext) -> str:
    return build_pair_prompt(PromptVariant(kind), a, b, domain=DOMAIN, context=context)


@pytest.mark.parametrize("kind", list(VariantKind))
def test_pair_reader_inverts_every_variant(kind):
    context = full_context()
    for a, b in PAIRS:
        prompt = render(kind, a, b, context)
        want = (a.name, b.name, kind.value)
        assert read_pair_prompt(prompt) == want, prompt
        # a retried prompt reads back the same, so it meets the same fixture row
        assert read_pair_prompt(prompt + RETRY_SUFFIX) == want
        assert parse_pair_prompt(prompt) == want


@pytest.mark.parametrize("kind", [VariantKind.ZERO_SHOT_DOC, VariantKind.ZERO_SHOT_RAG])
def test_doc_and_rag_prompts_without_hits_are_bare_zero_shot(kind):
    unrelated = (CorpusDocument(0, "Convolution layers stack filters over images."),)
    context = full_context(documents=unrelated, retrieval_index=RetrievalIndex(unrelated))
    prompt = render(kind, HMM, NODE, context)
    assert prompt == render(VariantKind.ZERO_SHOT, HMM, NODE, context)
    assert read_pair_prompt(prompt) == (HMM.name, NODE.name, "zs")
    assert kind.value in BARE_PROMPT_CODES


def test_pair_reader_reads_rag_passages_cut_by_the_char_limit():
    for limit in (1, 4, 9, 30):
        context = full_context(passage_char_limit=limit)
        for a, b in PAIRS:
            prompt = render(VariantKind.ZERO_SHOT_RAG, a, b, context)
            assert read_pair_prompt(prompt) == (a.name, b.name, "zs-rag")


def test_pair_reader_refuses_other_text():
    zs = render(VariantKind.ZERO_SHOT, FED, NODE, full_context())
    assert read_pair_prompt("What is a concept graph?") is None
    assert read_pair_prompt(zs.replace("Hints:", "Notes:")) is None
    # the second line must repeat the names of the first
    assert read_pair_prompt(zs.replace("learning U.S.", "learning U.K.", 1)) is None


# -- QA prompts -------------------------------------------------------------------

PROBABILITY = Concept("p1", "Probability")
QA_GRAPH = ConceptGraph(
    (PROBABILITY, HMM, Concept("p3", "Viterbi Algorithm"), Concept("p4", "Syntax Trees")),
    frozenset({("p1", "c4"), ("c4", "p3")}),
)
QUESTIONS = [
    "Can I learn Viterbi Algorithm after Probability?",
    "I know Probability.\n\nWhat comes before the Viterbi Algorithm?",
    "First line\nTask 3 question:\nstill the same question about Probability",
    "Where does it lead?\n***Path**:\nProbability;Viterbi Algorithm\n\n",
    "Which part?\n***Neighborhood**:\n***Question**:\nHidden Markov Model",
]
OUTCOMES = [
    execute(Reachable("Probability", "Viterbi Algorithm"), QA_GRAPH),
    execute(Reachable("Viterbi Algorithm", "Probability"), QA_GRAPH),
    execute(Prerequisites("Viterbi Algorithm", 3), QA_GRAPH),
    execute(ShortestPath("Probability", "Viterbi Algorithm"), QA_GRAPH),
    execute(Neighbors("Syntax Trees", "in", 2), QA_GRAPH),
]


@pytest.mark.parametrize("question", QUESTIONS)
def test_command_reader_reads_task_and_question_exactly(question):
    for task in (1, 2, 3, 4):
        assert read_command_prompt(build_command_prompt(question, task)) == (task, question)


@pytest.mark.parametrize("question", QUESTIONS)
def test_grounding_reader_reads_question_rule_and_paths_exactly(question):
    for outcome in OUTCOMES:
        prompt = build_grounding_prompt(question, outcome)
        want = (question, outcome.kind == "reachable", outcome.named_paths)
        assert read_grounding_prompt(prompt) == want
        assert read_grounding_prompt(prompt + RETRY_SUFFIX) == want
        assert read_proposal_prompt(prompt) is None


@pytest.mark.parametrize("question", QUESTIONS)
def test_proposal_reader_reads_question_and_names_exactly(question):
    for names in ([], ["Probability"], ["Probability", "Hidden Markov Model"]):
        prompt = build_proposal_prompt(question, names)
        assert read_proposal_prompt(prompt) == (question, tuple(names))
        assert read_grounding_prompt(prompt) is None


def test_qa_readers_refuse_other_text():
    assert read_command_prompt("Task 1 question:\nno closing line") is None
    assert read_grounding_prompt("***Question**:\nQ but no sections") is None
    assert read_proposal_prompt("plain question") is None


def test_grounded_oracle_answers_from_paths_even_when_the_question_holds_markers():
    oracle = GroundedAnswerOracle()
    question = "Which?\n***Path**:\nSyntax Trees"
    reachable, unreachable = OUTCOMES[0], OUTCOMES[1]
    assert oracle(build_grounding_prompt(question, reachable)) == "Yes"
    assert oracle(build_grounding_prompt(question, unreachable)) == "No"
    # paths into Viterbi Algorithm, in id order: c4 -> p3, then p1 -> c4 -> p3
    assert oracle(build_grounding_prompt(question, OUTCOMES[2])) == (
        "Hidden Markov Model; Viterbi Algorithm; Probability"
    )
    proposal = build_proposal_prompt("How?\n***Path**:\nX", ["Probability"])
    assert oracle(proposal) == "To improve, review these related concepts: Probability."

