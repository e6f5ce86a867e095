"""Prompt rendering, verdict parsing, pair sampling, and the recovery loop."""
from __future__ import annotations

import random

import pytest

from conceptgraph.corpus import CorpusDocument, RetrievalIndex
from conceptgraph.graph import Concept, ConceptGraph, EdgeRow
from conceptgraph.recovery import (
    ConflictingJudgments,
    EdgeJudgment,
    InsufficientNegatives,
    InsufficientPositives,
    JudgmentFormatError,
    MissingContext,
    MissingLabels,
    OracleFailure,
    PromptVariant,
    RecoveryContext,
    RecoveryError,
    SamplingPlan,
    UnparseableVerdict,
    VariantKind,
    Verdict,
    all_ordered_pairs,
    balanced_sample,
    build_additional_info,
    build_pair_prompt,
    canonicalize_judgments,
    judge_pair,
    load_judgments,
    parse_verdict,
    plan_pairs,
    recover_graph,
    save_judgments,
    variant_from_code,
)

VITERBI = Concept("c3", "Viterbi Algorithm")
POS_TAG = Concept("c4", "POS Tagging")
DOMAIN = "natural language processing"

EXPECTED_ZS_PROMPT = (
    "We have two natural language processing related concepts: "
    "A: Viterbi Algorithm and B: POS Tagging.\n"
    "Do you think that people learning Viterbi Algorithm will help in "
    "understanding POS Tagging?\n"
    "Hints:\n"
    "1. Answer YES or NO only.\n"
    "2. This is a directional relation, which means if YES, (B,A) may be "
    "False, but (A,B) is True.\n"
    "3. Your answer will be used to create a knowledge graph."
)


def training_graph() -> ConceptGraph:
    concepts = (
        Concept("c1", "Probability"),
        Concept("c2", "Hidden Markov Model"),
        VITERBI,
        POS_TAG,
    )
    edges = frozenset(
        {("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c2", "c4")}
    )
    return ConceptGraph(concepts, edges)


# -- prompt templates ----------------------------------------------------------


def test_zero_shot_prompt_is_byte_exact():
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT), VITERBI, POS_TAG, domain=DOMAIN
    )
    assert prompt == EXPECTED_ZS_PROMPT
    assert prompt.endswith("knowledge graph.")


def test_cot_prompt_structure():
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.COT), VITERBI, POS_TAG, domain=DOMAIN
    )
    assert prompt.startswith(
        "In the context of natural language processing, we have two concepts: "
        "A: Viterbi Algorithm and B: POS Tagging."
    )
    assert "Employ the Chain of Thought approach" in prompt
    assert "<result>YES</result>" in prompt and "<result>NO</result>" in prompt
    assert prompt.count("\n\n# ") == 5
    assert prompt.endswith("if it is not.")


def test_doc_variant_appends_mentioning_documents():
    docs = (
        CorpusDocument(0, "The Viterbi algorithm decodes hidden state sequences."),
        CorpusDocument(1, "Convolution layers stack filters."),
        CorpusDocument(2, "POS tagging assigns word classes."),
    )
    context = RecoveryContext(documents=docs)
    variant = PromptVariant(VariantKind.ZERO_SHOT_DOC)
    info = build_additional_info(variant, VITERBI, POS_TAG, context)
    assert info == (
        "And here are related contents to help: "
        "The Viterbi algorithm decodes hidden state sequences.\n"
        "POS tagging assigns word classes."
    )
    prompt = build_pair_prompt(
        variant, VITERBI, POS_TAG, domain=DOMAIN, context=context
    )
    assert prompt.startswith(EXPECTED_ZS_PROMPT + "\n")
    assert prompt.endswith("word classes.")


def test_doc_variant_with_no_mentions_falls_back_to_bare_prompt():
    context = RecoveryContext(documents=(CorpusDocument(0, "unrelated text"),))
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT_DOC),
        VITERBI,
        POS_TAG,
        domain=DOMAIN,
        context=context,
    )
    assert prompt == EXPECTED_ZS_PROMPT


def test_con_variant_frames_are_byte_exact():
    context = RecoveryContext(training_graph=training_graph())
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_CON), VITERBI, POS_TAG, context
    )
    assert info == (
        "And here are related contents to help:\n"
        "We know that Viterbi Algorithm is a prerequisite of the following "
        "concepts:POS Tagging;\n"
        "The following concepts are the prerequisites of Viterbi Algorithm : "
        "Hidden Markov Model;\n"
        "We know that POS Tagging is a prerequisite of the following concepts:;\n"
        "The following concepts are the prerequisites of POS Tagging : "
        "Hidden Markov Model, Viterbi Algorithm."
    )


def test_con_variant_concept_missing_from_training_graph_gets_empty_lists():
    context = RecoveryContext(training_graph=training_graph())
    outsider = Concept("c9", "Transformers")
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_CON), outsider, POS_TAG, context
    )
    assert "We know that Transformers is a prerequisite of the following concepts:;" in info


def test_wiki_variant_includes_both_pages():
    pages = {
        "viterbi algorithm": "The Viterbi algorithm is a dynamic programming method.",
        "pos tagging": "Part-of-speech tagging labels words.",
    }
    context = RecoveryContext(wiki_pages=pages)
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_WIKI), VITERBI, POS_TAG, context
    )
    assert info == (
        "And here are related contents to help:\n"
        "The Viterbi algorithm is a dynamic programming method.\n"
        "Part-of-speech tagging labels words."
    )
    with pytest.raises(MissingContext, match="no wiki page"):
        build_additional_info(
            PromptVariant(VariantKind.ZERO_SHOT_WIKI),
            Concept("c9", "Transformers"),
            POS_TAG,
            context,
        )


def test_rag_variant_retrieves_and_truncates():
    sentence = "Viterbi algorithm and POS tagging are classic sequence tasks."
    index = RetrievalIndex(
        [
            CorpusDocument(0, sentence),
            CorpusDocument(1, "Graph colorings and chromatic numbers."),
        ]
    )
    context = RecoveryContext(retrieval_index=index, passage_char_limit=16)
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_RAG, rag_k=1), VITERBI, POS_TAG, context
    )
    assert info == "Related contents:\n" + sentence[:16]


def test_rag_variant_with_no_hits_falls_back_to_bare_prompt():
    index = RetrievalIndex([CorpusDocument(0, "entirely unrelated words")])
    context = RecoveryContext(retrieval_index=index)
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT_RAG),
        VITERBI,
        POS_TAG,
        domain=DOMAIN,
        context=context,
    )
    assert prompt == EXPECTED_ZS_PROMPT


def test_missing_context_errors_per_variant():
    for kind in (
        VariantKind.ZERO_SHOT_DOC,
        VariantKind.ZERO_SHOT_CON,
        VariantKind.ZERO_SHOT_WIKI,
        VariantKind.ZERO_SHOT_RAG,
    ):
        with pytest.raises(MissingContext):
            build_additional_info(PromptVariant(kind), VITERBI, POS_TAG, None)
        with pytest.raises(MissingContext):
            build_additional_info(
                PromptVariant(kind), VITERBI, POS_TAG, RecoveryContext()
            )


def test_variant_parameter_validation():
    assert PromptVariant(VariantKind.ZERO_SHOT_RAG).rag_k == 3
    assert PromptVariant(VariantKind.ZERO_SHOT_RAG, rag_k=5).rag_k == 5
    with pytest.raises(RecoveryError):
        PromptVariant(VariantKind.ZERO_SHOT, rag_k=3)
    with pytest.raises(RecoveryError):
        PromptVariant(VariantKind.ZERO_SHOT_RAG, rag_k=0)
    assert variant_from_code("zs-con") is VariantKind.ZERO_SHOT_CON
    with pytest.raises(RecoveryError, match="unknown variant"):
        variant_from_code("zs-doc-wiki")


# -- verdict parsing --------------------------------------------------------------


def test_parse_verdict_result_tag_wins_over_bare_tokens():
    assert parse_verdict("no wait... <result>YES</result>") is Verdict.YES
    assert parse_verdict("<result> no </result> but YES overall") is Verdict.NO


def test_parse_verdict_first_bare_token():
    assert parse_verdict("YES") is Verdict.YES
    assert parse_verdict("I think no, then again yes.") is Verdict.NO
    assert parse_verdict("Yes.") is Verdict.YES


def test_parse_verdict_ignores_substrings_and_raises_when_absent():
    with pytest.raises(UnparseableVerdict):
        parse_verdict("eyes and nose")
    with pytest.raises(UnparseableVerdict):
        parse_verdict("")
    with pytest.raises(UnparseableVerdict):
        parse_verdict("affirmative")


# -- sampling ----------------------------------------------------------------------


def test_all_ordered_pairs_counts_and_order():
    concepts = [Concept("b", "B"), Concept("a", "A"), Concept("c", "C")]
    pairs = all_ordered_pairs(concepts)
    assert len(pairs) == 6
    assert pairs == sorted(pairs)
    assert ("a", "a") not in pairs


def test_balanced_sample_is_deterministic_and_balanced():
    rows = [EdgeRow(f"s{i}", f"t{i}", 1) for i in range(10)] + [
        EdgeRow(f"u{i}", f"v{i}", 0) for i in range(10)
    ]
    first = balanced_sample(rows, 4, seed=11)
    second = balanced_sample(list(reversed(rows)), 4, seed=11)
    assert first == second
    assert sum(1 for r in first if r.label == 1) == 4
    assert sum(1 for r in first if r.label == 0) == 4
    assert first[:4] == [r for r in first if r.label == 1]
    assert balanced_sample(rows, 4, seed=12) != first


def test_balanced_sample_deduplicates_before_drawing():
    rows = [EdgeRow("a", "b", 1)] * 5 + [EdgeRow("x", "y", 0)] * 5
    with pytest.raises(InsufficientPositives):
        balanced_sample(rows, 2, seed=0)


def test_balanced_sample_error_cases():
    rows = [EdgeRow("a", "b", 1), EdgeRow("c", "d", 0)]
    with pytest.raises(InsufficientPositives):
        balanced_sample(rows, 2, seed=0)
    with pytest.raises(InsufficientNegatives):
        balanced_sample(rows + [EdgeRow("e", "f", 1)], 2, seed=0)
    with pytest.raises(MissingLabels):
        balanced_sample([EdgeRow("a", "b")], 1, seed=0)


def test_sampling_plan_validation():
    with pytest.raises(RecoveryError):
        SamplingPlan(mode="everything")
    with pytest.raises(RecoveryError):
        SamplingPlan(mode="balanced")
    with pytest.raises(RecoveryError):
        SamplingPlan(mode="all", sample_size=5)
    plan = SamplingPlan(mode="balanced", sample_size=2, seed=3)
    with pytest.raises(MissingLabels):
        plan_pairs([VITERBI], plan, labels=None)


# -- judging -----------------------------------------------------------------------


def test_judge_pair_retry_appends_instruction_once():
    prompts: list[str] = []

    def wobbly(prompt: str) -> str:
        prompts.append(prompt)
        return "hard to say" if len(prompts) == 1 else "YES"

    judgment = judge_pair(wobbly, "base prompt", source="a", target="b", variant_code="zs")
    assert judgment.verdict is Verdict.YES
    assert not judgment.flagged
    assert prompts == ["base prompt", "base prompt\nAnswer YES or NO only."]


def test_judge_pair_double_failure_defaults_to_flagged_no():
    def hopeless(prompt: str) -> str:
        return "..."

    judgment = judge_pair(hopeless, "p", source="a", target="b", variant_code="zs")
    assert judgment.verdict is Verdict.NO
    assert judgment.flagged
    assert judgment.raw_response == "..."


def test_judge_pair_wraps_oracle_exceptions_with_pair():
    def broken(prompt: str) -> str:
        raise RuntimeError("socket closed")

    with pytest.raises(OracleFailure) as err:
        judge_pair(broken, "p", source="c7", target="c9", variant_code="zs")
    assert err.value.source == "c7"
    assert err.value.target == "c9"
    assert "socket closed" in str(err.value)


class PerfectOracle:
    """Answers from a reference graph by parsing the first prompt line."""

    def __init__(self, graph: ConceptGraph):
        self.graph = graph

    def __call__(self, prompt: str) -> str:
        first = prompt.split("\n", 1)[0]
        middle = first.split(": A: ", 1)[1]
        a_name, rest = middle.split(" and B: ", 1)
        b_name = rest[: -1]
        a = self.graph.resolve(a_name)
        b = self.graph.resolve(b_name)
        return "YES" if (a.id, b.id) in self.graph.edges else "NO"


def test_recover_graph_reproduces_reference_with_perfect_oracle():
    reference = training_graph()
    result = recover_graph(
        list(reference.concepts),
        PerfectOracle(reference),
        PromptVariant(VariantKind.ZERO_SHOT),
        SamplingPlan(mode="all"),
        domain=DOMAIN,
    )
    assert result.graph.edges == reference.edges
    assert len(result.judgments) == 4 * 3
    yes = [j for j in result.judgments if j.verdict is Verdict.YES]
    assert {(j.source, j.target) for j in yes} == set(reference.edges)


def test_recover_graph_is_deterministic_across_concurrency_levels():
    reference = training_graph()
    results = [
        recover_graph(
            list(reference.concepts),
            PerfectOracle(reference),
            PromptVariant(VariantKind.ZERO_SHOT),
            SamplingPlan(mode="all"),
            domain=DOMAIN,
            concurrency=workers,
        )
        for workers in (1, 7)
    ]
    assert results[0] == results[1]
    pair_order = [(j.source, j.target) for j in results[0].judgments]
    assert pair_order == all_ordered_pairs(list(reference.concepts))


def test_recover_graph_balanced_plan_judges_sampled_rows():
    reference = training_graph()
    labels = [EdgeRow(s, t, 1) for s, t in sorted(reference.edges)]
    labels += [
        EdgeRow(s, t, 0)
        for s, t in [("c4", "c1"), ("c4", "c2"), ("c3", "c1"), ("c2", "c1")]
    ]
    plan = SamplingPlan(mode="balanced", sample_size=3, seed=5)
    result = recover_graph(
        list(reference.concepts),
        PerfectOracle(reference),
        PromptVariant(VariantKind.ZERO_SHOT),
        plan,
        domain=DOMAIN,
        labels=labels,
    )
    assert len(result.judgments) == 6
    judged = [(j.source, j.target) for j in result.judgments]
    assert judged == plan_pairs(list(reference.concepts), plan, labels)


def test_recover_graph_propagates_oracle_failure():
    reference = training_graph()

    def flaky(prompt: str) -> str:
        raise ConnectionResetError("nope")

    with pytest.raises(OracleFailure):
        recover_graph(
            list(reference.concepts),
            flaky,
            PromptVariant(VariantKind.ZERO_SHOT),
            SamplingPlan(mode="all"),
            domain=DOMAIN,
        )


def test_recover_graph_rejects_bad_concurrency():
    with pytest.raises(RecoveryError):
        recover_graph(
            [VITERBI, POS_TAG],
            lambda p: "NO",
            PromptVariant(VariantKind.ZERO_SHOT),
            SamplingPlan(mode="all"),
            domain=DOMAIN,
            concurrency=0,
        )


# -- judgment serialization -----------------------------------------------------------


def sample_judgments() -> list[EdgeJudgment]:
    return [
        EdgeJudgment("c2", "c1", Verdict.NO, "zs", "NO"),
        EdgeJudgment("c1", "c2", Verdict.YES, "zs", "YES"),
        EdgeJudgment("c1", "c3", Verdict.NO, "cot", "...", flagged=True),
    ]


def test_judgments_round_trip_through_jsonl(tmp_path):
    path = tmp_path / "judgments.jsonl"
    save_judgments(sample_judgments(), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert '"verdict": "NO"' in lines[0]
    assert '"flagged": true' in lines[2]
    assert '"flagged"' not in lines[0]
    assert load_judgments(path) == sample_judgments()


def test_load_judgments_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(JudgmentFormatError, match="not JSON"):
        load_judgments(path)
    path.write_text('{"a": "x", "b": "y", "variant": "zs", "verdict": "MAYBE", "raw": ""}\n')
    with pytest.raises(JudgmentFormatError):
        load_judgments(path)
    path.write_text('{"a": "x", "verdict": "YES"}\n')
    with pytest.raises(JudgmentFormatError):
        load_judgments(path)
    path.write_text('["x", "y", "zs", "YES", ""]\n')
    with pytest.raises(JudgmentFormatError, match="JSON object"):
        load_judgments(path)


def test_failed_save_leaves_the_previous_judgments_file(tmp_path):
    path = tmp_path / "judgments.jsonl"
    save_judgments(sample_judgments(), path)
    before = path.read_bytes()
    unencodable = EdgeJudgment("c3", "c1", Verdict.NO, "zs", raw_response=object())
    with pytest.raises(TypeError):
        save_judgments([sample_judgments()[0], unencodable], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["judgments.jsonl"]


def test_canonicalize_sorts_and_collapses_duplicates():
    rows = sample_judgments() + [EdgeJudgment("c1", "c2", Verdict.YES, "zs", "yes again")]
    canon = canonicalize_judgments(rows)
    assert [(j.source, j.target, j.variant) for j in canon] == [
        ("c1", "c2", "zs"),
        ("c1", "c3", "cot"),
        ("c2", "c1", "zs"),
    ]
    assert canon[0].raw_response == "YES"


def test_canonicalize_rejects_conflicting_verdicts():
    rows = [
        EdgeJudgment("a", "b", Verdict.YES, "zs", "YES"),
        EdgeJudgment("a", "b", Verdict.NO, "zs", "NO"),
    ]
    with pytest.raises(ConflictingJudgments):
        canonicalize_judgments(rows)


def test_random_judgment_sets_round_trip(tmp_path):
    rng = random.Random(7907)
    for trial in range(10):
        judgments = [
            EdgeJudgment(
                f"c{rng.randrange(9)}",
                f"d{rng.randrange(9)}",
                rng.choice([Verdict.YES, Verdict.NO]),
                rng.choice(["zs", "cot", "zs-rag"]),
                rng.choice(["YES", "NO", "<result>YES</result>", "odd é text"]),
                flagged=rng.random() < 0.2,
            )
            for _ in range(rng.randrange(1, 12))
        ]
        path = tmp_path / f"j{trial}.jsonl"
        save_judgments(judgments, path)
        assert load_judgments(path) == judgments
