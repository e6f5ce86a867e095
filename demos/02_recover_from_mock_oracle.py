"""
Recovering a graph from pairwise oracle judgments
=================================================

The recovery loop asks an oracle "is A a prerequisite of B?" for every
ordered concept pair and keeps the YES pairs as edges. Here the oracle
is a mock backed by a hidden graph, so we can measure recovery exactly,
then replay the whole run from a fixture file without the mock.
"""

import random
import tempfile
from pathlib import Path

from conceptgraph.graph import Concept, ConceptGraph
from conceptgraph.llm import GraphBackedOracle, ScriptedOracle
from conceptgraph.recovery import (
    PromptVariant,
    SamplingPlan,
    VariantKind,
    build_pair_prompt,
    recover_graph,
    save_judgments,
)

# A hidden random DAG plays the role of the unknown true curriculum.
rng = random.Random(7)
names = [f"topic {i:02d}" for i in range(12)]
concepts = tuple(Concept(id=f"t{i:02d}", name=n) for i, n in enumerate(names))
edges = frozenset(
    (f"t{i:02d}", f"t{j:02d}")
    for i in range(12)
    for j in range(i + 1, 12)
    if rng.random() < 0.18
)
hidden = ConceptGraph(concepts, edges)
print("hidden graph has", len(hidden.edges), "edges")

# This is the zero-shot prompt a pair judgment sends.
variant = PromptVariant(VariantKind("zs"))
print("--- sample prompt ---")
print(build_pair_prompt(variant, concepts[0], concepts[1], domain="natural language processing"))
print("---------------------")

# A perfect oracle answers straight from the hidden graph.
perfect = GraphBackedOracle(hidden, flip_probability=0.0, seed=0)
result = recover_graph(
    concepts, perfect, variant, SamplingPlan("all"),
    domain="natural language processing",
)
print("judged pairs:", len(result.judgments))
print("perfect oracle recovers the hidden graph exactly:",
      result.graph.edges == hidden.edges)

# With 10% per-pair noise the recovered graph drifts. The flip decision
# is a deterministic hash of (seed, A, B), so reruns are identical.
noisy = GraphBackedOracle(hidden, flip_probability=0.1, seed=0)
noisy_result = recover_graph(
    concepts, noisy, variant, SamplingPlan("all"),
    domain="natural language processing",
)
wrong = sum(
    ((j.source, j.target) in hidden.edges) != (j.verdict.value == "YES")
    for j in noisy_result.judgments
)
print(f"noisy oracle flipped {wrong} of {len(noisy_result.judgments)} judgments")

# Judgment logs capture the raw oracle text, so a live run can be
# replayed offline. Fixture rows key on concept names.
with tempfile.TemporaryDirectory() as tmp:
    log = Path(tmp) / "judgments.jsonl"
    save_judgments(noisy_result.judgments, log)
    print("first log line:", log.read_text().splitlines()[0])

by_name = {c.id: c.name for c in concepts}
rows = [
    {"a": by_name[j.source], "b": by_name[j.target],
     "variant": j.variant, "response": j.raw_response}
    for j in noisy_result.judgments
]
scripted = ScriptedOracle(rows)
replayed = recover_graph(
    concepts, scripted, variant, SamplingPlan("all"),
    domain="natural language processing",
)
print("fixture replay reproduces the noisy run:",
      replayed.graph.edges == noisy_result.graph.edges)
