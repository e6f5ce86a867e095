"""
Building a concept graph and walking it
=======================================

A concept graph is a directed graph whose edge (A, B) says "A is a
prerequisite of B". This demo builds a small NLP study graph by hand
and exercises every traversal the rest of the package relies on.
"""

from conceptgraph.graph import Concept, ConceptGraph

# Concepts carry a surrogate id and a display name. Names must stay
# unique after case/whitespace normalization because queries resolve
# concepts by name.
concepts = (
    Concept(id="c0", name="Probability"),
    Concept(id="c1", name="Hidden Markov Model"),
    Concept(id="c2", name="Viterbi Algorithm"),
    Concept(id="c3", name="POS Tagging"),
    Concept(id="c4", name="Syntax Trees"),
)

# Graphs are immutable; add_edge returns a new graph each time.
g = ConceptGraph(concepts)
for source, target in [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c4", "c3")]:
    g = g.add_edge(source, target)

print("edges:", sorted(g.edges))

# has_path follows edges transitively.
print("Probability -> POS Tagging reachable?", g.has_path("c0", "c3"))
print("POS Tagging -> Probability reachable?", g.has_path("c3", "c0"))

# A node reaches itself only by going around a cycle. This graph is
# acyclic, so self-reachability is false everywhere.
print("Probability -> Probability reachable?", g.has_path("c0", "c0"))

# shortest_path returns every minimum-hop route, as id sequences.
result = g.shortest_path("c0", "c3")
for path in result.paths:
    print("shortest route:", " -> ".join(g.concept(cid).name for cid in path))

# prerequisite_paths collects the chains that end at a target concept,
# up to a depth bound. Depth 1 is just the direct prerequisites.
for depth in (1, 2):
    chains = g.prerequisite_paths("c3", depth)
    print(f"prerequisite chains for POS Tagging, depth {depth}:")
    for path in chains.paths:
        print("   ", " -> ".join(g.concept(cid).name for cid in path))

# neighborhood_paths walks in either direction; "out" follows edges
# forward from the concept, "in" reports incoming chains.
out_paths = g.neighborhood_paths("c1", "out", 2)
print("forward neighborhood of Hidden Markov Model:", out_paths.paths)
