"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each function in TARGETS (and every alias of
it that another conceptgraph module imported by name) with a wrapper
that records a span: id, parent id, name, start, end. Spans stay in
memory; `write()` saves them when the run ends and `summary()` folds
them into per-function calls, inclusive seconds and self seconds. Self
time is a span's duration minus the union of its children's intervals.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, so oracle calls
made by a thread pool count as children of the call that started the
pool.
"""
from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _prompt_bytes(tracer: "Tracer", args, result) -> None:
    tracer.add("llm.prompt_bytes", len(args[1].encode("utf-8")))


def _paths(tracer: "Tracer", args, result) -> None:
    # prerequisite_paths delegates to neighborhood_paths, so counting these
    # two counts every traversal once.
    tracer.add("graph.paths_returned", len(result))


def _fallback(tracer: "Tracer", args, result) -> None:
    tracer.add("pipeline.fallback_used", int(result[1].fallback_used))


def _scored_names(tracer: "Tracer", args, result) -> None:
    from conceptgraph.textnorm import normalize_name

    names = {normalize_name(name) for name in (*args[0], *args[1])}
    with tracer.lock:
        tracer.scored_names.update(names)


# (module, attribute path, span name, hook run on the result)
TARGETS = [
    ("cli", "main", "cli", None),
    ("cli", "write_manifest", "cli.write_manifest", None),
    ("graph", "load_concepts", "graph.load_concepts", None),
    ("graph", "load_edge_rows", "graph.load_edge_rows", None),
    ("graph", "build_graph", "graph.build_graph", None),
    ("graph", "ConceptGraph.add_edge", "graph.add_edge", None),
    ("graph", "ConceptGraph.shortest_path", "graph.shortest_path", _paths),
    ("graph", "ConceptGraph.prerequisite_paths", "graph.prerequisite_paths", None),
    ("graph", "ConceptGraph.neighborhood_paths", "graph.neighborhood_paths", _paths),
    ("recovery", "recover_graph", "recovery.recover_graph", None),
    ("recovery", "build_pair_prompt", "recovery.build_pair_prompt", None),
    ("recovery", "judge_pair", "recovery.judge_pair", None),
    ("recovery", "save_judgments", "recovery.save_judgments", None),
    ("llm", "parse_pair_prompt", "llm.parse_pair_prompt", None),
    ("llm", "GraphBackedOracle.__call__", "llm.GraphBackedOracle", _prompt_bytes),
    ("llm", "TemplateCommandOracle.__call__", "llm.TemplateCommandOracle", _prompt_bytes),
    ("llm", "GarbageCommandOracle.__call__", "llm.GarbageCommandOracle", _prompt_bytes),
    ("llm", "GroundedAnswerOracle.__call__", "llm.GroundedAnswerOracle", _prompt_bytes),
    ("textnorm", "mentions_concept", "textnorm.mentions_concept", None),
    ("textnorm", "VocabularyMatcher.__init__", "textnorm.VocabularyMatcher.init", None),
    ("textnorm", "VocabularyMatcher.scan", "textnorm.VocabularyMatcher.scan", None),
    ("corpus", "ingest", "corpus.ingest", None),
    ("corpus", "RetrievalIndex.load", "corpus.RetrievalIndex.load", None),
    ("corpus", "RetrievalIndex.retrieve", "corpus.RetrievalIndex.retrieve", None),
    ("query", "parse_query", "query.parse_query", None),
    ("query", "execute", "query.execute", None),
    ("pipeline", "load_tutorqa", "pipeline.load_tutorqa", None),
    ("pipeline", "run_task", "pipeline.run_task", _fallback),
    ("pipeline", "save_traces", "pipeline.save_traces", None),
    ("metrics", "similarity_f1", "metrics.similarity_f1", _scored_names),
    ("metrics", "SimilarityMatcher.embed", "metrics.SimilarityMatcher.embed", None),
    ("metrics", "concept_mentions", "metrics.concept_mentions", None),
    ("linkpred", "EmbeddingStore.load_jsonl", "linkpred.EmbeddingStore.load_jsonl", None),
    ("linkpred", "gcn_loss_and_grads", "linkpred.gcn_loss_and_grads", None),
    ("linkpred", "train_gcn", "linkpred.train_gcn", None),
    ("linkpred", "train_concat", "linkpred.train_concat", None),
    ("linkpred", "GcnModel.save", "linkpred.GcnModel.save", None),
    ("linkpred", "ConcatModel.save", "linkpred.ConcatModel.save", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.scored_names: set[str] = set()
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        # hooks run on pool threads too; += on a shared dict is not atomic
        self.lock = threading.Lock()

    def add(self, counter: str, amount: int) -> None:
        with self.lock:
            self.counts[counter] += amount

    def _stack(self) -> tuple[list[int], int]:
        """This thread's open-span stack and the parent for a new span."""
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
            return stack, stack[-1] if stack else 0
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        main = self._main_stack
        return stack, main[-1] if main else 0

    def wrap(self, fn, name: str, hook=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, parent = stack_of()
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import conceptgraph.cli  # noqa: F401  - imports every conceptgraph module

        modules = {
            name.rsplit(".", 1)[-1]: module
            for name, module in list(sys.modules.items())
            if name.startswith("conceptgraph.")
        }
        for module_name, path, span_name, hook in TARGETS:
            owner = modules[module_name]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self.wrap(raw.__func__, span_name, hook)))
                continue
            wrapped = self.wrap(raw, span_name, hook)
            if classes:
                self._replace(owner, attr, wrapped)
                continue
            # a function: replace it and every alias made by `from x import f`
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (inclusive), self_s, and durations."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[str, dict] = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
            row["durations"].append(end - start)
        return out

    def write(self, path: Path) -> None:
        """One span per line: id, parent id, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def percentile_ms(durations: list[float], q: int) -> float:
    """q-th percentile (of 100) in milliseconds; the lone value, or 0, below 2 samples."""
    if len(durations) < 2:
        return 1000.0 * sum(durations)
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]
