"""Command-line front end for batch runs.

Five subcommands cover the artifact's workflows:

    recover   judge concept pairs with an oracle and emit the graph
    train     fit a link predictor on embeddings plus labeled pairs
    eval      score prediction files against gold files
    qa        run tutoring questions through the query pipeline
    fixtures  turn judgment logs into replayable oracle fixtures

Every run writes a manifest.json next to its outputs recording the
subcommand, the effective flag values, sha256 digests of the input
files, the seed, and the output paths. The manifest is the only file
that carries a timestamp, so rerunning with identical inputs produces
byte-identical primary outputs. replay_manifest() re-executes a run
from its manifest alone.

Exit codes: 0 success, 1 configuration error (bad flags, bad config
file, unusable oracle spec), 2 data error (missing or malformed input
files), 3 oracle failure (transport errors, exhausted fallbacks,
unparseable verdicts), 4 internal error (any other exception, reported
in one line instead of a traceback).

Config files hold one `key = value` pair per line (# comments allowed)
and are merged in as if the flags had been typed before the real
command line, so explicit flags win. The API secret is only ever read
from the environment by the transport layer; it has no flag and no
config key and never reaches a manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, corpus, files, graph, linkpred, llm, metrics, pipeline, query, recovery
from .textnorm import normalize_name

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_ORACLE = 3
EXIT_INTERNAL = 4

MANIFEST_NAME = "manifest.json"


class CliError(Exception):
    """Base for command failures; exit_code selects the shell status."""

    exit_code = EXIT_CONFIG


class ConfigError(CliError):
    exit_code = EXIT_CONFIG


class DataError(CliError):
    exit_code = EXIT_DATA


class OracleError(CliError):
    exit_code = EXIT_ORACLE


class InternalError(CliError):
    exit_code = EXIT_INTERNAL


def _map_exception(exc: Exception) -> CliError:
    """Fold library errors into the exit-code taxonomy."""
    if isinstance(exc, CliError):
        return exc
    # oracle trouble first: several of these subclass broader families
    if isinstance(
        exc,
        (
            llm.LlmError,
            recovery.OracleFailure,
            recovery.UnparseableVerdict,
            pipeline.FallbackExhausted,
        ),
    ):
        return OracleError(str(exc))
    if isinstance(exc, recovery.MissingContext):
        return ConfigError(str(exc))
    if isinstance(exc, OSError):
        if exc.filename:
            return DataError(f"cannot read {exc.filename}: {exc.strerror}")
        return DataError(str(exc))
    if isinstance(
        exc,
        (
            graph.GraphError,
            corpus.CorpusError,
            recovery.RecoveryError,
            metrics.MetricsError,
            linkpred.LinkPredError,
            pipeline.PipelineError,
            query.QueryError,
            UnicodeDecodeError,
            ValueError,
        ),
    ):
        return DataError(str(exc))
    detail = " ".join(str(exc).split())
    return InternalError(f"internal error: {type(exc).__name__}: {detail}")


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on bad flags."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _on_off(value: str) -> str:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected 'on' or 'off', got {value!r}")
    return value


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conceptgraph", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    common.add_argument("--config", default=None, help="key = value file merged before flags")
    common.add_argument("--output-dir", default=".", help="directory for outputs + manifest")

    live = _Parser(add_help=False)
    live.add_argument("--endpoint", default=None, help="chat-completions URL for live oracles")
    live.add_argument("--llm-model", default=None, help="model name for live oracles")
    live.add_argument("--temperature", type=float, default=0.0)
    live.add_argument("--timeout", type=float, default=30.0)
    live.add_argument("--max-retries", type=int, default=3)

    rec = commands.add_parser(
        "recover", parents=[common, live], help="judge pairs and emit a recovered graph"
    )
    rec.add_argument("--concepts", required=True, help="concept TSV (id<TAB>name)")
    rec.add_argument(
        "--oracle",
        required=True,
        help="echo | live | mock-graph:EDGE_TSV | mock-script:FIXTURE_JSONL",
    )
    rec.add_argument("--variant", default="zs", help="prompt variant code")
    rec.add_argument("--rag-k", type=_positive_int, default=None, help="passages per pair (rag only)")
    rec.add_argument("--pairs", default="all", help="all | balanced:N")
    rec.add_argument("--labels", default=None, help="labeled edge TSV for balanced sampling")
    rec.add_argument("--flip-p", type=float, default=0.0, help="mock-graph noise probability")
    rec.add_argument("--domain", default="general knowledge", help="domain named in prompts")
    rec.add_argument("--concurrency", type=_positive_int, default=8)
    rec.add_argument("--documents", default=None, help="text corpus, one document per line")
    rec.add_argument("--rag-index", default=None, help="saved retrieval index")
    rec.add_argument("--wiki", default=None, help="JSON object: concept name -> paragraph")
    rec.add_argument("--train-concepts", default=None, help="concept TSV for context graph")
    rec.add_argument("--train-edges", default=None, help="edge TSV for context graph")
    rec.add_argument("--passage-chars", type=_positive_int, default=None)
    rec.set_defaults(func=cmd_recover)

    tr = commands.add_parser(
        "train", parents=[common], help="fit a link predictor and write a checkpoint"
    )
    tr.add_argument("--embeddings", required=True, help="embedding JSONL (name + vector)")
    tr.add_argument("--edges", required=True, help="labeled pair TSV (names, optional 0/1)")
    tr.add_argument("--model", default="gcn", choices=["gcn", "concat"])
    tr.add_argument("--learning-rate", type=float, default=0.1)
    tr.add_argument("--epochs", type=_positive_int, default=200)
    tr.add_argument("--momentum", type=float, default=0.0)
    tr.add_argument("--negative-ratio", type=float, default=1.0)
    tr.add_argument("--threshold", type=float, default=0.5)
    tr.add_argument("--proj-width", type=_positive_int, default=256)
    tr.add_argument("--layer-widths", default="128", help="comma-separated widths")
    tr.set_defaults(func=cmd_train)

    ev = commands.add_parser(
        "eval", parents=[common], help="score a prediction file against a gold file"
    )
    ev.add_argument("--predictions", required=True, help="one answer per line")
    ev.add_argument("--gold", required=True, help="one answer per line, aligned")
    ev.add_argument("--mode", default="binary", choices=["binary", "list"])
    ev.add_argument("--mu", type=float, default=metrics.DEFAULT_THRESHOLD)
    ev.add_argument("--embedder", default="exact", choices=["exact", "hash"])
    ev.add_argument("--one-to-one", type=_on_off, default="off")
    ev.add_argument("--dataset", default=None, help="metadata echoed into the report")
    ev.add_argument("--variant", default=None, help="metadata echoed into the report")
    ev.set_defaults(func=cmd_eval)

    qa = commands.add_parser(
        "qa", parents=[common, live], help="answer tutoring questions over a graph"
    )
    qa.add_argument("--concepts", required=True, help="concept TSV (id<TAB>name)")
    qa.add_argument("--edges", required=True, help="edge TSV (ids)")
    qa.add_argument("--tutorqa", required=True, help="question JSONL")
    qa.add_argument("--command-oracle", default="template", choices=["template", "garbage", "live"])
    qa.add_argument("--answer-oracle", default="grounded", choices=["grounded", "live"])
    qa.add_argument("--trace", type=_on_off, default="on")
    qa.add_argument("--mu", type=float, default=metrics.DEFAULT_THRESHOLD)
    qa.add_argument("--embedder", default="exact", choices=["exact", "hash"])
    qa.add_argument("--concurrency", type=_positive_int, default=1)
    qa.add_argument("--neighbor-hops", type=_positive_int, default=pipeline.FALLBACK_HOPS)
    qa.add_argument("--task5-hops", type=_positive_int, default=1)
    qa.set_defaults(func=cmd_qa)

    fx = commands.add_parser(
        "fixtures", parents=[common], help="turn judgment logs into oracle fixtures"
    )
    fx.add_argument("--judgments", required=True, help="judgment JSONL from a recover run")
    fx.add_argument("--concepts", required=True, help="concept TSV naming the judged ids")
    fx.set_defaults(func=cmd_fixtures)

    return parser


def parse_config_file(path: str | Path) -> list[str]:
    """Config lines as an argv fragment, ready to splice after the subcommand."""
    fragment: list[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"config line {number}: expected 'key = value', got {raw!r}")
        if key == "config":
            raise ConfigError(f"config line {number}: a config file cannot set 'config'")
        fragment.extend([f"--{key.replace('_', '-')}", value])
    return fragment


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise ConfigError("a subcommand is required (recover, train, eval, qa, fixtures)")
    if args.config is not None:
        merged = [argv[0], *parse_config_file(args.config), *argv[1:]]
        args = parser.parse_args(merged)
    return args


# -- manifests -------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to audit or re-execute one run."""

    subcommand: str
    config: dict[str, object]
    inputs: dict[str, str]
    seed: int
    timestamp: str
    outputs: tuple[str, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "subcommand": self.subcommand,
            "config": dict(self.config),
            "inputs": dict(self.inputs),
            "seed": self.seed,
            "timestamp": self.timestamp,
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "RunManifest":
        try:
            return cls(
                subcommand=str(raw["subcommand"]),
                config=dict(raw["config"]),  # type: ignore[arg-type]
                inputs=dict(raw["inputs"]),  # type: ignore[arg-type]
                seed=int(raw["seed"]),  # type: ignore[call-overload]
                timestamp=str(raw["timestamp"]),
                outputs=tuple(str(p) for p in raw["outputs"]),  # type: ignore[union-attr]
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed manifest: {exc}") from exc


def sha256_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _config_snapshot(args: argparse.Namespace) -> dict[str, object]:
    hidden = {"command", "func", "config"}
    return {key: value for key, value in vars(args).items() if key not in hidden}


def write_manifest(
    args: argparse.Namespace, inputs: list[Path], outputs: list[Path]
) -> Path:
    snapshot = _config_snapshot(args)
    manifest = RunManifest(
        subcommand=args.command,
        config=snapshot,
        inputs={str(p): sha256_digest(p) for p in inputs},
        seed=int(snapshot.get("seed", 0)),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        outputs=tuple(sorted(str(p) for p in outputs)),
    )
    path = Path(args.output_dir) / MANIFEST_NAME
    files.write_text_atomic(
        path, json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_manifest(path: str | Path) -> RunManifest:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed manifest: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("malformed manifest: expected a JSON object")
    return RunManifest.from_dict(raw)


def manifest_argv(manifest: RunManifest, *, output_dir: str | None = None) -> list[str]:
    """Rebuild the command line a manifest records."""
    config = dict(manifest.config)
    if output_dir is not None:
        config["output_dir"] = output_dir
    argv = [manifest.subcommand]
    for key in sorted(config):
        value = config[key]
        if value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


def replay_manifest(path: str | Path, *, output_dir: str | None = None) -> int:
    """Re-execute the run a manifest describes; returns the exit status."""
    manifest = load_manifest(path)
    return main(manifest_argv(manifest, output_dir=output_dir))


# -- shared construction helpers ---------------------------------------------------


def _live_config(args: argparse.Namespace) -> llm.OracleConfig:
    if not args.endpoint or not args.llm_model:
        raise ConfigError("live oracles need --endpoint and --llm-model")
    return llm.OracleConfig(
        endpoint=args.endpoint,
        model=args.llm_model,
        temperature=args.temperature,
        timeout=args.timeout,
        max_retries=args.max_retries,
    )


def _build_recover_oracle(
    args: argparse.Namespace, concepts: list[graph.Concept]
) -> tuple[object, list[Path]]:
    """Oracle callable plus any fixture files it reads."""
    spec = args.oracle
    if spec == "echo":
        return llm.EchoOracle(), []
    if spec == "live":
        return llm.LiveOracle(_live_config(args)), []
    kind, sep, path = spec.partition(":")
    if sep and kind == "mock-graph":
        if not (0.0 <= args.flip_p <= 1.0):
            raise ConfigError(f"--flip-p must be in [0, 1], got {args.flip_p}")
        hidden = graph.build_graph(concepts, graph.load_edge_rows(path))
        oracle = llm.GraphBackedOracle(hidden, flip_probability=args.flip_p, seed=args.seed)
        return oracle, [Path(path)]
    if sep and kind == "mock-script":
        return llm.ScriptedOracle.from_jsonl(path), [Path(path)]
    raise ConfigError(
        f"unknown oracle {spec!r}; expected echo, live, mock-graph:PATH, or mock-script:PATH"
    )


def _build_plan(args: argparse.Namespace) -> recovery.SamplingPlan:
    spec = args.pairs
    if spec == "all":
        return recovery.SamplingPlan("all", None, args.seed)
    kind, sep, size = spec.partition(":")
    if sep and kind == "balanced":
        try:
            sample_size = int(size)
        except ValueError:
            raise ConfigError(f"--pairs balanced needs an integer, got {size!r}") from None
        if args.labels is None:
            raise ConfigError("--pairs balanced:N needs --labels")
        return recovery.SamplingPlan("balanced", sample_size, args.seed)
    raise ConfigError(f"unknown pair plan {spec!r}; expected all or balanced:N")


def _build_context(
    args: argparse.Namespace,
) -> tuple[recovery.RecoveryContext | None, list[Path]]:
    inputs: list[Path] = []
    documents: tuple[corpus.CorpusDocument, ...] = ()
    training_graph = None
    wiki_pages = None
    retrieval_index = None
    if args.documents is not None:
        path = Path(args.documents)
        lines = path.read_text(encoding="utf-8").splitlines()
        documents = tuple(corpus.ingest(lines, source=path.name))
        inputs.append(path)
    if (args.train_concepts is None) != (args.train_edges is None):
        raise ConfigError("--train-concepts and --train-edges go together")
    if args.train_concepts is not None:
        training_graph = graph.build_graph(
            graph.load_concepts(args.train_concepts),
            graph.load_edge_rows(args.train_edges),
        )
        inputs.extend([Path(args.train_concepts), Path(args.train_edges)])
    if args.wiki is not None:
        raw = json.loads(Path(args.wiki).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise DataError(f"wiki file {args.wiki} must hold a JSON object")
        wiki_pages = {normalize_name(key): str(value) for key, value in raw.items()}
        inputs.append(Path(args.wiki))
    if args.rag_index is not None:
        retrieval_index = corpus.RetrievalIndex.load(args.rag_index)
        inputs.append(Path(args.rag_index))
    if not inputs and args.passage_chars is None:
        return None, []
    return (
        recovery.RecoveryContext(
            documents=documents,
            training_graph=training_graph,
            wiki_pages=wiki_pages,
            retrieval_index=retrieval_index,
            passage_char_limit=args.passage_chars,
        ),
        inputs,
    )


def _out(args: argparse.Namespace, name: str) -> Path:
    directory = Path(args.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


# -- subcommands -----------------------------------------------------------------


def cmd_recover(args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    concepts = graph.load_concepts(args.concepts)
    inputs = [Path(args.concepts)]
    oracle, oracle_inputs = _build_recover_oracle(args, concepts)
    inputs.extend(oracle_inputs)
    try:
        variant = recovery.PromptVariant(recovery.variant_from_code(args.variant), args.rag_k)
    except recovery.RecoveryError as exc:  # bad flag value, not bad data
        raise ConfigError(str(exc)) from None
    plan = _build_plan(args)
    labels = None
    if args.labels is not None:
        labels = graph.load_edge_rows(args.labels)
        inputs.append(Path(args.labels))
    context, context_inputs = _build_context(args)
    inputs.extend(context_inputs)

    result = recovery.recover_graph(
        concepts,
        oracle,
        variant,
        plan,
        domain=args.domain,
        context=context,
        labels=labels,
        concurrency=args.concurrency,
    )

    edges_path = _out(args, "recovered-edges.tsv")
    rows = [graph.EdgeRow(a, b) for a, b in sorted(result.graph.edges)]
    graph.save_edge_rows(rows, edges_path)
    judgments_path = _out(args, "judgments.jsonl")
    recovery.save_judgments(result.judgments, judgments_path)
    return inputs, [edges_path, judgments_path]


def cmd_train(args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    store = linkpred.EmbeddingStore.load_jsonl(args.embeddings)
    rows = [
        (row.source, row.target, 1 if row.label is None else row.label)
        for row in graph.load_edge_rows(args.edges)
    ]
    config = linkpred.TrainConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
        negative_ratio=args.negative_ratio,
        edge_threshold=args.threshold,
        momentum=args.momentum,
    )
    if args.model == "gcn":
        try:
            widths = tuple(int(part) for part in args.layer_widths.split(","))
        except ValueError:
            raise ConfigError(f"--layer-widths must be integers, got {args.layer_widths!r}") from None
        result = linkpred.train_gcn(
            store, rows, config, proj_width=args.proj_width, layer_widths=widths
        )
        losses = result.losses
        checkpoint = _out(args, "gcn-checkpoint.json")
        result.model.save(checkpoint)
    else:
        model, losses = linkpred.train_concat(store, rows, config)
        checkpoint = _out(args, "concat-checkpoint.json")
        model.save(checkpoint)

    report = {
        "model": args.model,
        "epochs": args.epochs,
        "labeled_rows": len(rows),
        "nodes": len(store.names),
        "initial_loss": losses[0],
        "final_loss": losses[-1],
        "losses": list(losses),
    }
    report_path = _out(args, "train-report.json")
    files.write_text_atomic(
        report_path, json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return [Path(args.embeddings), Path(args.edges)], [checkpoint, report_path]


def _read_lines(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _make_embedder(kind: str, seed: int):
    if kind == "hash":
        return metrics.HashEmbedder(seed=seed)
    return metrics.ExactMatchEmbedder()


def cmd_eval(args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    predictions = _read_lines(args.predictions)
    gold = _read_lines(args.gold)
    metadata: dict[str, object] = {"mode": args.mode}
    if args.dataset is not None:
        metadata["dataset"] = args.dataset
    if args.variant is not None:
        metadata["variant"] = args.variant

    if args.mode == "binary":
        report = metrics.binary_report(predictions, gold)
        payload = metrics.report_payload(report, metadata)
    else:
        matcher = metrics.SimilarityMatcher(_make_embedder(args.embedder, args.seed), args.mu)
        precision, recall, s_f1 = metrics.mean_similarity_f1(
            [pipeline.parse_concept_list(line) for line in predictions],
            [pipeline.parse_concept_list(line) for line in gold],
            matcher,
            one_to_one=args.one_to_one == "on",
        )
        payload = dict(metadata)
        payload.update(
            {
                "lines": len(predictions),
                "mu": args.mu,
                "embedder": args.embedder,
                "precision": precision,
                "recall": recall,
                "s_f1": s_f1,
            }
        )

    report_path = _out(args, "eval-report.json")
    files.write_text_atomic(report_path, metrics.report_json(payload))
    print(metrics.render_report(payload), end="")
    return [Path(args.predictions), Path(args.gold)], [report_path]


def cmd_qa(args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    concepts = graph.load_concepts(args.concepts)
    g = graph.build_graph(concepts, graph.load_edge_rows(args.edges))
    items = pipeline.load_tutorqa(args.tutorqa)
    vocabulary = [c.name for c in g.concepts]

    if args.command_oracle == "template":
        command_oracle: object = llm.TemplateCommandOracle(vocabulary)
    elif args.command_oracle == "garbage":
        command_oracle = llm.GarbageCommandOracle()
    else:
        command_oracle = llm.LiveOracle(_live_config(args))
    if args.answer_oracle == "grounded":
        answer_oracle: object = llm.GroundedAnswerOracle()
    else:
        answer_oracle = llm.LiveOracle(_live_config(args))

    results = pipeline.run_items(
        items,
        g,
        command_oracle,
        answer_oracle,
        concurrency=args.concurrency,
        neighbor_hops=args.neighbor_hops,
        task5_hops=args.task5_hops,
    )

    outputs: list[Path] = []
    answers_path = _out(args, "answers.jsonl")
    files.write_jsonl(
        answers_path,
        (
            {"task": item.task, "question": item.question, "answer": answer}
            for item, (answer, _trace) in zip(items, results)
        ),
    )
    outputs.append(answers_path)

    if args.trace == "on":
        traces_path = _out(args, "traces.jsonl")
        pipeline.save_traces([trace for _, trace in results], traces_path)
        outputs.append(traces_path)

    matcher = metrics.SimilarityMatcher(_make_embedder(args.embedder, args.seed), args.mu)
    by_task: dict[int, list[tuple[pipeline.TutorQaItem, str]]] = {}
    for item, (answer, _trace) in zip(items, results):
        by_task.setdefault(item.task, []).append((item, answer))

    for task in sorted(by_task):
        pairs = by_task[task]
        if task == 1:
            report = metrics.binary_report(
                [answer for _, answer in pairs], [item.answer for item, _ in pairs]
            )
            payload = metrics.report_payload(report, {"task": task})
            name = f"qa-report-task{task}.json"
        elif task == 5:
            uniques = []
            totals = []
            for _, answer in pairs:
                unique, total, _counts = metrics.concept_mentions(answer, vocabulary)
                uniques.append(unique)
                totals.append(total)
            payload = {
                "task": task,
                "items": len(pairs),
                "mean_unique_mentions": statistics.fmean(uniques),
                "mean_total_mentions": statistics.fmean(totals),
            }
            name = "qa-mentions-task5.json"
        else:
            precision, recall, s_f1 = metrics.mean_similarity_f1(
                [pipeline.parse_concept_list(answer) for _, answer in pairs],
                [item.answer for item, _ in pairs],
                matcher,
            )
            payload = {
                "task": task,
                "items": len(pairs),
                "mu": args.mu,
                "precision": precision,
                "recall": recall,
                "s_f1": s_f1,
            }
            name = f"qa-report-task{task}.json"
        path = _out(args, name)
        files.write_text_atomic(path, metrics.report_json(payload))
        outputs.append(path)

    inputs = [Path(args.concepts), Path(args.edges), Path(args.tutorqa)]
    return inputs, outputs


def cmd_fixtures(args: argparse.Namespace) -> tuple[list[Path], list[Path]]:
    judgments = recovery.canonicalize_judgments(recovery.load_judgments(args.judgments))
    by_id = {c.id: c for c in graph.load_concepts(args.concepts)}
    rows = []
    for judgment in judgments:
        try:
            a = by_id[judgment.source]
            b = by_id[judgment.target]
        except KeyError as exc:
            raise DataError(
                f"judgment references unknown concept id {exc.args[0]!r}"
            ) from None
        rows.append(
            {
                "a": a.name,
                "b": b.name,
                "variant": judgment.variant,
                "response": judgment.raw_response,
            }
        )
    fixtures_path = _out(args, "fixtures.jsonl")
    files.write_jsonl(fixtures_path, rows)
    return [Path(args.judgments), Path(args.concepts)], [fixtures_path]


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_argv(list(argv))
        inputs, outputs = args.func(args)
        manifest_path = write_manifest(args, inputs, outputs)
        for path in [*outputs, manifest_path]:
            print(f"wrote {path}")
        return EXIT_OK
    except SystemExit as exc:  # --help / --version print and stop
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK
    except Exception as exc:  # noqa: BLE001 - single funnel into exit codes
        error = _map_exception(exc)
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
