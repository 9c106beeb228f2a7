"""Command-line entry point for schema generation, runs, and analyses.

Exit codes: 0 success, 1 usage, 2 I/O or configuration problem,
3 backend failure (the run is resumable from its checkpoint).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from random import Random

from . import analysis
from .backends import (
    AuthenticationError,
    BackendHardFailure,
    EvaluationFailure,
    HttpTransport,
    LlmEvaluator,
    OracleEvaluator,
    SchemaGenerationError,
    generate_schema,
    landscape_digest,
    load_landscape_file,
)
from .dataset import BuildingRecord, DatasetError, load_manifest, manifest_digest, split_records
from .engine import (
    CheckpointError,
    EvolutionRun,
    Mode,
    RunAborted,
    RunConfig,
    RunResult,
    checkpoint_config,
    load_checkpoint_file,
    write_file_durably,
)
from .schema import (
    CueSchema,
    DataItem,
    Genotype,
    SchemaError,
    checked,
    load_schema_file,
    render_cue_list,
    save_schema,
    schema_digest,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3

LOG_FILENAME = "run.log.jsonl"
CHECKPOINT_FILENAME = "checkpoint.json"
BEST_FILENAME = "best.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


# Flags that set a RunConfig field are stored under the field's name, so
# _flag_settings reads them all; each metavar keeps the flag's own name in
# --help. Their defaults are RunConfig's, so the flags default to None.
def _add_llm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", dest="llm_model", metavar="MODEL", default=None,
        help="chat model name (default gpt-4o)",
    )
    parser.add_argument(
        "--endpoint", dest="llm_endpoint", metavar="ENDPOINT", default=None,
        help="base URL override for the LLM API",
    )
    parser.add_argument(
        "--min-interval", dest="llm_min_interval", metavar="MIN_INTERVAL", type=float,
        default=None, help="minimum seconds between LLM requests (rate ceiling)",
    )


def _add_concurrency_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--concurrency", dest="evaluation_concurrency", metavar="CONCURRENCY", type=int,
        default=None, help="estimator calls in flight at once "
        "(default 1; leave at 1 for the oracle, which is CPU-bound)",
    )


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["oracle", "llm"], default=None)
    parser.add_argument(
        "--landscape", dest="landscape_path", metavar="LANDSCAPE", default=None,
        help="landscape JSON file (oracle backend)",
    )
    _add_llm_flags(parser)


def build_parser() -> _Parser:
    parser = _Parser(prog="clear-ga", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-schema", help="generate a cue schema from a dataset via the LLM")
    p.add_argument("--item", dest="data_item", required=True, choices=[i.value for i in DataItem])
    p.add_argument(
        "--dataset", dest="dataset_path", metavar="DATASET", required=True,
        help="dataset manifest JSON",
    )
    p.add_argument("--out", required=True, help="schema file to write")
    p.add_argument("--region", default=None, help="region override (default: first building's)")
    p.add_argument("--seed", type=int, default=None, help="representative sampling seed")
    p.add_argument("--clusters", type=int, default=8, help="target category count")
    p.add_argument("--retry-limit", type=int, default=2)
    p.add_argument("--current-year", type=int, default=None)
    _add_llm_flags(p)
    p.set_defaults(func=cmd_gen_schema)

    p = sub.add_parser("run", help="run the evolutionary search")
    p.add_argument("--mode", default=None, choices=[m.value for m in Mode])
    p.add_argument(
        "--schema", dest="schema_path", metavar="SCHEMA", default=None,
        help="schema JSON file, which names the data item",
    )
    p.add_argument(
        "--dataset", dest="dataset_path", metavar="DATASET", default=None,
        help="dataset manifest JSON",
    )
    p.add_argument("--out-dir", default=None, help="directory for log/checkpoint/best files")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", default=None, metavar="A..B", help="inclusive seed range loop")
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p.add_argument("--population-size", type=int, default=None)
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--parent-fraction", type=float, default=None)
    p.add_argument("--elites", type=int, default=None)
    p.add_argument(
        "--mutation-ops", dest="mutation_ops_per_child", metavar="MUTATION_OPS", type=int,
        default=None,
    )
    _add_concurrency_flag(p)
    p.add_argument("--retry-limit", type=int, default=None)
    p.add_argument("--current-year", type=int, default=None)
    p.add_argument("--train-fraction", type=float, default=None)
    p.add_argument(
        "--stop-after", type=int, default=None, metavar="GEN",
        help="pause after this generation's evaluation; resume later",
    )
    _add_backend_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("resume", help="continue a checkpointed run")
    p.add_argument("--checkpoint", required=True)
    _add_concurrency_flag(p)
    p.add_argument("--stop-after", type=int, default=None, metavar="GEN")
    p.add_argument("--endpoint", dest="llm_endpoint", metavar="ENDPOINT", default=None)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("ablate", help="remove each cue of a solution in turn and re-measure")
    p.add_argument("--genotype", required=True, help="best-genotype JSON from a run")
    p.add_argument("--schema", dest="schema_path", metavar="SCHEMA", required=True)
    p.add_argument("--dataset", dest="dataset_path", metavar="DATASET", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--seed", type=int, default=None, help="split seed (default: from genotype file)")
    p.add_argument(
        "--train-fraction", type=float, default=None,
        help="split fraction (default: from genotype file, else 0.6)",
    )
    p.add_argument("--current-year", type=int, default=None)
    p.add_argument("--retry-limit", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV report path")
    _add_backend_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("probe", help="repeat a single-cue evaluation to measure consistency")
    p.add_argument("--schema", dest="schema_path", metavar="SCHEMA", required=True)
    p.add_argument("--dataset", dest="dataset_path", metavar="DATASET", required=True)
    p.add_argument("--cue", required=True)
    p.add_argument("--category", default=None, help="category name (if the cue is ambiguous)")
    p.add_argument("--building", required=True, help="building id from the manifest")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--current-year", type=int, default=None)
    p.add_argument("--retry-limit", type=int, default=None)
    p.add_argument("--out", default=None, help="JSON report path")
    _add_backend_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("report", help="summarize one or more run logs")
    p.add_argument("--log", required=True, nargs="+", help="run log file(s)")
    p.add_argument("--out-dir", default=None, help="directory for CSV series")
    p.set_defaults(func=cmd_report)

    return parser


def _make_transport(config: RunConfig) -> HttpTransport:
    return HttpTransport(
        config.llm_endpoint, model=config.llm_model, min_request_interval=config.llm_min_interval
    )


def _make_evaluator(config: RunConfig):
    """The evaluator a config names."""
    if config.backend == "oracle":
        if not config.landscape_path:
            raise UsageError("oracle backend needs --landscape")
        return OracleEvaluator(load_landscape_file(config.landscape_path))
    return LlmEvaluator(
        _make_transport(config),
        retry_limit=config.retry_limit,
        current_year=config.current_year,
    )


def _parse_seeds(text: str) -> list[int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise UsageError(f"--seeds must look like A..B, got {text!r}")
    start, end = int(m.group(1)), int(m.group(2))
    if end < start:
        raise UsageError(f"--seeds range is empty: {text!r}")
    return list(range(start, end + 1))


def cmd_gen_schema(args) -> int:
    config = _merged_config(args, {})
    transport = _make_transport(config)
    training, _ = _split(config)
    try:
        schema = generate_schema(
            training,
            config.data_item,
            transport,
            Random(config.seed),
            region=args.region,
            cluster_target=args.clusters,
            retry_limit=config.retry_limit,
        )
    except SchemaGenerationError as exc:
        if exc.raw_response:
            raw_path = Path(args.out).with_suffix(".raw.txt")
            raw_path.write_text(exc.raw_response, encoding="utf-8")
            print(f"error: {exc} (raw response saved to {raw_path})", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    save_schema(schema, args.out)
    total = sum(len(c.cues) for c in schema.categories)
    print(f"wrote {args.out}: {schema.category_count} categories, {total} cues")
    for category in schema.categories:
        print(f"  {category.name}: {len(category.cues)} cues")
    return EXIT_OK


def _flag_settings(args) -> dict:
    """The RunConfig fields given on the command line."""
    return {
        f.name: getattr(args, f.name) for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }


def _merged_config(args, values: dict) -> RunConfig:
    """The RunConfig of ``values`` with the command line's flags over them."""
    try:
        return RunConfig(**{**values, **_flag_settings(args)})
    except TypeError as exc:
        raise UsageError(f"bad config: {exc}") from None


def _split(config: RunConfig) -> tuple[list[BuildingRecord], list[BuildingRecord]]:
    """The (training, test) split of a config's dataset, drawn at its seed."""
    records = load_manifest(config.dataset_path, current_year=config.current_year)
    return split_records(
        records, config.data_item, Random(config.seed), train_fraction=config.train_fraction
    )


def _open_run(config: RunConfig, schema: CueSchema):
    """What a config names besides its ``schema``: its (training, test) split and
    evaluator, and the schema, dataset and landscape digests that guard a run's
    checkpoint."""
    splits = _split(config)
    evaluator = _make_evaluator(config)
    digests = {
        "schema_sha256": schema_digest(schema),
        "dataset_sha256": manifest_digest(config.dataset_path),
    }
    if isinstance(evaluator, OracleEvaluator):
        digests["landscape_sha256"] = landscape_digest(evaluator.landscape)
    return splits, evaluator, digests


def _write_best(config: RunConfig, result: RunResult) -> None:
    """Write a finished run's best.json next to its checkpoint."""
    best = {
        "data_item": config.data_item.value,
        "mode": config.mode.value,
        "seed": config.seed,
        "train_fraction": config.train_fraction,
        "best_error": result.best_recorded_error,
        "cue_list": render_cue_list(result.best_genotype),
        "chromosomes": [list(ch) for ch in result.best_genotype.chromosomes],
    }
    text = json.dumps(best, indent=2) + "\n"
    write_file_durably(Path(config.checkpoint_path).with_name(BEST_FILENAME), text.encode("utf-8"))


def _finish(run: EvolutionRun, stop_after: int | None) -> RunResult | None:
    """Run to the end and write best.json next to the checkpoint; on a pause at
    ``stop_after``, print how to continue and return None instead."""
    result = run.run(stop_after_generation=stop_after)
    if not result.completed:
        print(
            f"paused after generation {run.generation}; resume with: "
            f"clear-ga resume --checkpoint {run.config.checkpoint_path}"
        )
        return None
    _write_best(run.config, result)
    return result


def _run_one(config: RunConfig, schema: CueSchema, out_dir: Path, stop_after: int | None) -> None:
    """Run the search ``config`` names over ``schema``, writing into ``out_dir``."""
    (training, _), evaluator, digests = _open_run(config, schema)
    config = replace(
        config, **digests,
        checkpoint_path=str(out_dir / CHECKPOINT_FILENAME), log_path=str(out_dir / LOG_FILENAME),
    )
    result = _finish(EvolutionRun(config, schema, evaluator, training), stop_after)
    if result is not None:
        print(
            f"seed {config.seed}: best error {result.best_recorded_error:g} "
            f"({len(result.per_generation_log)} generations logged)"
        )
        print(f"  best cues: {render_cue_list(result.best_genotype) or '(none)'}")
        print(f"  outputs in {out_dir}")


def cmd_run(args) -> int:
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(values, dict):
            raise DatasetError(f"config file {args.config} must be a JSON object")
    settings = {**values, **_flag_settings(args)}
    schema_path = settings.get("schema_path")
    if not schema_path or not settings.get("dataset_path"):
        raise UsageError("--schema and --dataset are required")
    # The schema names the data item; EvolutionRun refuses a file that names another.
    schema = load_schema_file(checked(schema_path, "schema_path", "str | None"))
    seeds = None if args.seeds is None else _parse_seeds(args.seeds)
    config = _merged_config(args, {"data_item": schema.data_item, **values})
    if seeds is None and "seed" not in settings and config.backend == "oracle":
        raise UsageError("oracle runs need --seed (or --seeds) for reproducibility")
    # Absolute, so the run can be resumed from any working directory.
    config = replace(config, **{
        name: str(Path(path).resolve())
        for name in ("schema_path", "dataset_path", "landscape_path")
        if (path := getattr(config, name))
    })
    out_dir = Path(args.out_dir) if args.out_dir else Path("runs")
    for seed in seeds or [config.seed]:
        directory = out_dir / f"seed{seed}" if seeds else out_dir
        _run_one(replace(config, seed=seed), schema, directory, args.stop_after)
    return EXIT_OK


def cmd_resume(args) -> int:
    doc = load_checkpoint_file(args.checkpoint)
    config = checkpoint_config(doc)
    if not config.schema_path or not config.dataset_path:
        raise CheckpointError("checkpoint config lacks schema/dataset paths")
    settings = _flag_settings(args)
    # A moved run directory keeps its old paths in the config; write where the
    # checkpoint now is. Neither path is part of the digest.
    checkpoint = Path(args.checkpoint)
    if not config.checkpoint_path or checkpoint.resolve() != Path(config.checkpoint_path).resolve():
        settings.update(
            checkpoint_path=str(checkpoint), log_path=str(checkpoint.with_name(LOG_FILENAME))
        )
    config = replace(config, **settings)
    doc["config"] = config.to_json_obj()  # EvolutionRun.resume reads its config here
    schema = load_schema_file(config.schema_path)
    (training, _), evaluator, digests = _open_run(config, schema)
    run = EvolutionRun.resume(doc, schema, evaluator, training, **digests)
    finished = run.finished
    result = _finish(run, args.stop_after)
    if finished:
        print(f"run already complete at generation {run.generation}; nothing to do")
    elif result is not None:
        print(f"resumed run finished: best error {result.best_recorded_error:g}")
    return EXIT_OK


def _load_best_genotype(path: str, item: DataItem) -> tuple[Genotype, dict]:
    """The genotype in a best-genotype file, and the ``seed`` and ``train_fraction``
    it records. Each is checked here: a string seed would seed another split
    without a word, and a recorded ``data_item`` must be ``item``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        genotype = Genotype(tuple(tuple(ch) for ch in doc["chromosomes"]))
        if doc.get("data_item", item.value) != item.value:
            raise ValueError(f"data_item {doc['data_item']!r} is not the schema's {item.value!r}")
        settings = {name: checked(doc[name], name, kind) for name, kind
                    in (("seed", "int"), ("train_fraction", "float")) if name in doc}
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise DatasetError(f"bad genotype file {path}: {exc}") from None
    return genotype, settings


def cmd_ablate(args) -> int:
    schema = load_schema_file(args.schema_path)
    genotype, settings = _load_best_genotype(args.genotype, schema.data_item)
    config = _merged_config(args, {"data_item": schema.data_item, **settings})
    (training, test), evaluator, _ = _open_run(config, schema)
    split = training if args.split == "train" else test
    report = analysis.ablate(genotype, schema, evaluator, split, schema.data_item)
    print(f"base error on {args.split} split: {report.base_error:g}")
    for row in report.rows:
        if row.failed:
            print(f"  - {row.cue} [{row.category}]: evaluation failed")
        else:
            print(f"  - {row.cue} [{row.category}]: {row.new_error:g} (delta {row.delta:+g})")
    if report.mean_new_error is not None:
        print(f"mean new error {report.mean_new_error:g}, stddev {report.stddev:g}")
    if report.failed_rows:
        print(f"warning: {report.failed_rows} row(s) failed and were excluded")
    if args.out:
        _write_csv(Path(args.out), [asdict(row) for row in report.rows])
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    schema = load_schema_file(args.schema_path)
    config = _merged_config(args, {"data_item": schema.data_item})
    records = load_manifest(config.dataset_path, current_year=config.current_year)
    by_id = {r.id: r for r in records}
    if args.building not in by_id:
        raise DatasetError(f"building {args.building!r} not in manifest")
    matches = [
        i for i, category in enumerate(schema.categories)
        if args.cue in category.cues and (args.category is None or category.name == args.category)
    ]
    if not matches:
        raise UsageError(f"cue {args.cue!r} not found in schema")
    if len(matches) > 1:
        raise UsageError(f"cue {args.cue!r} is in several categories; pass --category")
    evaluator = _make_evaluator(config)
    report = analysis.consistency_probe(
        schema, matches[0], args.cue, by_id[args.building], evaluator, schema.data_item, args.n
    )
    cv_text = f"{report.cv:.4f}" if report.cv is not None else "undefined (mean 0)"
    print(f"cue {report.cue!r} on building {args.building} ({report.samples} samples)")
    print(f"  disagreement rate: {report.disagreement_rate:.2f}")
    print(f"  cv: {cv_text}")
    print(f"  responses: {report.responses}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(asdict(report), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return EXIT_OK


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(
            {k: (json.dumps(v) if isinstance(v, list) else v) for k, v in row.items()}
            for row in rows
        )


def cmd_report(args) -> int:
    labeled, paths = [], {}
    for path in args.log:
        config, rows = analysis.load_run_log(path)
        label = Path(path).parent.name or Path(path).stem
        if config:
            cfg = config.get("config", {})
            label = f"{cfg.get('data_item', label)}_{cfg.get('mode', '')}_s{cfg.get('seed', '')}"
        if label in paths:
            raise analysis.ReportError(f"{paths[label]} and {path} both log run {label}")
        paths[label] = path
        labeled.append((label, rows))
        print(analysis.render_text_summary(label, rows))
    summary = analysis.summarize(labeled)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, series in summary["runs"].items():
            path = out_dir / f"{label}_series.csv"
            _write_csv(path, series)
            print(f"wrote {path}")
        if "comparison" in summary:
            path = out_dir / "comparison.csv"
            _write_csv(path, summary["comparison"])
            print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"resume with: clear-ga resume --checkpoint {exc.checkpoint_path}", file=sys.stderr)
        return EXIT_BACKEND
    except (BackendHardFailure, EvaluationFailure, SchemaGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (AuthenticationError, SchemaError, DatasetError, CheckpointError,
            analysis.ReportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
