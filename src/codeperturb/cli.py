"""Command-line entry point.

Subcommands: perturb, peso-run, random-run, filter, make-tasks, evaluate,
report, similarity. Exit status: 0 success, 1 usage/config error,
2 partial failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import datetime
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bench import (
    AccuracyReport,
    CompletionTask,
    Judge,
    PerturbedPair,
    build_tasks,
    evaluate_tasks,
    filter_corpus,
    render_report,
    report_run,
)
from .core import (
    CodeSample,
    Language,
    PesoConfig,
    build_catalog,
    load_config,
)
from .corpusio import (
    corpus_digest,
    read_completions,
    read_corpus,
    read_jsonl,
    safe_name,
    write_jsonl,
)
from .errors import (
    CodePerturbError,
    ConfigError,
    NotApplicable,
    RegionUnavailable,
    UnsupportedCombination,
)
from .peso import derive_seed, run, run_random_baseline
from .similarity import score_pair
from .transform import hybrid_engine, perturb, rule_engine_apply
from .transform.llm import HttpTransport, LlmConfig, ReplayTransport, llm_engine
from .verify import ProgramRunner, ServerPool, Toolchain, default_toolchains, verify


def _usable_cpus() -> int:
    """The CPUs this process may run on, which can be fewer than the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="codeperturb", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--corpus", required=True, help="corpus JSONL ({id, language, content})")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", default="out")
        p.add_argument("--engine", choices=["rule", "llm", "hybrid"], default=None)
        p.add_argument("--replay-dir", help="canned LLM replies for offline runs")
        p.add_argument("--llm-base-url")
        p.add_argument("--llm-model")
        p.add_argument(
            "--equivalence",
            choices=["auto", "exec", "stub"],
            default="auto",
            help="verification stages: auto compiles, then runs the input suite where a sample has"
            " one; exec does the same and needs a suite for every sample; stub checks syntax only"
            " and builds and runs nothing",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=_usable_cpus(),
            help="worker processes, each running one sample at a time; outputs do not depend on it"
            " (default: the number of CPUs this process may run on)",
        )

    p = sub.add_parser("perturb", help="apply one method once per sample")
    common(p)
    p.add_argument("--method", required=True)

    for name in ("peso-run", "random-run"):
        p = sub.add_parser(name, help=f"{name} over a corpus")
        common(p)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--temperature", type=float, default=None)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--min-tile-len", type=int, default=None)

    p = sub.add_parser("filter", help="apply the corpus filtering rules")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output-dir", default="out")

    p = sub.add_parser("make-tasks", help="build completion tasks from perturbed pairs")
    p.add_argument("--pairs", required=True, help="pairs.jsonl from a peso-run/random-run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default="out")

    p = sub.add_parser("evaluate", help="grade completions against tasks")
    p.add_argument("--tasks", required=True)
    p.add_argument("--completions", required=True)
    p.add_argument("--judge", choices=["exact", "normalized", "external"], default="normalized")
    p.add_argument("--external-verdicts", help="JSONL of {task_id, correct} for the external judge")
    p.add_argument("--output-dir", default="out")

    p = sub.add_parser("report", help="render a summary document")
    p.add_argument("--summary", required=True, help="summary.jsonl of a run")
    p.add_argument("--baseline", help="summary.jsonl of a random baseline run")
    p.add_argument("--accuracy", help="accuracy.json from evaluate")
    p.add_argument("--output-dir", default="out")

    p = sub.add_parser("similarity", help="score two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--language", required=True)
    p.add_argument("--config")
    p.add_argument("--min-tile-len", type=int, default=None)
    return parser


def _peso_config(args) -> tuple[PesoConfig, dict]:
    base, rest = (PesoConfig(), {})
    if getattr(args, "config", None):
        base, rest = load_config(args.config)
    overrides = {}
    for flag, field in (
        ("mu", "mu"),
        ("nu", "nu"),
        ("temperature", "temperature"),
        ("max_iter", "max_iter"),
        ("threshold", "ss_threshold"),
        ("min_tile_len", "min_tile_len"),
        ("seed", "rng_seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if overrides:
        base = PesoConfig(**{**dataclasses.asdict(base), **overrides})
    return base, rest


def _build_engine(args, rest: dict):
    kind = args.engine or rest.get("engine") or "rule"
    if kind == "rule":
        return rule_engine_apply
    if args.replay_dir:
        transport = ReplayTransport(args.replay_dir)
    else:
        llm_rest = rest.get("llm", {})
        base_url = args.llm_base_url or llm_rest.get("base_url")
        if not base_url:
            raise ConfigError("llm engine needs --llm-base-url, an llm.base_url config key, or --replay-dir")
        transport = HttpTransport(
            LlmConfig(
                base_url=base_url,
                model=args.llm_model or llm_rest.get("model", "gpt-4o"),
                api_key_env=llm_rest.get("api_key_env", "CODEPERTURB_API_KEY"),
                timeout=float(llm_rest.get("timeout", 60.0)),
            )
        )
    llm = llm_engine(transport)
    return llm if kind == "llm" else hybrid_engine(llm)


def _oracle(args, sample: CodeSample, suite: tuple[str, ...],
            toolchains) -> tuple[Toolchain | None, tuple[str, ...]]:
    """The toolchain that builds and runs `sample` (None under --equivalence
    stub or when `toolchains` has none) and the input suite its execution
    oracle runs (() when it runs none); ConfigError when --equivalence exec
    cannot run it."""
    toolchain = None if args.equivalence == "stub" else toolchains.get(sample.language)
    if args.equivalence == "exec" and not (suite and toolchain):
        raise ConfigError(
            f"--equivalence exec needs an input_suite and a toolchain for {sample.language.value}"
        )
    return toolchain, suite if toolchain else ()


def _write_manifest(out: Path, command: str, config: PesoConfig, rest: dict, digest: str, args) -> None:
    manifest = {
        "command": command,
        "config": dataclasses.asdict(config),
        "engine": args.engine or rest.get("engine") or "rule",
        "equivalence": getattr(args, "equivalence", None),
        "corpus_digest": digest,
        "seed": config.rng_seed,
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# In a pool worker: runs one sample, given its index in the corpus.
_worker_job = None


def _start_worker(job, servers: ServerPool) -> None:
    """Pool initializer. The fork start method hands `job` over without
    pickling it; the worker's copy of `servers` is stopped, and its fork
    servers reaped, before the worker exits."""
    global _worker_job
    from multiprocessing.util import Finalize

    _worker_job = job
    Finalize(None, servers.stop, exitpriority=0)


def _run_in_worker(index: int):
    return _worker_job(index)


def _settled(fn, *args) -> concurrent.futures.Future:
    """A future that holds fn(*args), or the exception it raised."""
    future = concurrent.futures.Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _each_sample(args, samples, work) -> list[concurrent.futures.Future]:
    """Run `work(sample, verifier)` for every (sample, suite) of `samples`,
    and return the futures in corpus order once all are done. A ConfigError
    for any sample is raised before any work starts. With --jobs above 1
    and more than one sample, min(--jobs, samples) worker processes take the
    samples, largest text first. They are forked from this process, which
    must run no other thread (the CLI starts none); the closures stay in
    the workers, and only indices and results (or errors) are pickled.
    Otherwise the samples run one by one on the calling thread: the
    library is single-threaded, and no sample runs on a thread of its own.
    Each sample's runner is closed when its work ends, and each process's
    fork servers when it has run its last sample."""
    toolchains = default_toolchains()
    oracles = [_oracle(args, sample, suite, toolchains) for sample, suite in samples]
    servers = ServerPool()

    def one(index):
        toolchain, suite = oracles[index]
        runner = ProgramRunner(toolchain, servers) if toolchain else None
        try:
            return work(samples[index][0], functools.partial(verify, runner=runner, suite=suite))
        finally:
            if runner:
                runner.close()

    workers = min(args.jobs, len(samples))
    if workers <= 1:
        try:
            return [_settled(one, index) for index in range(len(samples))]
        finally:
            servers.stop()
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    largest_first = sorted(range(len(samples)), key=lambda index: -len(samples[index][0].text))
    with ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(one, servers)
    ) as pool:
        futures = {index: pool.submit(_run_in_worker, index) for index in largest_first}
    return [futures[index] for index in range(len(samples))]


def _write_report(out: Path, doc: dict) -> None:
    """Write `doc` (from report_run) to report.json and its rendering to
    report.txt in `out`, and print the rendering."""
    (out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    rendered = render_report(doc)
    (out / "report.txt").write_text(rendered)
    print(rendered, end="")


def _run_over_corpus(args, optimizer) -> int:
    catalog = build_catalog()
    config, rest = _peso_config(args)
    engine = _build_engine(args, rest)
    samples = read_corpus(args.corpus)
    out = Path(args.output_dir)
    _write_manifest(out, args.command, config, rest, corpus_digest(samples), args)
    traces_dir = out / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    def work(sample, verifier):
        cfg = dataclasses.replace(config, rng_seed=derive_seed(config.rng_seed, sample.id))
        return optimizer(sample, engine, catalog, cfg, verifier)

    failures = []
    results = []
    for (sample, _), future in zip(samples, _each_sample(args, samples, work)):
        try:
            results.append((sample, future.result()))
        except CodePerturbError as exc:
            failures.append({
                "sample_id": sample.id,
                "error": str(exc),
                "partial_trace": [r.to_dict() for r in getattr(exc, "partial_trace", ())],
            })

    summaries, pairs, perturbed = [], [], []
    for sample, result in results:
        write_jsonl(
            traces_dir / f"{safe_name(sample.id)}.jsonl",
            (r.to_dict() for r in result.records),
        )
        summary = result.summary.to_dict()
        summaries.append(summary)
        perturbed.append(
            {
                "id": sample.id,
                "language": sample.language.value,
                "content": result.final.text,
                "lineage": list(result.final.lineage),
            }
        )
        pairs.append(
            {
                "id": sample.id,
                "language": sample.language.value,
                "original": sample.text,
                "perturbed": result.final.text,
                "entry_points": summary["entry_points"],
                "function_map": summary["function_map"],
                "final_ss": summary["final_ss"],
            }
        )
    write_jsonl(out / "summary.jsonl", summaries)
    write_jsonl(out / "perturbed.jsonl", perturbed)
    write_jsonl(out / "pairs.jsonl", pairs)
    if failures:
        write_jsonl(out / "failures.jsonl", failures)
    _write_report(out, report_run(summaries))
    if failures:
        print(f"{len(failures)} sample(s) failed; see failures.jsonl", file=sys.stderr)
        return 2
    return 0


def cmd_peso(args) -> int:
    return _run_over_corpus(args, run)


def cmd_random(args) -> int:
    return _run_over_corpus(args, run_random_baseline)


def cmd_perturb(args) -> int:
    catalog = build_catalog()
    config, rest = _peso_config(args)
    engine = _build_engine(args, rest)
    method = catalog.get(args.method)
    samples = read_corpus(args.corpus)
    out = Path(args.output_dir)
    _write_manifest(out, "perturb", config, rest, corpus_digest(samples), args)

    def work(sample, verifier):
        record = {"sample_id": sample.id, "method": method.id}
        try:
            outcome = perturb(engine, sample, method, derive_seed(config.rng_seed, sample.id))
            report = verifier(sample, outcome.candidate)
            score = score_pair(sample, outcome.candidate, config) if report.passed else None
            record.update(
                {
                    "applied": True,
                    "entry_point": outcome.entry_point,
                    "engine": outcome.engine_used.value,
                    "verified": report.passed,
                    "verification": report.to_dict(),
                    "content": outcome.candidate.text,
                    "score": None
                    if score is None
                    else {"s1": score.s1, "s2": score.s2, "ss": score.ss},
                }
            )
        except (NotApplicable, UnsupportedCombination) as exc:
            # A legitimate outcome: the method has no site in this sample,
            # or the engine has no rule for this sample's language.
            record.update({"applied": False, "reason": str(exc)})
        except CodePerturbError as exc:
            record.update({"applied": False, "error": f"{type(exc).__name__}: {exc}"})
        return record

    outcomes = [future.result() for future in _each_sample(args, samples, work)]
    write_jsonl(out / "outcomes.jsonl", outcomes)
    applied = sum(1 for r in outcomes if r.get("applied"))
    print(f"applied {method.id} to {applied}/{len(outcomes)} sample(s) -> {out/'outcomes.jsonl'}")
    return 2 if any("error" in r for r in outcomes) else 0


def cmd_filter(args) -> int:
    samples = read_corpus(args.corpus)
    verdicts = filter_corpus([s for s, _ in samples])
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / "verdicts.jsonl", (v.to_dict() for v in verdicts))
    kept = sum(v.kept for v in verdicts)
    counts: dict[str, int] = {}
    for v in verdicts:
        for reason in v.reasons:
            counts[reason.value] = counts.get(reason.value, 0) + 1
    print(f"kept {kept}/{len(verdicts)}")
    for reason, count in sorted(counts.items()):
        print(f"  {reason}: {count}")
    return 0


def cmd_make_tasks(args) -> int:
    records = read_jsonl(args.pairs)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    skipped = []
    for record in records:
        language = Language.parse(record["language"])
        pair = PerturbedPair(
            original=CodeSample(id=record["id"], language=language, text=record["original"]),
            perturbed=CodeSample(
                id=record["id"],
                language=language,
                text=record["perturbed"],
                lineage=("peso",),
            ),
            entry_points=tuple(record.get("entry_points", ())),
            function_map=record.get("function_map", {}),
        )
        try:
            tasks.extend(t.to_dict() for t in build_tasks(pair, seed=derive_seed(args.seed, record["id"])))
        except RegionUnavailable as exc:
            skipped.append({"sample_id": record["id"], "error": str(exc)})
    write_jsonl(out / "tasks.jsonl", tasks)
    if skipped:
        write_jsonl(out / "tasks_skipped.jsonl", skipped)
    print(f"built {len(tasks)} task(s) from {len(records)} pair(s), skipped {len(skipped)}")
    return 2 if skipped else 0


def cmd_evaluate(args) -> int:
    tasks = [CompletionTask.from_dict(r) for r in read_jsonl(args.tasks)]
    completions = read_completions(args.completions)
    judge = {"exact": Judge.EXACT_MATCH, "normalized": Judge.NORMALIZED_MATCH, "external": Judge.EXTERNAL}[
        args.judge
    ]
    external = None
    if judge is Judge.EXTERNAL:
        if not args.external_verdicts:
            raise ConfigError("--judge external requires --external-verdicts")
        verdict_map = {r["task_id"]: bool(r["correct"]) for r in read_jsonl(args.external_verdicts)}
        external = lambda task, completion: verdict_map.get(task.task_id, False)
    report = evaluate_tasks(tasks, completions, judge, external_judge=external)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "accuracy.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    for bucket, stats in sorted(report.buckets.items()):
        print(f"{bucket[0]} @{bucket[1]} lines: {stats['correct']}/{stats['total']} = {stats['accuracy']:.3f}")
    for size, delta in sorted(report.deltas.items()):
        print(f"delta @{size} lines: {delta:+.3f}")
    return 0


def cmd_report(args) -> int:
    summaries = read_jsonl(args.summary)
    baseline = read_jsonl(args.baseline) if args.baseline else None
    accuracy = None
    if args.accuracy:
        accuracy = AccuracyReport.from_dict(json.loads(Path(args.accuracy).read_text()))
    doc = report_run(summaries, accuracy=accuracy, baseline_summaries=baseline)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, doc)
    return 0


def cmd_similarity(args) -> int:
    language = Language.parse(args.language)
    config, _ = _peso_config(args)
    a = CodeSample(id=args.file_a, language=language, text=Path(args.file_a).read_text())
    b = CodeSample(id=args.file_b, language=language, text=Path(args.file_b).read_text())
    score = score_pair(a, b, config)
    print(f"s1={score.s1:.4f} s2={score.s2:.4f} ss={score.ss:.4f}")
    return 0


_HANDLERS = {
    "perturb": cmd_perturb,
    "peso-run": cmd_peso,
    "random-run": cmd_random,
    "filter": cmd_filter,
    "make-tasks": cmd_make_tasks,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "similarity": cmd_similarity,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CodePerturbError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
