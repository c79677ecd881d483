"""codeperturb benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fixture-exec --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. A repetition runs as one or more units, each in a
fresh interpreter (``worker.py``). The units of one run reuse the inputs
generated from ``--seed`` and run in turn for about ``--seconds``. With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced repetition. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fixture-exec", "large-stub", "oneshot-exec")
MAX_ITER = 3  # PESO main-loop budget for both peso-run workloads
LARGE_TARGETS = (1000, 2000, 4000)  # normalized tokens of the large-stub modules
FIXTURE_UNITS = 3  # fixture-exec's untraced units, each a round-robin share of the fixtures
MIN_TILE_LEN = 9  # PesoConfig default, used by the score oracle
WORKER_TIMEOUT_S = 170
SETUP_PROBES = 4  # timed set-ups before the repetitions, and as many after them
SETUP_WARMUPS = 2  # the first set-ups after a pause may compile bytecode or find caches cold
CURVE_POINTS = (("100", 100, 3), ("1k", 1000, 3), ("4k", 4000, 1), ("10k", 10000, 1))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    """The CLI commands of one repetition and how to read their outputs.

    A repetition is made of units, each run in a fresh interpreter. Parts
    of a workload that do not depend on each other are units of their own
    in untraced runs: each method's perturb call in oneshot-exec, and in
    fixture-exec a peso-run over each of FIXTURE_UNITS round-robin shares of
    the fixtures (the optimizer seeds every sample on its own, so the split
    leaves its decisions alone). A run then fills --seconds with shorter
    units instead of
    fitting few long repetitions, and takes a median per unit. large-stub
    stays one unit, so that its samples share the --jobs threads.
    """

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        rng = inputs.rng_for(name, seed)
        fixtures = inputs.load_fixtures(ROOT)
        self.originals = {r["id"]: r for r in fixtures}
        records = fixtures
        if name == "large-stub":
            records = inputs.large_corpus(fixtures, rng, LARGE_TARGETS)
            self.originals = {r["id"]: r for r in records}
        elif name == "oneshot-exec":
            self.methods = inputs.oneshot_methods(rng)
        self.records = records
        self.samples = len(records)
        self.corpus = work / "corpus.jsonl"
        inputs.write_corpus(self.corpus, records)

    def units(self, split: bool) -> list[tuple[str, ...]]:
        """The units of one repetition: each the methods (oneshot-exec) or
        sample ids (fixture-exec) it covers; () covers the whole workload."""
        if not split or self.name == "large-stub":
            return [()]
        if self.name == "oneshot-exec":
            return [(m,) for m in self.methods]
        ids = [r["id"] for r in self.records]
        return [tuple(ids[k::FIXTURE_UNITS]) for k in range(FIXTURE_UNITS)]

    def unit_records(self, unit: tuple[str, ...]) -> list[dict]:
        if self.name != "fixture-exec" or not unit:
            return self.records
        return [r for r in self.records if r["id"] in unit]

    def corpus_for(self, unit: tuple[str, ...]) -> Path:
        if self.name != "fixture-exec" or not unit:
            return self.corpus
        path = self.corpus.with_name(f"corpus-{self.units(split=True).index(unit)}.jsonl")
        if not path.exists():
            inputs.write_corpus(path, self.unit_records(unit))
        return path

    def label(self, unit: tuple[str, ...]) -> str:
        if self.name == "fixture-exec" and unit:
            return f"share {self.units(split=True).index(unit)} ({len(unit)} samples)"
        return "+".join(unit) or "all"

    def commands(self, out: Path, unit: tuple[str, ...]) -> list[list[str]]:
        cli_seed = 0 if self.name == "large-stub" else self.seed
        common = ["--corpus", str(self.corpus_for(unit)), "--seed", str(cli_seed)]
        if self.name == "oneshot-exec":
            return [["perturb", *common, "--method", m, "--output-dir", str(out / m)]
                    for m in unit or self.methods]
        return [["peso-run", *common, "--jobs", str(nproc()), "--max-iter", str(MAX_ITER),
                 "--output-dir", str(out)]]

    def read(self, out: Path, unit: tuple[str, ...], exit_codes: list[int]) -> dict:
        """Counts, objective and decision records of one unit's run."""
        if self.name == "oneshot-exec":
            groups = [(m, _jsonl(out / m / "outcomes.jsonl")) for m in unit or self.methods]
            records = [r for _, rs in groups for r in rs]
            failed = sum("error" in r for r in records)
            verified = [r for r in records if r.get("verified")]
            attempted = self.samples * len(groups)
            return {
                "attempted": attempted,
                "failed": _failed(failed, exit_codes, attempted),
                "candidates": sum("verified" in r for r in records),
                "ss": [r["score"]["ss"] for r in verified],
                "groups": groups,
                "verified": verified,
            }
        summaries = _jsonl(out / "summary.jsonl")
        groups = [(p.stem, _jsonl(p)) for p in sorted((out / "traces").glob("*.jsonl"))]
        reached = sum(
            1 for _, rs in groups for r in rs
            if isinstance(r.get("verification"), dict) and "skipped" not in r["verification"]
        )
        samples = len(self.unit_records(unit))
        return {
            "attempted": samples,
            "failed": _failed(len(_jsonl(out / "failures.jsonl")), exit_codes, samples),
            "candidates": reached,
            "ss": [s["final_ss"] for s in summaries],
            "groups": groups,
            "summaries": summaries,
            "finals": {r["id"]: r["content"] for r in _jsonl(out / "perturbed.jsonl")},
        }


def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _failed(recorded: int, exit_codes: list[int], attempted: int) -> int:
    """Failures from the output records, raised to one when the CLI exited
    2 without recording any, and to all when it did not finish."""
    if any(code not in (0, 2) for code in exit_codes):
        return attempted
    if 2 in exit_codes:
        return max(recorded, 1)
    return recorded


def run_worker(job: dict, work: Path, name: str) -> dict:
    job_path = work / f"{name}.job.json"
    result_path = work / f"{name}.result.json"
    job_path.write_text(json.dumps({"src": str(ROOT / "src"), **job}), encoding="utf-8")
    with open(work / f"{name}.log", "wb") as log:
        # Its own process group, so that a timeout also stops the compilers
        # and programs the worker started.
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=work, start_new_session=True,
        )
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except BaseException:  # a timeout, or this process being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        tail = (work / f"{name}.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"worker {name} exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_reps(workload: Workload, work: Path, seconds: float, trace: bool, split: bool,
             first: int = 0) -> list[dict]:
    """Units in turn, each in a fresh interpreter: every unit once, then on
    while the next one (estimated by its slowest run so far) would end less
    than half its length after `seconds`, so that the units fill `seconds`
    as nearly as they can. Unless `split`, a repetition is one unit."""
    units = workload.units(split)
    reps = []
    start = time.perf_counter()
    slowest = {}
    while True:
        unit = units[len(reps) % len(units)]
        if len(reps) >= len(units) and time.perf_counter() - start + slowest[unit] / 2 > seconds:
            return reps
        began = time.perf_counter()
        k = first + len(reps)
        out = work / f"rep{k}"
        result = run_worker({"mode": "rep", "corpus": str(workload.corpus), "trace": trace,
                             "commands": workload.commands(out, unit)}, work, f"rep{k}")
        result["unit"] = unit
        result["out"] = workload.read(out, unit, result["exit_codes"])
        reps.append(result)
        slowest[unit] = max(slowest.get(unit, 0.0), time.perf_counter() - began)


def by_unit(reps: list[dict]) -> list[list[dict]]:
    """The runs of each unit, units in the order they first ran."""
    groups: dict[tuple[str, ...], list[dict]] = {}
    for r in reps:
        groups.setdefault(r["unit"], []).append(r)
    return list(groups.values())


def repetition_wall(reps: list[dict]) -> float:
    """Time of one repetition: the sum over units of each unit's median."""
    return sum(median(r["wall_s"] for r in runs) for runs in by_unit(reps))


def check_outputs(workload: Workload, rep_sets: list[list[dict]], work: Path) -> tuple[bool, list[str], str]:
    """(all checks pass, report lines, decisions digest). `rep_sets` holds
    the run's untraced runs and, in a traced run, its traced ones."""
    lines = []

    def digest(outs: list[dict]) -> str:
        return checks.decisions_digest([g for out in outs for g in out["groups"]], scrub=str(work))

    same_unit = all(len({digest([r["out"]]) for r in runs}) == 1 for reps in rep_sets for runs in by_unit(reps))
    # Each set's decisions: those of the first run of every unit.
    digests = {digest([runs[0]["out"] for runs in by_unit(reps)]) for reps in rep_sets}
    ok = same_unit and len(digests) == 1
    lines.append(f"check decisions identical across {sum(map(len, rep_sets))} unit run(s): {ok}")
    outs = [runs[0]["out"] for runs in by_unit(rep_sets[0])]
    finals = {sid: text for out in outs for sid, text in out.get("finals", {}).items()}
    summaries = [s for out in outs for s in out.get("summaries", [])]
    if not any(records for out in outs for _, records in out["groups"]):
        lines.append("check outputs present: False")
        ok = False
    inputs_of = {sid: r.get("input_suite", []) for sid, r in workload.originals.items()}
    if workload.name == "fixture-exec":
        pairs = [{"id": sid, "language": workload.originals[sid]["language"],
                  "original": workload.originals[sid]["content"], "candidate": text,
                  "inputs": inputs_of[sid]} for sid, text in finals.items()]
        bad = checks.behaviour_mismatches(pairs, work, nproc())
        lines.append(f"check final programs behave like originals ({len(pairs)}): mismatches {bad}")
        bad_scores = checks.score_mismatches(summaries, finals, workload.originals, MIN_TILE_LEN)
        lines.append(f"check final s1/s2 against oracles ({len(summaries)}): mismatches {bad_scores}")
        ok = ok and not bad and not bad_scores and len(pairs) == len(summaries) == workload.samples
    elif workload.name == "large-stub":
        bad = checks.unparsable(finals)
        lines.append(f"check final modules parse ({len(finals)}): failures {bad}")
        ok = ok and not bad and len(finals) == len(summaries) == workload.samples
    else:
        pairs = [{"id": f"{r['method']}:{r['sample_id']}", "language": workload.originals[r["sample_id"]]["language"],
                  "original": workload.originals[r["sample_id"]]["content"], "candidate": r["content"],
                  "inputs": inputs_of[r["sample_id"]]} for out in outs for r in out["verified"]]
        bad = checks.behaviour_mismatches(pairs, work, nproc())
        lines.append(f"check verified candidates behave like originals ({len(pairs)}): mismatches {bad}")
        ok = ok and not bad
    return ok, lines, digests.pop() if len(digests) == 1 else "mismatch"


def setup_times(workload: Workload, work: Path, name: str, warmups: int = 0) -> list[float]:
    """SETUP_PROBES set-up times in fresh interpreters, after `warmups` untimed ones."""
    job = {"mode": "setup", "corpus": str(workload.corpus), "trace": False}
    times = [run_worker(job, work, f"{name}{k}")["setup_s"] for k in range(warmups + SETUP_PROBES)]
    return times[warmups:]


def curve(workload: Workload, work: Path) -> dict:
    fixtures = inputs.load_fixtures(ROOT)
    rng = inputs.rng_for("curve", workload.seed)
    points = []
    for label, target, repeat in CURVE_POINTS:
        original, candidate = inputs.curve_pair(fixtures, rng, target)
        points.append({"label": label, "repeat": repeat, "original": original, "candidate": candidate})
    job = {"mode": "curve", "corpus": str(workload.corpus), "trace": True, "curve": points}
    return run_worker(job, work, "curve")["curve"]


def env_stamp() -> dict:
    gcc = shutil.which("gcc")
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        rev = proc.stdout.strip() or rev
    return {
        "nproc": nproc(),
        "jobs": nproc(),
        "python": platform.python_version(),
        "gcc": subprocess.run([gcc, "-dumpfullversion"], capture_output=True, text=True).stdout.strip()
        if gcc else None,
        "numpy": importlib.metadata.version("numpy"),
        "git_revision": rev,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so that the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in (ROOT / "src" / "codeperturb" / "cli.py", ROOT / "tests" / "oracles.py",
                   ROOT / "tests" / "fixtures" / "manifest.json"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run inside a codeperturb checkout",
                  file=sys.stderr)
            return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    (work / "tmp").mkdir()
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    # Let the warm-up set-ups write bytecode caches, as an installed program
    # has them, so that setup_s times imports rather than compilation.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        workload = Workload(args.workload, args.seed, work)
        setups = setup_times(workload, work, "setup", SETUP_WARMUPS)
        if args.trace:
            # Whole repetitions, so that the spans cover one, and the
            # untraced one compares with them for trace.overhead_s.
            plain = run_reps(workload, work, 0, trace=False, split=False)
            reps = run_reps(workload, work, args.seconds, trace=True, split=False, first=len(plain))
            rep_sets = [plain, reps]
        else:
            reps = run_reps(workload, work, args.seconds, trace=False, split=True)
            rep_sets = [reps]
        setups += [r["setup_s"] for rs in rep_sets for r in rs] + setup_times(workload, work, "setup_after")
        ok, lines, digest = check_outputs(workload, rep_sets, work)

        attempted = sum(r["out"]["attempted"] for r in reps)
        failed = sum(r["out"]["failed"] for r in reps)
        if args.trace:
            per_rep = [spans.layer_metrics(r["spans"], r["probes"]) for r in reps]
            metrics = {k: (median([m[k] for m in per_rep]), _unit(k)) for k in per_rep[0]}
            metrics.update({k: (v, "s") for k, v in curve(workload, work).items()})
            overhead = median([r["wall_s"] for r in reps]) - plain[0]["wall_s"]
            metrics["trace.overhead_s"] = (overhead, "s")
            absent = sorted({a for r in reps for a in r.get("absent_layers", [])})
            lines.append(f"absent layers: {absent}")
            selfs = spans.self_times(reps[0]["spans"])
            lines.append("self time by layer (first traced rep): " + ", ".join(
                f"{k}={v:.3f}s" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
        else:
            firsts = [runs[0]["out"] for runs in by_unit(reps)]
            ss = [v for out in firsts for v in out["ss"]]
            wall = repetition_wall(reps)
            metrics = {
                "setup_s": (median(setups), "s"),
                "wall_s": (wall, "s"),
                # Candidate counts are the same in every run of a unit (the
                # decisions check above holds them to it).
                "candidates_per_s": (sum(out["candidates"] for out in firsts) / wall, "1/s"),
                "peak_rss_mb": (max(median(r["peak_rss_mb"] for r in runs) for runs in by_unit(reps)), "MB"),
                # No accepted or verified candidate leaves the original: ss 1.
                "mean_final_ss": (fmean(ss) if ss else 1.0, "ratio"),
                "ok_share": (1.0 - failed / attempted, "ratio"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} measured unit run(s), {len(setups)} set-ups, {workload.samples} sample(s)")
    if args.workload == "oneshot-exec":
        print(f"methods: {workload.methods}")
    print("env " + json.dumps(env_stamp(), sort_keys=True))
    print(f"decisions_digest {digest}")
    for runs in by_unit(reps):
        print(f"unit {workload.label(runs[0]['unit'])}: wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_ms.p50") or metric.endswith("_ms.p95"):
        return "ms"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
