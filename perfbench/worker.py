"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB holds ``src`` (the checkout's source directory), ``corpus`` (read during
set-up), ``mode`` ("setup", "rep" or "curve"), ``commands`` (CLI argument
lists) and ``trace``. The worker times set-up (import, catalog, toolchains,
corpus read), then each CLI command through ``codeperturb.cli.main``, and
writes its own peak RSS, which excludes the compilers and programs it
starts. A traced rep also writes its spans; a curve job times direct
``score_pair`` calls on the generated pairs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _setup(job: dict) -> float:
    start = time.perf_counter()
    import codeperturb.cli  # noqa: F401  (import-time work counts as set-up)
    from codeperturb.core import build_catalog
    from codeperturb.corpusio import read_corpus
    from codeperturb.verify import default_toolchains

    build_catalog()
    default_toolchains()
    read_corpus(job["corpus"])
    return time.perf_counter() - start


def _curve(job: dict, tracer) -> dict:
    """Median time of score_pair, greedy_tiles and levenshtein_distance per
    curve point, each from the spans of direct score_pair calls."""
    from codeperturb.core import CodeSample, Language, PesoConfig
    from codeperturb import similarity

    config = PesoConfig()
    out = {}
    for point in job["curve"]:
        a, b = (CodeSample(id=f"{point['label']}_{k}.py", language=Language.PYTHON, text=point[k])
                for k in ("original", "candidate"))
        rows = []
        for _ in range(point["repeat"]):
            tracer.spans.clear()
            similarity.score_pair(a, b, config)
            rows.append({s["layer"]: s["end"] - s["start"] for s in tracer.spans})
        for metric, layer in (("score", "similarity"), ("tiling", "similarity.tiling"),
                              ("levenshtein", "similarity.levenshtein")):
            values = sorted(r.get(layer, 0.0) for r in rows)
            out[f"similarity.{metric}_s.{point['label']}"] = values[len(values) // 2]
    return out


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    result = {"setup_s": _setup(job)}
    if job["mode"] != "setup":
        from codeperturb.cli import main as cli_main
        from codeperturb.verify import default_toolchains

        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(list(default_toolchains().values()))
            result["absent_layers"] = tracer.absent
        if job["mode"] == "curve":
            result["curve"] = _curve(job, tracer)
        else:
            walls, codes = [], []
            for argv in job["commands"]:
                start = time.perf_counter()
                codes.append(cli_main(argv))
                walls.append(time.perf_counter() - start)
            result.update(wall_s=sum(walls), exit_codes=codes)
            if tracer is not None:
                result.update(spans=tracer.spans, probes=tracer.probes)
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
