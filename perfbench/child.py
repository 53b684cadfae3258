"""One fresh-process leg of the study benchmark.

Started by ``perfbench/run.py`` (never imported by it) as

    python3 perfbench/child.py MODE CONFIG_PATH T0 [SPANS_PATH]

with ``src`` of the checkout on ``PYTHONPATH`` and the config's output
directory relative to the working directory.  T0 is the parent's
CLOCK_MONOTONIC reading just before it started this process, so ``setup_s``
covers interpreter start-up, the ``tqproc`` import and
``runner.parse_config``.  MODE is one of

``setup``  import tqproc and parse the config, then stop;
``run``    then call ``runner.run_study`` as ``tqproc run`` does, and report
           its wall time, the CPU time of this process and its pool workers,
           peak RSS and the SHA-256 of the result files;
``trace``  ``run`` with the study function timed, then replay the study's
           pipeline serially (see replay.py), once without spans and once
           with them, and write the spans to SPANS_PATH.

The last line on stdout is the JSON report.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


# The experiments function run_study calls for each workload's study.
STUDY_FUNCTIONS = {"swanson": "swanson_median_study",
                   "bk_rate": "bk_rate_study"}


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _timed_study(experiments, name: str, walls: list) -> None:
    """Replace experiments.<name> with a wrapper appending its wall time."""
    inner = getattr(experiments, name)

    def timed(*args, **kwargs):
        start = _now()
        try:
            return inner(*args, **kwargs)
        finally:
            walls.append(_now() - start)

    setattr(experiments, name, timed)


def main(argv: list[str]) -> dict:
    mode, config_path, t0 = argv[1], Path(argv[2]), float(argv[3])
    import tqproc
    from tqproc import runner
    text = config_path.read_text()
    p0 = _now()
    cfg = runner.parse_config(text)
    p1 = _now()
    report = {"setup_s": p1 - t0, "parse_s": p1 - p0,
              "tqproc": str(Path(tqproc.__file__).resolve().parent),
              "environment": _environment()}
    if mode == "setup":
        return report

    raw = json.loads(text)
    study_walls: list[float] = []
    if mode == "trace":
        from tqproc import experiments
        _timed_study(experiments, STUDY_FUNCTIONS[raw["study"]], study_walls)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = _now()
    _, files = runner.run_study(cfg)
    wall = _now() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = Path(cfg.out_dir)
    result = json.loads((out / "result.json").read_text())
    report.update({
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "digests": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("result.json", "summary.csv")},
        "bytes_written": sum(Path(f).stat().st_size for f in files),
        "pass_flags": result["pass_flags"],
    })
    if mode == "run":
        return report

    if len(study_walls) != 1:
        raise RuntimeError("run_study did not call tqproc.experiments."
                           f"{STUDY_FUNCTIONS[raw['study']]} exactly once")
    import replay

    tr, plain = replay.Tracer(), replay.NullTracer()
    rep = replay.replay(raw, tr, plain)
    layers = replay.layer_metrics(tr, study_walls[0], raw["threads"])
    layers.update({"runner.parse_s": report["parse_s"],
                   "runner.persist_s": wall - study_walls[0],
                   "runner.bytes_written": report["bytes_written"],
                   "trace.overhead_s": rep["traced_s"] - rep["untraced_s"]})
    mismatches = replay.replay_mismatches(rep["check"], result)
    if plain.counts != tr.counts:
        mismatches.append("counts differ between the untraced and traced "
                          f"replay: {dict(plain.counts)} vs {dict(tr.counts)}")
    Path(argv[4]).write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start", "end"], "spans": tr.spans}))
    report.update({"layers": layers, "probed_layers": rep["probed"],
                   "replay_mismatches": mismatches,
                   "traced_replay_s": rep["traced_s"],
                   "untraced_replay_s": rep["untraced_s"]})
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
