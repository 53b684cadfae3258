"""End-to-end and per-layer benchmark of tqproc studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is ``src/tqproc``
of that checkout, imported from source.  The workload seed is the study's
``master_seed``; tqproc sees only the generated config.  Every study run is
``runner.parse_config`` + ``runner.run_study`` in a fresh interpreter
(perfbench/child.py), as ``tqproc run`` does, so in-process caches start
cold each time.

``--trace 0`` runs the workload at the default seed (checked, not timed),
then repeats it at the given seed within S seconds and reports the medians
of the end-to-end metrics.  ``--trace 1`` makes one run with the study
function timed, then replays the workload's pipeline serially with spans
(perfbench/replay.py) and reports the per-layer metrics.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; a fuller report
goes to ``.bench_work/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
RUN_LIMIT_S = 165.0        # the whole invocation must end well inside 180 s
MIN_REPEATS = 3            # runs of the --seed config: a digest majority

# Pool size: two workers where there are two cores, never more than nproc.
NPROC = len(os.sched_getaffinity(0))
POOL = min(2, NPROC)

# Explicit configs, so the replay reads the same values run_study uses.
# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    "swanson": {"study": "swanson", "n": 1001, "R": 500,
                "times": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
                "sampler_id": "circulant", "threads": POOL},
    "bk_rate": {"study": "bk_rate",
                "ladder": {"ns": [256, 512, 1024, 2048, 4096, 8192],
                           "replications": 15},
                "H": 0.5, "T": 2.0, "rho": 0.1, "eta": 0.0, "gamma0": 0.25,
                "M_t": 64, "M_alpha": 21, "sampler_id": "circulant",
                "threads": POOL},
}

# BLAS/OpenMP pools pinned to one thread, so at most POOL threads are busy.
PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}

class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def workload_config(name: str, seed: int) -> dict:
    return dict(WORKLOADS[name], master_seed=seed, out_dir="out")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TQPROC_OUT", "PYTHONDONTWRITEBYTECODE")}
    env.update(PINNED, PYTHONPATH=str(SRC))
    return env


def run_child(mode: str, cfg: dict, workdir: Path, deadline: float,
              spans: Path | None = None) -> dict:
    """Run child.py in a fresh interpreter; return its report.

    Raises BenchError with the child's stderr tail if it fails or if it is
    still running at ``deadline`` (it and its pool workers are killed).
    """
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(cfg))
    cmd = [sys.executable, str(BENCH / "child.py"), mode, "config.json"]
    t0 = _now()
    cmd.append(repr(t0))
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.Popen(cmd, cwd=workdir, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} run of {cfg['study']} passed the time limit")
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"{mode} run of {cfg['study']} exited "
                         f"{proc.returncode}: {tail}")
    report = json.loads(out.strip().splitlines()[-1])
    if Path(report["tqproc"]) != SRC / "tqproc":
        raise BenchError(f"imported tqproc from {report['tqproc']}, "
                         f"not from {SRC / 'tqproc'}")
    return report


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_runs(workload: str, runs: list[dict], golden: dict) -> list[str]:
    """Mark each run failed (``run["failure"]``) and return the reasons.

    A run fails if it raised, if its exact tie_bound_ok flag is false, if
    a traced run's replay did not reproduce the study, if its result
    digests differ from the majority of the runs of the same seed, or, for
    the default seed, from the recorded digests.
    Statistical pass flags are recorded, not checked: under the null they
    fail at a nonzero rate.
    """
    by_seed: dict[int, Counter] = {}
    for run in runs:
        if "report" in run:
            key = json.dumps(run["report"]["digests"], sort_keys=True)
            by_seed.setdefault(run["seed"], Counter())[key] += 1
    for run in runs:
        if "failure" in run:
            continue
        rep = run["report"]
        if rep["pass_flags"].get("tie_bound_ok") is not True:
            run["failure"] = "tie_bound_ok is not true"
            continue
        if rep.get("replay_mismatches"):
            run["failure"] = ("replay differs from the study: "
                              + "; ".join(rep["replay_mismatches"]))
            continue
        seen = by_seed[run["seed"]]
        top, count = seen.most_common(1)[0]
        majority = top if 2 * count > sum(seen.values()) else None
        if json.dumps(rep["digests"], sort_keys=True) != majority:
            run["failure"] = "result digests differ between repeats of this seed"
        elif run["seed"] == golden["seed"] and rep["digests"] != golden["digests"][workload]:
            run["failure"] = (f"result digests differ from those recorded for "
                              f"seed {golden['seed']} in {GOLDEN.name}")
    return [f"seed {r['seed']}: {r['failure']}" for r in runs if "failure" in r]


# ---------------------------------------------------------------------------
# Timed and traced runs
# ---------------------------------------------------------------------------

def _attempt(mode: str, workload: str, seed: int, tmp: Path, tag: str,
             deadline: float, spans: Path | None = None) -> dict:
    run = {"seed": seed}
    try:
        run["report"] = run_child(mode, workload_config(workload, seed),
                                  tmp / tag, deadline, spans)
    except BenchError as exc:
        run["failure"] = str(exc)
    finally:
        shutil.rmtree(tmp / tag, ignore_errors=True)
    return run


def _setup_sample(workload: str, seed: int, tmp: Path, tag: str,
                  deadline: float) -> dict:
    try:
        return run_child("setup", workload_config(workload, seed),
                         tmp / tag, deadline)
    finally:
        shutil.rmtree(tmp / tag, ignore_errors=True)


def timed(workload: str, seed: int, seconds: float, tmp: Path,
          deadline: float) -> list[dict]:
    """Within ``seconds``: the default seed once, checked against the
    recorded digests but not timed, then ``seed`` at least MIN_REPEATS
    times, starting a repeat only while it is expected to end in time."""
    end = _now() + seconds
    # The default-seed run is also the warm-up: it compiles tqproc's
    # bytecode and loads the libraries into the page cache, as an installed
    # CLI has them, so it is left out of the medians.
    runs = [_attempt("run", workload, DEFAULT_SEED, tmp, "golden", deadline)]
    took: list[float] = []
    while len(took) < MIN_REPEATS or _now() + statistics.median(took) <= end:
        if took and _now() + 1.5 * max(took) > deadline:
            break
        t = _now()
        runs.append(_attempt("run", workload, seed, tmp, f"run{len(runs)}", deadline))
        took.append(_now() - t)
    return runs


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile above the median with >= 10 samples beyond it."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100)[p - 1]


def _fmt(name: str, value, unit: str) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<26} {shown:>14} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    if not (SRC / "tqproc" / "__init__.py").is_file():
        print(f"perfbench: no tqproc sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    deadline = _now() + RUN_LIMIT_S
    golden = json.loads(GOLDEN.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = WORK / f"tmp-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            env = _setup_sample(args.workload, args.seed, tmp, "warm",
                                deadline)["environment"]
            runs = [_attempt("trace", args.workload, args.seed, tmp, "trace",
                             deadline, spans)]
        else:
            runs = timed(args.workload, args.seed, args.seconds, tmp, deadline)
            env = next((r["report"]["environment"] for r in runs if "report" in r), {})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = check_runs(args.workload, runs, golden)
    # A run that completed but failed a check still measured its time.
    done = [r["report"] for r in runs if "report" in r]
    if not done:
        print("perfbench: no run completed:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1

    env.update(nproc=NPROC, cpu=_cpu_model(), workers=WORKLOADS[args.workload]["threads"],
               pinned=PINNED)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "attempted": len(runs),
               "failed": len(failures), "failed_frac": len(failures) / len(runs),
               "failures": failures,
               "stat_flags_false": dict(Counter(
                   k for r in done for k, v in r["pass_flags"].items() if not v)),
               "runs": runs}
    if args.trace:
        values = dict(done[0]["layers"])
        summary["probed_layers"] = done[0]["probed_layers"]
    else:
        # runs[0] is the untimed default-seed run
        timed_runs = [r["report"] for r in runs[1:] if "report" in r]
        if not timed_runs:
            print("perfbench: no timed run completed:\n  " + "\n  ".join(failures),
                  file=sys.stderr)
            return 1
        walls = [r["wall_s"] for r in timed_runs]
        values = {name: statistics.median(r[name] for r in timed_runs)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        summary["samples"] = len(walls)
        summary["wall_s_tail"] = tail_percentile(walls)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    summary["metrics"] = metrics
    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{tag}.json").write_text(json.dumps(summary, indent=1))

    print(f"perfbench {tag}: {env}")
    for name, m in metrics.items():
        print(_fmt(name, m["value"], m["unit"]))
    if not args.trace:
        tail = summary["wall_s_tail"]
        print(f"  wall_s is the median of {len(walls)} runs; " + (
            f"p{tail[0]} = {tail[1]:.6g} s" if tail else
            "no percentile above the median has 10 runs beyond it"))
    else:
        print(f"  probed (not on this workload's path): {summary['probed_layers']}")
    print(_fmt("failed_frac", summary["failed_frac"],
               f"({len(failures)} of {len(runs)} runs failed)"))
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": len(runs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
