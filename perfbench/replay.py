"""Serial, traced replay of each workload's per-replication pipeline.

The replay calls the public functions of each tqproc module in the order a
pool worker of the study does, with a span around each call into a layer
and counts of the work it asks for.  Spans are recorded here, in the
benchmark, not inside tqproc.  Each replay also returns the statistics it
computed, which ``replay_mismatches`` compares exactly with the study's
``result.json``: the replay is only trusted while it reproduces the study.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np

from tqproc import analytic, empirical, fbm, seeding


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and counts recorded around calls into tqproc's layers.

    A span is (id, parent id, name, start, end); every span of one replayed
    task has the task's span as an ancestor.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def total(self, *names: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] in names)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]


class NullTracer(Tracer):
    """Counts only: the same replay with no span recorded."""

    def span(self, name: str):
        return nullcontext()


def _circulant_draws(grid: fbm.GridSpec) -> int:
    """Normal variates per path that the circulant sampler draws on ``grid``."""
    n_inc = int(grid.lattice_indices().max())
    return 1 if n_inc == 1 else 2 * (n_inc - 1)


def _task_seed(tr: Tracer, master: int, n: int, r: int) -> int:
    with tr.span("seeding.derive.task"):
        seed = seeding.derive_seed(master, n, r)
    tr.counts["experiments.tasks"] += 1
    return seed


@contextmanager
def _task(tr: Tracer, n: int, grid: fbm.GridSpec, H: float, sampler: str,
          task_seed: int):
    """Replay one ensemble's seeding, then open the task span around
    ``make_ensemble`` and the reductions the caller runs on the ensemble.

    The seeding replay (path seeds, then their normal matrix) uses the same
    inputs make_ensemble seeds itself from, so the sampler's own time is
    make_ensemble's minus the seeding spans.  It runs before the task span,
    so task times match what a pool worker does.
    """
    with tr.span("seeding.derive.paths"):
        seeds = np.asarray([seeding.derive_seed(task_seed, i) for i in range(n)],
                           dtype=np.uint64)
    with tr.span("seeding.normal"):
        noise = seeding.normal_matrix(seeds, _circulant_draws(grid))
    tr.counts["seeding.streams"] += n
    tr.counts["seeding.draws"] += noise.size
    noise_bytes = noise.nbytes
    del noise
    with tr.span("experiments.task"):
        with tr.span("fbm.make_ensemble"):
            ens = fbm.make_ensemble(n, grid, H, sampler_id=sampler,
                                    master_seed=task_seed)
        tr.counts["fbm.ensembles"] += 1
        # computed from array sizes: noise in, paths out; temporaries and
        # cache misses are not counted
        tr.counts["fbm.bytes_computed"] += noise_bytes + ens.values.nbytes
        yield ens


def _swanson(cfg: dict):
    n, times = cfg["n"], tuple(cfg["times"])
    grid = fbm.GridSpec.from_times(times)
    half = empirical.LevelGrid(rho=0.25, levels=(0.5,))
    k = empirical.order_index(0.5, n)

    def task(tr: Tracer, r: int):
        seed = _task_seed(tr, cfg["master_seed"], n, r)
        with _task(tr, n, grid, 0.5, cfg["sampler_id"], seed) as ens:
            med = np.partition(ens.values, k - 1, axis=0)[k - 1, :]
            with tr.span("empirical.ties"):
                ties = empirical.tie_stats(ens, half)
        return ens, (math.sqrt(n) * med, ties.max_violation)

    def finish(tr: Tracer, outs: list) -> dict:
        with tr.span("analytic.kernel"):
            variances = [analytic.swanson_kernel(t, t) for t in times]
            for i, t1 in enumerate(times):
                for t2 in times[i + 1:]:
                    analytic.swanson_kernel(t1, t2)
        sup_trace = np.max(np.abs(np.vstack([o[0] for o in outs])), axis=1)
        return {"per_n_mean": [float(sup_trace.mean())],
                "tie_max_violation": max(o[1] for o in outs),
                "variance_kernels": variances}

    return [partial(task, r=r) for r in range(cfg["R"])], finish


def _bk_rate(cfg: dict):
    grid = fbm.GridSpec.uniform_grid(cfg["T"], cfg["M_t"], include_zero=True)
    levels = empirical.LevelGrid.uniform(cfg["rho"], cfg["M_alpha"])
    ns, R = cfg["ladder"]["ns"], cfg["ladder"]["replications"]

    def task(tr: Tracer, n: int, r: int):
        gamma_n = min(1.0, cfg["gamma0"] * float(n) ** (-cfg["eta"]))
        seed = _task_seed(tr, cfg["master_seed"], n, r)
        with _task(tr, n, grid, cfg["H"], cfg["sampler_id"], seed) as ens:
            with tr.span("empirical.remainder"):
                fld = empirical.bk_remainder_field(ens, levels, t_min=gamma_n)
            with tr.span("empirical.ties"):
                ties = empirical.tie_stats(ens, levels)
        return ens, (fld.sup_norm, ties.max_violation)

    def finish(tr: Tracer, outs: list) -> dict:
        means = [float(np.array([o[0] for o in outs[i * R:(i + 1) * R]]).mean())
                 for i in range(len(ns))]
        return {"per_n_mean": means,
                "tie_max_violation": max(o[1] for o in outs)}

    return [partial(task, n=n, r=r) for n in ns for r in range(R)], finish


# Each workload's pipeline, as (tasks, finish), and the layers it calls.
# A task returns (ensemble, output); finish aggregates the outputs as the
# study does.  Every other layer is timed on one probe call over the
# workload's first ensemble, outside any task, so a regression in any layer
# shows on every workload.
PIPELINES = {
    "swanson": (_swanson, {"empirical.ties", "analytic.kernel"}),
    "bk_rate": (_bk_rate, {"empirical.remainder", "empirical.ties"}),
}
PROBED_LAYERS = ("empirical.remainder", "empirical.ties", "empirical.tail",
                 "analytic.kernel")


def _probe(tr: Tracer, layer: str, ens: fbm.Ensemble) -> None:
    ts = ens.grid.array
    pos = ts[ts > 0.0]
    levels = empirical.LevelGrid.uniform(0.1, 21)
    with tr.span(layer):
        if layer == "empirical.remainder":
            empirical.bk_remainder_field(ens, levels, t_min=float(pos[0]))
        elif layer == "empirical.ties":
            empirical.tie_stats(ens, levels)
        elif layer == "empirical.tail":
            # levels a fair share of paths exceed, for any n >= 100
            scale = float(ts[-1]) ** ens.H
            fbm.tail_fit(ens, [0.5 * scale, 1.0 * scale, 1.5 * scale])
        else:
            nodes = [float(t) for t in pos[::max(1, len(pos) // 4)][:4]]
            for i, t1 in enumerate(nodes):
                for t2 in nodes[i:]:
                    analytic.quantile_kernel_K(t1, 0.5, t2, 0.5, ens.H)


def replay(cfg: dict, tr: Tracer, plain: NullTracer) -> dict:
    """Replay the workload ``cfg`` (an explicit study config) serially.

    After one untimed run of the first task, every step runs twice,
    adjacent in time, once recording into ``tr`` and once into ``plain``
    (alternating which goes first), so the difference
    of the two wall times is the tracing overhead with the machine's drift
    cancelled.  Returns the traced run's statistics to check against
    result.json, the layers probed, and both wall times.
    """
    make, on_path = PIPELINES[cfg["study"]]
    tasks, finish = make(cfg)
    probed = [layer for layer in PROBED_LAYERS if layer not in on_path]
    first, outs = None, []
    wall = {tr: 0.0, plain: 0.0}

    def paired(i: int, step):
        result = None
        for t in ((plain, tr) if i % 2 else (tr, plain)):
            start = _now()
            got = step(t)
            wall[t] += _now() - start
            if t is tr:
                result = got
        return result

    # Untimed: the first run of a task in a process pays one-off costs
    # (first-touch page faults, allocator growth) that would land on
    # whichever side of the first pair runs first.
    tasks[0](NullTracer())
    for i, task in enumerate(tasks):
        ens, out = paired(i, task)
        outs.append(out)
        if first is None:
            first = ens
    check = paired(0, lambda t: finish(t, outs))
    for i, layer in enumerate(probed):
        paired(i, lambda t: _probe(t, layer, first))
    return {"check": check, "probed": probed,
            "traced_s": wall[tr], "untraced_s": wall[plain]}


def replay_mismatches(check: dict, result: dict) -> list[str]:
    """Differences between the replay's statistics and result.json (exact)."""
    bad = []
    tables = result["tables"]
    if "per_n_mean" in check:
        got = [row["mean"] for row in result["per_n"]]
        if got != check["per_n_mean"]:
            bad.append(f"per-n means {check['per_n_mean']} != result {got}")
    if "tie_max_violation" in check:
        if tables["tie_max_violation"] != check["tie_max_violation"]:
            bad.append("tie_max_violation differs from result")
    if "variance_kernels" in check:
        if [row["kernel"] for row in tables["variance"]] != check["variance_kernels"]:
            bad.append("swanson variance kernels differ from result")
    return bad


def layer_metrics(tr: Tracer, study_wall: float, workers: int) -> dict:
    """Per-layer metrics from a traced replay; ``study_wall`` is the study
    function's wall time inside run_study with ``workers`` pool workers."""
    tasks = tr.durations("experiments.task")
    p50, p99 = np.percentile(tasks, [50, 99]) * 1000.0
    derive_paths = tr.total("seeding.derive.paths")
    normal = tr.total("seeding.normal")
    return {
        "seeding.derive_s": tr.total("seeding.derive.task") + derive_paths,
        "seeding.normal_s": normal,
        "seeding.streams": tr.counts["seeding.streams"],
        "seeding.draws": tr.counts["seeding.draws"],
        "fbm.sample_s": tr.total("fbm.make_ensemble") - derive_paths - normal,
        "fbm.ensembles": tr.counts["fbm.ensembles"],
        "fbm.bytes_computed": tr.counts["fbm.bytes_computed"],
        "empirical.remainder_s": tr.total("empirical.remainder"),
        "empirical.ties_s": tr.total("empirical.ties"),
        "empirical.tail_s": tr.total("empirical.tail"),
        "analytic.kernel_s": tr.total("analytic.kernel"),
        "experiments.tasks": tr.counts["experiments.tasks"],
        "experiments.task_ms.p50": float(p50),
        "experiments.task_ms.p99": float(p99),
        "experiments.overhead_s": study_wall - sum(tasks) / workers,
    }
