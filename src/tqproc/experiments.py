"""Monte Carlo studies over ensembles of fractional Brownian motion.

Each study maps a configuration and a master seed to a ``StudyResult``
deterministically: replication r at sample size n draws its randomness from
``derive_seed(seed, n, r)``, replications are farmed to a worker pool
largest n first (so the pool's last chunks hold the cheapest ones), and
results are aggregated in ladder order, so the outcome depends neither on
the number of workers nor on the dispatch order.  The pool (``_run_tasks``)
forks its workers with ``os.fork`` and talks to them over pipes; it hands
out ranges of replication indices, the workers derive their own seeds, and
each range comes back as one float64 array of its replications' values.

Every study that samples fBm and replicates runs each replication as one
task, ``_sampled``: sample the paths and sort each time's column in place,
scan the tie bound, reduce to the statistic.  Its reducers read only each
time's order statistics, so a task holds one (n, M) array.  The classical
constant, which draws uniforms, has a task of its own, and the tail fit,
which reads whole paths and has one replication, samples in the calling
process.

Slope acceptance bands absorb the slowly varying factors multiplying the
theoretical power laws; at desk-scale sample sizes those factors bias
fitted log-log slopes upward by roughly +0.07, which is measured here by
fitting the exact rate sequence itself (see ``loglog_fit``).
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analytic, empirical
from .empirical import LevelGrid
from .errors import DataError, DomainError
from .fbm import GridSpec, make_ensemble, sorted_ensemble, tail_fit
from .seeding import derive_seed, generator_for

__all__ = [
    "NLadder",
    "RateFit",
    "StudyResult",
    "loglog_fit",
    "bk_rate_study",
    "weighted_bk_rate_study",
    "kernel_validation_study",
    "swanson_median_study",
    "lil_trace_study",
    "classical_bk_study",
    "tail_fit_study",
    "deviation_stability_study",
    "usable_cpus",
    "BK_SLOPE_BAND",
    "WEIGHTED_SLOPE_MAX",
    "CLASSICAL_BAND",
]

# acceptance bands (see module docstring for how the slope bands were set)
BK_SLOPE_BAND = (-0.35, -0.15)
WEIGHTED_SLOPE_MAX = -0.08
CLASSICAL_BAND = (0.4, 1.4)
CLASSICAL_SLOPE_BAND = (-0.1, 0.1)
LIL_TRACE_FACTOR = 3.0
DEVIATION_RATIO_MAX = 3.0
# the smallest ladder size each study accepts; the classical constant
# divides by (loglog n)^{1/4}, which needs loglog n > 0, that is n >= 3
LIL_MIN_N = 16
CLASSICAL_MIN_N = 3


# ---------------------------------------------------------------------------
# Ladders, fits, results
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    """Whether ``operator.index`` takes value, and it is no bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


@dataclass(frozen=True)
class NLadder:
    """Increasing sample sizes with a replication count per size."""
    ns: tuple[int, ...]
    replications: int

    def __post_init__(self):
        ns = tuple(self.ns)
        if not all(_is_int(v) for v in (*ns, self.replications)):
            raise DomainError(f"ladder sizes and replications must be "
                              f"integers; got ns={ns}, "
                              f"replications={self.replications!r}")
        if len(ns) < 2 or len(set(ns)) != len(ns) or list(ns) != sorted(ns):
            raise DomainError(
                f"ladder needs >= 2 distinct increasing sizes; got {ns}")
        if any(n < 2 for n in ns):
            raise DomainError(f"ladder sizes must be >= 2; got {ns}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1; got {self.replications}")

    @classmethod
    def powers_of_two(cls, lo: int, hi: int, replications: int) -> "NLadder":
        return cls(ns=tuple(2**k for k in range(lo, hi + 1)),
                   replications=replications)


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares of log(statistic) on log(n)."""
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def loglog_fit(ns, stats) -> RateFit:
    """Fit log(stat) = slope*log(n) + intercept by OLS.

    The slope estimates the power-law exponent; ``stderr`` is the standard
    OLS slope error (0 when the fit is exact with more than 2 points).
    """
    ns = np.asarray(ns, dtype=float)
    stats = np.asarray(stats, dtype=float)
    # a set, as np.unique loads numpy.ma
    if len(set(ns.tolist())) < 3:
        raise DataError(f"rate fit needs >= 3 distinct sample sizes; got {ns}")
    # written so that NaN fails too
    if not np.all((stats > 0.0) & (stats < math.inf)):
        raise DataError("rate fit needs positive finite statistics (log "
                        f"scale); got {stats.tolist()}")
    x = np.log(ns)
    y = np.log(stats)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (slope * x + intercept)
    rss = float(np.sum(resid**2))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0.0 else 1.0
    dof = len(x) - 2
    stderr = math.sqrt(rss / dof / sxx) if dof > 0 else 0.0
    return RateFit(slope=slope, intercept=intercept, stderr=stderr, r_squared=r2,
                   points=tuple((float(a), float(b)) for a, b in zip(x, y)))


@dataclass(frozen=True)
class StudyResult:
    """Deterministic study output: per-n summaries, optional rate fit,
    pass/fail flags, and study-specific tables."""
    study: str
    config: dict
    per_n: tuple[dict, ...]
    fit: RateFit | None
    pass_flags: dict
    tables: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return asdict(self)


def _median(values) -> float:
    """``np.median`` of a sample, bit for bit: the middle order statistic,
    or (a + b) / 2 of the middle two; NaN if any value is NaN.

    The sample is sorted as Python floats: np.median's NaN check loads
    numpy.ma, and numpy's partition its selection kernels, which no study
    otherwise needs in the run process.  As in np.median's mean, the sum
    starts from 0.0, so a median of -0.0 reads 0.0, and which of two
    equal zeros sorts first does not matter.
    """
    v = sorted(np.asarray(values, dtype=float).tolist())
    # a NaN compares false with everything, so it may sort anywhere
    if any(map(math.isnan, v)):
        return math.nan
    half, odd = divmod(len(v), 2)
    if odd:
        return 0.0 + v[half]
    return (0.0 + v[half - 1] + v[half]) / 2.0


def _summarize(n: int, values: np.ndarray, statistic: str) -> dict:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return {"n": int(n), "mean": float(values.mean()),
            "median": _median(values), "se": se, "statistic": statistic}


# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------

def usable_cpus() -> int:
    """The number of CPUs this process may run on.

    Under a CPU affinity mask (taskset, cpuset) that is fewer than the
    machine has; where the platform cannot tell, the machine's CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(run_chunk, count: int, workers: int) -> list:
    """Run ``run_chunk(lo, hi)`` over consecutive ranges that cover
    ``0..count`` and return its results in range order.  Where the ranges
    are cut depends on the pool size, so a caller whose results must not
    (``_replicate``) joins the chunks in order.

    The pool never has more processes than there are CPUs this process
    may use, nor than there are items.  Its workers are forked by hand, so
    they inherit the modules and the ``run_chunk`` this process holds: the
    items go in chunks of consecutive indices, whose numbers wait in one
    pipe and go to whichever worker reads next, and each worker sends back
    its chunks' results, one object per chunk, or its exception, as one
    pickle on a pipe of its own.  A worker's exception is raised here with
    its traceback as the cause; a worker that sends nothing readable raises
    ``RuntimeError``.  No worker outlives the call, whether it returns,
    raises or is interrupted.  With one worker, or where the platform
    cannot fork, ``run_chunk(0, count)`` runs in this process.
    """
    workers = min(workers, usable_cpus(), count)
    if workers < 2 or not hasattr(os, "fork"):
        return [run_chunk(0, count)]
    chunk = max(1, count // (workers * 4))
    n_chunks = -(-count // chunk)
    queue, feed = os.pipe()
    # at most 8 * workers + 1 numbers of 4 bytes: far below a pipe's buffer
    os.write(feed, b"".join(c.to_bytes(4, "little") for c in range(n_chunks)))
    os.close(feed)
    fds, children = [queue], {}  # pipe ends open here; unreaped pid -> pipe
    try:
        with _sigint_deferred():
            for _ in range(workers):
                r, w = os.pipe()
                fds += (r, w)
                pid = os.fork()
                if pid == 0:
                    _pool_worker(run_chunk, count, chunk, queue, w)
                children[pid] = r
                fds.remove(w)
                os.close(w)
        results = {}
        for pid, r in list(children.items()):
            with open(r, "rb", closefd=False) as f:
                payload = f.read()
            with _sigint_deferred():
                status = os.waitpid(pid, 0)[1]
                del children[pid]
            try:
                ok, value, *trace = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):  # empty or cut short
                code = os.waitstatus_to_exitcode(status)
                how = (f"killed by signal {-code}" if code < 0
                       else f"exit status {code}")
                raise RuntimeError(f"pool worker {pid} ended with no "
                                   f"readable result ({how})") from None
            if not ok:
                raise value from _WorkerTraceback(*trace)
            results.update(value)
    finally:
        with _sigint_deferred():
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for fd in fds:
                os.close(fd)
    return [results[c] for c in range(n_chunks)]


@contextmanager
def _sigint_deferred():
    """Hold SIGINT back in the block, so that a KeyboardInterrupt cannot
    fall between a fork or a reap and its record in the pool's books.  A
    worker forked in the block keeps it held back: the pool ends it."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class _WorkerTraceback(Exception):
    """A pool worker's formatted traceback, chained as the cause of the
    exception the worker raised."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _pool_worker(run_chunk, count: int, chunk: int, queue: int, out: int):
    """The body of a forked pool worker: run the chunks whose numbers it
    reads from ``queue`` until EOF, write ``(True, {chunk: result})`` or
    ``(False, exception, traceback)`` to ``out`` as one pickle and leave by
    ``os._exit``, with status 1 if that failed, never returning into the
    caller's stack."""
    status = 1
    try:
        try:
            done = {}
            while word := os.read(queue, 4):
                c = int.from_bytes(word, "little")
                done[c] = run_chunk(c * chunk, min((c + 1) * chunk, count))
            payload = pickle.dumps((True, done))
        except BaseException as exc:  # raised again in the parent
            import traceback
            payload = pickle.dumps((False, exc, traceback.format_exc()))
        with open(out, "wb") as f:
            f.write(payload)
        status = 0
    finally:
        os._exit(status)


def _replicate(worker, seed: int, ns, R: int, args: tuple,
               workers: int) -> tuple[list[np.ndarray], float, tuple[str, ...]]:
    """Run R replications of ``worker`` at each sample size in ``ns``.

    Replication r at size n is the task ``(derive_seed(seed, n, r), n,
    *args)``; the worker returns ``(value, tie_violation, warnings)``, its
    value a float or a fixed-length float array.  A task costs roughly in
    proportion to n, so tasks are dispatched largest n first (r ascending
    within each n): the pool hands out contiguous chunks, and in ladder
    order one worker would be left with a chunk of the largest tasks while
    the others idle.  The pool maps over the flat replication indices in
    that order; each chunk derives its own seeds and comes back as one
    float64 array of its values, with its largest violation and its
    warnings, so no process holds a Python object per replication.
    Returns the values per n in ladder order, as arrays of shape (R,) or
    (R, width), the largest tie violation and the sorted union of the
    warnings.
    """
    last = len(ns) - 1

    def run_chunk(lo: int, hi: int) -> tuple:
        values, violation, warnings = None, -math.inf, set()
        for i in range(lo, hi):
            n, r = ns[last - i // R], i % R
            value, v, w = worker((derive_seed(seed, n, r), n) + args)
            if values is None:
                values = np.empty((hi - lo,) + np.shape(value))
            values[i - lo] = value
            violation = max(violation, v)
            warnings.update(w)
        return values, violation, tuple(sorted(warnings))

    chunks = _run_tasks(run_chunk, len(ns) * R, workers)
    values = np.concatenate([c[0] for c in chunks])
    per_n = [values[(last - i) * R:(last - i + 1) * R] for i in range(len(ns))]
    return (per_n, max(c[1] for c in chunks),
            tuple(sorted(set().union(*(c[2] for c in chunks)))))


def _sampled(task) -> tuple:
    """One replication ``(seed, n, grid, H, sampler_id, ties, reduce, *args)``
    of a study that samples fBm: n paths on ``grid``, the tie bound scanned
    over the positive grid times and the levels ``ties`` (-inf for None)
    and the statistic ``reduce(ensemble, *args)``, all on one column sort
    made in place: ``reduce`` reads the ensemble's ``sorted_values``, ``n``,
    ``grid`` and ``H``, never its paths."""
    seed, n, grid, H, sampler_id, ties, reduce, *args = task
    ens = sorted_ensemble(n, grid, H, sampler_id=sampler_id, master_seed=seed)
    violation = (-math.inf if ties is None
                 else empirical.tie_stats(ens, ties).max_violation)
    return reduce(ens, *args), violation, ens.warnings


def ladder_grid(T: float, M_t: int) -> GridSpec:
    """The grid of every study that samples [0, T]: M_t equally spaced
    times from 0.  A study builds its grid once and hands it to its workers."""
    return GridSpec.uniform_grid(T, M_t, include_zero=True)


def node_grid(x_nodes, alpha_nodes) -> GridSpec:
    """The grid of kernel validation: the union of its node times."""
    return GridSpec.from_times({t for t, _ in x_nodes}
                               | {t for t, _ in alpha_nodes})


# ---------------------------------------------------------------------------
# Remainder-rate studies
# ---------------------------------------------------------------------------

def _window_floor(n: int, gamma0: float, eta: float) -> float:
    return min(1.0, gamma0 * float(n) ** (-eta))


def _bk_sup(ens, levels: LevelGrid, weighted: bool, gamma0: float,
            eta: float) -> float:
    t_min = None if weighted else _window_floor(ens.n, gamma0, eta)
    return empirical.bk_remainder_field(ens, levels, weighted=weighted,
                                        t_min=t_min).sup_norm


def _rate_study(study: str, ladder: NLadder, H: float, T: float, rho: float,
                eta: float, gamma0: float, M_t: int, M_alpha: int,
                sampler_id: str, seed: int, workers: int,
                weighted: bool) -> StudyResult:
    if not 0.0 < H < 1.0:  # NaN fails too, before eta's bound reads it
        raise DomainError(f"Hurst index must satisfy 0 < H < 1; got {H}")
    if not 0.0 <= eta < 1.0 / (2.0 * H):
        raise DomainError(
            f"eta must satisfy 0 <= eta < 1/(2H) = {1.0 / (2.0 * H):.6g}; got {eta}")
    if not 1.0 < T:
        raise DomainError(f"study horizon must satisfy T > 1; got {T}")
    if not 0.0 < gamma0 <= 1.0:  # NaN fails too
        raise DomainError(f"gamma0 must satisfy 0 < gamma0 <= 1; got {gamma0}")
    R = ladder.replications
    levels = LevelGrid.uniform(rho, M_alpha)
    sups, tie_violation, warnings = _replicate(
        _sampled, seed, ladder.ns, R,
        (ladder_grid(T, M_t), H, sampler_id, levels, _bk_sup,
         levels, weighted, gamma0, eta), workers)
    stat_name = "sup_weighted_remainder" if weighted else "sup_bk_remainder"
    per_n = [_summarize(n, s, stat_name) for n, s in zip(ladder.ns, sups)]
    means = [np.mean(s) for s in sups]
    fit = loglog_fit(ladder.ns, means) if len(ladder.ns) >= 3 else None
    flags = {"tie_bound_ok": tie_violation <= 0.0,
             "means_decreasing": means[-1] < means[0]}
    if fit is not None:
        if weighted:
            flags["slope_at_most_minus_0.08"] = fit.slope <= WEIGHTED_SLOPE_MAX
        else:
            lo, hi = BK_SLOPE_BAND
            flags["slope_in_band"] = lo <= fit.slope <= hi
            if fit.slope < lo:
                warnings += (f"fitted slope {fit.slope:.4f} is steeper than the "
                             f"band floor {lo}; the theoretical rate is an upper "
                             "bound, so this is flagged rather than conclusive",)
    config = {"H": H, "T": T, "rho": rho, "eta": eta, "gamma0": gamma0,
              "M_t": M_t, "M_alpha": M_alpha, "sampler_id": sampler_id,
              "ns": list(ladder.ns), "replications": R, "master_seed": seed}
    tables = {"gamma_n": {str(n): _window_floor(n, gamma0, eta)
                          for n in ladder.ns},
              "tie_max_violation": tie_violation,
              "tie_bound_m": empirical.tie_bound_m(H)}
    return StudyResult(study=study, config=config, per_n=tuple(per_n), fit=fit,
                       pass_flags=flags, tables=tables, warnings=warnings)


def bk_rate_study(ladder: NLadder, H: float = 0.5, T: float = 2.0,
                  rho: float = 0.1, eta: float = 0.0, gamma0: float = 0.25,
                  M_t: int = 64, M_alpha: int = 21,
                  sampler_id: str = "circulant", seed: int = 0,
                  workers: int = 1) -> StudyResult:
    """Sup-norm of the unweighted remainder over [gamma_n, T] x [rho, 1-rho].

    The window floor is gamma_n = gamma0 * n^{-eta} (so -log gamma_n / log n
    tends to eta), clipped to the grid.  With eta = 0 the window is fixed and
    the mean sup should decay with a log-log slope near -1/4; the accepted
    band is ``BK_SLOPE_BAND``.
    """
    return _rate_study("bk_rate", ladder, H, T, rho, eta, gamma0, M_t, M_alpha,
                       sampler_id, seed, workers, weighted=False)


def weighted_bk_rate_study(ladder: NLadder, H: float = 0.5, T: float = 2.0,
                           rho: float = 0.1, M_t: int = 64, M_alpha: int = 21,
                           sampler_id: str = "circulant", seed: int = 0,
                           workers: int = 1) -> StudyResult:
    """Sup-norm of the t^H-weighted remainder over [0, T] x [rho, 1-rho].

    Benchmark exponent -1/6 (+delta); the fitted slope must come out at or
    below ``WEIGHTED_SLOPE_MAX``.
    """
    return _rate_study("weighted_bk_rate", ladder, H, T, rho, 0.0, 1.0,
                       M_t, M_alpha, sampler_id, seed, workers, weighted=True)


# ---------------------------------------------------------------------------
# Kernel validation
# ---------------------------------------------------------------------------

def _node_truths(grid: GridSpec, x_nodes, alpha_nodes, H: float,
                 n: int) -> tuple:
    """Where kernel validation's nodes sit on the sorted columns of n paths
    on ``grid``, and the limit values there: the x nodes' columns, abscissas
    and F(t, x), and the alpha nodes' rows (order index - 1), columns,
    densities f(t, tau_alpha(t)) and quantiles tau_alpha(t).  Every node
    time is a grid time."""
    col = {t: j for j, t in enumerate(grid.times)}
    ts = np.array([t for t, _ in x_nodes])
    xs = np.array([x for _, x in x_nodes])
    F = np.empty(len(x_nodes))
    for t in dict.fromkeys(t for t, _ in x_nodes):
        at = ts == t
        F[at] = analytic.marginal_cdf(t, xs[at], H)
    rows = np.array([empirical.order_index(a, n) - 1 for _, a in alpha_nodes],
                    dtype=int)
    f = np.array([analytic.density_quantile(t, a, H) for t, a in alpha_nodes])
    tau = np.array([analytic.true_quantile(t, a, H) for t, a in alpha_nodes])
    return (np.array([col[t] for t, _ in x_nodes], dtype=int), xs, F,
            rows, np.array([col[t] for t, _ in alpha_nodes], dtype=int), f, tau)


def _node_values(ens, x_cols, xs, F, rows, alpha_cols, f,
                 tau) -> np.ndarray:
    """v_n at the x nodes, then f * u_n at the alpha nodes, in one array,
    read off the ensemble's sorted columns at the places ``_node_truths``
    gives."""
    sv, sqrt_n = ens.sorted_values, math.sqrt(ens.n)
    Fn = empirical._fn_at(sv[:, x_cols], xs[None, :])[0]
    return np.concatenate((sqrt_n * (Fn - F),
                           f * sqrt_n * (sv[rows, alpha_cols] - tau)))


def _cov_table(samples: np.ndarray, nodes, kernel_fn) -> list[dict]:
    """Compare MC covariances of replication samples with analytic kernels."""
    R = samples.shape[0]
    centered = samples - samples.mean(axis=0, keepdims=True)
    rows = []
    for i in range(len(nodes)):
        for j in range(i, len(nodes)):
            prods = centered[:, i] * centered[:, j]
            mc = float(prods.sum() / (R - 1))
            se = float(prods.std(ddof=1) / math.sqrt(R))
            kern = kernel_fn(nodes[i], nodes[j])
            rows.append({"t1": nodes[i][0], "a1": nodes[i][1],
                         "t2": nodes[j][0], "a2": nodes[j][1],
                         "mc_cov": mc, "kernel": kern, "se": se,
                         "z": (mc - kern) / se if se > 0 else 0.0,
                         "diagonal": i == j})
    return rows


def _node_ties(alpha_nodes) -> LevelGrid | None:
    """The alpha nodes' distinct levels, for one tie scan over the node grid.

    A time column without tied values has F_n(t, X_(k)) = k/n, so each
    (t, alpha) violation depends on alpha and n only, and the scan's maximum
    is the maximum over the alpha nodes' own (t, alpha)."""
    if not alpha_nodes:
        return None
    levels = sorted({a for _, a in alpha_nodes})
    rho = min(0.25, min(min(a, 1.0 - a) for a in levels))
    return LevelGrid(rho=rho, levels=tuple(levels))


def kernel_validation_study(x_nodes, alpha_nodes, H: float = 0.5, n: int = 500,
                            R: int = 4000, sampler_id: str = "circulant",
                            seed: int = 0, workers: int = 1) -> StudyResult:
    """Monte Carlo covariances of v_n and of f*u_n against the limit kernels.

    ``x_nodes`` are (t, x) pairs checked against the empirical-process
    kernel; ``alpha_nodes`` are (t, alpha) pairs whose density-weighted
    quantile process is checked against the quantile kernel (its limit is
    the sign flip of the empirical field at the quantile, which leaves
    covariances unchanged).  Reports z-scores for every node pair.
    """
    x_nodes = [(float(t), float(x)) for t, x in x_nodes]
    alpha_nodes = [(float(t), float(a)) for t, a in alpha_nodes]
    # all three fail on a NaN too, before any replication runs
    if not all(t > 0.0 for t, _ in x_nodes + alpha_nodes):
        raise DomainError("kernel validation nodes need t > 0")
    if not all(math.isfinite(x) for _, x in x_nodes):
        raise DomainError(f"kernel validation x nodes need a finite x; "
                          f"got {x_nodes}")
    if not all(0.0 < a < 1.0 for _, a in alpha_nodes):
        raise DomainError(f"kernel validation alpha nodes need 0 < alpha < 1; "
                          f"got {alpha_nodes}")
    if R < 2:
        raise DomainError(f"covariances need R >= 2 replications; got {R}")
    grid = node_grid(x_nodes, alpha_nodes)
    (out,), tie_violation, warns = _replicate(
        _sampled, seed, (n,), R,
        (grid, H, sampler_id, _node_ties(alpha_nodes), _node_values,
         *_node_truths(grid, x_nodes, alpha_nodes, H, n)), workers)
    # (R, nodes): v_n's columns, then f * u_n's
    v_samples, fu_samples = out[:, :len(x_nodes)], out[:, len(x_nodes):]
    v_rows = _cov_table(v_samples, x_nodes,
                        lambda a, b: analytic.limit_kernel_G(a[0], a[1], b[0], b[1], H))
    u_rows = _cov_table(fu_samples, alpha_nodes,
                        lambda a, b: analytic.quantile_kernel_K(a[0], a[1], b[0], b[1], H))
    all_z = np.array([abs(r["z"]) for r in v_rows + u_rows])
    diag_z = np.array([abs(r["z"]) for r in v_rows if r["diagonal"]])
    flags = {
        "variance_nodes_within_3se": bool(np.all(diag_z <= 3.0)) if diag_z.size else True,
        "u_pairs_within_4se": all(abs(r["z"]) <= 4.0 for r in u_rows),
        "z_fraction_ok": bool(np.mean(all_z > 3.0) <= 0.10),
        "tie_bound_ok": tie_violation <= 0.0,
    }
    per_n = (_summarize(n, all_z, "abs_z"),)
    config = {"H": H, "n": n, "R": R, "sampler_id": sampler_id,
              "x_nodes": [list(p) for p in x_nodes],
              "alpha_nodes": [list(p) for p in alpha_nodes], "master_seed": seed}
    tables = {"v_pairs": v_rows, "u_pairs": u_rows,
              "tie_max_violation": tie_violation}
    return StudyResult(study="kernel_validation", config=config, per_n=per_n,
                       fit=None, pass_flags=flags, tables=tables, warnings=warns)


# ---------------------------------------------------------------------------
# Swanson-type median statistics (H = 1/2)
# ---------------------------------------------------------------------------

_MEDIAN = LevelGrid(rho=0.25, levels=(0.5,))


def _scaled_median(ens) -> np.ndarray:
    """sqrt(n) times the empirical median at every grid time."""
    return math.sqrt(ens.n) * ens.sorted_values[
        empirical.order_index(0.5, ens.n) - 1]


def swanson_median_study(times=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                         n: int = 1001, R: int = 5000,
                         sampler_id: str = "circulant", seed: int = 0,
                         workers: int = 1) -> StudyResult:
    """Scaled medians of Brownian ensembles against the arcsine covariance.

    Collects sqrt(n) * M_n(t) across replications and compares per-time
    variances and pairwise covariances with the closed-form kernel
    sqrt(t1 t2) arcsin(min/sqrt(t1 t2)); the Hurst index is fixed at 1/2.
    """
    times = tuple(float(t) for t in times)
    if not all(t > 0.0 for t in times):  # NaN fails too
        raise DomainError("median study times must be positive")
    # the grid's columns are the sorted times, which the tables walk in
    # the order given
    if not all(a < b for a, b in zip(times, times[1:])):
        raise DomainError(f"median study times must be strictly "
                          f"increasing; got {times}")
    if R < 2:
        raise DomainError(f"covariances need R >= 2 replications; got {R}")
    (med,), tie_violation, warns = _replicate(
        _sampled, seed, (n,), R,
        (GridSpec.from_times(times), 0.5, sampler_id, _MEDIAN,
         _scaled_median), workers)  # med: (R, times)
    var_rows, cov_rows = [], []
    for i, t in enumerate(times):
        mc = float(med[:, i].var(ddof=1))
        kern = analytic.swanson_kernel(t, t)
        var_rows.append({"t": t, "mc_var": mc, "kernel": kern,
                         "rel_dev": abs(mc - kern) / kern})
        for j in range(i + 1, len(times)):
            mc_c = float(np.cov(med[:, i], med[:, j], ddof=1)[0, 1])
            kern_c = analytic.swanson_kernel(t, times[j])
            cov_rows.append({"t1": t, "t2": times[j], "mc_cov": mc_c,
                             "kernel": kern_c,
                             "rel_dev": abs(mc_c - kern_c) / kern_c})
    flags = {"tie_bound_ok": tie_violation <= 0.0}
    by_t = {r["t"]: r for r in var_rows}
    if 1.0 in by_t:
        flags["var_t1_within_5pct"] = by_t[1.0]["rel_dev"] <= 0.05
    if 1.0 in by_t and 2.0 in by_t:
        ratio = by_t[2.0]["mc_var"] / by_t[1.0]["mc_var"]
        flags["var_scaling_within_10pct"] = abs(ratio - 2.0) <= 0.2
    pair_14 = [r for r in cov_rows if (r["t1"], r["t2"]) == (1.0, 4.0)]
    if pair_14:
        flags["cov_t1_t4_within_10pct"] = pair_14[0]["rel_dev"] <= 0.10
    sup_trace = np.max(np.abs(med), axis=1)
    per_n = (_summarize(n, sup_trace, "sup_scaled_median"),)
    config = {"H": 0.5, "n": n, "R": R, "times": list(times),
              "sampler_id": sampler_id, "master_seed": seed}
    tables = {"variance": var_rows, "covariance": cov_rows,
              "tie_max_violation": tie_violation,
              "lil_constant_sqrt_T_pi_over_2": math.sqrt(max(times) * math.pi / 2.0)}
    return StudyResult(study="swanson", config=config, per_n=per_n, fit=None,
                       pass_flags=flags, tables=tables, warnings=warns)


# ---------------------------------------------------------------------------
# Iterated-logarithm traces
# ---------------------------------------------------------------------------

def _normalized_sup(ens, kappa: float) -> float:
    sup = empirical.weighted_sup_empirical(ens, kappa)
    return sup / math.sqrt(2.0 * math.log(math.log(ens.n)))


def lil_trace_study(ladder: NLadder, H: float = 0.5, kappa: float = 0.5,
                    T: float = 2.0, M_t: int = 64,
                    sampler_id: str = "circulant", seed: int = 0,
                    workers: int = 1) -> StudyResult:
    """Normalized weighted sup of the empirical process along the ladder.

    Reports sup |t^kappa v_n| / sqrt(2 loglog n) per n together with its
    ratio to the limiting constant T^kappa / 2.  No convergence is asserted
    (loglog n barely moves at desk scale); the trace must only stay inside a
    generous multiple of the constant.
    """
    if ladder.ns[0] < LIL_MIN_N:
        raise DomainError(f"iterated-logarithm trace needs n >= {LIL_MIN_N} "
                          f"on the ladder; got {list(ladder.ns)}")
    sigma_kappa = analytic.lil_constant(T, kappa)
    R = ladder.replications
    # the tasks evaluate the normal CDF: loaded here, forked workers inherit it
    import scipy.special  # noqa: F401
    # no tie statistics on this path
    out, _, warns = _replicate(_sampled, seed, ladder.ns, R,
                               (ladder_grid(T, M_t), H, sampler_id, None,
                                _normalized_sup, kappa), workers)
    per_n = [_summarize(n, vals, "normalized_weighted_sup")
             for n, vals in zip(ladder.ns, out)]
    trace = [float(np.mean(vals)) for vals in out]
    ratios = [t / sigma_kappa for t in trace]
    flags = {
        "traces_positive_finite": all(0.0 < t < math.inf for t in trace),
        "trace_within_band": 0.0 < trace[-1] < LIL_TRACE_FACTOR * sigma_kappa,
    }
    config = {"H": H, "kappa": kappa, "T": T, "M_t": M_t,
              "sampler_id": sampler_id, "ns": list(ladder.ns),
              "replications": R, "master_seed": seed}
    tables = {"sigma_kappa": sigma_kappa,
              "trace": [{"n": int(n), "value": t, "ratio_to_sigma": r}
                        for n, t, r in zip(ladder.ns, trace, ratios)]}
    return StudyResult(study="lil_trace", config=config, per_n=tuple(per_n),
                       fit=None, pass_flags=flags, tables=tables, warnings=warns)


# ---------------------------------------------------------------------------
# Classical (time-free) representation constant
# ---------------------------------------------------------------------------

# bytes a _classical_worker task holds per uniform at its peak: about a
# dozen float arrays of length n (13 * 8 * n traced at n = 10**6)
CLASSICAL_BYTES_PER_N = 13 * 8


def _classical_worker(args) -> tuple[float, float, tuple]:
    (seed, n) = args
    rng = generator_for(seed)
    u = np.sort(rng.random(n))
    k = np.arange(1, n + 1)
    # R(a) = sqrt(n)(F_n(a) - a + U_(ceil(an)) - a) is piecewise linear with
    # slope -2 sqrt(n) between breakpoints, so the sup over (0,1) is attained
    # at a breakpoint or a one-sided limit: a = k/n (quantile index steps just
    # above k/n) and a = U_(k) (F_n steps there).
    cands = []
    a = k[:-1] / n
    cnt = np.searchsorted(u, a, side="right")
    cands.append(cnt / n - a + u[k[:-1] - 1] - a)   # index k at a = k/n
    cands.append(cnt / n - a + u[k[:-1]] - a)       # index k+1 just above
    idx = np.minimum(np.maximum(
        np.ceil(u * n - 1e-9).astype(int), 1), n)
    cnt_r = np.searchsorted(u, u, side="right")
    cnt_l = np.searchsorted(u, u, side="left")
    cands.append(cnt_r / n - u + u[idx - 1] - u)    # at the jump
    cands.append(cnt_l / n - u + u[idx - 1] - u)    # left limit of F_n
    sup = math.sqrt(n) * max(float(np.max(np.abs(c))) for c in cands)
    lln = math.log(math.log(n))
    # no tie check and no sampler here: no violation, no warnings
    return n**0.25 * sup / (lln**0.25 * math.log(n) ** 0.5), -math.inf, ()


def classical_bk_study(ladder: NLadder, seed: int = 0,
                       workers: int = 1) -> StudyResult:
    """Normalized remainder constant for i.i.d. uniforms (identity quantile).

    The statistic n^{1/4} sup |v_n + u_n| / ((loglog n)^{1/4} (log n)^{1/2})
    has almost-sure limsup 2^{-1/4} ~ 0.8409; per-n means are compared to the
    band ``CLASSICAL_BAND`` and the normalized sequence should be flat.
    """
    if ladder.ns[0] < CLASSICAL_MIN_N:
        raise DomainError(f"classical representation constant needs n >= "
                          f"{CLASSICAL_MIN_N} on the ladder; got "
                          f"{list(ladder.ns)}")
    R = ladder.replications
    out, _, _ = _replicate(_classical_worker, seed, ladder.ns, R, (), workers)
    per_n = [_summarize(n, vals, "normalized_bk_constant")
             for n, vals in zip(ladder.ns, out)]
    means = [float(np.mean(vals)) for vals in out]
    fit = loglog_fit(ladder.ns, means) if len(ladder.ns) >= 3 else None
    lo, hi = CLASSICAL_BAND
    flags = {"nonnegative": all(m >= 0.0 for m in means),
             "mean_in_band_at_max_n": lo <= means[-1] <= hi}
    if fit is not None:
        slo, shi = CLASSICAL_SLOPE_BAND
        flags["normalized_slope_near_zero"] = slo <= fit.slope <= shi
    config = {"ns": list(ladder.ns), "replications": R, "master_seed": seed}
    tables = {"target_constant": 2.0 ** -0.25}
    return StudyResult(study="classical_bk", config=config, per_n=tuple(per_n),
                       fit=fit, pass_flags=flags, tables=tables)


# ---------------------------------------------------------------------------
# Tail fit of the ensemble supremum
# ---------------------------------------------------------------------------

def tail_fit_study(levels_y=(1.5, 2.0, 2.5, 3.0), H: float = 0.5,
                   T: float = 1.0, n: int = 100_000, M_t: int = 64,
                   sampler_id: str = "circulant", seed: int = 0,
                   workers: int = 1) -> StudyResult:
    """Exponential tail fit of sup_t |B(t)|: P{sup > y} ~ d exp(-c y^2).

    Its one replication runs in this process, whatever ``workers`` is, with
    the seed and warnings that ``_replicate`` would give it.
    """
    ens = make_ensemble(n, ladder_grid(T, M_t), H, sampler_id=sampler_id,
                        master_seed=derive_seed(seed, n, 0))
    tf = tail_fit(ens, levels_y)
    ens_warnings = tuple(sorted(set(ens.warnings)))
    flags = {"c_hat_positive": tf.c_hat > 0.0,
             "r_squared_ok": tf.r_squared >= 0.95}
    warnings = tuple(f"tail level {y} dropped: zero empirical tail probability"
                     for y in tf.dropped_levels)
    per_n = ({"n": int(n), "mean": tf.c_hat, "median": tf.c_hat, "se": 0.0,
              "statistic": "c_hat"},)
    config = {"H": H, "T": T, "n": n, "M_t": M_t, "levels_y": list(levels_y),
              "sampler_id": sampler_id, "master_seed": seed}
    tables = {"levels": list(tf.levels), "tail_probs": list(tf.tail_probs),
              "c_hat": tf.c_hat, "d_hat": tf.d_hat, "r_squared": tf.r_squared,
              "dropped_levels": list(tf.dropped_levels)}
    return StudyResult(study="tail_fit", config=config, per_n=per_n, fit=None,
                       pass_flags=flags, tables=tables,
                       warnings=warnings + ens_warnings)


# ---------------------------------------------------------------------------
# Quantile-deviation stability
# ---------------------------------------------------------------------------

def deviation_stability_study(ladder: NLadder, delta: float, H: float = 0.5,
                              T: float = 2.0, rho: float = 0.1, C: float = 1.0,
                              M_t: int = 64, sampler_id: str = "circulant",
                              seed: int = 0, workers: int = 1) -> StudyResult:
    """Boundedness probe for the normalized quantile deviation statistic.

    Medians across replications must stay within a factor
    ``DEVIATION_RATIO_MAX`` between the smallest and largest ladder size.
    """
    R = ladder.replications
    levels = LevelGrid.uniform(rho, 21)
    out, tie_violation, warns = _replicate(
        _sampled, seed, ladder.ns, R,
        (ladder_grid(T, M_t), H, sampler_id, levels,
         empirical.quantile_deviation_stat, delta, rho, C, levels), workers)
    per_n = [_summarize(n, vals, "quantile_deviation")
             for n, vals in zip(ladder.ns, out)]
    medians = [_median(vals) for vals in out]
    ratio = max(medians) / min(medians) if min(medians) > 0 else math.inf
    flags = {"all_positive_finite": all(0.0 < m < math.inf for m in medians),
             "median_ratio_lt_3": ratio < DEVIATION_RATIO_MAX,
             "tie_bound_ok": tie_violation <= 0.0}
    config = {"H": H, "T": T, "rho": rho, "delta": delta, "C": C, "M_t": M_t,
              "sampler_id": sampler_id, "ns": list(ladder.ns),
              "replications": R, "master_seed": seed}
    tables = {"medians": {str(n): m for n, m in zip(ladder.ns, medians)},
              "median_ratio": ratio, "tie_max_violation": tie_violation}
    return StudyResult(study="deviation_stability", config=config,
                       per_n=tuple(per_n), fit=None, pass_flags=flags,
                       tables=tables, warnings=warns)
