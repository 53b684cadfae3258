"""Monte Carlo studies over ensembles of fractional Brownian motion.

Each study maps a configuration and a master seed to a ``StudyResult``
deterministically: replication r at sample size n draws its randomness from
``derive_seed(seed, n, r)``, tasks are farmed to a worker pool largest n
first (so the pool's last chunks hold the cheapest tasks), and results are
aggregated in ladder order, so the outcome depends neither on the number of
workers nor on the dispatch order.

Slope acceptance bands absorb the slowly varying factors multiplying the
theoretical power laws; at desk-scale sample sizes those factors bias
fitted log-log slopes upward by roughly +0.07, which is measured here by
fitting the exact rate sequence itself (see ``loglog_fit``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analytic, empirical
from .empirical import LevelGrid
from .errors import DataError, DomainError
from .fbm import GridSpec, make_ensemble
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

@dataclass(frozen=True)
class NLadder:
    """Increasing sample sizes with a replication count per size."""
    ns: tuple[int, ...]
    replications: int

    def __post_init__(self):
        ns = tuple(self.ns)
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
    if len(np.unique(ns)) < 3:
        raise DataError(f"rate fit needs >= 3 distinct sample sizes; got {ns}")
    if np.any(stats <= 0.0):
        raise DataError("rate fit needs positive statistics (log scale); "
                        f"got min={stats.min()}")
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
        fit = None
        if self.fit is not None:
            fit = {"slope": self.fit.slope, "intercept": self.fit.intercept,
                   "stderr": self.fit.stderr, "r_squared": self.fit.r_squared,
                   "points": [list(p) for p in self.fit.points]}
        return {"study": self.study, "config": self.config,
                "per_n": list(self.per_n), "fit": fit,
                "pass_flags": dict(self.pass_flags), "tables": self.tables,
                "warnings": list(self.warnings)}


def _summarize(n: int, values: np.ndarray, statistic: str) -> dict:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return {"n": int(n), "mean": float(values.mean()),
            "median": float(np.median(values)), "se": se, "statistic": statistic}


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


def _run_tasks(worker, tasks: list, workers: int) -> list:
    """Map worker over tasks, preserving order; results never depend on pool size.

    The pool never has more processes than there are CPUs this process
    may use.
    """
    workers = min(workers, usable_cpus())
    if workers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=chunk))
    return [worker(t) for t in tasks]


def _replicate(worker, seed: int, ns, R: int, args: tuple,
               workers: int) -> tuple[list[list], float, tuple[str, ...]]:
    """Run R replications of ``worker`` at each sample size in ``ns``.

    Replication r at size n is the task ``(derive_seed(seed, n, r), n,
    *args)``; the worker returns ``(value, tie_violation, warnings)``.
    A task costs roughly in proportion to n, so tasks are dispatched largest
    n first (r ascending within each n): the pool hands out contiguous
    chunks, and in ladder order one worker would be left with a chunk of
    the largest tasks while the others idle.  Returns the values grouped
    per n in ladder order, the largest tie violation and the sorted union
    of the warnings.
    """
    tasks = [(derive_seed(seed, n, r), n) + args
             for n in reversed(ns) for r in range(R)]
    out = _run_tasks(worker, tasks, workers)
    values = [[o[0] for o in out[i * R:(i + 1) * R]]
              for i in reversed(range(len(ns)))]
    tie_violation = max(o[1] for o in out)
    warnings = tuple(sorted(set().union(*(o[2] for o in out))))
    return values, tie_violation, warnings


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


def _bk_worker(args) -> tuple[float, float, tuple]:
    (seed, n, H, grid, rho, M_alpha, gamma0, eta, weighted, sampler_id) = args
    ens = make_ensemble(n, grid, H, sampler_id=sampler_id, master_seed=seed)
    levels = LevelGrid.uniform(rho, M_alpha)
    t_min = None if weighted else _window_floor(n, gamma0, eta)
    # both reductions read the ensemble's one column sort
    fld = empirical.bk_remainder_field(ens, levels, weighted=weighted,
                                       t_min=t_min)
    ties = empirical.tie_stats(ens, levels)
    return fld.sup_norm, ties.max_violation, ens.warnings


def _rate_study(study: str, ladder: NLadder, H: float, T: float, rho: float,
                eta: float, gamma0: float, M_t: int, M_alpha: int,
                sampler_id: str, seed: int, workers: int,
                weighted: bool) -> StudyResult:
    if not 0.0 <= eta < 1.0 / (2.0 * H):
        raise DomainError(
            f"eta must satisfy 0 <= eta < 1/(2H) = {1.0 / (2.0 * H):.6g}; got {eta}")
    if not 1.0 < T:
        raise DomainError(f"study horizon must satisfy T > 1; got {T}")
    R = ladder.replications
    sups, tie_violation, warnings = _replicate(
        _bk_worker, seed, ladder.ns, R,
        (H, ladder_grid(T, M_t), rho, M_alpha, gamma0, eta, weighted,
         sampler_id), workers)
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

def _kernel_worker(args) -> tuple[tuple[np.ndarray, np.ndarray], float, tuple]:
    (seed, n, H, grid, x_nodes, alpha_nodes, sampler_id) = args
    ens = make_ensemble(n, grid, H, sampler_id=sampler_id, master_seed=seed)
    sqrt_n = math.sqrt(n)
    v_vals = np.array([empirical.empirical_process(ens, t, x)
                       for t, x in x_nodes])
    fu_vals = np.empty(len(alpha_nodes))
    violation = -math.inf
    for i, (t, a) in enumerate(alpha_nodes):
        tau_n = empirical.empirical_quantile(ens, t, a)
        ties = empirical.tie_stats(
            ens, LevelGrid(rho=min(a, 1.0 - a, 0.25), levels=(a,)), times=(t,))
        violation = max(violation, ties.max_violation)
        tau = analytic.true_quantile(t, a, H)
        fu_vals[i] = analytic.density_quantile(t, a, H) * sqrt_n * (tau_n - tau)
    return (v_vals, fu_vals), violation, ens.warnings


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
    if any(t <= 0.0 for t, _ in x_nodes + alpha_nodes):
        raise DomainError("kernel validation nodes need t > 0")
    if R < 2:
        raise DomainError(f"covariances need R >= 2 replications; got {R}")
    (out,), tie_violation, warns = _replicate(
        _kernel_worker, seed, (n,), R,
        (H, node_grid(x_nodes, alpha_nodes), tuple(x_nodes),
         tuple(alpha_nodes), sampler_id), workers)
    v_samples = np.vstack([v for v, _ in out])
    fu_samples = np.vstack([fu for _, fu in out])
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


def _swanson_worker(args) -> tuple[np.ndarray, float, tuple]:
    (seed, n, grid, sampler_id) = args
    ens = make_ensemble(n, grid, 0.5, sampler_id=sampler_id, master_seed=seed)
    # the medians and the tie scan read the ensemble's one column sort
    med = ens.sorted_values[empirical.order_index(0.5, n) - 1]
    ties = empirical.tie_stats(ens, _MEDIAN)
    return math.sqrt(n) * med, ties.max_violation, ens.warnings


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
    if any(t <= 0.0 for t in times):
        raise DomainError("median study times must be positive")
    if R < 2:
        raise DomainError(f"covariances need R >= 2 replications; got {R}")
    (out,), tie_violation, warns = _replicate(
        _swanson_worker, seed, (n,), R, (GridSpec.from_times(times), sampler_id),
        workers)
    med = np.vstack(out)  # (R, times)
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

def _lil_worker(args) -> tuple[float, float, tuple]:
    (seed, n, H, kappa, grid, sampler_id) = args
    ens = make_ensemble(n, grid, H, sampler_id=sampler_id, master_seed=seed)
    sup = empirical.weighted_sup_empirical(ens, kappa)
    # no tie statistics on this path: report no violation
    return sup / math.sqrt(2.0 * math.log(math.log(n))), -math.inf, ens.warnings


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
    _, sigma_kappa = analytic.lil_constants(1.0, T, kappa)
    R = ladder.replications
    out, _, warns = _replicate(_lil_worker, seed, ladder.ns, R,
                               (H, kappa, ladder_grid(T, M_t), sampler_id),
                               workers)
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
    """Exponential tail fit of sup_t |B(t)|: P{sup > y} ~ d exp(-c y^2)."""
    from .fbm import tail_fit as fit_tail
    ens = make_ensemble(n, ladder_grid(T, M_t), H, sampler_id=sampler_id,
                        master_seed=derive_seed(seed, n, 0))
    tf = fit_tail(ens, levels_y)
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
                       warnings=warnings + ens.warnings)


# ---------------------------------------------------------------------------
# Quantile-deviation stability
# ---------------------------------------------------------------------------

def _deviation_worker(args) -> tuple[float, float, tuple]:
    (seed, n, H, grid, rho, delta, C, sampler_id) = args
    ens = make_ensemble(n, grid, H, sampler_id=sampler_id, master_seed=seed)
    stat = empirical.quantile_deviation_stat(ens, delta, rho, C=C)
    ties = empirical.tie_stats(ens, LevelGrid.uniform(rho, 21))
    return stat, ties.max_violation, ens.warnings


def deviation_stability_study(ladder: NLadder, delta: float, H: float = 0.5,
                              T: float = 2.0, rho: float = 0.1, C: float = 1.0,
                              M_t: int = 64, sampler_id: str = "circulant",
                              seed: int = 0, workers: int = 1) -> StudyResult:
    """Boundedness probe for the normalized quantile deviation statistic.

    Medians across replications must stay within a factor
    ``DEVIATION_RATIO_MAX`` between the smallest and largest ladder size.
    """
    R = ladder.replications
    out, tie_violation, warns = _replicate(
        _deviation_worker, seed, ladder.ns, R,
        (H, ladder_grid(T, M_t), rho, delta, C, sampler_id), workers)
    per_n = [_summarize(n, vals, "quantile_deviation")
             for n, vals in zip(ladder.ns, out)]
    medians = [float(np.median(vals)) for vals in out]
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
