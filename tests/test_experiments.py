"""Study harness: regression engine, determinism, and small-scale smoke runs."""

import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from tqproc import analytic, empirical, experiments
from tqproc.empirical import LevelGrid
from tqproc.errors import DataError, DomainError
from tqproc.experiments import (NLadder, bk_rate_study, classical_bk_study,
                                deviation_stability_study,
                                kernel_validation_study, lil_trace_study,
                                loglog_fit, swanson_median_study,
                                tail_fit_study, weighted_bk_rate_study)
from tqproc.fbm import GridSpec, ensemble_bytes, make_ensemble, tail_fit
from tqproc.runner import STUDIES
from tqproc.seeding import derive_seed


def _pid(task) -> int:
    return os.getpid()


def _square(task) -> tuple:
    return task, task * task


def _fails_at_3(task) -> int:
    if task == 3:
        raise DomainError(f"task {task} is out of its domain")
    return task


def _killed_at_3(task) -> int:
    if task == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _interrupts_parent(task) -> int:
    # the parent is still in _run_tasks: it reads this worker's result
    os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)
    return task


class TestRunTasks:
    @pytest.mark.parametrize("mask", [None, {0, 1}],
                             ids=["cpu-count", "affinity-mask"])
    def test_pool_bounded_by_usable_cpus(self, monkeypatch, mask):
        # 2 usable CPUs, read from the CPU count where there is no affinity
        # mask to read, else from the mask
        if mask is None:
            monkeypatch.delattr(experiments.os, "sched_getaffinity",
                                raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(experiments.os, "sched_getaffinity",
                                lambda pid: mask, raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        assert experiments.usable_cpus() == 2
        pids = set(experiments._run_tasks(_pid, list(range(64)), 64))
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids

    def test_runs_in_calling_process_on_one_cpu(self, monkeypatch):
        # no affinity mask and no CPU count to read: one usable CPU
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments.usable_cpus() == 1
        assert experiments._run_tasks(_pid, list(range(8)), 64) == [
            os.getpid()] * 8

    def test_runs_in_calling_process_without_fork(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.delattr(experiments.os, "fork")
        assert experiments._run_tasks(_pid, list(range(8)), 2) == [
            os.getpid()] * 8

    def test_results_in_task_order(self, monkeypatch):
        # 9 chunks of 125 tasks, the last of one
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        tasks = list(range(1001))
        assert experiments._run_tasks(_square, tasks, 2) == list(
            map(_square, tasks))

    def test_worker_exception_reraised(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(DomainError, match="^task 3 is out of its domain$"):
            experiments._run_tasks(_fails_at_3, list(range(8)), 2)

    def test_worker_traceback_is_the_cause(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(DomainError) as info:
            experiments._run_tasks(_fails_at_3, list(range(8)), 2)
        assert "in _fails_at_3" in str(info.value.__cause__)

    def test_killed_worker_raises_and_is_reaped(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="killed by signal 9"):
            experiments._run_tasks(_killed_at_3, list(range(8)), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_parent_kills_its_workers(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            experiments._run_tasks(_interrupts_parent, [0, 1], 2)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestReplicate:
    def test_dispatch_largest_n_first_values_in_ladder_order(self, monkeypatch):
        dispatched = []

        def record(worker, tasks, workers):
            dispatched.extend(tasks)
            return [(t[0], -float(t[1]), (f"w{t[1]}",)) for t in tasks]

        monkeypatch.setattr(experiments, "_run_tasks", record)
        ns, R = (16, 32, 64), 3
        values, violation, warns = experiments._replicate(
            None, 5, ns, R, ("x",), 2)
        assert dispatched == [(derive_seed(5, n, r), n, "x")
                              for n in (64, 32, 16) for r in range(R)]
        assert values == [[derive_seed(5, n, r) for r in range(R)] for n in ns]
        assert violation == -16.0
        assert warns == ("w16", "w32", "w64")


class TestNLadder:
    def test_powers_of_two(self):
        lad = NLadder.powers_of_two(8, 10, 5)
        assert lad.ns == (256, 512, 1024)

    def test_validation(self):
        with pytest.raises(DomainError):
            NLadder(ns=(256,), replications=3)
        with pytest.raises(DomainError):
            NLadder(ns=(512, 256), replications=3)
        with pytest.raises(DomainError):
            NLadder(ns=(256, 512), replications=0)

    @pytest.mark.parametrize("ns, replications", [
        ((16, 32, 64), 1.5), ((16.0, 32.0, 64.0), 2), ((16, 32, 64), True),
        ((16, 32, 64), "2"), ((True, 32, 64), 2)],
        ids=["float-replications", "float-sizes", "bool-replications",
             "str-replications", "bool-size"])
    def test_non_integers_rejected(self, ns, replications):
        with pytest.raises(DomainError, match="must be integers"):
            NLadder(ns=ns, replications=replications)

    def test_integer_likes_taken(self):
        lad = NLadder(ns=tuple(np.array([16, 32])), replications=np.int64(2))
        assert lad.replications == 2


class TestLoglogFit:
    def test_exact_power_law(self):
        ns = [2**k for k in range(8, 14)]
        fit = loglog_fit(ns, [3.0 * n**-0.25 for n in ns])
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_sequence(self):
        fit = loglog_fit([256, 512, 1024], [2.0, 2.0, 2.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_log_factor_bias(self):
        # the exact rate sequence n^{-1/4} (log n)^{1/2} fits at ~ -0.177
        ns = [2**k for k in range(8, 14)]
        fit = loglog_fit(ns, [n**-0.25 * math.log(n) ** 0.5 for n in ns])
        assert fit.slope == pytest.approx(-0.177, abs=0.01)

    def test_data_errors(self):
        with pytest.raises(DataError):
            loglog_fit([256, 512], [1.0, 0.5])
        with pytest.raises(DataError):
            loglog_fit([256, 512, 1024], [1.0, -0.5, 0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_statistic_rejected(self, bad):
        # a DataError, not a NaN slope with numpy warnings
        with pytest.raises(DataError, match="finite statistics"):
            loglog_fit([1, 2, 3], [1.0, bad, 2.0])

    def test_points_recorded(self):
        ns = [16, 32, 64]
        fit = loglog_fit(ns, [1.0, 2.0, 4.0])
        assert fit.points == tuple((math.log(n), math.log(s))
                                   for n, s in zip(ns, [1.0, 2.0, 4.0]))


SMALL_LADDER = NLadder(ns=(64, 128, 256), replications=3)


class TestMedian:
    """``experiments._median`` is np.median, bit for bit."""

    # each trial's values: ten decades of both signs, then some replaced by
    # the specials of its kind
    KINDS = ((), (0.0, -0.0), (0.0, -0.0, math.inf, -math.inf), (math.nan,),
             (-0.0, math.inf, math.nan))

    @staticmethod
    def _assert_same(values):
        with np.errstate(invalid="ignore", over="ignore"):
            want = float(np.median(values))
        assert experiments._median(values).hex() == want.hex()

    # up to the sizes runs feed it: swanson's R = 5000 and MAX_TASKS
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100,
                                   101, 512, 1000, 1001, 5000, 100_000])
    def test_random_samples(self, n):
        rng = np.random.default_rng(n)
        for trial in range(40):
            values = (rng.choice([-1.0, 1.0], n)
                      * 10.0 ** rng.uniform(-5.0, 5.0, n))
            kind = self.KINDS[trial % len(self.KINDS)]
            if kind:
                where = rng.integers(0, n, rng.integers(1, n // 3 + 2))
                values[where] = rng.choice(kind, len(where))
            self._assert_same(values)

    @pytest.mark.parametrize("values", [
        [-0.0], [-0.0, -0.0], [0.0, -0.0, 1.0], [-5e-324, -5e-324],
        [1e308, 1e308], [-math.inf, math.inf], [math.inf], [math.nan],
        [math.nan, 1.0], [2.0, math.nan, 1.0]])
    def test_edge_cases(self, values):
        self._assert_same(np.array(values))


class TestBkRateStudy:
    def test_smoke_and_determinism(self):
        run = lambda: bk_rate_study(SMALL_LADDER, M_t=16, M_alpha=5, seed=2024)
        r1, r2 = run(), run()
        assert r1.to_dict() == r2.to_dict()
        assert all(row["mean"] > 0.0 for row in r1.per_n)
        assert r1.fit is not None
        assert r1.pass_flags["tie_bound_ok"]
        assert r1.tables["tie_bound_m"] == 10

    def test_worker_count_invariance(self):
        r1 = bk_rate_study(SMALL_LADDER, M_t=16, M_alpha=5, seed=7, workers=1)
        r2 = bk_rate_study(SMALL_LADDER, M_t=16, M_alpha=5, seed=7, workers=2)
        assert r1.to_dict() == r2.to_dict()

    def test_eta_enlarges_domain_and_sup(self):
        # same seeds -> same paths; a wider window can only increase the sup
        lad = NLadder(ns=(2048, 4096), replications=6)
        base = bk_rate_study(lad, eta=0.0, M_t=32, M_alpha=9, seed=55)
        wide = bk_rate_study(lad, eta=1.0 / 3.0, M_t=32, M_alpha=9, seed=55)
        for b, w in zip(base.per_n, wide.per_n):
            assert w["mean"] >= b["mean"]

    def test_eta_hypothesis_checked(self):
        with pytest.raises(DomainError, match="eta"):
            bk_rate_study(SMALL_LADDER, H=0.5, eta=1.0)

    def test_horizon_hypothesis_checked(self):
        with pytest.raises(DomainError, match="T"):
            bk_rate_study(SMALL_LADDER, T=0.9)

    @pytest.mark.parametrize("gamma0", [math.nan, 5.0, 0.0, -0.25])
    def test_gamma0_checked(self, gamma0):
        # min(1, gamma0 n^-eta) would clip 5.0 and NaN to a floor of 1
        with pytest.raises(DomainError, match="gamma0"):
            bk_rate_study(SMALL_LADDER, gamma0=gamma0)


class TestWindowFloor:
    """gamma_n = min(1, gamma0 n^{-eta}), the floor of bk_rate's window."""

    def test_eta_zero_gives_gamma0(self):
        for n in (16, 1000, 10**6):
            assert experiments._window_floor(n, 0.25, 0.0) == 0.25
            assert experiments._window_floor(n, 1.0, 0.0) == 1.0

    def test_gamma_power(self):
        assert experiments._window_floor(1000, 1.0, 1.0 / 3.0) == pytest.approx(
            0.1, rel=1e-12)
        assert experiments._window_floor(1000, 0.5, 1.0 / 3.0) == pytest.approx(
            0.05, rel=1e-12)


class TestWeightedStudy:
    def test_smoke(self):
        r = weighted_bk_rate_study(SMALL_LADDER, M_t=16, M_alpha=5, seed=31)
        assert all(row["mean"] > 0.0 for row in r.per_n)
        assert r.pass_flags["tie_bound_ok"]
        assert "slope_at_most_minus_0.08" in r.pass_flags

    def test_worker_count_invariance(self):
        r1 = weighted_bk_rate_study(SMALL_LADDER, M_t=16, M_alpha=5, seed=8,
                                    workers=1)
        r2 = weighted_bk_rate_study(SMALL_LADDER, M_t=16, M_alpha=5, seed=8,
                                    workers=2)
        assert r1.to_dict() == r2.to_dict()


class TestSharedSort:
    """Every study's task is ``_sampled``, whose reducers go through the
    public functions, which share the ensemble's one column sort; a task's
    output must equal those functions called on a freshly sampled
    ensemble."""

    # T = 2, M_t = 17: step 1/8.  gamma0 = 0.3 puts the floor between grid
    # points (0.25, 0.375); with eta = 0.3 it falls to 0.3 * 64**-0.3 ~ 0.086,
    # inside the first step
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_bk_worker_matches_field_and_ties(self, weighted, eta):
        n, H, T, M_t, rho, M_alpha, gamma0 = 64, 0.4, 2.0, 17, 0.1, 7, 0.3
        seed = derive_seed(99, n, 0)
        grid = GridSpec.uniform_grid(T, M_t, include_zero=True)
        levels = LevelGrid.uniform(rho, M_alpha)
        got = experiments._sampled((seed, n, grid, H, "circulant",
                                    levels, experiments._bk_sup,
                                    levels, weighted, gamma0, eta))
        ens = make_ensemble(n, grid, H, master_seed=seed)
        t_min = None if weighted else experiments._window_floor(n, gamma0, eta)
        fld = empirical.bk_remainder_field(ens, levels, weighted=weighted,
                                           t_min=t_min)
        assert t_min is None or fld.t_min > t_min > fld.t_min - 0.125
        ties = empirical.tie_stats(ens, levels)
        assert got == (fld.sup_norm, ties.max_violation, ens.warnings)

    def test_swanson_worker_matches_partition_and_ties(self):
        n, times = 51, (0.5, 1.0, 2.0)
        seed = derive_seed(98, n, 0)
        grid = GridSpec.from_times(times)
        median = LevelGrid(rho=0.25, levels=(0.5,))
        med, violation, warns = experiments._sampled(
            (seed, n, grid, 0.5, "circulant", median,
             experiments._scaled_median))
        ens = make_ensemble(n, grid, 0.5, master_seed=seed)
        k = empirical.order_index(0.5, n)
        want = np.partition(ens.values, k - 1, axis=0)[k - 1, :]
        np.testing.assert_array_equal(med, math.sqrt(n) * want)
        ties = empirical.tie_stats(ens, median)
        assert violation == ties.max_violation
        assert warns == ens.warnings

    def test_violation_is_the_max_over_tie_pairs(self):
        # the scan over a level grid is the max over its (time, level) pairs
        n, times = 40, (0.5, 1.0, 2.0)
        seed = derive_seed(97, n, 0)
        grid = GridSpec.from_times(times)
        ties = LevelGrid(rho=0.25, levels=(0.25, 0.75))
        size = lambda ens: ens.n
        got = experiments._sampled((seed, n, grid, 0.5, "circulant", ties,
                                    size))
        ens = make_ensemble(n, grid, 0.5, master_seed=seed)
        scan = empirical.tie_stats(ens, ties)
        assert scan.times == times
        want = max(empirical.tie_stats(ens, LevelGrid(rho=0.25, levels=(a,)))
                   .max_violation for a in ties.levels)
        assert got == (n, scan.max_violation, ens.warnings)
        assert scan.max_violation == want
        # no levels: no violation
        assert experiments._sampled(
            (seed, n, grid, 0.5, "circulant", None, size))[1] == -math.inf

    def test_task_holds_one_array(self):
        # at bk_rate's largest size the task sorts the paths in place and
        # its reductions stay below the paths' size, so the memory guard's
        # one-array estimate bounds the whole task
        n, grid = 8192, experiments.ladder_grid(2.0, 64)
        levels = LevelGrid.uniform(0.1, 21)
        task = (derive_seed(1, n, 0), n, grid, 0.5, "circulant", levels,
                experiments._bk_sup, levels, False, 0.25, 0.0)
        experiments._sampled((derive_seed(1, 16, 0), 16) + task[2:])  # caches
        tracemalloc.start()
        try:
            experiments._sampled(task)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * n * grid.M < peak <= ensemble_bytes(n, grid, "circulant")


def _node_values_reference(ens, x_nodes, alpha_nodes):
    """The retired per-node formulas: F_n counts the paths ``<= x`` in the
    unsorted time column, and tau_n is the ceil(alpha n)-th smallest value
    of that column."""
    H, n, sqrt_n = ens.H, ens.n, math.sqrt(ens.n)
    v = np.empty(len(x_nodes))
    for i, (t, x) in enumerate(x_nodes):
        col = ens.values[:, ens.grid.times.index(t)]
        Fn = float(np.count_nonzero(col <= x)) / n
        v[i] = sqrt_n * (Fn - float(analytic.marginal_cdf(t, x, H)))
    fu = np.empty(len(alpha_nodes))
    for i, (t, a) in enumerate(alpha_nodes):
        col = np.sort(ens.values[:, ens.grid.times.index(t)])
        tau_n = float(col[empirical.order_index(a, n) - 1])
        tau = analytic.true_quantile(t, a, H)
        fu[i] = analytic.density_quantile(t, a, H) * sqrt_n * (tau_n - tau)
    return v, fu


_DEFAULTS = STUDIES["kernel_validation"].defaults
DEFAULT_X = [tuple(p) for p in _DEFAULTS["x_nodes"]]
DEFAULT_ALPHA = [tuple(p) for p in _DEFAULTS["alpha_nodes"]]


class TestNodeValues:
    """kernel_validation's node values, read off the one column sort, keep
    the bits of the per-node formulas they replaced."""

    @pytest.mark.parametrize("H", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 41, 500])
    @pytest.mark.parametrize("extra", [False, True],
                             ids=["default", "extra_nodes"])
    def test_bit_equal_to_per_node_formulas(self, H, n, extra):
        x_nodes, alpha_nodes = list(DEFAULT_X), list(DEFAULT_ALPHA)
        if extra:
            # nodes on shared times, and a time (3.0) no default node has
            x_nodes += [(1.0, 0.3), (4.0, -0.5), (3.0, 0.2)]
            alpha_nodes += [(0.5, 0.1), (1.0, 0.5), (3.0, 0.6), (2.0, 0.9)]
        grid = experiments.node_grid(x_nodes, alpha_nodes)
        # once per study, as kernel_validation_study computes them
        truths = experiments._node_truths(grid, x_nodes, alpha_nodes, H, n)
        for seed in range(4):
            ens = make_ensemble(n, grid, H, master_seed=derive_seed(seed, n, 0))
            got = experiments._node_values(ens, *truths)
            want = _node_values_reference(ens, x_nodes, alpha_nodes)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g.view(np.uint64),
                                              w.view(np.uint64))


def _tie_scan_reference(ens, alpha_nodes):
    """The retired per-node tie scan: the violation at each alpha node's
    own (t, alpha) only, the largest over the nodes (-inf for none)."""
    n, m = ens.n, empirical.tie_bound_m(ens.H)
    worst = -math.inf
    for t, a in alpha_nodes:
        col = np.sort(ens.values[:, ens.grid.times.index(t)])
        tau_n = col[empirical.order_index(a, n) - 1]
        gap = np.count_nonzero(col <= tau_n) / n - a
        worst = max(worst, gap - m / n, -gap - 1e-9 / n)
    return worst


# (sampler, x nodes, alpha nodes): the default lattice, a non-lattice grid
# only the Cholesky sampler takes, repeated alpha levels, no alpha nodes
TIE_LAYOUTS = {
    "lattice": ("circulant", DEFAULT_X, DEFAULT_ALPHA),
    "cholesky": ("cholesky", [(0.3, 0.1), (1.7, -0.4)],
                 [(0.3, 0.2), (1.1, 0.5), (2.9, 0.8)]),
    "repeated_levels": ("circulant", DEFAULT_X,
                        [(1.0, 0.5), (4.0, 0.5), (2.0, 0.25), (0.5, 0.25),
                         (4.0, 0.9)]),
    "no_alpha": ("circulant", DEFAULT_X, []),
}


class TestTieScan:
    """kernel_validation's one tie scan over its node grid and distinct
    levels keeps the bits of the per-node scans it replaced: a column
    without ties has F_n(t, X_(k)) = k/n, so a (t, alpha) violation depends
    on alpha and n only."""

    @pytest.mark.parametrize("H", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 41, 500])
    @pytest.mark.parametrize("layout", sorted(TIE_LAYOUTS))
    def test_one_scan_equals_per_node_max(self, H, n, layout):
        sampler, x_nodes, alpha_nodes = TIE_LAYOUTS[layout]
        grid = experiments.node_grid(x_nodes, alpha_nodes)
        assert grid.uniform == (layout != "cholesky")
        ties = experiments._node_ties(alpha_nodes)
        assert (ties is None) == (not alpha_nodes)
        for seed in range(4):
            task_seed = derive_seed(seed, n, 0)
            _, violation, _ = experiments._sampled(
                (task_seed, n, grid, H, sampler, ties, lambda e: None))
            # the task keeps only its column sort: the reference sorts the
            # same paths, sampled again
            ens = make_ensemble(n, grid, H, sampler_id=sampler,
                                master_seed=task_seed)
            want = _tie_scan_reference(ens, alpha_nodes)
            assert violation == want
            assert math.isfinite(want) == bool(alpha_nodes)

    def test_study_without_alpha_nodes_has_no_violation(self):
        r = kernel_validation_study([(1.0, 0.0), (2.0, 0.5)], [], n=20, R=5)
        assert r.tables["u_pairs"] == []
        assert r.tables["tie_max_violation"] == -math.inf
        assert r.pass_flags["tie_bound_ok"]


class TestNanRejected:
    """A NaN time, horizon or exponent fails each library check."""

    @staticmethod
    def _ens():
        return make_ensemble(8, GridSpec.uniform_grid(1.0, 4), 0.5)

    # each message names the check that must catch the NaN, not a later one
    @pytest.mark.parametrize("call, match", [
        (lambda: GridSpec(times=(math.nan,), T=1.0),
         "must lie in"),
        (lambda: GridSpec(times=(0.5, math.nan, 1.0), T=1.0),
         "strictly increasing"),
        (lambda: GridSpec(times=(0.5, 1.0), T=math.nan),
         "must lie in"),
        (lambda: GridSpec.uniform_grid(math.nan, 4), "T > 0"),
        (lambda: GridSpec.uniform_grid(math.nan, 4, include_zero=True),
         "T > 0"),
        (lambda: GridSpec.from_times([0.5, math.nan]), "grid times"),
        (lambda: empirical.weighted_sup_empirical(TestNanRejected._ens(),
                                                  math.nan), "kappa"),
        (lambda: kernel_validation_study([(math.nan, 0.0)], [], n=10, R=10),
         "t > 0"),
        (lambda: kernel_validation_study([(1.0, 0.0)], [(math.nan, 0.5)],
                                         n=10, R=10), "t > 0"),
        (lambda: swanson_median_study(times=(math.nan, 1.0), n=11, R=5),
         "must be positive"),
    ], ids=["grid_time", "grid_inner_time", "grid_T", "uniform_T",
            "uniform_T_from_zero", "from_times", "weighted_sup_kappa",
            "kernel_x_node", "kernel_alpha_node", "swanson_time"])
    def test_raises_domain_error(self, call, match):
        with pytest.raises(DomainError, match=match):
            call()


class TestKernelValidation:
    def test_smoke(self):
        r = kernel_validation_study(
            x_nodes=[(1.0, 0.0), (4.0, 0.0)],
            alpha_nodes=[(1.0, 0.5), (4.0, 0.5)],
            n=200, R=600, seed=11)
        assert len(r.tables["v_pairs"]) == 3  # 2 variances + 1 cross
        assert len(r.tables["u_pairs"]) == 3
        for row in r.tables["v_pairs"] + r.tables["u_pairs"]:
            assert math.isfinite(row["z"])
        pair = [p for p in r.tables["v_pairs"] if not p["diagonal"]][0]
        assert pair["kernel"] == pytest.approx(1.0 / 12.0, abs=1e-10)
        assert abs(pair["z"]) <= 4.0

    def test_node_validation(self):
        with pytest.raises(DomainError):
            kernel_validation_study([(0.0, 0.0)], [], n=10, R=10)

    def test_one_replication_rejected(self):
        # a covariance over one replication is NaN, which no flag catches
        with pytest.raises(DomainError, match="R >= 2"):
            kernel_validation_study([(1.0, 0.0)], [(1.0, 0.5)], n=10, R=1)


class TestSwansonStudy:
    def test_smoke_variances(self):
        r = swanson_median_study(times=(1.0, 2.0, 4.0), n=101, R=600, seed=13)
        for row in r.tables["variance"]:
            assert row["rel_dev"] <= 0.25
        assert r.pass_flags["tie_bound_ok"]
        assert "var_t1_within_5pct" in r.pass_flags
        assert "cov_t1_t4_within_10pct" in r.pass_flags

    def test_determinism(self):
        kw = dict(times=(0.5, 1.0), n=51, R=40, seed=3)
        assert swanson_median_study(**kw).to_dict() == \
            swanson_median_study(**kw).to_dict()

    def test_time_validation(self):
        with pytest.raises(DomainError):
            swanson_median_study(times=(0.0, 1.0), n=11, R=5)

    def test_one_replication_rejected(self):
        with pytest.raises(DomainError, match="R >= 2"):
            swanson_median_study(times=(1.0, 2.0), n=11, R=1)


class TestLilTrace:
    def test_smoke(self):
        lad = NLadder(ns=(256, 1024), replications=2)
        r = lil_trace_study(lad, M_t=32, seed=17)
        assert r.pass_flags["traces_positive_finite"]
        trace = r.tables["trace"]
        assert len(trace) == 2 and all(row["value"] > 0 for row in trace)
        assert r.tables["sigma_kappa"] == pytest.approx(2**0.5 / 2.0, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            lil_trace_study(NLadder(ns=(8, 32), replications=1))


class TestClassicalBk:
    def test_statistic_positive_and_flat(self):
        lad = NLadder(ns=(1024, 2048, 4096), replications=8)
        r = classical_bk_study(lad, seed=19)
        assert all(row["mean"] > 0.0 for row in r.per_n)
        assert r.pass_flags["nonnegative"]
        assert r.fit is not None
        # normalized sequence is O(1): slope well inside (-0.3, 0.3) even tiny
        assert abs(r.fit.slope) < 0.3

    def test_small_n_rejected(self):
        # loglog 2 < 0: the normalization is undefined below n = 3
        with pytest.raises(DomainError, match="n >= 3"):
            classical_bk_study(NLadder(ns=(2, 3, 4), replications=1))

    def test_mean_near_constant(self):
        lad = NLadder(ns=(4096, 16384), replications=10)
        r = classical_bk_study(lad, seed=23)
        assert 0.4 <= r.per_n[-1]["mean"] <= 1.4


class TestTailFitStudy:
    def test_smoke(self):
        r = tail_fit_study(levels_y=(1.0, 1.5, 2.0, 2.5), n=20_000, M_t=32,
                           seed=29)
        assert r.pass_flags["c_hat_positive"]
        assert r.pass_flags["r_squared_ok"]
        assert r.per_n[0]["statistic"] == "c_hat"

    def test_one_replication_in_this_process(self, monkeypatch):
        # the study samples replication 0's seed itself, never through the
        # pool, and sorts the sampler's warnings as a replicated study does
        monkeypatch.setattr(experiments, "_run_tasks", None)
        levels, n, seed = (1.0, 1.5, 2.0, 2.5), 20_000, 29
        r = tail_fit_study(levels_y=levels, n=n, M_t=32, seed=seed, workers=2)
        ens = make_ensemble(n, experiments.ladder_grid(1.0, 32), 0.5,
                            master_seed=derive_seed(seed, n, 0))
        tf = tail_fit(ens, levels)
        assert r.tables["c_hat"] == tf.c_hat
        assert r.tables["tail_probs"] == list(tf.tail_probs)
        assert r.warnings == tuple(sorted(set(ens.warnings)))


class TestDeviationStability:
    @pytest.mark.parametrize("C", [-1.0, math.nan])
    def test_negative_or_nan_C_rejected(self, C):
        lad = NLadder(ns=(16, 32), replications=2)
        with pytest.raises(DomainError, match="C must be nonnegative"):
            deviation_stability_study(lad, delta=0.125, C=C, M_t=8, seed=1)

    def test_smoke(self):
        lad = NLadder(ns=(256, 1024), replications=20)
        r = deviation_stability_study(lad, delta=0.125, M_t=32, seed=37)
        assert r.pass_flags["all_positive_finite"]
        assert r.pass_flags["median_ratio_lt_3"]
        assert r.tables["median_ratio"] < 3.0
