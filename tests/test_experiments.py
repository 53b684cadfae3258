"""Study harness: regression engine, determinism, and small-scale smoke runs."""

import math

import numpy as np
import pytest

from tqproc import empirical, experiments
from tqproc.empirical import LevelGrid
from tqproc.errors import DataError, DomainError
from tqproc.experiments import (NLadder, bk_rate_study, classical_bk_study,
                                deviation_stability_study,
                                kernel_validation_study, lil_trace_study,
                                loglog_fit, swanson_median_study,
                                tail_fit_study, weighted_bk_rate_study)
from tqproc.fbm import GridSpec, make_ensemble
from tqproc.seeding import derive_seed


class TestRunTasks:
    @staticmethod
    def _pool_sizes(monkeypatch) -> list:
        """Run three tasks asking for 64 workers; the pool sizes made."""
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
        assert experiments._run_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
        return sizes

    @pytest.mark.parametrize("cpus, pool", [(2, [2]), (None, [])])
    def test_pool_bounded_by_cpu_count(self, monkeypatch, cpus, pool):
        # no affinity mask to read: usable_cpus falls back on the CPU count
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        assert experiments.usable_cpus() == (cpus or 1)
        assert self._pool_sizes(monkeypatch) == pool

    def test_pool_bounded_by_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        assert experiments.usable_cpus() == 2
        assert self._pool_sizes(monkeypatch) == [2]


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

    def test_points_recorded(self):
        ns = [16, 32, 64]
        fit = loglog_fit(ns, [1.0, 2.0, 4.0])
        assert fit.points == tuple((math.log(n), math.log(s))
                                   for n, s in zip(ns, [1.0, 2.0, 4.0]))


SMALL_LADDER = NLadder(ns=(64, 128, 256), replications=3)


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
    """Workers reduce through the public functions, which share the
    ensemble's one column sort; their outputs must equal those functions
    called on a freshly sampled ensemble."""

    # T = 2, M_t = 17: step 1/8.  gamma0 = 0.3 puts the floor between grid
    # points (0.25, 0.375); with eta = 0.3 it falls to 0.3 * 64**-0.3 ~ 0.086,
    # inside the first step
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_bk_worker_matches_field_and_ties(self, weighted, eta):
        n, H, T, M_t, rho, M_alpha, gamma0 = 64, 0.4, 2.0, 17, 0.1, 7, 0.3
        seed = derive_seed(99, n, 0)
        grid = GridSpec.uniform_grid(T, M_t, include_zero=True)
        got = experiments._bk_worker((seed, n, H, grid, rho, M_alpha,
                                      gamma0, eta, weighted, "circulant"))
        ens = make_ensemble(n, grid, H, master_seed=seed)
        levels = LevelGrid.uniform(rho, M_alpha)
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
        med, violation, warns = experiments._swanson_worker(
            (seed, n, grid, "circulant"))
        ens = make_ensemble(n, grid, 0.5, master_seed=seed)
        k = empirical.order_index(0.5, n)
        want = np.partition(ens.values, k - 1, axis=0)[k - 1, :]
        np.testing.assert_array_equal(med, math.sqrt(n) * want)
        ties = empirical.tie_stats(ens, LevelGrid(rho=0.25, levels=(0.5,)))
        assert violation == ties.max_violation
        assert warns == ens.warnings


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


class TestDeviationStability:
    def test_smoke(self):
        lad = NLadder(ns=(256, 1024), replications=20)
        r = deviation_stability_study(lad, delta=0.125, M_t=32, seed=37)
        assert r.pass_flags["all_positive_finite"]
        assert r.pass_flags["median_ratio_lt_3"]
        assert r.tables["median_ratio"] < 3.0
