"""Empirical distribution, quantile, tie, and remainder statistics."""

import math

import numpy as np
import pytest

from tqproc import analytic, empirical
from tqproc.empirical import LevelGrid, order_index, tie_bound_m
from tqproc.errors import DomainError
from tqproc.fbm import Ensemble, GridSpec, make_ensemble


def fake_ensemble(columns: dict[float, list[float]], H: float = 0.5) -> Ensemble:
    """An ensemble with hand-picked values; columns maps t -> path values."""
    times = sorted(columns)
    n = len(columns[times[0]])
    vals = np.column_stack([np.asarray(columns[t], dtype=float) for t in times])
    vals.setflags(write=False)
    return Ensemble(H=H, grid=GridSpec.from_times(times), values=vals,
                    master_seed=0, sampler_id="cholesky")


FOUR = [-1.2, -0.3, 0.5, 2.0]


class TestOrderIndex:
    def test_plain(self):
        assert order_index(0.5, 4) == 2
        assert order_index(0.51, 4) == 3

    def test_float_fuzz_guard(self):
        # 0.1 * 3 = 0.30000000000000004; ceil without the guard would give 2
        assert order_index(0.1, 3) == 1
        n = 1000
        assert order_index(0.7, n) == 700

    def test_clamping(self):
        assert order_index(1e-12, 5) == 1
        assert order_index(1.0 - 1e-12, 5) == 5


class TestEmpiricalCdf:
    def test_hand_count(self):
        e = fake_ensemble({1.0: FOUR})
        assert empirical.empirical_cdf(e, 1.0, 0.0) == 0.5

    def test_extremes(self):
        e = fake_ensemble({1.0: FOUR})
        assert empirical.empirical_cdf(e, 1.0, -5.0) == 0.0
        assert empirical.empirical_cdf(e, 1.0, 2.0) == 1.0
        assert empirical.empirical_cdf(e, 1.0, 3.0) == 1.0

    def test_closed_at_atom(self):
        e = fake_ensemble({1.0: FOUR})
        assert empirical.empirical_cdf(e, 1.0, -0.3) == 0.5

    def test_off_grid_time_rejected(self):
        e = fake_ensemble({1.0: FOUR})
        with pytest.raises(DomainError):
            empirical.empirical_cdf(e, 1.5, 0.0)


class TestEmpiricalProcess:
    def test_hand_zero(self):
        e = fake_ensemble({1.0: FOUR})
        assert empirical.empirical_process(e, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_at_infinity(self):
        e = fake_ensemble({1.0: FOUR})
        assert empirical.empirical_process(e, 1.0, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_zero_time_rejected(self):
        e = fake_ensemble({1.0: FOUR})
        with pytest.raises(DomainError):
            empirical.empirical_process(e, 0.0, 0.0)

    def test_unbiased(self):
        # mean of v_n over many independent ensembles is 0 within 3 SE
        reps, n, t, x = 4000, 8, 1.0, 0.3
        grid = GridSpec.from_times([t])
        vals = np.array([
            empirical.empirical_process(
                make_ensemble(n, grid, 0.5, master_seed=s), t, x)
            for s in range(reps)])
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 3 * se

    def test_pointwise_variance(self):
        # Var[v_n(t,x)] = F(1-F); MC estimate within 3 SE
        reps, n, t, x, H = 3000, 32, 1.0, 0.5, 0.5
        grid = GridSpec.from_times([t])
        F = float(analytic.marginal_cdf(t, x, H))
        vals = np.array([
            empirical.empirical_process(
                make_ensemble(n, grid, H, master_seed=10_000 + s), t, x)
            for s in range(reps)])
        v = vals.var(ddof=1)
        se = np.var((vals - vals.mean()) ** 2, ddof=1) ** 0.5 / math.sqrt(reps)
        assert abs(v - F * (1 - F)) <= 3 * se


class TestEmpiricalQuantile:
    def test_hand_median(self):
        e = fake_ensemble({1.0: FOUR})
        assert empirical.empirical_quantile(e, 1.0, 0.5) == -0.3

    def test_odd_sample_median(self):
        e = fake_ensemble({1.0: [3.0, -1.0, 0.25]})
        assert empirical.empirical_quantile(e, 1.0, 0.5) == 0.25

    def test_monotone_in_alpha(self):
        e = fake_ensemble({1.0: FOUR})
        q25 = empirical.empirical_quantile(e, 1.0, 0.25)
        q50 = empirical.empirical_quantile(e, 1.0, 0.5)
        assert q25 == -1.2
        assert q25 <= q50

    def test_monotone_property_random(self):
        grid = GridSpec.uniform_grid(2.0, 8)
        e = make_ensemble(37, grid, 0.4, master_seed=6)
        lv = LevelGrid.uniform(0.05, 33)
        for t in grid.times:
            tau_n = [empirical.empirical_quantile(e, t, a) for a in lv.levels]
            assert np.all(np.diff(tau_n) >= 0.0)

    def test_galois_inversion(self):
        grid = GridSpec.uniform_grid(1.0, 4)
        e = make_ensemble(23, grid, 0.5, master_seed=15)
        for t in grid.times:
            col = np.sort(e.values_at(t))
            for a in (0.1, 0.37, 0.5, 0.82):
                tau = empirical.empirical_quantile(e, t, a)
                assert empirical.empirical_cdf(e, t, tau) >= a
                below = col[col < tau]
                if below.size:
                    assert empirical.empirical_cdf(e, t, below[-1]) < a


class TestQuantileProcess:
    def test_mc_variance_matches_bernoulli_over_density(self):
        # Var[u_n(1, 1/2)] ~ alpha(1-alpha)/f^2 = pi/2 within 5%
        reps, n = 5000, 1000
        grid = GridSpec.from_times([1.0])
        k = order_index(0.5, n)
        vals = np.empty(reps)
        for r in range(reps):
            e = make_ensemble(n, grid, 0.5, master_seed=50_000 + r)
            med = np.partition(e.values[:, 0], k - 1)[k - 1]
            vals[r] = math.sqrt(n) * med
        assert vals.var(ddof=1) == pytest.approx(math.pi / 2.0, rel=0.05)


class TestTieStats:
    def test_hand_exact_index(self):
        e = fake_ensemble({1.0: FOUR})
        ts = empirical.tie_stats(e, LevelGrid(rho=0.25, levels=(0.5,)))
        assert ts.delta_n[0, 0] == 0.0
        assert ts.max_violation <= 0.0

    def test_m_values(self):
        assert tie_bound_m(0.5) == 10
        assert tie_bound_m(0.3) == 16

    def test_no_ties_in_continuous_samples(self):
        grid = GridSpec.uniform_grid(2.0, 16)
        e = make_ensemble(251, grid, 0.5, master_seed=29)
        lv = LevelGrid.uniform(0.1, 21)
        ts = empirical.tie_stats(e, lv)
        # F_n(t, tau^n) = ceil(alpha n)/n exactly, so 0 <= gap < 1/n
        n = e.n
        gap = ts.delta_n / math.sqrt(n)
        ks = np.array([order_index(a, n) for a in lv.array])
        assert np.allclose(gap, (ks / n - lv.array)[:, None], atol=1e-15)
        assert ts.max_violation <= 0.0

    def test_skips_time_zero(self):
        grid = GridSpec.uniform_grid(1.0, 5, include_zero=True)
        e = make_ensemble(40, grid, 0.5, master_seed=31)
        ts = empirical.tie_stats(e, LevelGrid.uniform(0.2, 5))
        assert 0.0 not in ts.times
        assert ts.max_violation <= 0.0


class TestRemainderField:
    def test_hand_value(self):
        # n=2, values {-0.5, 0.5} at t=1, alpha=1/2, H=1/2:
        # v_n = 0, u_n = -0.7071, f = 0.398942 -> R = -0.282095
        e = fake_ensemble({1.0: [-0.5, 0.5]})
        lv = LevelGrid(rho=0.25, levels=(0.5,))
        fld = empirical.bk_remainder_field(e, lv, times=[1.0])
        assert fld.values[0, 0] == pytest.approx(-0.2820947917738781, abs=1e-9)
        assert fld.sup_norm == pytest.approx(0.2820947917738781, abs=1e-9)

    def test_vanishes_when_both_terms_vanish(self):
        e = fake_ensemble({1.0: [0.0, 0.7]})
        lv = LevelGrid(rho=0.25, levels=(0.5,))
        fld = empirical.bk_remainder_field(e, lv, times=[1.0])
        assert fld.values[0, 0] == 0.0

    def test_weighted_zero_at_origin(self):
        grid = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        e = make_ensemble(33, grid, 0.5, master_seed=71)
        lv = LevelGrid.uniform(0.1, 5)
        fld = empirical.bk_remainder_field(e, lv, weighted=True)
        assert np.all(fld.values[:, 0] == 0.0)

    def test_weighted_equals_scaled_unweighted(self):
        grid = GridSpec.uniform_grid(2.0, 17, include_zero=True)
        e = make_ensemble(64, grid, 0.5, master_seed=72)
        lv = LevelGrid.uniform(0.1, 9)
        unw = empirical.bk_remainder_field(e, lv, t_min=0.25)
        wtd = empirical.bk_remainder_field(e, lv, weighted=True, t_min=0.25)
        ts = np.asarray(unw.times)
        assert np.allclose(wtd.values, ts[None, :] ** 0.5 * unw.values,
                           atol=1e-12)

    def test_unweighted_requires_positive_floor(self):
        grid = GridSpec.uniform_grid(1.0, 5, include_zero=True)
        e = make_ensemble(8, grid, 0.5, master_seed=73)
        lv = LevelGrid.uniform(0.2, 3)
        with pytest.raises(DomainError):
            empirical.bk_remainder_field(e, lv)
        with pytest.raises(DomainError):
            empirical.bk_remainder_field(e, lv, times=[0.0, 0.5])


class TestSharedColumnSort:
    def test_reductions_sort_the_ensemble_once(self, monkeypatch):
        grid = GridSpec.uniform_grid(2.0, 17, include_zero=True)
        e = make_ensemble(64, grid, 0.5, master_seed=74)
        calls = []
        real_sort = np.sort

        def counting_sort(*args, **kwargs):
            calls.append(args[0].shape)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        lv = LevelGrid.uniform(0.1, 5)
        empirical.bk_remainder_field(e, lv, t_min=0.25)
        empirical.tie_stats(e, lv)
        empirical.empirical_quantile(e, 1.0, 0.3)
        empirical.weighted_sup_empirical(e, 0.5)
        empirical.quantile_deviation_stat(e, 0.25, 0.1)
        assert calls == [e.values.shape]

    def test_scattered_times_match_full_field(self):
        # non-contiguous, unordered columns take the indexed path
        grid = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        e = make_ensemble(40, grid, 0.5, master_seed=75)
        lv = LevelGrid.uniform(0.1, 5)
        full = empirical.bk_remainder_field(e, lv, t_min=0.25)
        part = empirical.bk_remainder_field(e, lv, times=[1.75, 0.5])
        np.testing.assert_array_equal(part.values, full.values[:, [6, 1]])
        ties = empirical.tie_stats(e, lv, times=[1.75, 0.5])
        np.testing.assert_array_equal(
            ties.delta_n, empirical.tie_stats(e, lv).delta_n[:, [6, 1]])


class TestWeightedSupEmpirical:
    def test_one_path_hand_value(self):
        e = fake_ensemble({1.0: [0.0]})
        assert empirical.weighted_sup_empirical(e, kappa=1.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_nonincreasing_in_kappa_unit_horizon(self):
        grid = GridSpec.uniform_grid(1.0, 16)
        e = make_ensemble(50, grid, 0.5, master_seed=81)
        s1 = empirical.weighted_sup_empirical(e, kappa=1.0)
        s2 = empirical.weighted_sup_empirical(e, kappa=2.0)
        assert s2 <= s1

    def test_tightness_across_n(self):
        grid = GridSpec.uniform_grid(1.0, 16)
        means = []
        for n in (256, 4096):
            sups = [empirical.weighted_sup_empirical(
                make_ensemble(n, grid, 0.5, master_seed=90 + r), kappa=0.5)
                for r in range(8)]
            means.append(np.mean(sups))
        assert 0.5 <= means[1] / means[0] <= 2.0


class TestQuantileDeviation:
    def test_synthetic_exact_quantiles(self):
        # sorted value k at each t is the true k/n quantile, so the order
        # statistic ceil(alpha*n) = alpha*n hits tau_alpha exactly
        n = 20
        lv = LevelGrid(rho=0.2, levels=(0.2, 0.4, 0.6, 0.8))
        cols = {t: [analytic.true_quantile(t, (k + 1) / n, 0.5)
                    if k + 1 < n else 3.0 * t**0.5 for k in range(n)]
                for t in (0.5, 1.0, 2.0)}
        e = fake_ensemble(cols)
        stat = empirical.quantile_deviation_stat(e, 0.125, 0.2, levels=lv)
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_a_n_floor_moves_first_window_time(self):
        # exact quantiles at t = 1, 2 and a column shifted by s at t = 0.5:
        # the statistic is nonzero exactly when a_n drops below 0.5
        n, delta, s = 20, 0.125, 0.3
        lv = LevelGrid(rho=0.2, levels=(0.2, 0.4, 0.6, 0.8))
        cols = {t: [analytic.true_quantile(t, (k + 1) / n, 0.5)
                    if k + 1 < n else 3.0 * t**0.5 for k in range(n)]
                for t in (0.5, 1.0, 2.0)}
        cols[0.5] = [v + s for v in cols[0.5]]
        e = fake_ensemble(cols)
        lln = math.log(math.log(n))
        # a_n = C (loglog n / n)^{1/(2 delta)} = 0.5 at C = C_half
        C_half = 0.5 / (lln / n) ** (1.0 / (2.0 * delta))

        def stat(C):
            return empirical.quantile_deviation_stat(e, delta, 0.2, C=C,
                                                     levels=lv)

        assert stat(C_half * (1.0 - 1e-9)) == pytest.approx(
            s * 0.5 ** (delta - 0.5) * math.sqrt(n / lln), rel=1e-12)
        assert stat(C_half * (1.0 + 1e-9)) == pytest.approx(0.0, abs=1e-12)

    def test_small_samples_rejected(self):
        e = fake_ensemble({1.0: list(range(10))})
        with pytest.raises(DomainError):
            empirical.quantile_deviation_stat(e, 0.125, 0.2)

    def test_delta_above_h_rejected(self):
        e = fake_ensemble({1.0: list(range(20))})
        with pytest.raises(DomainError, match="delta"):
            empirical.quantile_deviation_stat(e, 0.75, 0.2)

    def test_positive_finite(self):
        grid = GridSpec.uniform_grid(2.0, 16)
        e = make_ensemble(128, grid, 0.5, master_seed=101)
        stat = empirical.quantile_deviation_stat(e, 0.125, 0.1)
        assert 0.0 < stat < math.inf

    def test_empty_window_rejected(self):
        grid = GridSpec.uniform_grid(2.0, 8)
        e = make_ensemble(64, grid, 0.5, master_seed=102)
        with pytest.raises(DomainError):
            empirical.quantile_deviation_stat(e, 0.5, 0.1, C=1e9)

    def test_stability_across_n(self):
        grid = GridSpec.uniform_grid(2.0, 32, include_zero=True)
        meds = []
        for n in (512, 2048):
            vals = [empirical.quantile_deviation_stat(
                make_ensemble(n, grid, 0.5, master_seed=110 + r), 0.125, 0.1)
                for r in range(30)]
            meds.append(np.median(vals))
        assert max(meds) / min(meds) < 3.0
