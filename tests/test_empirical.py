"""Empirical distribution, quantile, tie, and remainder statistics."""

import math

import numpy as np
import pytest

from tqproc import analytic, empirical
from tqproc.empirical import LevelGrid, order_index, tie_bound_m
from tqproc.errors import DomainError
from tqproc.experiments import _node_truths, _node_values
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


def fn_at(e: Ensemble, x) -> np.ndarray:
    """F_n at the points x of a one-time ensemble, read off its sort."""
    xs = np.asarray(x, dtype=float)[:, None]
    return empirical._fn_at(e.sorted_values, xs)[:, 0]


def tau_n(e: Ensemble, alphas) -> np.ndarray:
    """Empirical quantiles (levels, times), rows of the sorted columns."""
    return empirical._tau_n_matrix(e.sorted_values, np.asarray(alphas))


def v_n(e: Ensemble, t: float, x: float) -> float:
    """v_n(t, x) as kernel validation's node values compute it."""
    truths = _node_truths(e.grid, [(t, x)], [], e.H, e.n)
    return float(_node_values(e, *truths)[0][0])


class TestEmpiricalCdf:
    def test_hand_count(self):
        e = fake_ensemble({1.0: FOUR})
        assert fn_at(e, [0.0])[0] == 0.5

    def test_extremes(self):
        e = fake_ensemble({1.0: FOUR})
        assert fn_at(e, [-5.0, 2.0, 3.0]).tolist() == [0.0, 1.0, 1.0]

    def test_closed_at_atom(self):
        e = fake_ensemble({1.0: FOUR})
        assert fn_at(e, [-0.3])[0] == 0.5


class TestEmpiricalProcess:
    def test_hand_zero(self):
        e = fake_ensemble({1.0: FOUR})
        assert v_n(e, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_at_infinity(self):
        e = fake_ensemble({1.0: FOUR})
        assert v_n(e, 1.0, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_unbiased(self):
        # mean of v_n over many independent ensembles is 0 within 3 SE
        reps, n, t, x = 4000, 8, 1.0, 0.3
        grid = GridSpec.from_times([t])
        vals = np.array([
            v_n(make_ensemble(n, grid, 0.5, master_seed=s), t, x)
            for s in range(reps)])
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 3 * se

    def test_pointwise_variance(self):
        # Var[v_n(t,x)] = F(1-F); MC estimate within 3 SE
        reps, n, t, x, H = 3000, 32, 1.0, 0.5, 0.5
        grid = GridSpec.from_times([t])
        F = float(analytic.marginal_cdf(t, x, H))
        vals = np.array([
            v_n(make_ensemble(n, grid, H, master_seed=10_000 + s), t, x)
            for s in range(reps)])
        v = vals.var(ddof=1)
        se = np.var((vals - vals.mean()) ** 2, ddof=1) ** 0.5 / math.sqrt(reps)
        assert abs(v - F * (1 - F)) <= 3 * se


class TestEmpiricalQuantile:
    def test_hand_median(self):
        e = fake_ensemble({1.0: FOUR})
        assert tau_n(e, [0.5])[0, 0] == -0.3

    def test_odd_sample_median(self):
        e = fake_ensemble({1.0: [3.0, -1.0, 0.25]})
        assert tau_n(e, [0.5])[0, 0] == 0.25

    def test_monotone_in_alpha(self):
        e = fake_ensemble({1.0: FOUR})
        q25, q50 = tau_n(e, [0.25, 0.5])[:, 0]
        assert q25 == -1.2
        assert q25 <= q50

    def test_monotone_property_random(self):
        grid = GridSpec.uniform_grid(2.0, 8)
        e = make_ensemble(37, grid, 0.4, master_seed=6)
        lv = LevelGrid.uniform(0.05, 33)
        assert np.all(np.diff(tau_n(e, lv.array), axis=0) >= 0.0)

    def test_galois_inversion(self):
        # F_n(tau^n(a)) >= a, and F_n < a just below tau^n(a)
        grid = GridSpec.uniform_grid(1.0, 4)
        e = make_ensemble(23, grid, 0.5, master_seed=15)
        alphas = np.array([0.1, 0.37, 0.5, 0.82])
        sv = e.sorted_values
        tau = tau_n(e, alphas)
        assert np.all(empirical._fn_at(sv, tau) >= alphas[:, None])
        for j in range(grid.M):
            col = sv[:, j]
            for a, q in zip(alphas, tau[:, j]):
                below = col[col < q]
                if below.size:
                    F = empirical._fn_at(sv[:, j:j + 1], below[-1:, None])
                    assert F[0, 0] < a


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

    @pytest.mark.parametrize("levels", [(math.nan,), (0.2, math.nan, 0.3),
                                        (0.2, math.nan)],
                             ids=["alone", "inner", "last"])
    def test_nan_level_rejected(self, levels):
        # a NaN level fails LevelGrid itself, before order_index sees it
        with pytest.raises(DomainError, match="levels must"):
            LevelGrid(rho=0.1, levels=levels)

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
        fld = empirical.bk_remainder_field(e, lv, t_min=1.0)
        assert fld.values[0, 0] == pytest.approx(-0.2820947917738781, abs=1e-9)
        assert fld.sup_norm == pytest.approx(0.2820947917738781, abs=1e-9)

    def test_vanishes_when_both_terms_vanish(self):
        e = fake_ensemble({1.0: [0.0, 0.7]})
        lv = LevelGrid(rho=0.25, levels=(0.5,))
        fld = empirical.bk_remainder_field(e, lv, t_min=1.0)
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

    @pytest.mark.parametrize("t_min", [1e-13, 1e-12])
    def test_positive_floor_never_takes_zero(self, t_min):
        grid = GridSpec.uniform_grid(1.0, 5, include_zero=True)
        e = make_ensemble(8, grid, 0.5, master_seed=74)
        lv = LevelGrid.uniform(0.2, 3)
        fld = empirical.bk_remainder_field(e, lv, t_min=t_min)
        assert fld.times == grid.times[1:]

    def test_unweighted_requires_positive_floor(self):
        grid = GridSpec.uniform_grid(1.0, 5, include_zero=True)
        e = make_ensemble(8, grid, 0.5, master_seed=73)
        lv = LevelGrid.uniform(0.2, 3)
        for t_min in (None, 0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="positive window floor"):
                empirical.bk_remainder_field(e, lv, t_min=t_min)


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
        _node_values(e, *_node_truths(e.grid, [(1.0, 0.3)], [(1.0, 0.3)],
                                      e.H, e.n))
        empirical.weighted_sup_empirical(e, 0.5)
        empirical.quantile_deviation_stat(e, 0.25, 0.1)
        assert calls == [e.values.shape]


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

    @pytest.mark.parametrize("C", [-1.0, math.nan])
    def test_negative_or_nan_C_rejected(self, C):
        # a negative C would put t = 0 in the window, where 0 * inf is NaN
        grid = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        e = make_ensemble(64, grid, 0.5, master_seed=104)
        with pytest.raises(DomainError, match="C must be nonnegative"):
            empirical.quantile_deviation_stat(e, 0.25, 0.1, C=C)

    def test_zero_C_keeps_the_whole_positive_grid(self):
        grid = GridSpec.uniform_grid(2.0, 8, include_zero=True)
        e = make_ensemble(64, grid, 0.5, master_seed=103)
        lv = LevelGrid.uniform(0.1, 5)
        tau_n = empirical._tau_n_matrix(e.sorted_values[:, 1:], lv.array)
        ts = grid.array[1:]
        tau = np.outer(analytic.std_normal_quantile(lv.array), ts**0.5)
        dev = np.abs(tau_n - tau) * ts[None, :] ** (0.125 - 0.5)
        lln = math.log(math.log(64))
        assert empirical.quantile_deviation_stat(e, 0.125, 0.1, C=0.0,
                                                 levels=lv) == float(
            np.max(dev) * math.sqrt(64) / math.sqrt(lln))

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
