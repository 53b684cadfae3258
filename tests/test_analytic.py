"""Closed-form analytics: oracles, frozen examples, and invariants."""

import decimal
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import ndtri

from tqproc import analytic
from tqproc.empirical import LevelGrid
from tqproc.errors import DomainError


def _cdf_oracle(x: float) -> float:
    """Independent quadrature of the standard normal density."""
    val, _ = quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi),
                  -40.0, x, epsabs=1e-14, limit=400)
    return val


def _quantile_oracle(alpha: float) -> float:
    """Bisection inverse of the quadrature CDF."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cdf_oracle(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormal:
    def test_symmetry_at_zero(self):
        assert analytic.std_normal_cdf(0.0) == 0.5

    def test_against_quadrature_oracle(self):
        assert analytic.std_normal_cdf(1.959964) == pytest.approx(
            _cdf_oracle(1.959964), abs=1e-12)
        assert analytic.std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_far_tail(self):
        assert analytic.std_normal_cdf(-40.0) < 1e-300

    def test_monotone(self):
        xs = np.linspace(-8, 8, 400)
        vals = analytic.std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_quantile_median(self):
        assert analytic.std_normal_quantile(0.5) == 0.0

    def test_quantile_against_bisection_oracle(self):
        assert analytic.std_normal_quantile(0.975) == pytest.approx(
            _quantile_oracle(0.975), abs=1e-6)
        assert analytic.std_normal_quantile(0.975) == pytest.approx(
            1.959964, abs=1e-6)

    def test_quantile_round_trip(self):
        for a in (0.3, 0.0001, 0.77, 0.9999):
            assert analytic.std_normal_cdf(
                analytic.std_normal_quantile(a)) == pytest.approx(a, abs=1e-10)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5, math.inf, -math.inf, [0.5, 0.0],
                    [[0.5], [1.0]]):
            with pytest.raises(DomainError):
                analytic.std_normal_quantile(bad)

    @pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan]],
                             ids=["scalar", "array"])
    def test_quantile_rejects_nan(self, bad):
        with pytest.raises(DomainError, match="quantile level"):
            analytic.std_normal_quantile(bad)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


class TestNdtriPort:
    """``analytic._ndtri`` is Cephes ndtri, bit for bit scipy's."""

    @staticmethod
    def _levels() -> np.ndarray:
        rng = np.random.default_rng(20161)
        exp2, exp32 = math.exp(-2.0), math.exp(-32.0)
        edges = np.array([exp2, exp32, 1.0 - exp2, 0.5])
        grids = [LevelGrid.uniform(rho, count).array
                 for rho in (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3)
                 for count in (2, 3, 5, 21, 64, 101, 1000)]
        return np.concatenate([
            rng.uniform(0.0, 1.0, 300_000),                # mostly the centre
            10.0 ** rng.uniform(-300.0, 0.0, 100_000),     # lower tails
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000),  # upper tail
            np.exp(-rng.uniform(1.0, 40.0, 50_000)),       # both tail fits
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            [5e-324, 2.2250738585072014e-308, 2.0**-53, 1.0 - 2.0**-53],
            *grids,
        ])

    def test_matches_scipy_bit_for_bit(self):
        y = self._levels()
        y = y[(0.0 < y) & (y < 1.0)]
        assert y.size >= 500_000
        # every branch is exercised: the centre, and both tail fits on the
        # lower (y <= exp(-2)) and the upper (1 - y <= exp(-2)) side
        low = np.minimum(y, 1.0 - y)
        branches = {"centre": low > math.exp(-2.0),
                    "tail": (low <= math.exp(-2.0)) & (low > math.exp(-32.0)),
                    "far tail": low <= math.exp(-32.0)}
        for name, hit in branches.items():
            assert np.count_nonzero(hit & (y < 0.5)) >= 1000, name
            assert np.count_nonzero(hit & (y > 0.5)) >= 1000, name
        ours = np.array([analytic._ndtri(v) for v in y.tolist()])
        mismatched = np.flatnonzero(_bits(ours) != _bits(ndtri(y)))
        assert mismatched.size == 0, y[mismatched[:5]]

    def test_array_keeps_shape_and_bits(self):
        a = np.linspace(0.01, 0.99, 24).reshape(2, 3, 4)
        out = analytic.std_normal_quantile(a)
        assert isinstance(out, np.ndarray)
        assert out.shape == a.shape and out.dtype == np.float64
        assert np.array_equal(_bits(out), _bits(ndtri(a)))
        assert analytic.std_normal_quantile(np.empty((0, 3))).shape == (0, 3)
        assert analytic.std_normal_quantile([0.25]).shape == (1,)

    @pytest.mark.parametrize("alpha", [0.3, np.float64(0.3), np.array(0.3)],
                             ids=["float", "numpy scalar", "0-d array"])
    def test_scalar_gives_float(self, alpha):
        out = analytic.std_normal_quantile(alpha)
        assert type(out) is float
        assert _bits(out) == _bits(ndtri(0.3))


class TestNanTimes:
    """Every time check fails on a NaN time, as on a negative one."""

    @pytest.mark.parametrize("call", [
        lambda t: analytic.marginal_cdf(t, 0.3, 0.5),
        lambda t: analytic.true_quantile(t, 0.3, 0.5),
        lambda t: analytic.density_quantile(t, 0.3, 0.5),
        lambda t: analytic.fbm_correlation(t, 1.0, 0.5),
        lambda t: analytic.fbm_correlation(1.0, t, 0.5),
        lambda t: analytic.swanson_kernel(t, 1.0),
        lambda t: analytic.swanson_kernel(1.0, t),
        lambda t: analytic.quantile_kernel_K(t, 0.3, 1.0, 0.4, 0.5),
        lambda t: analytic.quantile_kernel_K(1.0, 0.3, t, 0.4, 0.5),
        lambda t: analytic.quantile_kernel_K(t, 0.3, 1.0, 0.4, 0.5,
                                             weighted=True),
        lambda t: analytic.quantile_kernel_K(0.0, 0.3, t, 0.4, 0.5,
                                             weighted=True),
    ], ids=["marginal_cdf", "true_quantile", "density_quantile",
            "fbm_correlation-s", "fbm_correlation-t", "swanson_kernel-t1",
            "swanson_kernel-t2", "K-t1", "K-t2", "weightedK-t1",
            "weightedK-zero-t1"])
    @pytest.mark.parametrize("t", [math.nan, -1.0], ids=["nan", "negative"])
    def test_rejected(self, call, t):
        with pytest.raises(DomainError):
            call(t)

    def test_nan_kappa_rejected(self):
        with pytest.raises(DomainError, match="kappa"):
            analytic.lil_constant(2.0, math.nan)


class TestMarginal:
    def test_median_is_half(self):
        for H in (0.2, 0.5, 0.9):
            assert analytic.marginal_cdf(1.0, 0.0, H) == 0.5

    def test_scaling(self):
        # Phi(2 / 4^{1/2}) = Phi(1)
        assert analytic.marginal_cdf(4.0, 2.0, 0.5) == pytest.approx(
            _cdf_oracle(1.0), abs=1e-12)

    def test_degenerate_at_zero(self):
        assert analytic.marginal_cdf(0.0, -1.0, 0.5) == 0.0
        assert analytic.marginal_cdf(0.0, 0.0, 0.5) == 1.0
        assert analytic.marginal_cdf(0.0, 2.0, 0.5) == 1.0

    def test_density_quantile_at_median(self):
        assert analytic.density_quantile(1.0, 0.5, 0.5) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert analytic.density_quantile(4.0, 0.5, 0.5) == pytest.approx(
            0.5 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_density_quantile_tail_limit(self):
        assert analytic.density_quantile(1.0, 1e-8, 0.5) < 1e-7

    def test_density_quantile_domain(self):
        with pytest.raises(DomainError):
            analytic.density_quantile(0.0, 0.5, 0.5)

    def test_true_quantile(self):
        assert analytic.true_quantile(7.3, 0.5, 0.33) == 0.0
        assert analytic.true_quantile(4.0, 0.975, 0.5) == pytest.approx(
            2.0 * _quantile_oracle(0.975), abs=1e-6)
        assert analytic.true_quantile(0.0, 0.2, 0.7) == 0.0


def _correlation_oracle(s: float, t: float, H: float) -> float:
    """fbm_correlation(s, t, H) in 400-digit decimal arithmetic:
    (s^{2H} + t^{2H} - |s-t|^{2H}) / (2 s^H t^H)."""
    with decimal.localcontext(decimal.Context(prec=400)):
        s, t, h = decimal.Decimal(s), decimal.Decimal(t), decimal.Decimal(H)
        return float((s ** (2 * h) + t ** (2 * h) - abs(s - t) ** (2 * h))
                     / (2 * s ** h * t ** h))


class TestFbmCovariance:
    def test_brownian_case_is_min(self):
        assert analytic.fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_h_three_quarters(self):
        # (1 + 2^{3/2} - 1) / 2 = sqrt(2)
        assert analytic.fbm_covariance(1.0, 2.0, 0.75) == pytest.approx(
            math.sqrt(2.0), abs=1e-14)

    def test_zero_time(self):
        assert analytic.fbm_covariance(3.0, 0.0, 0.6) == 0.0

    def test_diagonal_variance(self):
        for H in (0.3, 0.5, 0.8):
            for t in (0.5, 1.0, 3.0):
                assert analytic.fbm_covariance(t, t, H) == pytest.approx(
                    t ** (2 * H), rel=1e-14)

    def test_correlation_diagonal(self):
        assert analytic.fbm_correlation(2.0, 2.0, 0.4) == 1.0

    def test_correlation_brownian(self):
        assert analytic.fbm_correlation(1.0, 2.0, 0.5) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-14)

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.75, 0.9])
    def test_correlation_power_identity(self, H):
        # cov(1, 2) / 2^H = 2^{H-1} for every H
        assert analytic.fbm_correlation(1.0, 2.0, H) == pytest.approx(
            2.0 ** (H - 1.0), rel=1e-12)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    @pytest.mark.parametrize("H", [0.1, 0.5, 0.9])
    def test_correlation_scale_invariant(self, c, H):
        # fBm is self-similar; at H 0.9 (c t)^{2H} leaves the float range
        for s, t in [(1.0, 2.0), (0.3, 5.0), (1.0, 1.001)]:
            assert analytic.fbm_correlation(c * s, c * t, H) == pytest.approx(
                analytic.fbm_correlation(s, t, H), rel=1e-12)

    def test_correlation_of_times_whose_ratio_underflows(self):
        # q = 1e-400: H q^{1-H} + q^H / 2, about 0.9e-40
        assert analytic.fbm_correlation(1e-200, 1e200, 0.9) == pytest.approx(
            0.9e-40, rel=1e-9)

    @pytest.mark.parametrize("q", [0.999, 0.99, 0.9, 0.75, 0.5, 0.25, 0.1,
                                   2.0**-5, 0.01, 2.0**-10, 2.0**-11, 1e-5,
                                   1e-12, 1e-20, 1e-100, 1e-300])
    @pytest.mark.parametrize("H", [0.1, 0.5, 0.9])
    def test_correlation_matches_decimal_oracle(self, H, q):
        # one formula at every q, to an ulp or two; far below 2^-10, log q
        # itself rounds by up to half an ulp of |log q|, some 1e-14 of q^H
        assert analytic.fbm_correlation(q, 1.0, H) == pytest.approx(
            _correlation_oracle(q, 1.0, H),
            rel=1e-15 if q >= 2.0**-10 else 1e-13, abs=0.0)

    @pytest.mark.parametrize("gap", [1e-3, 2.0**-12, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.9])
    def test_correlation_of_close_times_matches_decimal_oracle(self, H, gap):
        # min/max rounds away the digits of 1 - q when the times are close;
        # the difference of the times keeps them
        s, t = 0.7, 0.7 * (1.0 + gap)
        assert analytic.fbm_correlation(s, t, H) == pytest.approx(
            _correlation_oracle(s, t, H), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("s, t", [(1e-200, 1.5e110), (3e-200, 1.7e112),
                                      (1e-300, 3e20), (1.3e-300, 1e10)])
    @pytest.mark.parametrize("H", [0.1, 0.5, 0.9])
    def test_correlation_of_subnormal_ratio_matches_decimal_oracle(self, H,
                                                                   s, t):
        # min/max rounds to a subnormal with fewer digits (3e-200 / 1.7e112
        # keeps about 38 bits, 1e-300 / 3e20 about 9); log q then comes
        # from the times, to half an ulp of each log
        assert analytic.fbm_correlation(s, t, H) == pytest.approx(
            _correlation_oracle(s, t, H), rel=1e-13, abs=0.0)

    def test_correlation_domain(self):
        with pytest.raises(DomainError):
            analytic.fbm_correlation(0.0, 1.0, 0.5)

    @pytest.mark.parametrize("H", [0.25, 0.5, 0.8])
    def test_positive_semidefinite(self, H):
        ts = np.linspace(0.031, 2.0, 64)
        cov = analytic.fbm_covariance(ts[:, None], ts[None, :], H)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -1e-9 * eig[-1]


def _biv_oracle(x: float, y: float, rho: float) -> float:
    """Two-dimensional quadrature of the bivariate normal density."""
    det = 1.0 - rho * rho
    def dens(v, u):
        return math.exp(-(u * u - 2 * rho * u * v + v * v) / (2 * det)) / (
            2 * math.pi * math.sqrt(det))
    val, _ = dblquad(dens, -9.0, x, -9.0, y, epsabs=1e-12)
    return val


class TestBivariateNormal:
    def test_independent_orthant(self):
        assert analytic.bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(
            0.25, abs=1e-12)

    def test_orthant_at_half(self):
        assert analytic.bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_marginalization(self):
        assert analytic.bivariate_normal_cdf(0.7, 40.0, 0.3) == pytest.approx(
            float(analytic.std_normal_cdf(0.7)), abs=1e-10)

    @pytest.mark.parametrize("x,y,rho", [
        (0.5, -0.3, 0.7), (1.2, 2.3, -0.85), (-1.0, -1.0, 0.99),
        (0.0, 1.0, -0.4), (2.0, 2.0, 0.999),
    ])
    def test_against_2d_quadrature_oracle(self, x, y, rho):
        assert analytic.bivariate_normal_cdf(x, y, rho) == pytest.approx(
            _biv_oracle(x, y, rho), abs=1e-10)

    def test_degenerate_limits(self):
        assert analytic.bivariate_normal_cdf(0.3, 0.8, 1.0) == pytest.approx(
            float(analytic.std_normal_cdf(0.3)), abs=1e-14)
        assert analytic.bivariate_normal_cdf(0.3, 0.8, -1.0) == pytest.approx(
            float(analytic.std_normal_cdf(0.3)) + float(analytic.std_normal_cdf(0.8)) - 1.0,
            abs=1e-14)
        assert analytic.bivariate_normal_cdf(-1.0, 0.5, -1.0) == 0.0

    def test_orthant_identity_grid(self):
        rhos = np.linspace(-0.999, 0.999, 201)
        err = max(abs(analytic.bivariate_normal_cdf(0.0, 0.0, r)
                      - (0.25 + math.asin(r) / (2 * math.pi))) for r in rhos)
        assert err <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.bivariate_normal_cdf(0.0, 0.0, 1.2)


class TestLimitKernels:
    def test_g_diagonal_at_median(self):
        for H in (0.3, 0.5, 0.75):
            assert analytic.limit_kernel_G(1.0, 0.0, 1.0, 0.0, H) == pytest.approx(
                0.25, abs=1e-12)

    def test_g_cross_brownian(self):
        assert analytic.limit_kernel_G(1.0, 0.0, 4.0, 0.0, 0.5) == pytest.approx(
            1.0 / 12.0, abs=1e-12)

    def test_g_constant_indicator_limit(self):
        assert analytic.limit_kernel_G(1.0, 40.0, 4.0, 0.0, 0.5) == pytest.approx(
            0.0, abs=1e-10)

    @pytest.mark.parametrize("t,x,H", [
        (0.5, -0.3, 0.3), (1.0, 0.7, 0.5), (2.5, 1.2, 0.75), (1.7, 0.0, 0.6),
    ])
    def test_g_diagonal_equals_bernoulli_variance(self, t, x, H):
        F = float(analytic.marginal_cdf(t, x, H))
        val = analytic.limit_kernel_G(t, x, t, x, H)
        assert val == pytest.approx(F * (1.0 - F), abs=1e-12)
        assert 0.0 <= val <= 0.25

    def test_k_diagonal_is_bernoulli(self):
        for a in (0.1, 0.5, 0.9):
            assert analytic.quantile_kernel_K(2.0, a, 2.0, a, 0.5) == pytest.approx(
                a * (1.0 - a), abs=1e-12)

    @pytest.mark.parametrize("q", [0.99, 0.5, 1e-2, 1e-5, 1e-10, 1e-20,
                                   1e-50, 1e-100, 1e-200, 1e-300])
    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_k_at_medians_is_sheppard(self, H, q):
        # at the medians K = arcsin(rho) / 2 pi (Sheppard): no marginal
        # product is added and taken away, so a small K keeps its digits
        want = math.asin(_correlation_oracle(q, 1.0, H)) / (2.0 * math.pi)
        assert analytic.quantile_kernel_K(q, 0.5, 1.0, 0.5, H) == pytest.approx(
            want, rel=2e-14, abs=0.0)

    def test_k_diagonal_is_exact(self):
        # on the diagonal K is min(a1, a2) - a1 a2 from the levels themselves
        for a1, a2 in [(0.1, 0.7), (0.5, 0.5), (0.9, 0.3)]:
            assert analytic.quantile_kernel_K(2.0, a1, 2.0, a2, 0.4) == (
                min(a1, a2) - a1 * a2)

    def test_k_weighted_brownian_median(self):
        assert analytic.quantile_kernel_K(1.0, 0.5, 4.0, 0.5, 0.5,
                                          weighted=True) == pytest.approx(
            1.0 / 6.0, abs=1e-12)

    def test_k_weighted_zero_time(self):
        assert analytic.quantile_kernel_K(0.0, 0.3, 2.0, 0.3, 0.5,
                                          weighted=True) == 0.0

    def test_k_unweighted_zero_time_rejected(self):
        with pytest.raises(DomainError):
            analytic.quantile_kernel_K(0.0, 0.3, 2.0, 0.3, 0.5)

    def test_swanson_values(self):
        assert analytic.swanson_kernel(1.0, 1.0) == pytest.approx(
            math.pi / 2.0, abs=1e-14)
        assert analytic.swanson_kernel(1.0, 4.0) == pytest.approx(
            math.pi / 3.0, abs=1e-14)
        assert analytic.swanson_kernel(0.0, 3.0) == 0.0

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_swanson_homogeneous_where_t1_t2_leaves_float_range(self, c):
        for t1, t2 in [(1.0, 1.0), (1.0, 4.0), (0.3, 2.9)]:
            assert analytic.swanson_kernel(c * t1, c * t2) == pytest.approx(
                c * analytic.swanson_kernel(t1, t2), rel=1e-14)

    def test_swanson_median_lil_constant(self):
        # sup over [0, T] of the kernel standard deviation is sqrt(T pi / 2)
        T = 2.0
        assert math.sqrt(analytic.swanson_kernel(T, T)) == pytest.approx(
            math.sqrt(T * math.pi / 2.0), abs=1e-14)

    def test_swanson_consistency_with_weighted_kernel(self):
        ts = np.linspace(0.4, 4.0, 10)
        for t1 in ts:
            for t2 in ts:
                lhs = 2 * math.pi * analytic.quantile_kernel_K(
                    t1, 0.5, t2, 0.5, 0.5, weighted=True)
                assert lhs == pytest.approx(
                    analytic.swanson_kernel(t1, t2), abs=1e-10)

    def test_kernel_symmetry(self):
        nodes = [(0.7, -0.4, 1.9, 0.8), (1.0, 0.0, 4.0, 0.3), (2.0, 1.1, 0.5, -0.2)]
        for s, x, t, y in nodes:
            assert analytic.limit_kernel_G(s, x, t, y, 0.6) == pytest.approx(
                analytic.limit_kernel_G(t, y, s, x, 0.6), abs=1e-14)
        for t1, a1, t2, a2 in [(1.0, 0.3, 2.0, 0.7), (0.5, 0.5, 4.0, 0.25)]:
            for w in (False, True):
                assert analytic.quantile_kernel_K(
                    t1, a1, t2, a2, 0.4, weighted=w) == pytest.approx(
                    analytic.quantile_kernel_K(t2, a2, t1, a1, 0.4, weighted=w),
                    abs=1e-14)
        assert analytic.swanson_kernel(1.3, 2.9) == analytic.swanson_kernel(2.9, 1.3)


class TestLilConstants:
    def test_sigma_kappa(self):
        sk = analytic.lil_constant(2.0, 0.5)
        assert sk == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_unit_horizon(self):
        for kappa in (0.1, 1.0, 3.0):
            assert analytic.lil_constant(1.0, kappa) == 0.5

    def test_domain(self):
        for T, kappa in ((0.9, 1.0), (math.nan, 1.0), (2.0, 0.0),
                         (2.0, -1.0)):
            with pytest.raises(DomainError):
                analytic.lil_constant(T, kappa)


class TestKernelEvalDispatch:
    def test_kinds(self):
        val = analytic.kernel_eval("swanson", 1.0, None, 4.0, None)
        assert type(val) is float
        assert val == pytest.approx(math.pi / 3.0, abs=1e-12)
        val = analytic.kernel_eval("G", 1.0, 0.0, 1.0, 0.0, H=0.5)
        assert type(val) is float
        assert val == pytest.approx(0.25, abs=1e-12)
        val = analytic.kernel_eval("weightedK", 1.0, 0.5, 4.0, 0.5, H=0.5)
        assert type(val) is float
        assert val == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_kappa_weight_on_g(self):
        base = analytic.kernel_eval("G", 1.0, 0.0, 4.0, 0.0, H=0.5)
        wtd = analytic.kernel_eval("G", 1.0, 0.0, 4.0, 0.0, H=0.5, kappa=0.5)
        assert wtd == pytest.approx(2.0 * base, rel=1e-12)

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_swanson_only_brownian(self, H):
        with pytest.raises(DomainError, match="H=0"):
            analytic.kernel_eval("swanson", 1.0, None, 4.0, None, H=H)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            analytic.kernel_eval("Q", 1.0, 0.0, 2.0, 0.0)
