"""Closed-form Gaussian and kernel analytics.

Pure functions of their arguments: univariate and bivariate normal
distributions, the fractional Brownian motion covariance, the limit
covariance kernels of the time-dependent empirical and quantile processes
and iterated-logarithm normalization constants.  Everything here is
deterministic and safe to call concurrently.

Importing this module loads numpy only.  The normal quantile is an
in-repo port of Cephes ``ndtri`` that matches ``scipy.special.ndtri`` bit
for bit, so no quantile evaluation loads scipy.  Every normal CDF goes
through ``std_normal_cdf``, which loads ``scipy.special`` (``ndtr``) on its
first call, and ``scipy.integrate`` loads on the first bivariate-CDF call,
that is, when a ``G`` or ``K`` kernel is first evaluated; a study that
never evaluates one never pays for it.  A study whose pool tasks evaluate
the normal CDF (``lil_trace``) loads ``scipy.special`` before its pool
starts, so forked workers inherit it rather than each import it again;
``kernel_validation`` evaluates its node truths in the parent, which loads
it there.  Domain checks are negated comparisons such as
``not (t >= 0.0)``, so that a NaN fails them too.
"""

from __future__ import annotations

import math
import sys
import numpy as np

from .errors import DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "marginal_cdf",
    "density_quantile",
    "true_quantile",
    "fbm_covariance",
    "fbm_correlation",
    "bivariate_normal_cdf",
    "limit_kernel_G",
    "quantile_kernel_K",
    "swanson_kernel",
    "lil_constant",
    "kernel_eval",
    "KERNEL_KINDS",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
# logs of the smallest and largest powers the direct fBm correlation forms,
# a factor e inside the normal range so that a sum of two stays inside
_LOG_POW_MIN = math.log(_FLOAT_MIN) + 1.0
_LOG_POW_MAX = math.log(sys.float_info.max) - 1.0
# below this ratio min/max of two times the direct fBm correlation loses
# digits to the cancellation 1 - (1-q)^{2H}; the ratio form keeps them
_DIRECT_Q_MIN = 2.0**-10


def _check_hurst(H: float) -> float:
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst index must satisfy 0 < H < 1; got {H}")
    return float(H)


# ---------------------------------------------------------------------------
# Univariate normal
# ---------------------------------------------------------------------------

def std_normal_cdf(x):
    """Standard normal CDF, accurate to machine precision on finite reals;
    every normal CDF in this module is evaluated here."""
    from scipy.special import ndtr
    return ndtr(x)


def std_normal_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2 pi)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the algorithm scipy.special.ndtri runs: a rational
# approximation in y - 1/2 on the centre, and two in 1/sqrt(-2 log y) on the
# tails.  Coefficients are highest degree first; each Q leads with Cephes'
# implicit 1 (1.0 * x + q is exactly x + q, as in its p1evl).
_NDTRI_P0 = (
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2,
    2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
)
# tails with 2 <= sqrt(-2 log y) < 8, i.e. exp(-32) < y <= exp(-2)
_NDTRI_P1 = (
    4.05544892305962419923E0, 3.15251094599893866154E1,
    5.71628192246421288162E1, 4.40805073893200834700E1,
    1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1,
    2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
)
# tails with sqrt(-2 log y) >= 8, i.e. y <= exp(-32)
_NDTRI_P2 = (
    3.23774891776946035970E0, 6.91522889068984211695E0,
    3.93881025292474443415E0, 1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# Cephes' sqrt(2 pi): one ulp above math.sqrt(2.0 * math.pi)
_NDTRI_S2PI = 2.50662827463100050242E0


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Cephes ndtri for 0 < y < 1, bit for bit: the same approximations in
    the same order of operations, with libm's log and sqrt (math, never
    numpy, whose vectorised log can differ from libm's in the last bit)."""
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def std_normal_quantile(alpha):
    """Inverse of the standard normal CDF on (0, 1)."""
    a = np.asarray(alpha, dtype=float)
    # written so that NaN fails too
    if not np.all((0.0 < a) & (a < 1.0)):
        raise DomainError(f"quantile level must lie in (0, 1); got {alpha}")
    out = np.array([_ndtri(y) for y in a.flat]).reshape(a.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Marginals and quantiles of B(t)
# ---------------------------------------------------------------------------

def marginal_cdf(t: float, x, H: float):
    """P{B(t) <= x} = Phi(x / t^H); at t=0 the unit step at 0.

    B(0) = 0 almost surely, hence the degenerate marginal at t=0.
    """
    _check_hurst(H)
    if not (t >= 0.0):
        raise DomainError(f"time must be nonnegative; got {t}")
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        out = np.where(x >= 0.0, 1.0, 0.0)
    else:
        out = std_normal_cdf(x / t**H)
    return float(out) if out.ndim == 0 else out


def density_quantile(t: float, alpha: float, H: float) -> float:
    """Marginal density at the true quantile: exp(-z_a^2/2) / (t^H sqrt(2 pi))."""
    _check_hurst(H)
    if not (t > 0.0):
        raise DomainError(f"density degenerates at t <= 0; got t={t}")
    z = std_normal_quantile(alpha)
    return math.exp(-0.5 * z * z) / (t**H * _SQRT_2PI)


def true_quantile(t: float, alpha: float, H: float) -> float:
    """Level-alpha quantile of B(t): t^H z_alpha."""
    _check_hurst(H)
    if not (t >= 0.0):
        raise DomainError(f"time must be nonnegative; got {t}")
    z = std_normal_quantile(alpha)
    return t**H * z


# ---------------------------------------------------------------------------
# fBm covariance
# ---------------------------------------------------------------------------

def fbm_covariance(s, t, H: float):
    """Covariance of fractional Brownian motion:

    E[B(s) B(t)] = (|s|^{2H} + |t|^{2H} - |s - t|^{2H}) / 2
    """
    _check_hurst(H)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * H
    out = 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(s - t) ** h2)
    return float(out) if out.ndim == 0 else out


def fbm_correlation(s: float, t: float, H: float) -> float:
    """Correlation of (B(s), B(t)), i.e. the covariance over s^H t^H.

    Where the times are far apart (q = min/max < 2^-10), or min(s, t)^{2H}
    or max(s, t)^{2H} leaves the normal float range, the same ratio is
    taken over max^{2H}: (1 + q^{2H} - (1-q)^{2H}) / (2 q^H), which holds at
    any positive times and keeps the digits the direct form's difference
    cancels.
    """
    _check_hurst(H)
    if not (s > 0.0 and t > 0.0):
        raise DomainError(f"correlation needs s, t > 0; got s={s}, t={t}")
    if s == t:
        # exactly 1 only on the diagonal; avoids a rounding loss of ~1 ulp
        # that would otherwise dodge the comonotone branch downstream
        return 1.0
    lo, hi = min(s, t), max(s, t)
    h2 = 2.0 * H
    q = lo / hi
    if (q >= _DIRECT_Q_MIN and _LOG_POW_MIN <= h2 * math.log(lo)
            and h2 * math.log(hi) <= _LOG_POW_MAX):
        r = fbm_covariance(s, t, H) / (s**H * t**H)
    else:
        # q^H / 2 + (1 - (1-q)^{2H}) / q * q^{1-H} / 2, with the difference
        # taken without cancellation and the powers of q through its log,
        # so that q may underflow; (1 - (1-q)^{2H}) / q tends to 2H
        log_q = math.log(q) if q > 0.0 else math.log(lo) - math.log(hi)
        slope = -math.expm1(h2 * math.log1p(-q)) / q if q > 0.0 else h2
        r = 0.5 * (math.exp(H * log_q) + slope * math.exp((1.0 - H) * log_q))
    # the exact value is within (-1, 1); guard rounding for downstream arcsin
    return min(1.0, max(-1.0, r))


# ---------------------------------------------------------------------------
# Bivariate normal
# ---------------------------------------------------------------------------

def _biv_integrand(theta: float, x: float, y: float) -> float:
    s = math.sin(theta)
    c2 = math.cos(theta) ** 2
    return math.exp(-(x * x - 2.0 * s * x * y + y * y) / (2.0 * c2))


def bivariate_normal_cdf(x: float, y: float, rho: float) -> float:
    """P{Z1 <= x, Z2 <= y} for standard normals with correlation rho.

    Computed by integrating the correlation derivative of the CDF from 0 to
    rho (the integrand at correlation r is the bivariate density at (x, y)),
    after substituting r = sin(theta) to remove the 1/sqrt(1-r^2) endpoint
    singularity:

        Phi2(x, y; rho) = Phi(x) Phi(y)
            + (1/2pi) * int_0^{arcsin rho} exp(-(x^2 - 2xy sin t + y^2)
                                               / (2 cos^2 t)) dt

    Absolute error is held below 1e-10 (in practice ~1e-14).  At rho = +-1
    the comonotone/antimonotone limits are returned.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1]; got {rho}")
    if math.isnan(x) or math.isnan(y):
        raise DomainError("bivariate CDF arguments must not be NaN")
    if rho == 1.0:
        return float(min(std_normal_cdf(x), std_normal_cdf(y)))
    if rho == -1.0:
        return float(max(0.0, std_normal_cdf(x) + std_normal_cdf(y) - 1.0))
    # clamp extreme arguments; beyond |40| the marginal is 0/1 to full precision
    x = min(40.0, max(-40.0, x))
    y = min(40.0, max(-40.0, y))
    from scipy.integrate import quad
    corr, _ = quad(_biv_integrand, 0.0, math.asin(rho), args=(x, y),
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    val = float(std_normal_cdf(x)) * float(std_normal_cdf(y)) + corr / (2.0 * math.pi)
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# Limit kernels
# ---------------------------------------------------------------------------

def limit_kernel_G(s: float, x: float, t: float, y: float, H: float) -> float:
    """Covariance of the limiting empirical-process field:

    E[G(s,x) G(t,y)] = P{B(s) <= x, B(t) <= y} - F(s,x) F(t,y).
    """
    rho = fbm_correlation(s, t, H)
    joint = bivariate_normal_cdf(x / s**H, y / t**H, rho)
    return joint - float(marginal_cdf(s, x, H)) * float(marginal_cdf(t, y, H))


def quantile_kernel_K(t1: float, alpha1: float, t2: float, alpha2: float,
                      H: float, weighted: bool = False) -> float:
    """Covariance kernel of the limiting quantile field at quantile nodes:

        K = P{B(t1) <= t1^H z_{a1}, B(t2) <= t2^H z_{a2}} - a1 a2,

    optionally premultiplied by t1^H t2^H (the weighted form, defined and
    equal to 0 when either time vanishes).
    """
    _check_hurst(H)
    for a in (alpha1, alpha2):
        if not 0.0 < a < 1.0:
            raise DomainError(f"quantile level must lie in (0, 1); got {a}")
    if weighted:
        if not (t1 >= 0.0 and t2 >= 0.0):
            raise DomainError(f"times must be nonnegative; got {t1}, {t2}")
        if t1 == 0.0 or t2 == 0.0:
            return 0.0
    elif not (t1 > 0.0 and t2 > 0.0):
        raise DomainError(f"unweighted kernel needs t1, t2 > 0; got {t1}, {t2}")
    rho = fbm_correlation(t1, t2, H)
    z1 = std_normal_quantile(alpha1)
    z2 = std_normal_quantile(alpha2)
    val = bivariate_normal_cdf(z1, z2, rho) - alpha1 * alpha2
    if weighted:
        weight = t1**H * t2**H
        if weight == math.inf:
            raise DomainError(f"H={H} makes the weight t1^H t2^H overflow")
        val *= weight
    return val


def swanson_kernel(t1: float, t2: float) -> float:
    """Covariance of the scaled-median limit of Brownian ensembles:

    sqrt(t1 t2) * arcsin( min(t1,t2) / sqrt(t1 t2) ); 0 if either time is 0.
    """
    if not (t1 >= 0.0 and t2 >= 0.0):
        raise DomainError(f"times must be nonnegative; got {t1}, {t2}")
    if t1 == 0.0 or t2 == 0.0:
        return 0.0
    prod = t1 * t2
    # where t1 t2 underflows or overflows, take the roots apart; the
    # arcsine's argument may then round above 1
    g = (math.sqrt(prod) if _FLOAT_MIN <= prod < math.inf
         else math.sqrt(t1) * math.sqrt(t2))
    return g * math.asin(min(1.0, min(t1, t2) / g))


# ---------------------------------------------------------------------------
# LIL constants
# ---------------------------------------------------------------------------

def lil_constant(T: float, kappa: float) -> float:
    """Normalizing constant of the iterated-logarithm trace: the
    t^kappa-weighted sup-variance of the limit field over [0, T] x R is
    T^{2 kappa}/4, and the constant is its square root T^kappa / 2.
    """
    # both written so that NaN fails too
    if not (T >= 1.0):
        raise DomainError(f"horizon must satisfy T >= 1; got {T}")
    if not (kappa > 0.0):
        raise DomainError(f"kappa must be positive; got {kappa}")
    return T**kappa / 2.0


# ---------------------------------------------------------------------------
# Kernel dispatch (CLI surface)
# ---------------------------------------------------------------------------

KERNEL_KINDS = ("G", "K", "weightedK", "swanson")


def kernel_eval(kind: str, t1: float, a1: float | None, t2: float,
                a2: float | None, H: float = 0.5,
                kappa: float | None = None) -> float:
    """Dispatch a kernel evaluation by kind.

    ``G`` takes space arguments (a1, a2 are x-levels), ``K``/``weightedK``
    take quantile levels, ``swanson`` takes times only, at H = 1/2 only.
    For kind ``G`` an optional kappa multiplies by the weight
    (t1 t2)^kappa used by the weighted iterated-logarithm normalization
    (G only, and finite).
    """
    if kappa is not None and kind != "G":
        raise DomainError(f"kappa weights kind G only; got kind {kind!r}")
    if kind == "G":
        if a1 is None or a2 is None:
            raise DomainError("kind G requires x-levels for both nodes")
        val = limit_kernel_G(t1, a1, t2, a2, H)
        if kappa is not None:
            prod = t1 * t2
            try:
                # where t1 t2 underflows or overflows, take the powers apart
                weight = (math.pow(prod, kappa) if _FLOAT_MIN <= prod < math.inf
                          else math.pow(t1, kappa) * math.pow(t2, kappa))
            except OverflowError:
                weight = math.inf
            if weight == math.inf:
                raise DomainError(f"kappa={kappa} makes the weight "
                                  f"(t1 t2)^kappa overflow")
            val *= weight
    elif kind in ("K", "weightedK"):
        if a1 is None or a2 is None:
            raise DomainError(f"kind {kind} requires quantile levels for both nodes")
        val = quantile_kernel_K(t1, a1, t2, a2, H, weighted=(kind == "weightedK"))
    elif kind == "swanson":
        if H != 0.5:
            raise DomainError(f"kind swanson is the Brownian kernel, H = 0.5; "
                              f"got H={H}")
        val = swanson_kernel(t1, t2)
    else:
        raise DomainError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
    return val
