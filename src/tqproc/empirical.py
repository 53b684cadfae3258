"""Time-dependent empirical distribution, quantile, and remainder statistics.

Every reduction is a pure function of an immutable ensemble and reads its
one column sort, ``Ensemble.sorted_values``, over a window of grid times:
an interval of the grid, hence a contiguous run of columns, read as a view
(``_window``).  F_n is a count on a sorted column (``_fn_at``) and tau_n a
row of it (``_tau_n_matrix``), the one implementation of each, which
kernel validation's node values share.  The empirical CDF in x is an exact
step function, so suprema over x are taken at the jump abscissas (order
statistics and their left limits) and are exact; suprema over t and the
quantile level are grid suprema.

The quantile index convention is ceil(alpha * n) with a 1e-9 guard against
binary-float products like 0.1 * n landing just above an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import DomainError
from .fbm import Ensemble

__all__ = [
    "LevelGrid",
    "RemainderField",
    "TieStats",
    "tie_bound_m",
    "order_index",
    "tie_stats",
    "bk_remainder_field",
    "weighted_sup_empirical",
    "quantile_deviation_stat",
]

_CEIL_GUARD = 1e-9


def order_index(alpha: float, n: int) -> int:
    """1-based order-statistic index ceil(alpha*n), guarded against float fuzz."""
    k = math.ceil(alpha * n - _CEIL_GUARD)
    return min(max(k, 1), n)


def tie_bound_m(H: float) -> int:
    """Largest possible multiplicity of coincident path values: 2*ceil(2/H) + 2."""
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst index must satisfy 0 < H < 1; got {H}")
    return 2 * math.ceil(2.0 / H) + 2


@dataclass(frozen=True)
class LevelGrid:
    """Quantile levels inside [rho, 1-rho]."""
    rho: float
    levels: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.rho < 0.5:
            raise DomainError(f"rho must lie in (0, 1/2); got {self.rho}")
        lv = np.asarray(self.levels, dtype=float)
        # both checks are written so that a NaN level fails them
        if lv.size == 0 or not np.all(np.diff(lv) > 0.0):
            raise DomainError("levels must be nonempty and strictly increasing")
        tol = 1e-12
        if not (self.rho - tol <= lv[0] and lv[-1] <= 1.0 - self.rho + tol):
            raise DomainError(
                f"levels must lie within [rho, 1-rho] = [{self.rho}, {1 - self.rho}]")

    @classmethod
    def uniform(cls, rho: float, count: int) -> "LevelGrid":
        lv = np.linspace(rho, 1.0 - rho, count)
        return cls(rho=float(rho), levels=tuple(float(a) for a in lv))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


# ---------------------------------------------------------------------------
# Grid machinery shared by field-level statistics
# ---------------------------------------------------------------------------

def _window(ensemble: Ensemble, keep: np.ndarray,
            empty: str) -> tuple[np.ndarray, np.ndarray]:
    """The grid times where ``keep`` holds and their columns of the
    ensemble's one column sort.

    Every window is an interval of the strictly increasing grid, so its
    columns are a contiguous run and the sorted columns a view.
    """
    cols = np.flatnonzero(keep)
    if cols.size == 0:
        raise DomainError(empty)
    run = slice(cols[0], cols[-1] + 1)
    return ensemble.grid.array[run], ensemble.sorted_values[:, run]


def _tau_n_matrix(sv: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Empirical quantiles from sorted columns: shape (levels, times)."""
    n = sv.shape[0]
    ks = np.array([order_index(a, n) for a in levels], dtype=int)
    return sv[ks - 1, :]


def _fn_at(sv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F_n evaluated columnwise at x[k, j] (x shares the time axis with sv)."""
    n, J = sv.shape
    out = np.empty_like(x)
    for j in range(J):
        out[:, j] = np.searchsorted(sv[:, j], x[:, j], side="right")
    return out / n


# ---------------------------------------------------------------------------
# Tie statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TieStats:
    """Delta_n(t, alpha) = sqrt(n)(F_n(t, tau^n) - alpha) and its exact bound.

    ``max_violation`` is the larger of max(F_n - alpha - m/n) and
    max(alpha - F_n - 1e-9/n) over the grid; both sides must be <= 0.  The
    1e-9/n slack on the lower side is exactly the worst case of the ceiling
    guard in ``order_index`` (a level stored one ulp above k/n maps to index
    k); a genuine violation would be a full 1/n.
    """
    times: tuple[float, ...]
    levels: LevelGrid
    delta_n: np.ndarray  # (levels, times)
    m_bound: int
    max_violation: float


def tie_stats(ensemble: Ensemble, levels: LevelGrid) -> TieStats:
    """Tie statistics of the empirical quantiles over the grid's positive
    times and the levels.

    Only positive times are scanned: at t=0 every path is anchored at 0, so
    all values coincide by construction and the multiplicity bound does not
    apply there.
    """
    ts, sv = _window(ensemble, ensemble.grid.array > 0.0,
                     "tie statistics need at least one positive grid time")
    n = ensemble.n
    lv = levels.array
    gap = _fn_at(sv, _tau_n_matrix(sv, lv)) - lv[:, None]
    m = tie_bound_m(ensemble.H)
    violation = max(float(np.max(gap - m / n)),
                    float(np.max(-gap)) - _CEIL_GUARD / n)
    return TieStats(times=tuple(float(t) for t in ts), levels=levels,
                    delta_n=math.sqrt(n) * gap, m_bound=m,
                    max_violation=violation)


# ---------------------------------------------------------------------------
# Remainder fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderField:
    """Values of the quantile-representation remainder over times x levels.

    Unweighted: v_n(t, tau_alpha(t)) + f(t, tau_alpha(t)) u_n(t, alpha) on a
    window bounded away from 0.  Weighted: t^H v_n(t, tau_alpha(t)) +
    phi(z_alpha) u_n(t, alpha) on [0, T], zero at t=0 by convention (the
    weight vanishes and all paths are anchored there).
    """
    times: tuple[float, ...]
    levels: LevelGrid
    values: np.ndarray  # (levels, times)
    sup_norm: float
    weighted: bool
    t_min: float
    t_max: float


def bk_remainder_field(ensemble: Ensemble, levels: LevelGrid,
                       weighted: bool = False,
                       t_min: float | None = None) -> RemainderField:
    """Remainder of the quantile representation over the grid times at or
    above ``t_min`` and the levels.

    The unweighted form is undefined at t=0, so it needs a window floor
    ``t_min > 0``; the weighted form admits t=0 and defaults to the whole
    grid.
    """
    # written so that a NaN floor fails too
    if not weighted and (t_min is None or not (t_min > 0.0)):
        raise DomainError(
            "unweighted remainder needs a positive window floor t_min")
    lo = -np.inf if t_min is None else t_min - 1e-12
    if t_min is not None and t_min > 0.0:
        lo = max(lo, math.ulp(0.0))  # a positive floor never takes t = 0
    ts, sv = _window(ensemble, ensemble.grid.array >= lo,
                     "time window selects no grid points")
    sqrt_n = math.sqrt(ensemble.n)
    lv = levels.array
    z = analytic.std_normal_quantile(lv)
    phi_z = analytic.std_normal_pdf(z)
    tH = ts**ensemble.H
    tau = np.outer(z, tH)
    u_n = sqrt_n * (_tau_n_matrix(sv, lv) - tau)
    v_n = sqrt_n * (_fn_at(sv, tau) - lv[:, None])
    if weighted:
        R = tH[None, :] * v_n + phi_z[:, None] * u_n
        R[:, ts == 0.0] = 0.0
    else:
        R = v_n + (phi_z[:, None] / tH[None, :]) * u_n
    return RemainderField(times=tuple(float(t) for t in ts), levels=levels,
                          values=R, sup_norm=float(np.max(np.abs(R))),
                          weighted=weighted, t_min=float(ts[0]), t_max=float(ts[-1]))


# ---------------------------------------------------------------------------
# Weighted empirical supremum and quantile deviation
# ---------------------------------------------------------------------------

def _x_sup_columns(sv: np.ndarray, ts: np.ndarray, H: float) -> np.ndarray:
    """Exact sup over x of |F_n(t, x) - F(t, x)| per time column.

    F_n is a step function jumping at the order statistics, so the supremum
    is attained at a jump or its left limit:
    max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    n, J = sv.shape
    i = np.arange(1, n + 1)[:, None] / n
    out = np.empty(J)
    for j in range(J):
        if ts[j] == 0.0:
            # all paths anchored at 0: F_n equals the degenerate marginal
            out[j] = 0.0
            continue
        F = analytic.marginal_cdf(ts[j], sv[:, j], H)[:, None]
        out[j] = max(float(np.max(i - F)), float(np.max(F - (i - 1.0 / n))))
    return out


def weighted_sup_empirical(ensemble: Ensemble, kappa: float) -> float:
    """sup over grid times and all x of t^kappa |v_n(t, x)|.

    Exact in x (the empirical CDF is piecewise constant between order
    statistics); the time supremum is over the grid.
    """
    if not (kappa > 0.0):  # written so that NaN fails too
        raise DomainError(f"kappa must be positive; got {kappa}")
    ts = ensemble.grid.array
    d = _x_sup_columns(ensemble.sorted_values, ts, ensemble.H)
    return float(np.max(ts**kappa * d) * math.sqrt(ensemble.n))


def quantile_deviation_stat(ensemble: Ensemble, delta: float, rho: float,
                            C: float = 1.0,
                            levels: LevelGrid | None = None) -> float:
    """Empirical candidate for the quantile-deviation constant:

    sup over levels in [rho, 1-rho] and grid times in (a_n, T] of
    t^{-(H-delta)} |tau^n - tau| sqrt(n) / sqrt(loglog n),

    with a_n = C (loglog n / n)^{1/(2 delta)} and T the grid's horizon.
    """
    H = ensemble.H
    if not 0.0 < delta <= H:
        raise DomainError(f"delta must satisfy 0 < delta <= H={H}; got {delta}")
    if not (C >= 0.0):  # written so that NaN fails too
        raise DomainError(f"C must be nonnegative; got {C}")
    n = ensemble.n
    if n < 16:
        raise DomainError(f"need n >= 16 so that loglog n > 0; got {n}")
    lln = math.log(math.log(n))
    a_n = C * (lln / n) ** (1.0 / (2.0 * delta))
    t_hi = ensemble.grid.T
    grid = ensemble.grid.array
    ts, sv = _window(
        ensemble, (grid > a_n) & (grid <= t_hi + 1e-12),
        f"window (a_n, T] = ({a_n:.3e}, {t_hi}] contains no grid times")
    if levels is None:
        levels = LevelGrid.uniform(rho, 21)
    lv = levels.array
    tau_n = _tau_n_matrix(sv, lv)
    tau = np.outer(analytic.std_normal_quantile(lv), ts**H)
    dev = np.abs(tau_n - tau) * ts[None, :] ** (delta - H)
    return float(np.max(dev) * math.sqrt(n) / math.sqrt(lln))
