"""Exact sampling of fractional Brownian motion ensembles on time grids.

Two exact finite-dimensional samplers are provided: dense Cholesky
factorization of the covariance matrix (any grid, O(M^3) once per grid) and
circulant embedding of the stationary increment sequence (uniform lattice
grids, O(M log M) per path).  Both draw their noise from per-path PCG64
streams derived from (master_seed, path_index), so an ensemble is a
deterministic function of its configuration regardless of how generation is
scheduled.  The circulant sampler synthesizes the paths in row blocks of
about 1 MB of spectrum each, so beyond the (n, M) result an ensemble needs
only a few MB of temporaries, whatever n is.

Path diagnostic: an exponential tail fit of the ensemble supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import analytic
from .errors import DataError, DomainError, NumericError
from .seeding import derive_seed, normal_matrix

__all__ = [
    "GridSpec",
    "Ensemble",
    "TailFit",
    "ensemble_bytes",
    "make_ensemble",
    "tail_fit",
]

MAX_CHOLESKY_POINTS = 4096
_LATTICE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """A strictly increasing time grid on [0, T].

    ``uniform`` means the points sit on a lattice {k*step} anchored at 0
    (the grid itself may start at 0 or at any positive lattice point), which
    is the geometry the circulant sampler requires.
    """
    times: tuple[float, ...]
    T: float
    uniform: bool
    step: float = 0.0

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        if ts.size == 0:
            raise DomainError("grid needs at least one time point")
        if np.any(np.diff(ts) <= 0.0):
            raise DomainError("grid times must be strictly increasing")
        if ts[0] < 0.0 or ts[-1] > self.T + 1e-12 * max(1.0, self.T):
            raise DomainError(f"grid times must lie in [0, T={self.T}]")

    @classmethod
    def uniform_grid(cls, T: float, M: int, include_zero: bool = False) -> "GridSpec":
        """M equally spaced points: k*T/(M-1) from 0, or (k+1)*T/M from T/M."""
        if M < 1 or T <= 0.0:
            raise DomainError(f"need M >= 1 and T > 0; got M={M}, T={T}")
        if include_zero:
            if M < 2:
                raise DomainError("a grid containing 0 needs at least 2 points")
            ts = np.linspace(0.0, T, M)
            step = T / (M - 1)
        else:
            ts = np.arange(1, M + 1) * (T / M)
            step = T / M
        return cls(times=tuple(float(t) for t in ts), T=float(T),
                   uniform=True, step=float(step))

    @classmethod
    def from_times(cls, times, T: float | None = None) -> "GridSpec":
        """Build a grid from explicit times, detecting lattice uniformity."""
        ts = np.asarray(sorted(float(t) for t in times), dtype=float)
        if T is None:
            T = float(ts[-1])
        uniform, step = False, 0.0
        if ts.size >= 2:
            # candidate lattice step: the smallest positive gap (including the
            # anchor gap to 0); the grid is uniform when every time is an
            # integer multiple of it
            diffs = np.diff(ts)
            cand = float(min(diffs.min(), ts[0])) if ts[0] > 0 else float(diffs.min())
            if cand > 0.0:
                ratios = ts / cand
                on_lattice = np.abs(ratios - np.rint(ratios)) <= (
                    _LATTICE_RTOL * np.maximum(1.0, ratios))
                if bool(np.all(on_lattice)):
                    uniform, step = True, cand
        elif ts.size == 1 and ts[0] > 0.0:
            uniform, step = True, float(ts[0])
        return cls(times=tuple(ts), T=float(T), uniform=uniform,
                   step=step if uniform else 0.0)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    @property
    def M(self) -> int:
        return len(self.times)

    def index_of(self, t: float) -> int:
        """Index of a grid time; no interpolation is performed."""
        ts = self.array
        j = int(np.argmin(np.abs(ts - t)))
        if abs(ts[j] - t) > 1e-12 * max(1.0, abs(t)):
            raise DomainError(
                f"t={t} is not a grid time (nearest is {ts[j]}); "
                "statistics are defined on grid times only")
        return j

    def lattice_indices(self) -> np.ndarray:
        """Integer lattice positions k with t = k*step; requires uniform."""
        if not self.uniform:
            raise DomainError("grid is not a uniform lattice anchored at 0")
        idx = np.rint(self.array / self.step).astype(int)
        if not np.allclose(idx * self.step, self.array,
                           rtol=_LATTICE_RTOL, atol=1e-15):
            raise DomainError("grid times do not sit on the lattice {k*step}")
        return idx


@dataclass(frozen=True)
class Ensemble:
    """n independent paths sharing one grid and Hurst index.

    ``values`` has shape (n, M); row i is the path generated from the stream
    seed derive_seed(master_seed, i).  It must be read-only, since
    ``sorted_values`` is computed from it once and then kept.
    """
    H: float
    grid: GridSpec
    values: np.ndarray
    master_seed: int
    sampler_id: str
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.values.flags.writeable:
            raise DomainError("ensemble values must be read-only")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """Each column of ``values`` sorted ascending; read-only, sorted once."""
        # column-major: each column is sorted and searched contiguously
        sv = np.sort(np.asfortranarray(self.values), axis=0)
        sv.setflags(write=False)
        return sv

    def values_at(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t)]


# ---------------------------------------------------------------------------
# Cholesky sampler
# ---------------------------------------------------------------------------

# Each process keeps the factors and spectra of its last few (grid, H)
# pairs.  The bound keeps a long-lived process small: a 4096-point Cholesky
# factor takes about 134 MB, and every pool worker holds its own cache.
_CACHE_SIZE = 4
_JITTER_REL = 1e-12


@lru_cache(maxsize=_CACHE_SIZE)
def _cholesky_factor(grid: GridSpec, H: float) -> tuple[np.ndarray, tuple[str, ...]]:
    pos = grid.array[grid.array > 0.0]
    cov = analytic.fbm_covariance(pos[:, None], pos[None, :], H)
    warns: tuple[str, ...] = ()
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = _JITTER_REL * pos[-1] ** (2.0 * H)
        try:
            L = np.linalg.cholesky(cov + jitter * np.eye(len(pos)))
            warns = (f"cholesky: added diagonal jitter {jitter:.3e} to factor "
                     f"the {len(pos)}-point covariance",)
        except np.linalg.LinAlgError:
            pivot = float(np.linalg.eigvalsh(cov)[0])
            raise NumericError(
                f"covariance factorization failed beyond jitter tolerance; "
                f"smallest pivot {pivot:.3e}") from None
    return L, warns


def _cholesky_matrix(grid: GridSpec, H: float,
                     seeds: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    if grid.M > MAX_CHOLESKY_POINTS:
        raise DomainError(
            f"cholesky sampler is limited to {MAX_CHOLESKY_POINTS} grid points; "
            f"got {grid.M}")
    L, warns = _cholesky_factor(grid, H)
    pos_mask = grid.array > 0.0
    noise = normal_matrix(seeds, int(pos_mask.sum()))
    out = np.zeros((len(seeds), grid.M))
    out[:, pos_mask] = noise @ L.T
    return out, warns


# ---------------------------------------------------------------------------
# Circulant-embedding sampler
# ---------------------------------------------------------------------------

_SPECTRUM_TOL_REL = 1e-8
# The circulant sampler works through blocks of rows whose complex spectrum
# takes about this many bytes, small enough to stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 20


def _fgn_autocov(lags: np.ndarray, step: float, H: float) -> np.ndarray:
    """Autocovariance of unit-lag fGn increments scaled to step size:

    gamma(k) = step^{2H} * ((k+1)^{2H} + |k-1|^{2H} - 2 k^{2H}) / 2
    """
    k = lags.astype(float)
    h2 = 2.0 * H
    return step**h2 * 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k**h2)


@lru_cache(maxsize=_CACHE_SIZE)
def _fgn_spectrum(n_inc: int, step: float, H: float) -> tuple[np.ndarray, tuple[str, ...]]:
    """Eigenvalues of the minimal circulant embedding (size 2*n_inc - 2)."""
    g = n_inc - 1
    gamma = _fgn_autocov(np.arange(n_inc), step, H)
    row = np.concatenate([gamma, gamma[g - 1:0:-1]])  # size 2g
    eig = np.fft.fft(row).real
    warns: tuple[str, ...] = ()
    tol = _SPECTRUM_TOL_REL * float(eig.max())
    emin = float(eig.min())
    if emin < -tol:
        raise NumericError(
            f"circulant embedding spectrum has eigenvalue {emin:.3e} below "
            f"-{tol:.3e}; grid/H combination not embeddable")
    if emin < 0.0:
        warns = (f"circulant: clipped {int((eig < 0).sum())} spectrum "
                 f"eigenvalue(s) in [{emin:.3e}, 0) to 0",)
        eig = np.maximum(eig, 0.0)
    return eig, warns


def _embedding_size(grid: GridSpec) -> int:
    """Size of the circulant embedding, which is also the draws per path."""
    return max(1, 2 * (int(grid.lattice_indices().max()) - 1))


def _block_rows(n: int, m: int) -> int:
    """Rows per block of n paths with m draws each."""
    return min(n, max(1, _BLOCK_BYTES // (16 * m)))


def _circulant_matrix(grid: GridSpec, H: float,
                      seeds: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    if not grid.uniform:
        raise DomainError("circulant sampler requires a uniform lattice grid")
    idx = grid.lattice_indices()
    n_inc = int(idx.max())
    if n_inc < 1:
        raise DomainError("circulant sampler needs at least one positive grid time")
    n = len(seeds)
    # Paths are synthesized block by block, so the temporaries do not grow
    # with n.  Each row depends only on its own stream, FFT and cumsum, so
    # the output bits do not depend on the block size.
    m = _embedding_size(grid)  # draws per path
    rows = _block_rows(n, m)
    if n_inc == 1:
        # single increment: one N(0, step^{2H}) variate per path
        warns: tuple[str, ...] = ()
        scale = grid.step**H

        def increments(noise: np.ndarray) -> np.ndarray:
            return noise * scale
    else:
        eig, warns = _fgn_spectrum(n_inc, grid.step, H)
        g = n_inc - 1
        amp0, ampg = np.sqrt(eig[0] / m), np.sqrt(eig[g] / m)
        amp = np.sqrt(eig[1:g] / (2.0 * m))
        W = np.empty((rows, m), dtype=complex)  # every column rewritten per block

        def increments(noise: np.ndarray) -> np.ndarray:
            w = W[:len(noise)]
            w[:, 0] = amp0 * noise[:, 0]
            w[:, g] = ampg * noise[:, 1]
            # frequencies k = 1..g-1 take noise columns 2k and 2k+1; their
            # mirrors m-k run from m-1 down to g+1 (all empty when g = 1)
            w[:, 1:g] = amp * (noise[:, 2:m:2] + 1j * noise[:, 3:m:2])
            w[:, :g:-1] = np.conj(w[:, 1:g])
            return np.fft.fft(w, axis=1).real[:, :n_inc]
    out = np.zeros((n, grid.M))
    pos = idx > 0
    cols = idx[pos] - 1
    for lo in range(0, n, rows):
        noise = normal_matrix(seeds[lo:lo + rows], m)
        out[lo:lo + rows, pos] = np.cumsum(increments(noise), axis=1)[:, cols]
    return out, warns


# ---------------------------------------------------------------------------
# Public sampling API
# ---------------------------------------------------------------------------

def ensemble_bytes(n: int, grid: GridSpec, sampler_id: str) -> int:
    """Estimated peak bytes of an n-path ensemble on ``grid`` and its sort.

    Counts ``values`` and ``sorted_values`` (2·n·M·8 bytes) and the noise
    held at once: one row block for the circulant sampler; all n rows and
    the M²·8-byte factor for the Cholesky sampler.
    """
    M = grid.M
    if sampler_id == "cholesky":
        noise = n * M + M * M
    else:
        m = _embedding_size(grid)
        noise = _block_rows(n, m) * m
    return 8 * (2 * n * M + noise)


_SAMPLERS = {"cholesky": _cholesky_matrix, "circulant": _circulant_matrix}


def make_ensemble(n: int, grid: GridSpec, H: float, sampler_id: str = "circulant",
                  master_seed: int = 0) -> Ensemble:
    """n mutually independent paths; path i uses seed derive_seed(master_seed, i).

    The per-path streams make the result independent of generation order.
    With the circulant sampler a prefix of a larger ensemble equals the
    smaller ensemble bit for bit; the Cholesky sampler multiplies all rows
    in one BLAS product, so there a prefix agrees only up to rounding.
    """
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1; got {n}")
    if sampler_id not in _SAMPLERS:
        raise DomainError(f"unknown sampler {sampler_id!r}; "
                          f"expected one of {sorted(_SAMPLERS)}")
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst index must satisfy 0 < H < 1; got {H}")
    seeds = derive_seed(master_seed, np.arange(n, dtype=np.uint64))
    try:
        values, warns = _SAMPLERS[sampler_id](grid, H, seeds)
    except NumericError as exc:
        raise NumericError(f"{sampler_id} sampler failed for ensemble "
                           f"(n={n}, H={H}): {exc}") from exc
    values.setflags(write=False)
    return Ensemble(H=float(H), grid=grid, values=values,
                    master_seed=int(master_seed), sampler_id=sampler_id,
                    warnings=warns)


# ---------------------------------------------------------------------------
# Path diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFit:
    """Least-squares fit of log P{sup |B| > y} against -c y^2 + log d."""
    levels: tuple[float, ...]
    tail_probs: tuple[float, ...]
    c_hat: float
    d_hat: float
    r_squared: float
    dropped_levels: tuple[float, ...] = field(default=())


def tail_fit(ensemble: Ensemble, levels) -> TailFit:
    """Fit d*exp(-c y^2) to the empirical tail of sup_t |B(t)| over the grid.

    Levels whose empirical tail probability is zero are dropped (they carry
    no information for the log fit); at least 3 must survive.
    """
    ys = np.asarray(sorted(float(y) for y in levels), dtype=float)
    if ys.size < 3:
        raise DataError(f"tail fit needs at least 3 levels; got {ys.size}")
    # max(max, -min) is max |values| without an (n, M) temporary
    values = ensemble.values
    sup = np.maximum(values.max(axis=1), -values.min(axis=1))
    probs = np.array([(sup > y).mean() for y in ys])
    keep = probs > 0.0
    dropped = tuple(float(y) for y in ys[~keep])
    ys, probs = ys[keep], probs[keep]
    if ys.size < 3:
        raise DataError(
            f"only {ys.size} level(s) have nonzero tail probability; "
            "lower the levels or enlarge the ensemble")
    x = ys**2
    logp = np.log(probs)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, logp, rcond=None)
    resid = logp - (A @ np.array([slope, intercept]))
    ss_tot = float(np.sum((logp - logp.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return TailFit(levels=tuple(float(y) for y in ys),
                   tail_probs=tuple(float(p) for p in probs),
                   c_hat=float(-slope), d_hat=float(math.exp(intercept)),
                   r_squared=r2, dropped_levels=dropped)
