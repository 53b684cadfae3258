"""Exact sampling of fractional Brownian motion ensembles on time grids.

Two exact finite-dimensional samplers are provided: dense Cholesky
factorization of the covariance matrix (any grid, O(M^3) once per grid) and
circulant embedding of the stationary increment sequence (uniform lattice
grids, O(M log M) per path).  Both draw their noise from per-path PCG64
streams derived from (master_seed, path_index), so an ensemble is a
deterministic function of its configuration regardless of how generation is
scheduled.  Both constructors share one sampling step, which allocates the
column-major (n, M) result, zero in the columns of t = 0, and hands it to
the sampler, which fills the other columns and returns only its warnings.
``make_ensemble`` keeps that array as the paths, and its
``Ensemble.sorted_values`` sorts a copy of them.  ``sorted_ensemble`` sorts
each column in place instead and keeps only that sort, so an ensemble that
is only reduced through its order statistics holds one array.  The circulant
sampler synthesizes the paths in row blocks of about 512 KB of spectrum
each, so its temporaries do not grow with n.  Each block's noise is drawn
straight into its spectrum buffer, where it is scaled, mirrored,
transformed and summed in place, and one scatter moves the sums' columns
into the result.  That one buffer is a per-thread workspace: each thread
keeps the one of its last block shape and reuses it for every block and
ensemble of that shape, so a run of like ensembles does not free and fault
in fresh pages per task, and concurrent threads never share one.

``_check_grid`` alone decides which grids each sampler takes, and
``_check_scale`` which grid times a Hurst index leaves in float range.

Path diagnostic: an exponential tail fit of the ensemble supremum.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np
# numpy 2 loads numpy.fft on first use; loaded here, before any pool forks
import numpy.fft  # noqa: F401

from . import analytic
from .errors import DataError, DomainError, NumericError
from .seeding import ROW_BYTES, derive_seed, normal_matrix

__all__ = ["GridSpec", "Ensemble", "TailFit", "ensemble_bytes",
           "make_ensemble", "sorted_ensemble", "tail_fit"]

MAX_CHOLESKY_POINTS = 4096
_LATTICE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _on_lattice(ts: np.ndarray, step: float) -> bool:
    """``GridSpec``'s lattice rule, for a step > 0."""
    # below 2**53 a float holds each index exactly, and the ratios are finite
    if not (step < math.inf and np.all(np.abs(ts) < 2.0**53 * float(step))):
        return False
    ratios = ts / step
    return bool(np.all(np.abs(ratios - np.rint(ratios))
                       <= _LATTICE_RTOL * np.maximum(1.0, ratios)))


@dataclass(frozen=True)
class GridSpec:
    """A strictly increasing time grid on [0, T].

    A positive ``step`` means the points sit on a lattice {k*step} anchored
    at 0 (the grid itself may start at 0 or at any positive lattice point),
    which is the geometry the circulant sampler requires; 0 means none.  A
    time sits on the lattice when within a relative 1e-9 of some k*step
    with k below 2**53, and a positive step that a time misses is rejected.
    """
    times: tuple[float, ...]
    T: float
    step: float = 0.0

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        if ts.size == 0:
            raise DomainError("grid needs at least one time point")
        # an infinite time or T fails before any difference is taken (inf
        # minus inf warns); a NaN time or T fails one of the two checks
        if not (math.isfinite(self.T) and not np.isinf(ts).any()
                and ts[0] >= 0.0
                and ts[-1] <= self.T + 1e-12 * max(1.0, self.T)):
            raise DomainError(
                f"grid times must lie in [0, T={self.T}], T finite")
        if not np.all(np.diff(ts) > 0.0):
            raise DomainError("grid times must be strictly increasing")
        if not (self.step == 0.0
                or self.step > 0.0 and _on_lattice(ts, self.step)):
            raise DomainError(f"grid step must be 0 or a finite step with "
                              f"every time on its lattice; got {self.step}")

    @property
    def uniform(self) -> bool:
        return self.step > 0.0

    @classmethod
    def uniform_grid(cls, T: float, M: int, include_zero: bool = False) -> "GridSpec":
        """M equally spaced points: k*T/(M-1) from 0, or (k+1)*T/M from T/M."""
        if M < 1 or not (T > 0.0):
            raise DomainError(f"need M >= 1 and T > 0; got M={M}, T={T}")
        if include_zero:
            if M < 2:
                raise DomainError("a grid containing 0 needs at least 2 points")
            ts = np.linspace(0.0, T, M)
            step = T / (M - 1)
        else:
            ts = np.arange(1, M + 1) * (T / M)
            step = T / M
        return cls(times=tuple(ts.tolist()), T=float(T), step=float(step))

    @classmethod
    def from_times(cls, times) -> "GridSpec":
        """A grid on [0, max(times)]; its step is the smallest positive gap
        between consecutive times or from 0 to the first (so one positive
        time is a lattice of its own) if the times sit on that lattice,
        else 0."""
        ts = tuple(sorted(float(t) for t in times))
        # checked before the gaps are taken
        grid = cls(times=ts, T=ts[-1] if ts else 0.0)
        gaps = np.diff(grid.array, prepend=0.0)
        step = float(gaps[gaps > 0.0].min(initial=math.inf))
        return (cls(times=ts, T=grid.T, step=step)
                if _on_lattice(grid.array, step) else grid)

    def __getstate__(self) -> dict:
        # pickle the fields only: each process builds its own cached arrays
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # The grid is frozen, so its arrays are built once and shared read-only.
    @cached_property
    def array(self) -> np.ndarray:
        ts = np.asarray(self.times, dtype=float)
        ts.setflags(write=False)
        return ts

    @property
    def M(self) -> int:
        return len(self.times)

    @cached_property
    def _lattice(self) -> np.ndarray:
        if not self.uniform:
            raise DomainError("grid is not a uniform lattice anchored at 0")
        # __post_init__ checked the times against the lattice
        idx = np.rint(self.array / self.step).astype(int)
        idx.setflags(write=False)
        return idx

    def lattice_indices(self) -> np.ndarray:
        """Lattice positions k with t = k*step; read-only, built once."""
        return self._lattice


@dataclass(frozen=True, init=False, eq=False)
class Ensemble:
    """n independent paths sharing one grid and Hurst index, held in one
    read-only (n, M) array, which the samplers store column-major.

    ``make_ensemble`` holds the paths: row i of ``values`` is the path
    generated from the stream seed derive_seed(master_seed, i), and
    ``sorted_values`` sorts a copy of their columns once and keeps it,
    which is why ``values`` must be read-only.  ``sorted_ensemble`` holds
    only that column sort; sorted columns are no paths, so reading its
    ``values`` raises ``DomainError``.
    """
    H: float
    grid: GridSpec
    master_seed: int
    sampler_id: str
    warnings: tuple[str, ...]

    def __init__(self, H: float, grid: GridSpec, values: np.ndarray,
                 master_seed: int, sampler_id: str,
                 warnings: tuple[str, ...] = ()):
        if values.flags.writeable:
            raise DomainError("ensemble values must be read-only")
        for name, value in (("H", H), ("grid", grid), ("_array", values),
                            ("master_seed", master_seed),
                            ("sampler_id", sampler_id), ("warnings", warnings)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self._array.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The paths, one per row; read-only."""
        return self._array

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """Each column of ``values`` sorted ascending; read-only, sorted once."""
        # column-major: each column is sorted and searched contiguously.  The
        # samplers return column-major values, so this sorts one copy
        sv = np.sort(np.asfortranarray(self._array), axis=0)
        sv.setflags(write=False)
        return sv


class _SortedEnsemble(Ensemble):
    """An ensemble whose one array is its column sort (``sorted_ensemble``)."""

    @property
    def values(self) -> np.ndarray:
        raise DomainError("this ensemble holds only its columns sorted in "
                          "place, not its paths; sample it with "
                          "make_ensemble to read the paths")

    @property
    def sorted_values(self) -> np.ndarray:
        return self._array


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
        # jittered in place, so no second covariance is held: the bits are
        # those of cov + jitter * I, whose off-diagonal x + 0.0 is x
        diag = cov.diagonal().copy()
        np.fill_diagonal(cov, diag + jitter)
        try:
            L = np.linalg.cholesky(cov)
            warns = (f"cholesky: added diagonal jitter {jitter:.3e} to factor "
                     f"the {len(pos)}-point covariance",)
        except np.linalg.LinAlgError:
            np.fill_diagonal(cov, diag)
            pivot = float(np.linalg.eigvalsh(cov)[0])
            raise NumericError(
                f"covariance factorization failed beyond jitter tolerance; "
                f"smallest pivot {pivot:.3e}") from None
    return L, warns


def _cholesky_matrix(grid: GridSpec, H: float, seeds: np.ndarray,
                     out: np.ndarray) -> tuple[str, ...]:
    L, warns = _cholesky_factor(grid, H)
    pos_mask = grid.array > 0.0
    noise = normal_matrix(seeds, int(pos_mask.sum()))
    out[:, pos_mask] = noise @ L.T
    return warns


# ---------------------------------------------------------------------------
# Circulant-embedding sampler
# ---------------------------------------------------------------------------

_SPECTRUM_TOL_REL = 1e-8
# The circulant sampler works through blocks of rows whose complex spectrum
# takes about this many bytes, small enough to stay in a core's L2 cache.
# Halving it again to 256 KB measured up to 10% slower at n = 8192.
_BLOCK_BYTES = 1 << 19


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
    return max(1, 2 * (int(grid.lattice_indices()[-1]) - 1))


def _block_rows(n: int, m: int) -> int:
    """Rows per block of n paths with m draws each."""
    return min(n, max(1, _BLOCK_BYTES // (16 * m)))


_workspace = threading.local()


def _block_buffer(rows: int, m: int) -> np.ndarray:
    """This thread's spectrum block, ``(rows, m)`` complex: kept from the
    last call of the same shape, else replaced, so a thread holds one block
    at most."""
    W = getattr(_workspace, "spectrum", None)
    if W is None or W.shape != (rows, m):
        _workspace.spectrum = W = None  # free the old block first
        W = _workspace.spectrum = np.empty((rows, m), dtype=complex)
    return W


def _circulant_matrix(grid: GridSpec, H: float, seeds: np.ndarray,
                      out: np.ndarray) -> tuple[str, ...]:
    idx = grid.lattice_indices()
    n_inc = int(idx[-1])
    n = len(seeds)
    # Paths are synthesized block by block, so the temporaries do not grow
    # with n.  Each row depends only on its own stream, FFT and cumsum, so
    # the output bits do not depend on the block size.
    m = _embedding_size(grid)  # draws per path
    rows = _block_rows(n, m)
    # A block's noise is drawn into the first m floats of each row of its
    # spectrum buffer W.
    W = _block_buffer(rows, m)
    noise = W.view(float)[:, :m]
    if n_inc == 1:
        # single increment: one N(0, step^{2H}) variate per path
        warns: tuple[str, ...] = ()
        scale = grid.step**H

        def increments(k: int) -> np.ndarray:
            x = noise[:k]
            x *= scale
            return x
    else:
        eig, warns = _fgn_spectrum(n_inc, grid.step, H)
        g = n_inc - 1
        amp0, ampg = np.sqrt(eig[0] / m), np.sqrt(eig[g] / m)
        amp = np.repeat(np.sqrt(eig[1:g] / (2.0 * m)), 2)
        # Noise columns 2k and 2k+1 already sit at Re w_k and Im w_k of the
        # spectrum; only column 1 moves, to Re w_g.

        def increments(k: int) -> np.ndarray:
            w = W[:k]
            wf = w.view(float)
            np.multiply(wf[:, 1], ampg, out=wf[:, m])
            wf[:, m + 1] = 0.0
            wf[:, 0] *= amp0
            wf[:, 1] = 0.0
            wf[:, 2:m] *= amp
            # frequencies k = 1..g-1 mirror to m-k, from m-1 down to g+1
            # (all empty when g = 1)
            np.conjugate(w[:, 1:g], out=w[:, :g:-1])
            # in place: the next block rewrites all of W before its FFT
            return np.fft.fft(w, axis=1, out=w).real[:, :n_inc]
    # Each block's increments are summed in place along its rows, in the
    # spectrum's real parts, then scattered (column j takes sum column
    # idx[j] - 1): accumulating along the rows of the column-major result
    # directly measured slower.
    pos = idx > 0
    cols = idx[pos] - 1
    for lo in range(0, n, rows):
        block = seeds[lo:lo + rows]
        k = len(block)
        normal_matrix(block, m, out=noise[:k])
        c = increments(k)
        np.cumsum(c, axis=1, out=c)
        out[lo:lo + k, pos] = c[:, cols]
    return warns


# ---------------------------------------------------------------------------
# Public sampling API
# ---------------------------------------------------------------------------

def _check_grid(grid: GridSpec, sampler_id: str) -> None:
    """Reject a grid the sampler cannot sample; the message reads on from
    the name of what set the grid, which the runner puts in front of it."""
    if sampler_id == "circulant" and not (grid.uniform and grid.lattice_indices()[-1] > 0):
        raise DomainError(
            f"must sit on one lattice {{k*step}} holding a positive time for "
            f"the circulant sampler; got {grid.array.tolist()}; use "
            f"sampler_id 'cholesky' for other times")
    if sampler_id == "cholesky" and grid.M > MAX_CHOLESKY_POINTS:
        raise DomainError(f"give {grid.M} grid points, over the cholesky "
                          f"sampler's limit of {MAX_CHOLESKY_POINTS}")


_SCALE_LOG2 = 1000.0


def _check_scale(grid: GridSpec, H: float) -> None:
    """Reject a grid on which the variance scale t**(2H) leaves the range
    2**-1000 .. 2**1000 at some positive time t, or at the lattice step the
    circulant sampler scales by: normal floats, with room to spare for the
    covariance and spectrum sums.  The message reads on as in
    ``_check_grid``."""
    pos = grid.array[grid.array > 0.0]
    if pos.size == 0:
        return
    # on a lattice the step is the smallest of the scales
    lo, hi = (grid.step if grid.uniform else float(pos[0])), float(pos[-1])
    if not (-_SCALE_LOG2 <= 2.0 * H * math.log2(lo)
            and 2.0 * H * math.log2(hi) <= _SCALE_LOG2):
        raise DomainError(
            f"must keep t**(2H) within [2**-{_SCALE_LOG2:g}, "
            f"2**{_SCALE_LOG2:g}] at H={H} for every grid time and lattice "
            f"step t; got t from {lo!r} to {hi!r}")


# The Python objects and small arrays of one sampler call: about 1.3 KB
# traced while the noise and its stream state are held
_CALL_BYTES = 1 << 12
# Arrays of M²·8 bytes held while the Cholesky factor is built.  Traced,
# the covariance with its temporaries or with the factor peaks at 3 and a
# few M-point vectors, with or without the jitter retry, which jitters the
# covariance in place.  LAPACK's work copy is not traced: on a 2048-point
# grid resident memory grew by 3.2 such arrays, with or without the retry.
_FACTORIZATION_ARRAYS = 4


def ensemble_bytes(n: int, grid: GridSpec, sampler_id: str) -> int:
    """Estimated peak bytes of an n-path ensemble on ``grid``, from
    ``make_ensemble`` or ``sorted_ensemble``: either holds one (n, M)
    array, since the latter sorts the paths in place.

    ``values`` takes n·M·8 bytes.  The path seeds take 8 bytes each, held
    while the paths are drawn, and two temporaries as large while they are
    derived.  Each row whose noise is drawn at once holds
    ``seeding.ROW_BYTES`` of stream state.

    The circulant sampler holds one row block's complex spectrum, which the
    noise is drawn into and which is transformed and summed in place, and
    the M columns of the sums gathered for the scatter into ``values``
    (rows·(16·m + 8·M) bytes; the spectrum stays with the thread for its
    next ensemble).  Its terms are counted as if all were held at once.

    The Cholesky sampler's phases are counted apart, since each frees what
    the next does not need: the seeds derived, with the M²·8-byte factor
    that a process keeps once built; ``values`` and the seeds while the
    factor is built, which holds ``_FACTORIZATION_ARRAYS`` arrays of its
    size; ``values``, the seeds, the factor and all n rows of noise with
    their stream state; the same with the noise's product with the factor
    instead of the stream state.  Those phases leave no room to spare, so
    it also counts ``_CALL_BYTES`` for the small objects of the call.
    """
    _check_grid(grid, sampler_id)
    M = grid.M
    values = 8 * n * M
    if sampler_id == "cholesky":
        factor = 8 * M * M
        drawn = values + 8 * n + values  # values, seeds and the noise
        return _CALL_BYTES + max(
            factor + 24 * n,
            values + 8 * n + _FACTORIZATION_ARRAYS * factor,
            factor + drawn + max(ROW_BYTES * n, values))
    m = _embedding_size(grid)
    return (values + 24 * n
            + _block_rows(n, m) * (16 * m + 8 * M + ROW_BYTES))


_SAMPLERS = {"cholesky": _cholesky_matrix, "circulant": _circulant_matrix}


def _sample(n: int, grid: GridSpec, H: float, sampler_id: str,
            master_seed: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The sampling step of both constructors: n paths as a writable
    column-major (n, M) array, and the sampler's warnings."""
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1; got {n}")
    if sampler_id not in _SAMPLERS:
        raise DomainError(f"unknown sampler {sampler_id!r}; "
                          f"expected one of {sorted(_SAMPLERS)}")
    _check_grid(grid, sampler_id)
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst index must satisfy 0 < H < 1; got {H}")
    _check_scale(grid, H)
    seeds = derive_seed(master_seed, np.arange(n, dtype=np.uint64))
    # column-major, so that each column is sorted and searched contiguously;
    # the columns of t = 0 stay zero
    values = np.zeros((n, grid.M), order="F")
    try:
        warns = _SAMPLERS[sampler_id](grid, H, seeds, values)
    except NumericError as exc:
        raise NumericError(f"{sampler_id} sampler failed for ensemble "
                           f"(n={n}, H={H}): {exc}") from exc
    return values, warns


def make_ensemble(n: int, grid: GridSpec, H: float, sampler_id: str = "circulant",
                  master_seed: int = 0) -> Ensemble:
    """n mutually independent paths; path i uses seed derive_seed(master_seed, i).

    The per-path streams make the result independent of generation order.
    With the circulant sampler a prefix of a larger ensemble equals the
    smaller ensemble bit for bit; the Cholesky sampler multiplies all rows
    in one BLAS product, so there a prefix agrees only up to rounding.
    """
    values, warns = _sample(n, grid, H, sampler_id, master_seed)
    values.setflags(write=False)
    return Ensemble(H=float(H), grid=grid, values=values,
                    master_seed=int(master_seed), sampler_id=sampler_id,
                    warnings=warns)


def sorted_ensemble(n: int, grid: GridSpec, H: float,
                    sampler_id: str = "circulant",
                    master_seed: int = 0) -> Ensemble:
    """The ensemble ``make_ensemble`` samples, with each column sorted in
    place: ``sorted_values`` equals that ensemble's bit for bit, and no
    copy of the paths is kept, so its ``values`` cannot be read."""
    values, warns = _sample(n, grid, H, sampler_id, master_seed)
    # each column of the column-major array is contiguous, so the sort
    # needs no buffer of the array's size
    values.sort(axis=0)
    values.setflags(write=False)
    return _SortedEnsemble(H=float(H), grid=grid, values=values,
                           master_seed=int(master_seed),
                           sampler_id=sampler_id, warnings=warns)


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

    The levels must be distinct.  Those whose empirical tail probability is
    zero are dropped (they inform no log fit); at least 3 must survive.
    """
    ys = np.asarray(sorted(float(y) for y in levels), dtype=float)
    if ys.size < 3:
        raise DataError(f"tail fit needs at least 3 levels; got {ys.size}")
    if np.any(np.diff(ys) == 0.0):
        raise DataError(f"tail fit needs distinct levels; got {ys.tolist()}")
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
