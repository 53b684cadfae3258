"""Deterministic seed derivation for parallel Monte Carlo.

Every random stream in the package is a pure function of a 64-bit master
seed and a tuple of integer indices (path index, sample size, replication
index, ...).  Derivation uses the SplitMix64 finalizer, which avalanches
every input bit into every output bit, so adjacent indices yield
uncorrelated streams and the result does not depend on scheduling order.

The mixer is written once and works both on Python ints and, elementwise,
on ``numpy.uint64`` arrays: numpy's unsigned 64-bit multiply and add wrap
modulo 2**64, which is what the ``& _MASK64`` steps do for Python ints, so
``derive_seed(s, np.arange(n, dtype=np.uint64))`` equals
``[derive_seed(s, i) for i in range(n)]`` bit for bit.  Array indices must
have dtype ``uint64``: numpy cannot mix a signed array with the 64-bit
masks, so any other dtype is rejected with a ``DomainError``.  A numpy
integer scalar or 0-d integer array counts as the Python int it holds,
since numpy scalar arithmetic warns on the wraparound the masks rely on.

SplitMix64 constants (Steele, Lea & Flood's reference implementation):
increment 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB.

Each stream is a PCG64 generator (O'Neill 2014) keyed by four SplitMix64
words of its seed: state ``w0:w1`` and increment ``w2:w3 | 1`` (high:low
64-bit halves).  Rather than build numpy's ``bg.state`` dict per path, the
words of all seeds are mixed as one ``(n, 4)`` array and each row is copied
into the bit generator through its public ``bg.ctypes.state_address``.
That is what numpy's own ``pcg64_set_state`` does, so the streams are bit
for bit those of the ``bg.state`` setter, at about half the cost per path.
The word order of the 128-bit halves depends on how numpy was compiled; a
probe writes a known vector once per process and reads it back through
``bg.state``.  If neither known order round-trips, the probe raises a
``RuntimeError`` naming the numpy version rather than draw wrong noise.
"""

from __future__ import annotations

import ctypes
import functools
import operator

import numpy as np
# numpy 2 loads these on first use; loaded here, before any pool forks
import numpy.ctypeslib  # noqa: F401
import numpy.random  # noqa: F401

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One SplitMix64 step: advance by the golden-ratio increment and mix.

    ``x`` is a Python int or a ``uint64`` array (mixed elementwise).
    """
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MULT1) & _MASK64
    x = ((x ^ (x >> 27)) * _MULT2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *indices: int | np.ndarray) -> int | np.ndarray:
    """Fold integer indices into a 64-bit stream seed.

    Each index is absorbed with a multiply-xor step before a full
    SplitMix64 avalanche, so ``derive_seed(s, a, b) != derive_seed(s, b, a)``
    in general and no two (seed, indices) tuples collide in practice.

    With int indices (Python ints, numpy integer scalars or 0-d integer
    arrays) the result is an int.  An index may also be a ``uint64``
    array; the result is then the ``uint64`` array of the seeds for each
    of its elements.
    """
    s = operator.index(master_seed) & _MASK64
    for v in indices:
        if not isinstance(v, np.ndarray) or v.ndim == 0:
            v = operator.index(v)
        elif v.dtype != np.uint64:
            raise DomainError(f"derive_seed array indices must have dtype "
                              f"uint64; got {v.dtype}")
        s = splitmix64(s ^ ((v & _MASK64) * _GAMMA & _MASK64))
    return s


# Where numpy keeps a PCG64 stream: ``bg.ctypes.state_address`` points at its
# ``pcg64_state``, whose first member points at ``pcg64_random_t {state,
# inc}``, two 128-bit words.  Each layout numpy can build gives the 64-bit
# slot of the words (w0, w1, w2, w3) of state = w0:w1 and inc = w2:w3
# (high:low).
_LAYOUTS = ((1, 0, 3, 2),  # __uint128_t on a little-endian machine
            (0, 1, 2, 3))  # {high, low} structs, where there is no __uint128_t
_PROBE = (0x0123456789ABCDEF, 0x1111111111111111, 0x2222222222222223,
          0x3333333333333335)


def _state_words(bg) -> np.ndarray:
    """Writable ``uint64`` view of the four words of ``bg``'s {state, inc}.

    The view does not keep ``bg`` alive: use it only while ``bg`` lives.
    """
    ptr = ctypes.c_void_p.from_address(bg.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(ptr))


def _probe_layout(bg) -> tuple[int, ...]:
    """The entry of ``_LAYOUTS`` that ``bg`` stores its state in.

    Writes ``_PROBE`` into the state words and reads it back through numpy's
    ``bg.state`` getter; raises ``RuntimeError`` if neither layout matches.
    """
    _state_words(bg)[:] = _PROBE
    got = bg.state["state"]
    for slots in _LAYOUTS:
        w = [_PROBE[i] for i in slots]
        if got == {"state": (w[0] << 64) | w[1], "inc": (w[2] << 64) | w[3]}:
            return slots
    raise RuntimeError(f"numpy {np.__version__} stores the PCG64 state in "
                       f"neither known word order; got {got} after writing "
                       f"{[hex(v) for v in _PROBE]}")


@functools.cache
def _layout() -> tuple[int, ...]:
    return _probe_layout(np.random.PCG64())


def _pcg_words(seeds: np.ndarray) -> np.ndarray:
    """PCG64 state words for a 1-D ``uint64`` seed array, one row per seed.

    The 128-bit state and 128-bit (odd) increment are four successive
    SplitMix64 outputs of the seed; distinct increments select distinct PCG
    streams.  Row ``i`` holds them in the bit generator's word order, ready
    to be copied into ``_state_words``.
    """
    slots = _layout()
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    w = seeds
    for slot in slots:
        w = splitmix64(w)
        words[:, slot] = w
    words[:, slots[3]] |= np.uint64(1)
    return words


def generator_for(seed: int) -> np.random.Generator:
    """A numpy Generator whose PCG64 stream is determined by ``seed`` alone."""
    bg = np.random.PCG64()
    _state_words(bg)[:] = _pcg_words(np.array([seed & _MASK64], dtype=np.uint64))[0]
    return np.random.Generator(bg)


def normal_matrix(seeds: np.ndarray, draws: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal matrix with one independently seeded stream per row.

    Row ``i`` contains the first ``draws`` variates of the PCG64 stream for
    ``seeds[i]``; it is unaffected by the other rows, so ensembles can be
    extended or generated in any partition without changing existing rows.

    With ``out`` the variates are drawn straight into it and it is returned:
    a writable, aligned ``float64`` array of shape ``(len(seeds), draws)``
    whose rows are contiguous, such as the first columns of a wider buffer.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise DomainError(f"seeds must be a 1-D array; got shape {seeds.shape}")
    draws = operator.index(draws)
    if draws < 0:
        raise DomainError(f"draws must be >= 0; got {draws}")
    if out is None:
        out = np.empty((len(seeds), draws))
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (len(seeds), draws)
              and out.flags.writeable and out.flags.aligned
              and (draws <= 1 or out.strides[1] == out.itemsize)):
        raise DomainError(
            f"out must be a writable float64 array of shape "
            f"({len(seeds)}, {draws}) with contiguous rows; got "
            f"{getattr(out, 'dtype', type(out).__name__)} of shape "
            f"{getattr(out, 'shape', None)}")
    bg = np.random.PCG64()
    gen = np.random.Generator(bg)
    state = _state_words(bg)
    for row, words in zip(out, _pcg_words(seeds)):
        state[:] = words
        gen.standard_normal(out=row)
    return out
