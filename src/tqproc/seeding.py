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
integer scalar is taken as the Python int it holds, since numpy scalar
arithmetic warns on the very wraparound that the masks rely on.

SplitMix64 constants (Steele, Lea & Flood's reference implementation):
increment 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

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

    With int indices (Python ints or numpy integer scalars) the result is
    an int.  An index may also be a ``uint64`` array; the result is then the
    ``uint64`` array of the seeds for each of its elements.
    """
    s = operator.index(master_seed) & _MASK64
    for v in indices:
        if not isinstance(v, np.ndarray):
            v = operator.index(v)
        elif v.dtype != np.uint64:
            raise DomainError(f"derive_seed array indices must have dtype "
                              f"uint64; got {v.dtype}")
        s = splitmix64(s ^ ((v & _MASK64) * _GAMMA & _MASK64))
    return s


def _pcg_states(seeds: np.ndarray) -> Iterator[dict]:
    """PCG64 state dictionaries for a ``uint64`` seed array, one per seed.

    The 128-bit state and 128-bit (odd) increment are four successive
    SplitMix64 outputs of the seed; distinct increments select distinct PCG
    streams.  The words of all seeds are mixed as whole arrays; one dict is
    refilled and yielded per seed, so assign it before advancing.
    """
    w0 = splitmix64(seeds)
    w1 = splitmix64(w0)
    w2 = splitmix64(w1)
    w3 = splitmix64(w2)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    words = state["state"]
    for a, b, c, d in zip(w0.tolist(), w1.tolist(), w2.tolist(), w3.tolist()):
        words["state"] = (a << 64) | b
        words["inc"] = (c << 64) | d | 1
        yield state


def generator_for(seed: int) -> np.random.Generator:
    """A numpy Generator whose PCG64 stream is determined by ``seed`` alone."""
    bg = np.random.PCG64()
    bg.state = next(_pcg_states(np.array([seed & _MASK64], dtype=np.uint64)))
    return np.random.Generator(bg)


def normal_matrix(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Standard-normal matrix with one independently seeded stream per row.

    Row ``i`` contains the first ``draws`` variates of the PCG64 stream for
    ``seeds[i]``; it is unaffected by the other rows, so ensembles can be
    extended or generated in any partition without changing existing rows.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((len(seeds), draws))
    bg = np.random.PCG64()
    gen = np.random.Generator(bg)
    for row, state in zip(out, _pcg_states(seeds)):
        bg.state = state
        gen.standard_normal(out=row)
    return out
