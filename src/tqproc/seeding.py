"""Deterministic seed derivation for parallel Monte Carlo.

Every random stream in the package is a pure function of a 64-bit master
seed and a tuple of integer indices (path index, sample size, replication
index, ...).  Derivation uses the SplitMix64 finalizer, which avalanches
every input bit into every output bit, so adjacent indices yield
uncorrelated streams and the result does not depend on scheduling order.

The mixer works both on Python ints and, elementwise, on ``numpy.uint64``
arrays: numpy's unsigned 64-bit multiply and add wrap modulo 2**64, which
is what the ``& _MASK64`` steps do for Python ints, so
``derive_seed(s, np.arange(n, dtype=np.uint64))`` equals
``[derive_seed(s, i) for i in range(n)]`` bit for bit.  Array indices must
have dtype ``uint64``: numpy cannot mix a signed array with the 64-bit
masks, so any other dtype is rejected with a ``DomainError``.  A numpy
integer scalar or 0-d integer array counts as the Python int it holds,
since numpy scalar arithmetic warns on the wraparound the masks rely on.
``_pcg_words`` runs the same steps in place on one ``uint64`` buffer,
without the masks.

SplitMix64 constants (Steele, Lea & Flood's reference implementation):
increment 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB.

Each stream is a PCG64 generator (O'Neill 2014) keyed by four SplitMix64
words of its seed: state ``w0:w1`` and increment ``w2:w3 | 1`` (high:low
64-bit halves).  ``generator_for`` keys its one stream through numpy's
public ``bg.state`` setter.  ``normal_matrix`` mixes the words of all seeds
as one ``(n, 4)`` array and fills each row with one call into
``random_standard_normal_fill``, the C routine behind
``Generator.standard_normal``, which numpy exports for C callers.  Each row
has a ``bitgen_t`` of its own: a copy of a PCG64's whose state points at a
``pcg64_state`` that points at the row's words.  Both are built as whole
numpy arrays of the structs, and ``map`` drives the row calls from C, so
no Generator is built, no struct field is set per row from Python and no
numpy-owned memory is written.  The routine is loaded through
``ctypes.PyDLL``, so each call holds the GIL.  It loads, with
``numpy.random``, on a process's first draw (``_normal_fill``), and
``_keyed`` reaches ``np.random``, which numpy loads on first use: the
parent of a worker pool draws nothing and never loads ``numpy.random``,
and each forked worker loads it on its first task.  The word order of the
128-bit halves depends on how numpy was compiled.  Once per process the
probe ``_layout`` fills normals through the same row arrays from a known
vector in each known order and compares them bit for bit with a Generator
keyed through ``bg.state``; if no order matches, it raises a
``RuntimeError`` naming the numpy version rather than draw wrong noise.
So the streams are bit for bit those of the public setter.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import itertools
import operator

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


# How numpy lays out a PCG64 stream: its ``pcg64_state`` points at
# ``pcg64_random_t {state, inc}``, two 128-bit words.  Each layout numpy can
# build gives the 64-bit slot of the words (w0, w1, w2, w3) of state = w0:w1
# and inc = w2:w3 (high:low).
_LAYOUTS = ((1, 0, 3, 2),  # __uint128_t on a little-endian machine
            (0, 1, 2, 3))  # {high, low} structs, where there is no __uint128_t
_PROBE = (0x0123456789ABCDEF, 0x1111111111111111, 0x2222222222222223,
          0x3333333333333335)


class _PCG64State(ctypes.Structure):
    """numpy's ``pcg64_state``: where the {state, inc} words are, and the
    spare half of a 64-bit draw, which normals never use."""
    _fields_ = [("pcg_state", ctypes.c_void_p), ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``: a state pointer and the bit generator's draws."""
    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", ctypes.c_void_p),
                ("next_uint32", ctypes.c_void_p),
                ("next_double", ctypes.c_void_p), ("next_raw", ctypes.c_void_p)]


def _bitgen(bg) -> _BitGen:
    """Bit generator ``bg``'s draws, copied out of its ``bitgen_t`` on no
    state: a caller points ``state`` at a state of its own."""
    gen = _BitGen.from_buffer_copy(
        _BitGen.from_address(bg.ctypes.bit_generator.value))
    gen.state = None
    return gen


@functools.cache
def _normal_fill():
    """PCG64's ``bitgen_t`` on no state, and the C routine behind
    ``Generator.standard_normal``, which numpy exports for C callers (its
    _examples/cffi/extending.py calls it the same way).

    Loaded on a process's first draw, so a pool's parent, which draws
    nothing, never loads ``numpy.random``.  The routine is loaded through
    PyDLL, so a call holds the GIL.
    """
    from numpy.random import PCG64, _generator
    fill = ctypes.PyDLL(_generator.__file__).random_standard_normal_fill
    fill.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    fill.restype = None
    return _bitgen(PCG64(0)), fill


# The structs as numpy dtypes, so that one call builds the state of every row
_STATE = np.dtype(_PCG64State)
_GEN = np.dtype(_BitGen)


# Bytes that normal_matrix holds per row at once besides the row itself: its
# four state words, its pcg64_state and bitgen_t, and one address of 8 bytes
ROW_BYTES = 32 + _STATE.itemsize + _GEN.itemsize + 8


def _addresses(a: np.ndarray) -> np.ndarray:
    """The address of each row of the C-contiguous array ``a``."""
    first = a.ctypes.data
    return np.arange(first, first + a.nbytes, a.strides[0], dtype=np.uint64)


def _fill_rows(words: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of ``out`` from the PCG64 stream whose state words are row
    i of the ``(len(out), 4)`` array ``words``, which the draws advance.

    Row i gets a ``pcg64_state`` pointing at its words and a copy of
    ``_normal_fill``'s ``bitgen_t`` pointing at that state, built as two
    numpy arrays of the structs; ``map`` then drives one fill per row from
    C.  The arrays are this call's own, so no numpy-owned memory is written
    and calls in other threads share nothing.
    """
    template, fill = _normal_fill()
    n, draws = out.shape
    states = np.zeros(n, _STATE)
    states["pcg_state"] = _addresses(words)
    gens = np.repeat(np.frombuffer(bytes(template), _GEN), n)
    gens["state"] = _addresses(states)
    first = gens.ctypes.data
    collections.deque(map(fill, range(first, first + gens.nbytes, _GEN.itemsize),
                          itertools.repeat(ctypes.c_ssize_t(draws)),
                          itertools.count(out.ctypes.data, out.strides[0])),
                      maxlen=0)


def _keyed(w) -> np.random.Generator:
    """A Generator on the PCG64 stream with state ``w[0]:w[1]`` and
    increment ``w[2]:w[3]``, keyed through numpy's public ``bg.state``."""
    bg = np.random.PCG64()
    bg.state = {"bit_generator": "PCG64",
                "state": {"state": (w[0] << 64) | w[1],
                          "inc": (w[2] << 64) | w[3]},
                "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bg)


def _words(n: int) -> np.ndarray:
    """An uninitialised ``(n, 4)`` ``uint64`` array on a 16-byte boundary,
    where a ``__uint128_t`` may sit."""
    buf = np.empty(4 * n + 2, dtype=np.uint64)
    skip = buf.ctypes.data % 16 // 8
    return buf[skip:skip + 4 * n].reshape(n, 4)


@functools.cache
def _layout() -> tuple[int, ...]:
    """The entry of ``_LAYOUTS`` in which ``_fill_rows`` draws numpy's
    public PCG64 streams, probed once per process.

    For each layout, fills normals from ``_PROBE`` laid out in memory and
    compares them bit for bit with ``_keyed`` on the words that layout
    reads there; raises ``RuntimeError`` if no layout matches.
    """
    for slots in _LAYOUTS:
        words, got = _words(1), np.empty((1, 64))
        words[0] = _PROBE
        _fill_rows(words, got)
        want = _keyed([_PROBE[i] for i in slots]).standard_normal(64)
        if got.tobytes() == want.tobytes():
            return slots
    raise RuntimeError(f"numpy {np.__version__}: random_standard_normal_fill "
                       f"draws the PCG64 stream set through bg.state in "
                       f"neither known word order of "
                       f"{[hex(v) for v in _PROBE]}")


def _pcg_words(seeds: np.ndarray) -> np.ndarray:
    """PCG64 state words for a 1-D ``uint64`` seed array, one row per seed.

    The 128-bit state and 128-bit (odd) increment are four successive
    SplitMix64 outputs of the seed; distinct increments select distinct PCG
    streams.  Row ``i`` holds them in the bit generator's word order, ready
    for ``_fill_rows``.
    """
    slots = _layout()
    words = _words(len(seeds))
    # splitmix64 in place: uint64 ops wrap modulo 2**64 without masks
    x = seeds.copy()
    t = np.empty_like(x)
    for slot in slots:
        x += _GAMMA
        np.right_shift(x, 30, out=t)
        x ^= t
        x *= _MULT1
        np.right_shift(x, 27, out=t)
        x ^= t
        x *= _MULT2
        np.right_shift(x, 31, out=t)
        x ^= t
        words[:, slot] = x
    words[:, slots[3]] |= 1
    return words


def generator_for(seed: int) -> np.random.Generator:
    """A numpy Generator whose PCG64 stream is determined by ``seed`` alone."""
    words = []
    w = seed & _MASK64
    for _ in range(4):
        w = splitmix64(w)
        words.append(w)
    words[3] |= 1
    return _keyed(words)


def normal_matrix(seeds: np.ndarray, draws: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal matrix with one independently seeded stream per row.

    Row ``i`` contains the first ``draws`` variates of the PCG64 stream for
    ``seeds[i]``; it is unaffected by the other rows, so ensembles can be
    extended or generated in any partition without changing existing rows.

    With ``out`` the variates are drawn straight into it and it is returned:
    a writable, aligned ``float64`` array of shape ``(len(seeds), draws)``
    whose rows are contiguous and follow one another in memory without
    overlap, such as the first columns of a wider buffer.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise DomainError(f"seeds must be a 1-D array; got shape {seeds.shape}")
    draws = operator.index(draws)
    if draws < 0:
        raise DomainError(f"draws must be >= 0; got {draws}")
    n = len(seeds)
    if out is None:
        out = np.empty((n, draws))
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (n, draws)
              and out.flags.writeable and out.flags.aligned
              # an empty out has no rows, whatever its strides
              and (out.size == 0
                   or (out.strides[1] == out.itemsize
                       and out.strides[0] >= draws * out.itemsize))):
        raise DomainError(
            f"out must be a writable float64 array of shape "
            f"({n}, {draws}) with contiguous rows that follow one another "
            f"without overlap; got "
            f"{getattr(out, 'dtype', type(out).__name__)} of "
            f"shape {getattr(out, 'shape', None)} and strides "
            f"{getattr(out, 'strides', None)}")
    if out.size:
        _fill_rows(_pcg_words(seeds), out)
    return out
