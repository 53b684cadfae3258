"""Samplers: exact laws, determinism, diagnostics."""

import ctypes
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tqproc import analytic, fbm, seeding
from tqproc.errors import DataError, DomainError, NumericError
from tqproc.fbm import Ensemble, GridSpec, make_ensemble, sorted_ensemble
from tqproc.runner import export_ensemble
from tqproc.seeding import derive_seed, generator_for, normal_matrix, splitmix64


def _reference_generator(seed: int) -> np.random.Generator:
    """PCG64 keyed by four scalar SplitMix64 words: the layout every stream uses."""
    w0 = splitmix64(seed)
    w1 = splitmix64(w0)
    w2 = splitmix64(w1)
    w3 = splitmix64(w2)
    bg = np.random.PCG64()
    bg.state = {"bit_generator": "PCG64",
                "state": {"state": (w0 << 64) | w1, "inc": (w2 << 64) | w3 | 1},
                "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bg)


def _reference_rows(seeds, draws: int) -> np.ndarray:
    """``normal_matrix`` by way of ``_reference_generator``, one row per seed."""
    rows = [_reference_generator(int(s)).standard_normal(draws) for s in seeds]
    return np.reshape(rows, (len(seeds), draws))


_EDGE_SEEDS = (0, 1, 2**63, 2**64 - 1)


def _seed_array(n: int) -> np.ndarray:
    """The edge seeds, then random ones, cut to length ``n``."""
    rand = np.random.default_rng(11).integers(0, 2**64, size=40, dtype=np.uint64)
    return np.concatenate([np.array(_EDGE_SEEDS, dtype=np.uint64), rand])[:n]


class TestSeeding:
    def test_splitmix_is_pure(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(0, 0) != derive_seed(0, 1)

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(7, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    @pytest.mark.parametrize("master", [0, 2**63, 2**64 - 1])
    def test_array_indices_match_scalar(self, master):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seeds = derive_seed(master, np.arange(1000, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, i) for i in range(1000)]

    @pytest.mark.parametrize("scalar", [np.uint64, np.int64])
    def test_numpy_integer_scalars_are_ints(self, scalar):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive_seed(1, scalar(5)) == derive_seed(1, 5)
            assert derive_seed(scalar(1), 5, scalar(7)) == derive_seed(1, 5, 7)

    @pytest.mark.parametrize("index", [np.array(5, dtype=np.uint64),
                                       np.array(5, dtype=np.int64),
                                       np.array(2**64 - 1, dtype=np.uint64)],
                             ids=["uint64-5", "int64-5", "uint64-max"])
    def test_zero_dim_arrays_are_ints(self, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = derive_seed(1, index)
            assert got == derive_seed(1, int(index))
        assert isinstance(got, int)

    def test_signed_index_array_rejected(self):
        with pytest.raises(DomainError, match="uint64.*int64"):
            derive_seed(0, np.arange(3, dtype=np.int64))

    def test_generator_for_matches_scalar_state(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            np.testing.assert_array_equal(
                generator_for(seed).standard_normal(8),
                _reference_generator(seed).standard_normal(8))

    def test_normal_rows_are_seed_streams(self):
        seeds = np.random.default_rng(5).integers(0, 2**64, size=40,
                                                  dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise = normal_matrix(seeds, 33)
        assert noise.shape == (40, 33)
        for row, seed in zip(noise, seeds):
            np.testing.assert_array_equal(
                row, generator_for(int(seed)).standard_normal(33))

    @pytest.mark.parametrize("draws", [0, 1, 33])
    @pytest.mark.parametrize("n", [0, 1, 44])
    def test_rows_match_public_state_setter(self, n, draws):
        seeds = _seed_array(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise = normal_matrix(seeds, draws)
        assert noise.shape == (n, draws)
        assert noise.tobytes() == _reference_rows(seeds, draws).tobytes()

    def test_strided_seeds_match_public_state_setter(self):
        seeds = _seed_array(44)[::3]
        assert not seeds.flags.c_contiguous
        noise = normal_matrix(seeds, 33)
        assert noise.tobytes() == _reference_rows(seeds, 33).tobytes()

    def test_circulant_blocks_match_public_state_setter(self, monkeypatch):
        g = GridSpec.uniform_grid(2.0, 9, include_zero=True)  # 14 draws per path
        seeds = derive_seed(3, np.arange(25, dtype=np.uint64))
        blocks = []

        def recording(block_seeds, draws, out):
            # each block's noise is drawn into the spectrum buffer, which the
            # synthesis then overwrites in place, so the record is a copy
            assert normal_matrix(block_seeds, draws, out=out) is out
            assert not out.flags.c_contiguous  # the first m floats of each row
            blocks.append((block_seeds, draws, out.copy()))
            return out
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * 14 * 7)  # 7 rows a block
        monkeypatch.setattr(fbm, "normal_matrix", recording)
        fbm._circulant_matrix(g, 0.35, seeds, np.zeros((25, g.M), order="F"))
        assert [len(b[0]) for b in blocks] == [7, 7, 7, 4]
        for block_seeds, draws, noise in blocks:
            assert noise.tobytes() == _reference_rows(block_seeds, draws).tobytes()

    @pytest.mark.parametrize("draws", [1, 14])
    def test_strided_out_matches_public_state_setter(self, draws):
        # the first ``draws`` floats of each row of a wider buffer
        seeds = _seed_array(44)
        buf = np.full((len(seeds), 2 * draws + 3), -7.0)
        out = buf[:, :draws]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normal_matrix(seeds, draws, out=out) is out
        assert out.tobytes() == _reference_rows(seeds, draws).tobytes()
        assert np.all(buf[:, draws:] == -7.0)  # nothing written past a row

    @pytest.mark.parametrize("n, out", [
        (4, np.empty((5, 4))),
        (4, np.empty((4, 4), order="F")),
        (4, np.empty((4, 4), dtype=np.float32)),
        (4, np.empty((4, 4), dtype=complex)),
        (4, np.empty((4, 8))[:, ::2]),
        (4, np.broadcast_to(np.empty(4), (4, 4))),
        (4, [[0.0] * 4] * 4),
        # writable views whose rows share memory
        (4, np.lib.stride_tricks.as_strided(np.empty(16), (4, 4), (0, 8))),
        (4, np.lib.stride_tricks.as_strided(np.empty(16), (4, 4), (8, 8))),
        # layouts no sampler passes: rows in reverse, one row of stride 0
        (4, np.empty((4, 4))[::-1]),
        (1, np.lib.stride_tricks.as_strided(np.empty(4), (1, 4), (0, 8))),
    ], ids=["shape", "column-major", "float32", "complex", "strided-rows",
            "read-only", "list", "zero-row-stride", "overlapping-rows",
            "reversed-rows", "one-row-zero-stride"])
    def test_normal_matrix_rejects_bad_out(self, n, out):
        with pytest.raises(DomainError, match="^out must be"):
            normal_matrix(_seed_array(n), 4, out=out)

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_written_state_reads_back_as_state_dict(self, seed):
        w0 = splitmix64(seed)
        w1 = splitmix64(w0)
        w2 = splitmix64(w1)
        w3 = splitmix64(w2)
        assert generator_for(seed).bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": (w0 << 64) | w1, "inc": (w2 << 64) | w3 | 1},
            "has_uint32": 0, "uinteger": 0}

    def test_probe_rejects_unknown_layout(self, monkeypatch):
        assert seeding._layout() in seeding._LAYOUTS
        seeding._layout.cache_clear()  # so that the probe runs again
        monkeypatch.setattr(seeding, "_LAYOUTS", ((3, 2, 1, 0), (2, 3, 0, 1)))
        try:
            with pytest.raises(RuntimeError, match=f"^numpy {np.__version__}: "
                                                   f".*neither known word order"):
                seeding._layout()
        finally:
            seeding._layout.cache_clear()

    def test_probe_rejects_other_draw_functions(self, monkeypatch):
        # PCG64DXSM keeps its stream in the same structs but draws another
        # one from them: its copied function pointers disagree with PCG64's
        seeding._layout.cache_clear()
        _, fill = seeding._normal_fill()
        monkeypatch.setattr(seeding, "_normal_fill", lambda: (
            seeding._bitgen(np.random.PCG64DXSM()), fill))
        try:
            with pytest.raises(RuntimeError, match=f"^numpy {np.__version__}: "
                                                   f".*neither known word order"):
                seeding._layout()
        finally:
            seeding._layout.cache_clear()

    def test_struct_dtypes_match_structs(self):
        # the row arrays are laid out as the C structs the fill reads
        for struct in (seeding._BitGen, seeding._PCG64State):
            assert np.dtype(struct).itemsize == ctypes.sizeof(struct)
            assert np.dtype(struct).names == tuple(
                name for name, _ in struct._fields_)

    @pytest.mark.parametrize("n, draws", [(0, 5), (3, 0), (0, 0)])
    def test_empty_matrix_makes_no_fill_call(self, n, draws, monkeypatch):
        calls = []
        seeding._layout.cache_clear()  # so that a probe would call the fill
        template, _ = seeding._normal_fill()
        monkeypatch.setattr(seeding, "_normal_fill", lambda: (
            template, lambda *args: calls.append(args)))
        try:
            assert normal_matrix(_seed_array(n), draws).shape == (n, draws)
            out = np.empty((n, draws))
            assert normal_matrix(_seed_array(n), draws, out=out) is out
        finally:
            seeding._layout.cache_clear()
        assert calls == []

    def test_disagreeing_fill_draws_no_noise(self, monkeypatch):
        calls = []

        def zeros(bitgen, draws, row):
            # one bitgen_t and one row address per call; the draw count
            # is passed as the one c_ssize_t shared by every call
            assert isinstance(draws, ctypes.c_ssize_t)
            calls.append(draws.value)
            ctypes.memset(row, 0, 8 * draws.value)
        seeding._layout.cache_clear()
        template, _ = seeding._normal_fill()
        monkeypatch.setattr(seeding, "_normal_fill", lambda: (template, zeros))
        out = np.full((3, 4), -7.0)
        try:
            with pytest.raises(RuntimeError, match=f"^numpy {np.__version__}: "
                                                   f"random_standard_normal"):
                normal_matrix(_seed_array(3), 4, out=out)
        finally:
            seeding._layout.cache_clear()
        # the probe filled its own rows, one per layout, and no row of out
        assert calls == [64] * len(seeding._LAYOUTS)
        assert np.all(out == -7.0)

    def test_unknown_layout_draws_no_noise(self, monkeypatch):
        seeding._layout.cache_clear()
        monkeypatch.setattr(seeding, "_LAYOUTS", ((3, 2, 1, 0),))
        out = np.full((3, 4), -7.0)
        try:
            with pytest.raises(RuntimeError, match="neither known word order"):
                normal_matrix(_seed_array(3), 4, out=out)
        finally:
            seeding._layout.cache_clear()
        assert np.all(out == -7.0)

    def test_fill_leaves_numpy_state_alone(self):
        # every call points a copy of the template at state of its own
        template, _ = seeding._normal_fill()
        before = bytes(template)
        normal_matrix(_seed_array(5), 7)
        assert bytes(template) == before
        assert template.state is None

    @pytest.mark.parametrize("n", range(5))
    def test_words_sit_on_16_byte_boundaries(self, n):
        assert seeding._words(n).ctypes.data % 16 == 0
        assert seeding._words(n).shape == (n, 4)

    @pytest.mark.parametrize("seeds, draws, name", [
        (np.zeros((2, 3), dtype=np.uint64), 4, "seeds"),
        (np.uint64(5), 4, "seeds"),
        (np.arange(3, dtype=np.uint64), -1, "draws"),
    ], ids=["2-d", "0-d", "negative-draws"])
    def test_normal_matrix_rejects_bad_arguments(self, seeds, draws, name):
        with pytest.raises(DomainError, match=name):
            normal_matrix(seeds, draws)


class TestGridSpec:
    def test_uniform_without_zero(self):
        g = GridSpec.uniform_grid(2.0, 16)
        assert g.M == 16 and g.times[0] == pytest.approx(0.125)
        assert g.times[-1] == 2.0 and g.uniform
        assert list(g.lattice_indices()) == list(range(1, 17))

    def test_uniform_with_zero(self):
        g = GridSpec.uniform_grid(2.0, 5, include_zero=True)
        assert g.times == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert list(g.lattice_indices()) == [0, 1, 2, 3, 4]

    def test_from_times_detects_lattice(self):
        g = GridSpec.from_times([0.25, 0.5, 0.75, 1.0])
        assert g.uniform and g.step == pytest.approx(0.25)
        # a shifted window still on a finer lattice
        w = np.linspace(0.25, 2.0, 64)
        g2 = GridSpec.from_times(w)
        assert g2.uniform

    def test_from_times_sparse_lattice(self):
        # non-consecutive lattice points still count as uniform
        g = GridSpec.from_times([0.1, 0.2, 0.5])
        assert g.uniform and g.step == pytest.approx(0.1)
        assert list(g.lattice_indices()) == [1, 2, 5]

    def test_from_times_nonuniform(self):
        g = GridSpec.from_times([0.1, 0.25, 0.4])
        assert not g.uniform

    @pytest.mark.parametrize("t0", [1e-300, 5e-324, 1.0 / 2**53])
    def test_from_times_lattice_index_below_2_53(self, t0):
        # every time is within the relative tolerance of a multiple of t0,
        # but the index of t = 1 is no integer a float holds exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = GridSpec.from_times([t0, 1.0])
        assert not g.uniform and g.step == 0.0
        # below 2**53 the lattice stands
        g = GridSpec.from_times([1.0 / 2**52, 1.0])
        assert g.uniform and g.lattice_indices()[-1] == 2**52

    @pytest.mark.parametrize("times", [
        [0.5, 1.0, 1.5], [1, 3, 2], np.array([0.0, 0.25, 1.0]),
        (np.float32(0.5), np.float64(2.0)), [0.3, 1.7]])
    def test_from_times_stores_floats(self, times):
        # np.float64 subclasses float, so the test is on the exact type
        g = GridSpec.from_times(times)
        assert all(type(t) is float for t in g.times)
        assert list(g.times) == sorted(float(t) for t in times)
        assert type(g.T) is float and type(g.step) is float

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec.from_times([1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            GridSpec(times=(0.5, 0.2), T=1.0)
        with pytest.raises(DomainError, match="at least one time"):
            GridSpec.from_times([])

    @pytest.mark.parametrize("times", [[0.5, 0.0, 1.0, -math.inf],
                                       [-math.inf, 2.0]])
    def test_from_times_non_finite_rejected(self, times):
        # the lattice rule takes no ratio of an infinite time: no warning
        with pytest.raises(DomainError, match="must lie in"):
            GridSpec.from_times(times)

    @pytest.mark.parametrize("make", [
        lambda: GridSpec.from_times([math.inf, math.inf]),
        lambda: GridSpec.from_times([-math.inf, -math.inf, 1.0]),
        lambda: GridSpec.from_times([0.5, math.inf]),
        lambda: GridSpec((0.5, math.inf), math.inf),
    ], ids=["from_times-inf-inf", "from_times-neg-inf-twice",
            "from_times-inf-last", "T-inf"])
    def test_infinite_time_or_T_rejected(self, make):
        # before any difference of two times is taken: no numpy warning
        with pytest.raises(DomainError, match="T finite"):
            make()

    def test_fields_and_uniform(self):
        assert [f.name for f in fields(GridSpec)] == ["times", "T", "step"]
        assert not GridSpec(times=(0.5, 1.0), T=1.0).uniform
        assert GridSpec(times=(0.5, 1.0), T=1.0, step=0.5).uniform
        with pytest.raises(AttributeError):
            GridSpec.uniform_grid(1.0, 4).uniform = False

    @pytest.mark.parametrize("times, step", [
        ((1e-20, 2.5e-20), 1e-20),   # 2.5e-20 is no multiple, however small
        ((0.5, 1.0), -0.5),
        ((0.5, 1.0), math.nan),
        ((0.5, 1.0), math.inf),
        ((0.5, 1.0), 0.3),
        ((1.0 / 2**53 * 3.0, 1.0), 1.0 / 2**53),  # index of t = 1 is 2**53
    ], ids=["tiny-off-lattice", "negative", "nan", "inf", "off-lattice",
            "index-2**53"])
    def test_step_off_its_lattice_rejected(self, times, step):
        # the one lattice rule decides, not a numpy warning or a math error
        with pytest.raises(DomainError, match="^grid step must be 0 or"):
            GridSpec(times=times, T=max(times), step=step)

    def test_lattice_rule_runs_once_per_grid(self, monkeypatch):
        calls = []
        rule = fbm._on_lattice
        monkeypatch.setattr(fbm, "_on_lattice",
                            lambda *a: calls.append(1) or rule(*a))
        g = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        assert len(calls) == 1  # checked where the grid is built
        for _ in range(2):
            make_ensemble(3, g, 0.5)
        copy = pickle.loads(pickle.dumps(g))
        assert list(copy.lattice_indices()) == list(range(9))
        assert len(calls) == 1

    def test_arrays_built_once_and_read_only(self):
        g = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        assert g.array is g.array and g.lattice_indices() is g.lattice_indices()
        for arr in (g.array, g.lattice_indices()):
            with pytest.raises(ValueError):
                arr[0] = 1
        # the cached arrays take no part in equality, hashing or pickling
        fresh = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        assert g == fresh and hash(g) == hash(fresh)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and set(vars(copy)) == {f.name for f in fields(g)}
        assert not copy.array.flags.writeable


class TestCholesky:
    def test_hand_factor_two_points(self):
        # cov [[1,1],[1,2]] on {1,2} at H=1/2 factors as [[1,0],[1,1]]
        g = GridSpec.from_times([1.0, 2.0])
        L, warns = fbm._cholesky_factor(g, 0.5)
        assert np.allclose(L, [[1.0, 0.0], [1.0, 1.0]], atol=1e-14)
        assert warns == ()

    def test_marginal_variance_single_point(self):
        # var of B(t) over 1e5 paths within 3 SE of t^{2H}
        t, H = 1.7, 0.7
        g = GridSpec.from_times([t])
        e = make_ensemble(100_000, g, H, sampler_id="cholesky", master_seed=11)
        target = t ** (2 * H)
        se = target * math.sqrt(2.0 / e.n)
        assert abs(e.values.var() - target) <= 3 * se

    def test_seed_determinism(self):
        g = GridSpec.uniform_grid(1.0, 8)
        p1 = make_ensemble(1, g, 0.4, sampler_id="cholesky", master_seed=123)
        p2 = make_ensemble(1, g, 0.4, sampler_id="cholesky", master_seed=123)
        assert np.array_equal(p1.values, p2.values)
        p3 = make_ensemble(1, g, 0.4, sampler_id="cholesky", master_seed=124)
        assert not np.array_equal(p1.values, p3.values)

    def test_point_cap(self):
        # rejected before any covariance is built
        g = GridSpec.uniform_grid(1.0, 4097)
        with pytest.raises(DomainError, match="4096"):
            make_ensemble(1, g, 0.5, sampler_id="cholesky", master_seed=0)

    def test_caches_are_bounded(self):
        # a 4096-point factor is ~134 MB, so neither cache may grow unbounded
        for cached in (fbm._cholesky_factor, fbm._fgn_spectrum):
            assert cached.cache_info().maxsize == fbm._CACHE_SIZE <= 8
        for M in range(2, 2 * fbm._CACHE_SIZE + 3):
            make_ensemble(1, GridSpec.uniform_grid(1.0, M), 0.5,
                          sampler_id="cholesky")
        assert fbm._cholesky_factor.cache_info().currsize <= fbm._CACHE_SIZE

    def test_cached_warnings_repeat(self):
        # near-coincident times need jitter; a cache hit repeats the warning
        g = GridSpec.from_times([1.0, 1.0 + 1e-9, 1.0 + 2e-9])
        first = make_ensemble(2, g, 0.9, sampler_id="cholesky")
        hits = fbm._cholesky_factor.cache_info().hits
        again = make_ensemble(2, g, 0.9, sampler_id="cholesky")
        assert fbm._cholesky_factor.cache_info().hits == hits + 1
        assert len(first.warnings) == 1 and "jitter" in first.warnings[0]
        assert again.warnings == first.warnings

    @pytest.mark.parametrize("retry_fails", [False, True],
                             ids=["retry", "failure"])
    def test_jitter_in_place(self, monkeypatch, retry_fails):
        # the retry factors the bits of cov + jitter * I, and a failed retry
        # reports the smallest eigenvalue of the covariance without jitter
        g = GridSpec.from_times([0.2, 0.5, 0.7, 1.0])
        H = 0.3
        cov = analytic.fbm_covariance(g.array[:, None], g.array[None, :], H)
        jitter = fbm._JITTER_REL * 1.0 ** (2.0 * H)
        cholesky = np.linalg.cholesky
        factored = []

        def fails(a):
            factored.append(a.copy())
            if len(factored) == 1 or retry_fails:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        eigvalsh = np.linalg.eigvalsh
        spectra = []

        def recording(a):
            spectra.append(a.copy())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        fbm._cholesky_factor.cache_clear()
        try:
            if retry_fails:
                pivot = float(eigvalsh(cov)[0])
                with pytest.raises(NumericError,
                                   match=f"smallest pivot {pivot:.3e}$"):
                    fbm._cholesky_factor(g, H)
                assert [a.tobytes() for a in spectra] == [cov.tobytes()]
            else:
                L, warns = fbm._cholesky_factor(g, H)
                assert L.tobytes() == cholesky(
                    cov + jitter * np.eye(g.M)).tobytes()
                assert "jitter" in warns[0]
        finally:
            fbm._cholesky_factor.cache_clear()
        assert factored[0].tobytes() == cov.tobytes()
        assert factored[1].tobytes() == (cov + jitter * np.eye(g.M)).tobytes()


class TestCirculant:
    def test_requires_uniform(self):
        g = GridSpec.from_times([0.1, 0.25, 0.4])
        with pytest.raises(DomainError, match="^must sit on one lattice"):
            make_ensemble(1, g, 0.5, sampler_id="circulant", master_seed=0)

    def test_seed_determinism(self):
        g = GridSpec.uniform_grid(2.0, 32)
        p1 = make_ensemble(1, g, 0.7, sampler_id="circulant", master_seed=5)
        p2 = make_ensemble(1, g, 0.7, sampler_id="circulant", master_seed=5)
        assert np.array_equal(p1.values, p2.values)

    def test_brownian_increments_uncorrelated(self):
        # H = 1/2: increments i.i.d. N(0, step); lag-1 correlation ~ 0
        g = GridSpec.uniform_grid(1.0, 4, include_zero=False)
        e = make_ensemble(100_000, g, 0.5, sampler_id="circulant", master_seed=3)
        inc = np.diff(np.hstack([np.zeros((e.n, 1)), e.values]), axis=1)
        step = 0.25
        assert inc.var(axis=0) == pytest.approx(step, rel=0.03)
        r = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(r) <= 3.0 / math.sqrt(e.n)

    @pytest.mark.parametrize("H", [0.3, 0.75])
    def test_covariance_against_analytic(self, H):
        # 8-point grid, 2e4 paths, every entry within 4 SE of the closed form
        g = GridSpec.uniform_grid(2.0, 8)
        e = make_ensemble(20_000, g, H, sampler_id="circulant", master_seed=17)
        ts = g.array
        target = analytic.fbm_covariance(ts[:, None], ts[None, :], H)
        sample = e.values.T @ e.values / e.n
        var = np.diag(target)
        se = np.sqrt((np.outer(var, var) + target**2) / e.n)
        assert np.all(np.abs(sample - target) <= 4.0 * se)

    # lattices of 1, 2 and 3 increments: no spectrum, g = 1 (no conjugate
    # pairs), g = 2 on a sparse lattice.  SHA-256 of the bytes of ``values``,
    # recorded with the index-array assembly of W; the strided assembly must
    # reproduce them bit for bit
    EDGE_LATTICES = {
        1: ((0.0, 1.5), 0.3, 21,
            "50e7f190d3f16f783052be236df01314652f297bee717b1a7847623eabcd8610"),
        2: ((1.0, 2.0), 0.5, 22,
            "c62876831b932346de690de4e807127cdc915aaaaf76106d8ff06fc87191f09c"),
        3: ((0.5, 1.5), 0.8, 23,
            "3ac14b89827002e4b2ba7b451146d73d173a1f1c460d4b187111ff6dd5e88886"),
    }

    @pytest.mark.parametrize("n_inc", sorted(EDGE_LATTICES))
    def test_edge_lattice_digests(self, n_inc):
        times, H, seed, digest = self.EDGE_LATTICES[n_inc]
        g = GridSpec.from_times(times)
        assert g.lattice_indices().max() == n_inc
        e = make_ensemble(5, g, H, sampler_id="circulant", master_seed=seed)
        assert hashlib.sha256(e.values.tobytes()).hexdigest() == digest

    # one increment (one draw per path), a grid from 0, and a sparse
    # lattice from t > 0 whose grid skips lattice points; with the draws
    # per path m of each
    BLOCK_GRIDS = {
        "one-increment": ((0.5,), 1),
        "from-zero": (tuple(np.linspace(0.0, 2.0, 9)), 14),
        "sparse-from-t>0": ((1.5, 2.0, 3.5), 12),
    }

    @pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
    def test_block_boundaries_keep_bits(self, name, monkeypatch):
        times, m = self.BLOCK_GRIDS[name]
        g = GridSpec.from_times(times)
        assert max(1, 2 * (g.lattice_indices().max() - 1)) == m
        n = 3 * 7 + 4  # three full blocks of 7 rows and a ragged one
        assert n < fbm._BLOCK_BYTES // (16 * m)  # one block by default
        one = make_ensemble(n, g, 0.35, master_seed=41).values
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * m * 7)
        blocked = make_ensemble(n, g, 0.35, master_seed=41).values
        assert one.tobytes() == blocked.tobytes()

    def test_transient_memory_is_bounded(self):
        # the temporaries are per block, not per ensemble: on bk_rate's
        # largest ensemble the sampler holds one spectrum block, summed in
        # place, and the columns gathered from it for the scatter
        g = GridSpec.uniform_grid(2.0, 64, include_zero=True)
        make_ensemble(16, g, 0.5)  # caches the spectrum; its small block
        tracemalloc.start()        # leaves the traced call to allocate one
        try:
            e = sorted_ensemble(8192, g, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - e.sorted_values.nbytes <= 1 << 20

    # ensembles on two grids, from 0 and sparse from t > 0, at two sizes;
    # with blocks of 7 rows each takes several blocks, a ragged one last
    WORKSPACE_CALLS = ((tuple(np.linspace(0.0, 2.0, 9)), 25),
                       ((1.5, 2.0, 3.5), 25),
                       (tuple(np.linspace(0.0, 2.0, 9)), 17),
                       ((1.5, 2.0, 3.5), 30))

    @staticmethod
    def _workspace_digest(times, n) -> str:
        e = make_ensemble(n, GridSpec.from_times(times), 0.35, master_seed=n)
        return hashlib.sha256(e.values.tobytes()).hexdigest()

    # _workspace_digest of the call in argv[1], made first in its process
    WORKSPACE_SCRIPT = """
import hashlib, json, sys
from tqproc import fbm
fbm._BLOCK_BYTES = 16 * 14 * 7
times, n = json.loads(sys.argv[1])
e = fbm.make_ensemble(n, fbm.GridSpec.from_times(times), 0.35, master_seed=n)
print(hashlib.sha256(e.values.tobytes()).hexdigest())
"""

    def test_workspace_reuse_keeps_bits(self, monkeypatch):
        # each call's bits, made first in a fresh process, against the same
        # call made in this process after the others, in interleaved order
        src = str(Path(fbm.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        first = [subprocess.run(
                     [sys.executable, "-c", self.WORKSPACE_SCRIPT,
                      json.dumps(call)],
                     capture_output=True, text=True, env=env, check=True,
                     timeout=120).stdout.split()[-1]
                 for call in self.WORKSPACE_CALLS]
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * 14 * 7)
        order = [0, 1, 2, 3, 1, 0, 3, 2, 0, 0]
        got = [self._workspace_digest(*self.WORKSPACE_CALLS[i]) for i in order]
        assert got == [first[i] for i in order]

    def test_concurrent_threads_get_serial_bits(self, monkeypatch):
        # more threads than cores, switching often, each in its own order
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * 14 * 7)
        calls = self.WORKSPACE_CALLS
        serial = [self._workspace_digest(*call) for call in calls]
        orders = [tuple((i + k) % len(calls) for i in range(len(calls)))
                  for k in range(4)]
        barrier = threading.Barrier(len(orders), timeout=60)
        results = {}

        def sample(order):
            barrier.wait()
            results[order] = [(i, self._workspace_digest(*calls[i]))
                              for _ in range(5) for i in order]

        threads = [threading.Thread(target=sample, args=(order,))
                   for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == sorted(orders)
        for pairs in results.values():
            assert all(digest == serial[i] for i, digest in pairs)

    def test_workspace_holds_one_block_per_thread(self, monkeypatch):
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * 14 * 7)

        def held() -> dict[str, tuple[int, ...]]:
            return {name: b.shape for name, b in vars(fbm._workspace).items()}

        # grid from 0: 14 draws a path; sparse grid: 12
        self._workspace_digest(*self.WORKSPACE_CALLS[0])
        assert held() == {"spectrum": (7, 14)}
        for times, n in self.WORKSPACE_CALLS:  # cache both spectra
            self._workspace_digest(times, n)
        tracemalloc.start()
        try:
            for times, n in self.WORKSPACE_CALLS:
                self._workspace_digest(times, n)
            # what fbm itself still holds; numpy's own small caches aside
            kept = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, fbm.__file__)])
        finally:
            tracemalloc.stop()
        # the last block's spectrum only: 8 rows of 12 draws (16 * 12 * 8 =
        # 1536 bytes); the slack is under the 1568 bytes of the other grid's
        assert held() == {"spectrum": (8, 12)}
        held_bytes = sum(t.size for t in kept.traces)
        assert held_bytes <= 8 * 16 * 12 + 1024
        other = []
        t = threading.Thread(target=lambda: (
            self._workspace_digest(*self.WORKSPACE_CALLS[2]),
            other.append(held())))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert other == [{"spectrum": (7, 14)}]
        assert held() == {"spectrum": (8, 12)}  # the other thread's is its own

    def test_single_increment_grid(self):
        g = GridSpec.from_times([0.5])
        e = make_ensemble(50_000, g, 0.6, sampler_id="circulant", master_seed=2)
        target = 0.5 ** 1.2
        se = target * math.sqrt(2.0 / e.n)
        assert abs(e.values.var() - target) <= 3 * se


class TestEnsemble:
    def test_single_path_reduces_to_sampler(self):
        # row i is the single path drawn from stream derive_seed(master, i)
        g = GridSpec.uniform_grid(1.0, 8)
        e = make_ensemble(3, g, 0.5, sampler_id="circulant", master_seed=9)
        for i in range(3):
            seed = np.asarray([derive_seed(9, i)], dtype=np.uint64)
            path = np.zeros((1, g.M), order="F")
            fbm._circulant_matrix(g, 0.5, seed, path)
            assert np.array_equal(e.values[i], path[0])

    def test_bytewise_determinism(self):
        g = GridSpec.uniform_grid(2.0, 16, include_zero=True)
        e1 = make_ensemble(64, g, 0.3, master_seed=1234)
        e2 = make_ensemble(64, g, 0.3, master_seed=1234)
        assert e1.values.tobytes() == e2.values.tobytes()

    def test_prefix_property(self):
        # circulant: the first paths of a larger ensemble, synthesized over
        # several row blocks, equal the smaller ensemble bit for bit
        g = GridSpec.uniform_grid(1.0, 8)
        rows = fbm._BLOCK_BYTES // (16 * 14)  # 7 increments, 14 draws
        small = make_ensemble(10, g, 0.5, master_seed=5)
        big = make_ensemble(3 * rows + 5, g, 0.5, master_seed=5)
        assert np.array_equal(small.values, big.values[:10])
        # cholesky: one GEMM over all rows, so a row agrees only up to BLAS
        # rounding (about 1e-15 measured)
        g = GridSpec.uniform_grid(2.0, 16)
        small = make_ensemble(1, g, 0.5, sampler_id="cholesky", master_seed=5)
        big = make_ensemble(5000, g, 0.5, sampler_id="cholesky", master_seed=5)
        np.testing.assert_allclose(small.values, big.values[:1], rtol=0, atol=1e-12)

    def test_zero_anchoring(self):
        g = GridSpec.uniform_grid(1.0, 9, include_zero=True)
        for sampler in ("cholesky", "circulant"):
            e = make_ensemble(16, g, 0.5, sampler_id=sampler, master_seed=8)
            assert np.all(e.values[:, 0] == 0.0)

    def test_path_independence(self):
        # even/odd path pairs behave like independent draws at a fixed time
        g = GridSpec.from_times([1.0])
        e = make_ensemble(20_000, g, 0.5, master_seed=21)
        x, y = e.values[0::2, 0], e.values[1::2, 0]
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) <= 3.0 / math.sqrt(len(x))

    def test_cross_sampler_agreement(self):
        # small version of the fidelity criterion: same law, different streams
        g = GridSpec.uniform_grid(2.0, 8)
        ts = g.array
        target = analytic.fbm_covariance(ts[:, None], ts[None, :], 0.5)
        var = np.diag(target)
        se = np.sqrt((np.outer(var, var) + target**2) / 20_000)
        e1 = make_ensemble(20_000, g, 0.5, sampler_id="cholesky", master_seed=31)
        e2 = make_ensemble(20_000, g, 0.5, sampler_id="circulant", master_seed=32)
        c1 = e1.values.T @ e1.values / e1.n
        c2 = e2.values.T @ e2.values / e2.n
        assert np.all(np.abs(c1 - c2) <= 5.0 * np.sqrt(2.0) * se)

    def test_values_read_only(self):
        g = GridSpec.from_times([1.0])
        e = make_ensemble(4, g, 0.5, master_seed=0)
        with pytest.raises(ValueError):
            e.values[0, 0] = 1.0

    def test_sorted_values_read_only_and_kept(self):
        g = GridSpec.uniform_grid(1.0, 5, include_zero=True)
        e = make_ensemble(9, g, 0.5, master_seed=3)
        sv = e.sorted_values
        np.testing.assert_array_equal(sv, np.sort(e.values, axis=0))
        assert e.sorted_values is sv
        with pytest.raises(ValueError):
            sv[0, 0] = 1.0

    # a grid from 0, one from step and a sparse lattice, which take the
    # cumsum's columns with and without a gap
    @pytest.mark.parametrize("times", [tuple(np.linspace(0.0, 2.0, 9)),
                                       (0.5, 1.0, 1.5), (1.5, 2.0, 3.5)],
                             ids=["from-zero", "from-step", "sparse"])
    @pytest.mark.parametrize("sampler", ["circulant", "cholesky"])
    def test_values_column_major(self, sampler, times):
        g = GridSpec.from_times(times)
        e = make_ensemble(16, g, 0.5, sampler_id=sampler, master_seed=8)
        assert e.values.flags.f_contiguous and not e.values.flags.c_contiguous

    def test_sort_holds_one_copy(self):
        # column-major values are sorted in a single copy, not copied into
        # column-major order first
        g = GridSpec.uniform_grid(2.0, 64, include_zero=True)
        e = make_ensemble(8192, g, 0.5)
        tracemalloc.start()
        try:
            e.sorted_values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * e.values.nbytes

    @pytest.mark.parametrize("sampler", ["circulant", "cholesky"])
    def test_ensemble_bytes_bounds_traced_peak(self, sampler):
        # on few grid points the seeds and the stream state of each row
        # whose noise is drawn at once outweigh the values.  The in-place
        # sort comes after the sampling, so this bounds make_ensemble too
        for M in (1, 2, 8, 64):
            g = GridSpec.uniform_grid(2.0, M)
            # caches the spectrum or factor; its small block leaves the
            # traced call to allocate a block of its own
            make_ensemble(16, g, 0.5, sampler_id=sampler)
            tracemalloc.start()
            try:
                e = sorted_ensemble(8192, g, 0.5, sampler_id=sampler)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del e
            assert peak <= fbm.ensemble_bytes(8192, g, sampler), M

    def test_ensemble_bytes_counts_cholesky_phases(self):
        # the noise and its product are not both held with the stream state,
        # so the estimate stays near the traced peak rather than above its sum
        g = GridSpec.uniform_grid(2.0, 64)
        make_ensemble(16, g, 0.5, sampler_id="cholesky")  # caches the factor
        tracemalloc.start()
        try:
            sorted_ensemble(8192, g, 0.5, sampler_id="cholesky")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        need = fbm.ensemble_bytes(8192, g, "cholesky")
        assert peak <= need <= 1.1 * peak

    # a first call builds the factor: the covariance, its temporaries and
    # the factor outweigh a few paths, with or without the jitter retry
    @pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jitter"])
    @pytest.mark.parametrize("H", [0.5, 0.3])
    def test_ensemble_bytes_counts_cholesky_factorization(self, monkeypatch,
                                                          H, jitter):
        times = np.sort(generator_for(5).uniform(0.01, 1.0, 1024))
        g = GridSpec.from_times(times)
        assert not g.uniform
        if jitter:
            cholesky = np.linalg.cholesky
            calls = []

            def fails_once(a):
                calls.append(a.shape)
                if len(calls) == 1:
                    raise np.linalg.LinAlgError("not positive definite")
                return cholesky(a)

            monkeypatch.setattr(np.linalg, "cholesky", fails_once)
        fbm._cholesky_factor.cache_clear()
        tracemalloc.start()
        try:
            e = make_ensemble(10, g, H, sampler_id="cholesky")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            fbm._cholesky_factor.cache_clear()
        assert len(e.warnings) == jitter
        assert peak > 3 * 8 * g.M**2
        assert peak <= fbm.ensemble_bytes(10, g, "cholesky")

    @pytest.mark.parametrize("sampler", ["circulant", "cholesky"])
    def test_sorted_ensemble_equals_sorted_paths(self, sampler):
        # sorting the column-major paths in place gives the bits of the
        # sorted copy, the zero column of t = 0 included
        g = GridSpec.uniform_grid(2.0, 16, include_zero=True)
        for H in (0.3, 0.5, 0.8):
            paths = make_ensemble(2000, g, H, sampler_id=sampler, master_seed=9)
            e = sorted_ensemble(2000, g, H, sampler_id=sampler, master_seed=9)
            assert isinstance(e, Ensemble)
            assert (e.H, e.grid, e.n, e.master_seed, e.sampler_id, e.warnings) == (
                paths.H, paths.grid, paths.n, paths.master_seed,
                paths.sampler_id, paths.warnings)
            assert e.sorted_values.tobytes() == paths.sorted_values.tobytes()
            assert e.sorted_values.flags.f_contiguous
            with pytest.raises(ValueError):
                e.sorted_values[0, 0] = 1.0

    def test_sorted_ensemble_hands_out_no_paths(self, tmp_path):
        g = GridSpec.uniform_grid(1.0, 8, include_zero=True)
        e = sorted_ensemble(50, g, 0.5, master_seed=2)
        with pytest.raises(DomainError, match="sorted in place"):
            e.values
        with pytest.raises(DomainError, match="sorted in place"):
            fbm.tail_fit(e, [0.5, 1.0, 1.5])
        with pytest.raises(DomainError, match="sorted in place"):
            export_ensemble(e, tmp_path / "e.csv")
        assert list(tmp_path.iterdir()) == []

    def test_ensemble_bytes_bounds_seed_derivation(self, monkeypatch):
        # past a few row blocks on one grid point, deriving the path seeds
        # (24 bytes a path at its peak) holds more than the sampling
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * 256)  # 256 rows a block
        g = GridSpec.uniform_grid(2.0, 1)
        n = 2**15
        tracemalloc.start()
        try:
            make_ensemble(n, g, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 24 * n
        assert peak <= fbm.ensemble_bytes(n, g, "circulant")

    def test_writable_values_rejected(self):
        # the cached column sort is only valid while values never change
        with pytest.raises(DomainError, match="read-only"):
            Ensemble(H=0.5, grid=GridSpec.from_times([1.0]),
                     values=np.zeros((3, 1)), master_seed=0,
                     sampler_id="circulant")


    @pytest.mark.parametrize("sampler", ["circulant", "cholesky"])
    @pytest.mark.parametrize("T", [1e300, 1e-300])
    def test_variance_scale_out_of_range_rejected(self, sampler, T):
        # T**1.8 overflows or underflows: inf or all-zero paths at best
        g = GridSpec.uniform_grid(T, 3, include_zero=True)
        with pytest.raises(DomainError, match=r"^must keep t\*\*\(2H\)"):
            make_ensemble(4, g, 0.9, sampler_id=sampler)


class TestTailFit:
    def test_gaussian_tail_quality(self):
        g = GridSpec.uniform_grid(1.0, 64, include_zero=True)
        e = make_ensemble(20_000, g, 0.5, master_seed=41)
        tf = fbm.tail_fit(e, [1.0, 1.5, 2.0, 2.5])
        assert tf.c_hat > 0.0
        assert tf.r_squared >= 0.95
        assert all(p1 >= p2 for p1, p2 in zip(tf.tail_probs, tf.tail_probs[1:]))

    def test_unreachable_level_dropped(self):
        g = GridSpec.uniform_grid(1.0, 16, include_zero=True)
        e = make_ensemble(5000, g, 0.5, master_seed=43)
        tf = fbm.tail_fit(e, [1.0, 1.5, 2.0, 20.0])
        assert tf.dropped_levels == (20.0,)
        assert len(tf.levels) == 3

    def test_too_few_surviving_levels(self):
        g = GridSpec.uniform_grid(1.0, 16, include_zero=True)
        e = make_ensemble(2000, g, 0.5, master_seed=44)
        with pytest.raises(DataError):
            fbm.tail_fit(e, [18.0, 19.0, 20.0])

    def test_repeated_levels_rejected(self):
        # one distinct level fits a line through a single point exactly
        g = GridSpec.uniform_grid(1.0, 16, include_zero=True)
        e = make_ensemble(200, g, 0.5, master_seed=47)
        with pytest.raises(DataError, match="distinct levels"):
            fbm.tail_fit(e, [1.0, 1.0, 1.0])
        with pytest.raises(DataError, match="distinct levels"):
            fbm.tail_fit(e, [1.5, 1.0, 1.5, 2.0])

    def test_no_ensemble_sized_temporary(self):
        # the per-path sup is taken from the row max and min, not from an
        # (n, M) array of absolute values
        g = GridSpec.uniform_grid(1.0, 64, include_zero=True)
        e = make_ensemble(20_000, g, 0.5, master_seed=46)
        tracemalloc.start()
        try:
            fbm.tail_fit(e, [1.0, 1.5, 2.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < e.values.nbytes / 8

    def test_larger_horizon_heavier_tail(self):
        levels = [1.5, 2.0, 2.5]
        fits = []
        for T in (1.0, 2.0):
            g = GridSpec.uniform_grid(T, 64, include_zero=True)
            e = make_ensemble(30_000, g, 0.5, master_seed=45)
            fits.append(fbm.tail_fit(e, levels))
        assert fits[1].c_hat <= fits[0].c_hat
