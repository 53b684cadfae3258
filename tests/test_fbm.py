"""Samplers: exact laws, determinism, diagnostics."""

import ctypes
import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from tqproc import analytic, fbm, seeding
from tqproc.errors import DataError, DomainError
from tqproc.fbm import Ensemble, GridSpec, make_ensemble
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


class _ScrambledBitGenerator:
    """Looks like a PCG64 to the layout probe, but reads its state words back
    in an order numpy never uses."""

    def __init__(self):
        self.words = (ctypes.c_uint64 * 4)()
        self.pcg_state = ctypes.c_void_p(ctypes.addressof(self.words))
        self.ctypes = types.SimpleNamespace(
            state_address=ctypes.addressof(self.pcg_state))

    @property
    def state(self) -> dict:
        w = list(self.words)
        return {"bit_generator": "PCG64",
                "state": {"state": (w[2] << 64) | w[0], "inc": (w[3] << 64) | w[1]},
                "has_uint32": 0, "uinteger": 0}


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

        def recording(block_seeds, draws):
            noise = normal_matrix(block_seeds, draws)
            blocks.append((block_seeds, draws, noise))
            return noise
        monkeypatch.setattr(fbm, "_BLOCK_BYTES", 16 * 14 * 7)  # 7 rows a block
        monkeypatch.setattr(fbm, "normal_matrix", recording)
        fbm._circulant_matrix(g, 0.35, seeds)
        assert [len(b[0]) for b in blocks] == [7, 7, 7, 4]
        for block_seeds, draws, noise in blocks:
            assert noise.tobytes() == _reference_rows(block_seeds, draws).tobytes()

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

    def test_probe_rejects_unknown_layout(self):
        fake = _ScrambledBitGenerator()
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} .*"
                                               f"neither known word order"):
            seeding._probe_layout(fake)
        # the probe wrote its vector into the fake's words, nowhere else
        assert list(fake.words) == list(seeding._PROBE)

    def test_unknown_layout_draws_no_noise(self, monkeypatch):
        seeding._layout.cache_clear()
        monkeypatch.setattr(seeding, "_LAYOUTS", ((3, 2, 1, 0),))
        try:
            with pytest.raises(RuntimeError, match="neither known word order"):
                normal_matrix(_seed_array(3), 4)
        finally:
            seeding._layout.cache_clear()

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

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec.from_times([1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            GridSpec(times=(0.5, 0.2), T=1.0, uniform=False)

    def test_index_of_requires_grid_time(self):
        g = GridSpec.uniform_grid(1.0, 4)
        assert g.index_of(0.5) == 1
        with pytest.raises(DomainError):
            g.index_of(0.3)


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


class TestCirculant:
    def test_requires_uniform(self):
        g = GridSpec.from_times([0.1, 0.25, 0.4])
        with pytest.raises(DomainError, match="uniform"):
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
        # the temporaries are per block, not per ensemble
        g = GridSpec.uniform_grid(2.0, 64, include_zero=True)
        make_ensemble(16, g, 0.5)  # cache the spectrum before tracing
        tracemalloc.start()
        try:
            e = make_ensemble(8192, g, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= e.values.nbytes + 4 * fbm._BLOCK_BYTES

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
            path, _ = fbm._circulant_matrix(g, 0.5, seed)
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

    def test_writable_values_rejected(self):
        # the cached column sort is only valid while values never change
        with pytest.raises(DomainError, match="read-only"):
            Ensemble(H=0.5, grid=GridSpec.from_times([1.0]),
                     values=np.zeros((3, 1)), master_seed=0,
                     sampler_id="circulant")


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
