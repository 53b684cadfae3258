"""Acceptance criteria, one test per criterion.

Every criterion prints a single PASS/FAIL line (run with ``pytest -s`` to
see them all); tolerances and runtime budgets are stated inline.  Expensive
studies are shared between criteria through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from tqproc import analytic, experiments
from tqproc.experiments import NLadder
from tqproc.fbm import GridSpec, make_ensemble
from tqproc.runner import parse_config, run_study

WORKERS = 2
SEED = 20260809


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class Timed:
    def __init__(self, value, elapsed):
        self.value = value
        self.elapsed = elapsed


def _timed(fn) -> Timed:
    t0 = time.perf_counter()
    val = fn()
    return Timed(val, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Shared studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_result():
    return _timed(lambda: experiments.kernel_validation_study(
        x_nodes=[[t, x * t**0.5] for t in (0.5, 1.0, 2.0, 4.0)
                 for x in (-1.0, 0.0, 1.0)],
        alpha_nodes=[(1.0, 0.5), (4.0, 0.5), (1.0, 0.25), (4.0, 0.75)],
        H=0.5, n=500, R=4000, seed=SEED, workers=WORKERS))


@pytest.fixture(scope="module")
def bk_result():
    ladder = NLadder.powers_of_two(8, 13, 50)
    return _timed(lambda: experiments.bk_rate_study(
        ladder, H=0.5, T=2.0, rho=0.1, eta=0.0, gamma0=0.25,
        M_t=64, M_alpha=21, seed=SEED, workers=WORKERS))


@pytest.fixture(scope="module")
def weighted_result():
    ladder = NLadder.powers_of_two(8, 13, 50)
    return _timed(lambda: experiments.weighted_bk_rate_study(
        ladder, H=0.5, T=2.0, rho=0.1, M_t=64, M_alpha=21,
        seed=SEED, workers=WORKERS))


@pytest.fixture(scope="module")
def swanson_result():
    return _timed(lambda: experiments.swanson_median_study(
        times=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
        n=1001, R=5000, seed=SEED, workers=WORKERS))


@pytest.fixture(scope="module")
def classical_result():
    ladder = NLadder.powers_of_two(12, 16, 20)
    return _timed(lambda: experiments.classical_bk_study(
        ladder, seed=SEED, workers=WORKERS))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_orthant_identity():
    def worst():
        rhos = np.linspace(-0.999, 0.999, 201)
        return max(abs(analytic.bivariate_normal_cdf(0.0, 0.0, r)
                       - (0.25 + math.asin(r) / (2.0 * math.pi)))
                   for r in rhos)
    t = _timed(worst)
    report(1, "orthant identity on 201 correlations within 1e-10",
           t.value <= 1e-10 and t.elapsed < 1.0,
           f"max err {t.value:.2e}, {t.elapsed:.2f}s")


def test_criterion_02_kernel_cross_check():
    def worst():
        ts = np.linspace(0.4, 4.0, 10)
        return max(abs(2.0 * math.pi * analytic.quantile_kernel_K(
            t1, 0.5, t2, 0.5, 0.5, weighted=True)
            - analytic.swanson_kernel(t1, t2))
            for t1 in ts for t2 in ts)
    t = _timed(worst)
    report(2, "scaled median kernel equals weighted quantile kernel (1e-10)",
           t.value <= 1e-10 and t.elapsed < 1.0,
           f"max err {t.value:.2e}, {t.elapsed:.2f}s")


def test_criterion_03_sampler_fidelity():
    def run():
        grid = GridSpec.uniform_grid(2.0, 16)
        ts = grid.array
        n = 20_000
        worst_entry, worst_pair = 0.0, 0.0
        for i, H in enumerate((0.3, 0.5, 0.75)):
            target = analytic.fbm_covariance(ts[:, None], ts[None, :], H)
            var = np.diag(target)
            se = np.sqrt((np.outer(var, var) + target**2) / n)
            covs = {}
            for j, sampler in enumerate(("cholesky", "circulant")):
                e = make_ensemble(n, grid, H, sampler_id=sampler,
                                  master_seed=SEED + 2 * i + j)
                covs[sampler] = e.values.T @ e.values / n
                worst_entry = max(worst_entry, float(
                    np.max(np.abs(covs[sampler] - target) / se)) / 4.0)
            diff = np.abs(covs["cholesky"] - covs["circulant"])
            worst_pair = max(worst_pair, float(
                np.max(diff / (np.sqrt(2.0) * se))) / 5.0)
        return worst_entry, worst_pair
    t = _timed(run)
    entry, pair = t.value
    report(3, "sampler covariances within 4 SE; samplers agree within 5 SE",
           entry <= 1.0 and pair <= 1.0 and t.elapsed < 120.0,
           f"worst entry {entry:.2f}x, worst cross {pair:.2f}x, {t.elapsed:.1f}s")


def test_criterion_04_empirical_process_moments(kernel_result):
    r = kernel_result.value
    diag = [row for row in r.tables["v_pairs"] if row["diagonal"]]
    worst = max(abs(row["z"]) for row in diag)
    report(4, "Var[v_n] within 3 SE of F(1-F) at 12 nodes (n=500, R=4000)",
           len(diag) == 12 and worst <= 3.0
           and kernel_result.elapsed < 300.0,
           f"worst |z| {worst:.2f}, {kernel_result.elapsed:.1f}s")


def test_criterion_05_limit_kernel_pair(kernel_result):
    r = kernel_result.value
    pair = [row for row in r.tables["v_pairs"]
            if (row["t1"], row["a1"], row["t2"], row["a2"]) == (1.0, 0.0, 4.0, 0.0)]
    assert len(pair) == 1
    row = pair[0]
    ok = (abs(row["kernel"] - 1.0 / 12.0) <= 1e-10 and abs(row["z"]) <= 3.0)
    report(5, "MC covariance of v_n at (1,0),(4,0) within 3 SE of 1/12",
           ok, f"mc {row['mc_cov']:.5f} vs 1/12, |z| {abs(row['z']):.2f}")


def test_criterion_06_tie_bound(bk_result, weighted_result, swanson_result,
                                kernel_result):
    results = [bk_result.value, weighted_result.value, swanson_result.value,
               kernel_result.value]
    viols = [r.tables["tie_max_violation"] for r in results]
    flags = [r.pass_flags["tie_bound_ok"] for r in results]
    m = bk_result.value.tables["tie_bound_m"]
    report(6, "0 <= F_n(t,tau^n)-alpha <= m/n with m=2*ceil(2/H)+2 everywhere",
           all(flags) and all(v <= 0.0 for v in viols) and m == 10,
           f"max violation {max(viols):.2e} across 4 studies, m={m}")


def test_criterion_07_bk_rate(bk_result):
    fit = bk_result.value.fit
    ok = (-0.35 <= fit.slope <= -0.15 and bk_result.elapsed < 1800.0)
    report(7, "unweighted remainder sup rate slope in [-0.35, -0.15]",
           ok, f"slope {fit.slope:.4f} +- {fit.stderr:.4f}, "
               f"r2 {fit.r_squared:.3f}, {bk_result.elapsed:.1f}s")


def test_criterion_08_weighted_rate(weighted_result):
    fit = weighted_result.value.fit
    ok = (fit.slope <= -0.08 and weighted_result.elapsed < 1800.0)
    report(8, "weighted remainder sup rate slope <= -0.08",
           ok, f"slope {fit.slope:.4f}, {weighted_result.elapsed:.1f}s")


def test_criterion_08b_weighted_vs_unweighted(bk_result, weighted_result):
    # sanity ordering stated with the weighted study: not steeper by > 0.2
    ws, us = weighted_result.value.fit.slope, bk_result.value.fit.slope
    report(8, "weighted slope within 0.2 of the unweighted slope (ordering)",
           ws >= us - 0.2, f"weighted {ws:.4f} vs unweighted {us:.4f}")


def test_criterion_09_swanson(swanson_result):
    r = swanson_result.value
    by_t = {row["t"]: row for row in r.tables["variance"]}
    var_dev = by_t[1.0]["rel_dev"]
    cov_row = [row for row in r.tables["covariance"]
               if (row["t1"], row["t2"]) == (1.0, 4.0)][0]
    scaling = by_t[2.0]["mc_var"] / by_t[1.0]["mc_var"]
    ok = (var_dev <= 0.05 and cov_row["rel_dev"] <= 0.10
          and abs(scaling - 2.0) <= 0.2
          and swanson_result.elapsed < 600.0)
    report(9, "median variance pi/2 (5%), covariance pi/3 (10%), linear scaling",
           ok, f"var dev {var_dev:.3f}, cov dev {cov_row['rel_dev']:.3f}, "
               f"var(2)/var(1) {scaling:.3f}, {swanson_result.elapsed:.1f}s")


def test_criterion_10_classical_constant(classical_result):
    r = classical_result.value
    mean = r.per_n[-1]["mean"]
    slope = r.fit.slope
    ok = (0.4 <= mean <= 1.4 and -0.1 <= slope <= 0.1
          and classical_result.elapsed < 300.0)
    report(10, "classical normalized constant in [0.4, 1.4] at n=2^16, flat in n",
           ok, f"mean {mean:.4f} (target 0.8409), slope {slope:.4f}, "
               f"{classical_result.elapsed:.1f}s")


def test_criterion_11_deviation_boundedness():
    def run():
        ladder = NLadder(ns=(512, 4096), replications=200)
        out = {}
        for delta in (0.5 / 8.0, 0.5 / 4.0):
            r = experiments.deviation_stability_study(
                ladder, delta=delta, H=0.5, T=2.0, rho=0.1,
                seed=SEED, workers=WORKERS)
            out[delta] = r.tables["median_ratio"]
        return out
    t = _timed(run)
    ok = all(v < 3.0 for v in t.value.values()) and t.elapsed < 600.0
    report(11, "quantile deviation medians stable within factor 3 (n=512 vs 4096)",
           ok, ", ".join(f"delta={d:.4g}: ratio {v:.2f}"
                         for d, v in t.value.items()) + f", {t.elapsed:.1f}s")


def test_criterion_12_tail_fit():
    t = _timed(lambda: experiments.tail_fit_study(
        levels_y=(1.5, 2.0, 2.5, 3.0), H=0.5, T=1.0, n=100_000,
        M_t=64, seed=SEED, workers=WORKERS))
    r = t.value
    ok = (r.tables["r_squared"] >= 0.95 and r.tables["c_hat"] > 0.0
          and t.elapsed < 120.0)
    report(12, "sup-tail fit d*exp(-c y^2): r^2 >= 0.95 and c_hat > 0",
           ok, f"c {r.tables['c_hat']:.3f}, d {r.tables['d_hat']:.3f}, "
               f"r2 {r.tables['r_squared']:.4f}, {t.elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    conf = {"study": "swanson", "master_seed": 42, "n": 101, "R": 60,
            "times": [0.5, 1.0, 2.0]}
    blobs = []
    for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
        cfg = parse_config(json.dumps(
            conf | {"threads": threads, "out_dir": str(tmp_path / tag)}))
        run_study(cfg)
        out = tmp_path / tag
        blobs.append((out / "result.json").read_bytes()
                     + (out / "summary.csv").read_bytes())
    report(13, "byte-identical result files across reruns and worker counts 1/8",
           blobs[0] == blobs[1] == blobs[2],
           f"{len(blobs[0])} bytes compared")
