"""Golden-output oracle: SHA-256 digests of the byte-identical result files.

Each config below is a tiny, single-worker run of one CLI study.  The
digests were recorded once and must not be edited by a change that claims
to keep the numbers: a refactor that moves one bit of ``result.json``,
``summary.csv``, ``kernels.csv`` or ``ensemble.csv`` fails here.  A change
that alters the bits on purpose says so, shows that the statistics agree,
and records new digests.

The digests hold for the library versions the suite is pinned to in CI
(numpy 2.4.6, scipy 1.17.1); FFT and BLAS bits can differ on others.
"""

import hashlib
import json

import pytest

from tqproc.runner import parse_config, run_study

LADDER = {"ns": [64, 128, 256], "replications": 3}

# case -> (config, run with threads: 1, {output file: sha256})
GOLDEN = {
    "bk_rate": (
        {"study": "bk_rate", "master_seed": 11, "ladder": LADDER, "H": 0.4,
         "eta": 0.2, "M_t": 16, "M_alpha": 5},
        {"result.json":
             "59e9a4dbd1ad4ee00ed63df650bd340957a06242b1dcc14d3b911e574e5a80a6",
         "summary.csv":
             "3c2787cdf493d03a798299b6596c30e1a85918135fa99ffd3fa41b5e4800f08a"}),
    "weighted_bk_rate": (
        {"study": "weighted_bk_rate", "master_seed": 12, "ladder": LADDER,
         "T": 1.5, "M_t": 16, "M_alpha": 5},
        {"result.json":
             "525dd2393a1a02337255ab01f9547045944edeebc8366cdff70eef1e35b84ead",
         "summary.csv":
             "a73776bd1cda45ae504ae176a2f5301ef17bddecf39773eaa193fb35201e390d"}),
    "kernel_validation": (
        {"study": "kernel_validation", "master_seed": 13, "n": 40, "R": 30},
        {"result.json":
             "e7cc2851963914dac0f640c8d1b01e3480d91cf87aa26118cf5911bede19144d",
         "summary.csv":
             "014fb6b27e4df1065f1d3196ad5dfbd5c6942fab92e6bba265fef151ba19348f"}),
    "swanson": (
        {"study": "swanson", "master_seed": 14, "n": 51, "R": 30,
         "times": [0.5, 1.0, 2.0]},
        {"result.json":
             "0e2f04f20cf8f87052ce15f05cd60cb831f4123b6d159e3c8d7b1a401dc1336b",
         "summary.csv":
             "35fa0a6b0a2b267361e46689d7109dc4e9092d0e029e086765c6f507e9d4f780"}),
    "lil_trace": (
        {"study": "lil_trace", "master_seed": 15,
         "ladder": {"ns": [16, 32, 64], "replications": 3}, "kappa": 0.75,
         "M_t": 16, "sampler_id": "cholesky"},
        {"result.json":
             "9e51c5bd4e87cf6bced4d8664093b1c248c1b81cb8ea9c8aa294755f2072c2c2",
         "summary.csv":
             "a70c5842a977e962a144c958882c19ef4adc02daccef09f36f567770891f90b0"}),
    "classical_bk": (
        {"study": "classical_bk", "master_seed": 16, "ladder": LADDER},
        {"result.json":
             "81c0a2b020bdaf2b641965032fa944e20a7de2d45ff93169e9339df6345426b3",
         "summary.csv":
             "c22d3485cb60cf2bc655fe5aafdee7ca9312780ffcb566b54b32e316465e1896"}),
    "tail_fit": (
        {"study": "tail_fit", "master_seed": 17, "n": 2000, "M_t": 16,
         "levels_y": [0.5, 1.0, 1.5, 2.0]},
        {"result.json":
             "5c06f71c22c11724818754d48b16acd287c29c89403ce753bbd5c89d6505f122",
         "summary.csv":
             "1760c9926e51629583c25dea31a8918fb3847cb44206e5eb49044b0e12a190dc"}),
    "kernel_eval": (
        {"study": "kernel_eval", "kind": "K", "H": 0.3},
        {"kernels.csv":
             "bcb3fcd180d5ceb50feb9c4b326d547c913c9c330544740399612f3d1e257ef8"}),
    "kernel_eval_nodes": (
        {"study": "kernel_eval", "kind": "G",
         "kernel_nodes": [[1, 0, 1, 0], [0.5, -0.5, 2.0, 1.0]]},
        {"kernels.csv":
             "6e9ba40fa9ec2d771c9dc32811ec11f762481ddca4fa952f7aaec827410cfabe"}),
    "fbm_gen": (
        {"study": "fbm_gen", "master_seed": 18, "n": 4, "M_t": 5, "T": 1.0,
         "H": 0.7},
        {"ensemble.csv":
             "eee1a7e2a76c8973ba2ed7460fd52cfbd6b729c4172dc8bf894cad33a118da35"}),
}


def _digests(conf: dict, out_dir, names) -> dict:
    cfg = parse_config(json.dumps(dict(conf, threads=1, out_dir=str(out_dir))))
    code, _ = run_study(cfg)
    assert code == 0
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    monkeypatch.delenv("TQPROC_OUT", raising=False)
    conf, want = GOLDEN[case]
    assert _digests(conf, tmp_path / case, want) == want
