"""Configuration parsing, CLI surface, persistence, and determinism."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
import scipy

import tqproc
from tqproc import analytic, experiments, fbm, runner
from tqproc.errors import ConfigError, DataError, DomainError
from tqproc.fbm import MAX_CHOLESKY_POINTS, GridSpec, ensemble_bytes, make_ensemble
from tqproc.runner import (STUDIES, RunConfig, main, parse_config, run_study,
                           serialize_config)
from tqproc.seeding import derive_seed


TINY_SWANSON = {"study": "swanson", "master_seed": 42, "n": 51, "R": 30,
                "times": [0.5, 1.0], "threads": 1}
# valid config whose study fails once it runs: no path reaches the levels
UNREACHABLE_TAIL = {"study": "tail_fit", "n": 10, "M_t": 4,
                    "levels_y": [100, 200, 300], "threads": 1}
# study -> (config whose times sit on no lattice {k*step}, the key named)
NON_LATTICE = {
    "kernel_validation": (
        {"study": "kernel_validation", "x_nodes": [[0.1, 0], [0.25, 0]],
         "alpha_nodes": [[0.1, 0.5]], "n": 20, "R": 2},
        "x_nodes / alpha_nodes times"),
    "swanson": ({"study": "swanson", "times": [0.5, 0.7], "n": 20, "R": 2},
                "times"),
}


BIG = 10**400  # a JSON integer beyond the float range


def _assert_cli_rejects(tmp_path, capsys, text, match):
    """``tqproc run`` on the config text exits 1 with the message matching,
    before it creates the output directory."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    out = tmp_path / "never"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(match, err[7:].rstrip("\n"))
    assert not out.exists()


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config('{"study": "swanson", "master_seed": 42}')
        assert cfg.H == 0.5 and cfg.n == 1001 and cfg.R == 5000
        assert cfg.rho == 0.1 and cfg.M_t == 64 and cfg.M_alpha == 21
        assert cfg.sampler_id == "circulant"
        assert cfg.times == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
        assert cfg.threads >= 1

    def test_swanson_h_conflict_rejected(self):
        with pytest.raises(ConfigError, match="H"):
            parse_config('{"study": "swanson", "H": 0.7}')

    @pytest.mark.parametrize("conf", [
        {"study": "kernel_eval", "kind": "swanson", "H": 0.3},
        {"study": "kernel_eval", "H": 0.7}], ids=["kind", "default-kind"])
    def test_swanson_kernel_h_rejected(self, conf):
        # the swanson kernel is Brownian: at any other H it would write the
        # H = 1/2 values
        with pytest.raises(ConfigError, match="^H must be 0.5"):
            parse_config(json.dumps(conf))

    def test_eta_hypothesis_rejected(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config('{"study": "bk_rate", "H": 0.5, "eta": 1.1}')

    def test_eta_window_depends_on_h(self):
        # 1/(2H) = 1.25 for H = 0.4, so eta = 1.1 becomes valid
        cfg = parse_config('{"study": "bk_rate", "H": 0.4, "eta": 1.1}')
        assert cfg.eta == 1.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config('{"study": "swanson", "foo": 1}')

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigError, match="study"):
            parse_config('{"study": "nope"}')

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config('{"study": ')

    def test_ladder_defaults_and_overrides(self):
        cfg = parse_config('{"study": "bk_rate"}')
        assert cfg.ladder.ns == tuple(2**k for k in range(8, 14))
        assert cfg.ladder.replications == 50
        cfg = parse_config(
            '{"study": "bk_rate", "ladder": {"ns": [64, 128], "replications": 2}}')
        assert cfg.ladder.ns == (64, 128)

    def test_ladder_schema(self):
        with pytest.raises(ConfigError, match="ladder"):
            parse_config('{"study": "bk_rate", "ladder": {"ns": [64]}}')
        with pytest.raises(ConfigError, match="ladder"):
            parse_config('{"study": "bk_rate", "ladder": {"count": 5}}')
        with pytest.raises(ConfigError, match="ladder"):
            parse_config('{"study": "swanson", "ladder": {"ns": [4, 8]}}')

    def test_sampler_validated(self):
        with pytest.raises(ConfigError, match="sampler_id"):
            parse_config('{"study": "swanson", "sampler_id": "euler"}')

    def test_round_trip_idempotent(self):
        text = json.dumps(TINY_SWANSON)
        cfg1 = parse_config(text)
        cfg2 = parse_config(serialize_config(cfg1))
        assert cfg1 == cfg2
        assert serialize_config(cfg1) == serialize_config(cfg2)

    def test_type_errors_are_actionable(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config('{"study": "swanson", "rho": 0.8}')
        with pytest.raises(ConfigError, match="M_t"):
            parse_config('{"study": "swanson", "M_t": "many"}')
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config('{"study": "swanson", "master_seed": -3}')

    @pytest.mark.parametrize("study", ["swanson", "kernel_eval"])
    def test_unread_key_rejected(self, study):
        with pytest.raises(ConfigError, match=f"{study}.*kappa"):
            parse_config(json.dumps({"study": study, "kappa": 0.7}))

    @pytest.mark.parametrize("key", ["delta", "C", "c1"])
    def test_retired_keys_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown.*{key}"):
            parse_config(json.dumps({"study": "bk_rate", key: 0.1}))

    @pytest.mark.parametrize("nodes", [[["a", 1, 2, 3]], 5, "K", [[1, 2]],
                                       [[1, 0.5, 2]]])
    def test_kernel_nodes_malformed(self, nodes):
        with pytest.raises(ConfigError, match="kernel_nodes"):
            parse_config(json.dumps({"study": "kernel_eval", "kind": "K",
                                     "kernel_nodes": nodes}))

    def test_kernel_nodes_arity_follows_kind(self):
        cfg = parse_config('{"study": "kernel_eval", "kernel_nodes": [[1, 2]]}')
        assert cfg.kind == "swanson" and cfg.kernel_nodes == ((1.0, 2.0),)
        with pytest.raises(ConfigError, match="kernel_nodes"):
            parse_config('{"study": "kernel_eval", "kernel_nodes": [[1, 0, 2, 0]]}')

    @pytest.mark.parametrize("conf, match", [
        ({"study": "bk_rate", "H": None}, r"\['H'\] must not be null"),
        ({"study": "swanson", "n": None}, r"\['n'\] must not be null"),
        ({"study": "swanson", "times": []}, "times must be a non-empty"),
    ], ids=["H-null", "n-null", "times-empty"])
    def test_null_or_empty_value_rejected(self, conf, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))

    @pytest.mark.parametrize("conf, key", [
        ({"study": "bk_rate", "T": math.inf}, "T"),
        ({"study": "lil_trace", "kappa": math.inf}, "kappa"),
        ({"study": "kernel_validation", "x_nodes": [[1, math.nan]]}, "x_nodes"),
        ({"study": "kernel_validation", "alpha_nodes": [[1, 1.5]]},
         "alpha_nodes"),
        ({"study": "swanson", "times": [1, math.inf]}, "times"),
        ({"study": "tail_fit", "levels_y": [1, 2, math.nan]}, "levels_y"),
        ({"study": "kernel_eval", "kind": "K",
          "kernel_nodes": [[1, 1.5, 2, 0.5]]}, "kernel_nodes"),
        # 1 - rho rounds to 1, and a grid of 3 times in [0, 5e-324] collapses
        ({"study": "bk_rate", "rho": 1e-17}, "rho"),
        ({"study": "fbm_gen", "T": 5e-324, "M_t": 3}, "T"),
        # t**(2H) of a grid time leaves the float range
        ({"study": "fbm_gen", "n": 2, "M_t": 3, "T": 1e300, "H": 0.9},
         "^T must keep"),
        ({"study": "fbm_gen", "n": 2, "M_t": 3, "T": 1e300, "H": 0.9,
          "sampler_id": "cholesky"}, "^T must keep"),
        ({"study": "fbm_gen", "n": 2, "M_t": 3, "T": 1e-300, "H": 0.9},
         "^T must keep"),
        ({"study": "fbm_gen", "n": 2, "M_t": 3, "T": 1e-300, "H": 0.9,
          "sampler_id": "cholesky"}, "^T must keep"),
        ({"study": "bk_rate", "T": 1e300, "H": 0.9}, "^T must keep"),
        ({"study": "weighted_bk_rate", "T": 1e300, "H": 0.9}, "^T must keep"),
        ({"study": "lil_trace", "T": 1e300, "H": 0.9}, "^T must keep"),
        ({"study": "tail_fit", "T": 1e300, "H": 0.9}, "^T must keep"),
        ({"study": "swanson", "times": [1e-320, 1.0]}, "^times must keep"),
        ({"study": "kernel_validation", "sampler_id": "cholesky", "H": 0.9,
          "x_nodes": [[1e-200, 0], [1e200, 0]], "alpha_nodes": [[1, 0.5]]},
         "^x_nodes / alpha_nodes times must keep"),
    ], ids=["T-inf", "kappa-inf", "x_nodes-nan", "alpha_nodes-range",
            "times-inf", "levels_y-nan", "kernel_nodes-range", "rho-tiny",
            "T-collapsed-grid", "fbm_gen-T-huge", "fbm_gen-T-huge-cholesky",
            "fbm_gen-T-tiny", "fbm_gen-T-tiny-cholesky", "bk_rate-T-huge",
            "weighted_bk_rate-T-huge", "lil_trace-T-huge", "tail_fit-T-huge",
            "swanson-times-tiny", "kernel_validation-node-times"])
    def test_nonfinite_or_out_of_range_value_rejected(self, conf, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(json.dumps(conf))

    @pytest.mark.parametrize("conf, match", [
        ({"study": "kernel_validation", "x_nodes": [[0, 1]], "n": 20, "R": 2},
         "x_nodes times must be positive"),
        ({"study": "kernel_validation", "alpha_nodes": [[0, 0.5]]},
         "alpha_nodes times must be positive"),
        ({"study": "kernel_eval", "kind": "swanson", "kernel_nodes": [[-1, 1]]},
         "kernel_nodes times must be nonnegative"),
        ({"study": "kernel_eval", "kind": "K",
          "kernel_nodes": [[0, 0.5, 1, 0.5]]}, "kernel_nodes times must be positive"),
    ], ids=["x_nodes-zero", "alpha_nodes-zero", "swanson-negative", "K-zero"])
    def test_node_time_rejected(self, conf, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))

    @pytest.mark.parametrize("kind, node", [
        ("swanson", [0, 1]), ("weightedK", [0, 0.5, 1, 0.5])])
    def test_kernel_node_time_zero_where_defined(self, kind, node):
        cfg = parse_config(json.dumps({"study": "kernel_eval", "kind": kind,
                                       "kernel_nodes": [node]}))
        assert cfg.kernel_nodes == (tuple(map(float, node)),)

    @pytest.mark.parametrize("study", ["kernel_validation", "swanson"])
    def test_one_replication_rejected(self, study):
        with pytest.raises(ConfigError, match="R must be >= 2"):
            parse_config(json.dumps({"study": study, "n": 50, "R": 1}))

    def test_bad_nodes_leave_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "never"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"study": "kernel_eval", "kind": "K",
                                        "kernel_nodes": [[1, 2]],
                                        "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "kernel_nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", sorted(NON_LATTICE))
    def test_non_lattice_times_rejected_for_circulant(self, tmp_path, capsys,
                                                      study):
        conf, key = NON_LATTICE[study]
        with pytest.raises(ConfigError, match=f"^{key} must sit on one lattice"):
            parse_config(json.dumps(conf))
        out = tmp_path / "never"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**conf, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert f"error: {key} must sit on one lattice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", sorted(NON_LATTICE))
    def test_non_lattice_times_parse_for_cholesky(self, study):
        conf, _ = NON_LATTICE[study]
        cfg = parse_config(json.dumps({**conf, "sampler_id": "cholesky"}))
        assert cfg.sampler_id == "cholesky"

    @pytest.mark.parametrize("study", sorted(NON_LATTICE))
    def test_cholesky_grid_capped(self, tmp_path, capsys, study):
        conf, key = NON_LATTICE[study]
        times = [0.001 * k for k in range(1, MAX_CHOLESKY_POINTS + 2)]
        conf = {**conf, "sampler_id": "cholesky",
                **({"times": times} if study == "swanson" else
                   {"x_nodes": [[t, 0] for t in times]})}
        match = (f"^{key} give {MAX_CHOLESKY_POINTS + 1} grid points, over "
                 f"the cholesky sampler's limit of {MAX_CHOLESKY_POINTS}$")
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        out = tmp_path / "never"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**conf, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert f"error: {key} give" in capsys.readouterr().err
        assert not out.exists()
        # at the cap the grid parses
        conf["times" if study == "swanson" else "x_nodes"].pop()
        assert parse_config(json.dumps(conf)).sampler_id == "cholesky"

    @pytest.mark.parametrize("study", sorted(NON_LATTICE))
    @pytest.mark.parametrize("sampler_id", ["circulant", "cholesky"])
    def test_sampler_and_config_reject_the_same_grids(self, study, sampler_id):
        # fbm alone holds the grid rules: parse_config puts the key in front
        # of the very message make_ensemble raises
        conf, key = NON_LATTICE[study]
        if sampler_id == "cholesky":
            times = [0.001 * k for k in range(1, MAX_CHOLESKY_POINTS + 2)]
            conf = {**conf, **({"times": times} if study == "swanson" else
                               {"x_nodes": [[t, 0] for t in times]})}
        other = "cholesky" if sampler_id == "circulant" else "circulant"
        cfg = parse_config(json.dumps({**conf, "sampler_id": other}))
        grid, _ = STUDIES[study].grid(cfg)
        with pytest.raises(DomainError) as sampled:
            make_ensemble(1, grid, 0.5, sampler_id=sampler_id)
        with pytest.raises(ConfigError) as parsed:
            parse_config(json.dumps({**conf, "sampler_id": sampler_id}))
        assert str(parsed.value) == f"{key} {sampled.value}"

    def test_lattice_too_fine_for_its_indices(self, tmp_path, capsys):
        # the index 1e300 of t = 1 on a lattice of step 1e-300 is no integer
        # a float holds, so the times are no lattice: circulant rejects them
        # naming times, and the cholesky sampler samples them
        conf = {"study": "swanson", "times": [1e-300, 1.0], "n": 20, "R": 2}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^times must sit on one lattice"):
                parse_config(json.dumps(conf))
            _assert_cli_rejects(tmp_path, capsys, json.dumps(conf),
                                "^times must sit on one lattice")
            cfg = parse_config(json.dumps({**conf, "sampler_id": "cholesky"}))
            grid, _ = STUDIES["swanson"].grid(cfg)
            assert make_ensemble(3, grid, 0.5, sampler_id="cholesky").n == 3

    @pytest.mark.parametrize("levels", [[1.0, 1.0, 1.0], [1.0, 2.0, 1.0],
                                        [-1.0, -0.5, 0.0], [0.0, 1.0, 2.0]],
                             ids=["equal", "repeated", "negative", "zero"])
    def test_degenerate_tail_levels_rejected(self, tmp_path, capsys, levels):
        conf = {"study": "tail_fit", "levels_y": levels, "n": 2000}
        with pytest.raises(ConfigError,
                           match=r"^levels_y needs at least 3 levels, "
                                 r"positive and distinct"):
            parse_config(json.dumps(conf))
        out = tmp_path / "never"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**conf, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error: levels_y" in capsys.readouterr().err
        assert not out.exists()

    def test_unsorted_tail_levels_accepted(self):
        cfg = parse_config('{"study": "tail_fit", "levels_y": [2, 1, 1.5]}')
        assert cfg.levels_y == (2.0, 1.0, 1.5)

    def test_oversized_ensemble_rejected_before_allocating(self, tmp_path,
                                                           capsys):
        conf = {"study": "tail_fit", "n": 10**10}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"\(n\) on 64 grid points "
                                                  r"\(M_t\).*lower n or M_t"):
                parse_config(json.dumps(conf))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        out = tmp_path / "never"
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps({**conf, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "GiB budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("conf, names", [
        ({"study": "bk_rate", "ladder": {"ns": [256, 2**30]}}, "ladder or M_t"),
        ({"study": "swanson", "n": 10**9}, "n or times"),
        ({"study": "fbm_gen", "M_t": 4096, "n": 40_000,
          "sampler_id": "cholesky"}, "n or M_t"),
    ], ids=["ladder", "swanson-times", "cholesky"])
    def test_oversized_ensemble_names_its_keys(self, conf, names):
        with pytest.raises(ConfigError, match=f"GiB budget; lower {names}$"):
            parse_config(json.dumps(conf))

    def test_budget_counts_one_array(self):
        # a study that sorts its paths sorts them in place, so bk_rate admits
        # the paths tail_fit does on the same 64 grid points, about twice
        # what a sorted copy would allow.  Past one row block a path adds
        # its values and 24 bytes of seed
        grid = experiments.ladder_grid(1.0, 64)
        block = (ensemble_bytes(2**20, grid, "circulant")
                 - 2**20 * (8 * grid.M + 24))
        n = (runner.WORKER_BYTES_BUDGET - block) // (8 * grid.M + 24)
        assert n > 1.9 * (runner.WORKER_BYTES_BUDGET - block) // (16 * grid.M + 24)
        assert parse_config(json.dumps({"study": "tail_fit", "n": n})).n == n
        with pytest.raises(ConfigError, match="GiB budget; lower n or M_t$"):
            parse_config(json.dumps({"study": "tail_fit", "n": n + 1}))
        assert parse_config(json.dumps(
            {"study": "bk_rate", "ladder": {"ns": [256, n]}})).ladder.ns[-1] == n
        with pytest.raises(ConfigError, match="GiB budget; lower ladder or M_t$"):
            parse_config(json.dumps(
                {"study": "bk_rate", "ladder": {"ns": [256, n + 1]}}))

    def test_oversized_classical_ladder_rejected_before_allocating(
            self, tmp_path, capsys):
        conf = {"study": "classical_bk", "ladder": {"ns": [1000, 10**12]}}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^1000000000000 uniforms "
                                                  r"\(ladder\).*lower ladder$"):
                parse_config(json.dumps(conf))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        out = tmp_path / "never"
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps({**conf, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "GiB budget" in capsys.readouterr().err
        assert not out.exists()
        # the default ladder, largest n 2**16, is far inside the budget
        assert parse_config('{"study": "classical_bk"}').ladder.ns[-1] == 2**16

    @pytest.mark.parametrize("conf, match", [
        ({"study": "bk_rate", "ladder": {"ns": [256, 512.9]}},
         r"^ladder ns must be an integer; got 512\.9$"),
        ({"study": "bk_rate", "ladder": {"ns": [256, 512],
                                         "replications": 2.7}},
         r"^ladder replications must be an integer"),
        ({"study": "bk_rate", "ladder": {"ns": ["256", "512"]}},
         r"^ladder ns must be an integer; got '256'$"),
        ({"study": "swanson", "times": [True, 2]},
         r"^times must be a number; got True$"),
        ({"study": "swanson", "times": ["0.5", " 1e0 "]},
         r"^times must be a number; got '0\.5'$"),
        ({"study": "tail_fit", "levels_y": [True, 2, 3]},
         r"^levels_y must be a number; got True$"),
        ({"study": "kernel_validation", "x_nodes": [["1", "0"]]},
         r"^x_nodes must be a number; got '1'$"),
    ], ids=["ns-fraction", "replications-fraction", "ns-strings",
            "times-bool", "times-strings", "levels_y-bool", "x_nodes-strings"])
    def test_list_entries_must_be_json_numbers(self, conf, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))

    @pytest.mark.parametrize("text, match", [
        ('{"study": "bk_rate", "T": 1' + "0" * 400 + "}",
         r"^T holds an integer of 401 digits, too large for a float$"),
        (json.dumps({"study": "bk_rate", "H": -BIG}), r"^H holds an integer"),
        (json.dumps({"study": "swanson", "times": [0.5, BIG]}),
         r"^times holds an integer"),
        (json.dumps({"study": "kernel_validation", "alpha_nodes": [[BIG, 0.5]]}),
         r"^alpha_nodes holds an integer"),
        (json.dumps({"study": "tail_fit", "n": BIG}),
         r"\(n\) on 64 grid points \(M_t\) need about 4\.99e\+393 GiB for one "
         r"ensemble, over the 2 GiB budget; lower n or M_t$"),
        (json.dumps({"study": "classical_bk", "ladder": {"ns": [1000, BIG]}}),
         r"uniforms \(ladder\) need about 9\.69e\+392 GiB for one "
         r"replication, over the 2 GiB budget; lower ladder$"),
    ], ids=["T", "H", "times", "alpha_nodes", "tail_fit-n", "classical-ladder"])
    def test_huge_integers_name_their_key(self, tmp_path, capsys, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
        _assert_cli_rejects(tmp_path, capsys, text, match)

    @pytest.mark.parametrize("conf, key", [
        ({"study": "swanson", "R": 10**9}, "R"),
        ({"study": "kernel_validation", "R": runner.MAX_TASKS + 1}, "R"),
        ({"study": "bk_rate", "ladder": {"replications": 10**9}}, "ladder"),
        ({"study": "classical_bk", "ladder": {
            "ns": [4, 8], "replications": runner.MAX_TASKS // 2 + 1}}, "ladder"),
    ], ids=["swanson-R", "kernel_validation-R", "bk_rate-ladder",
            "classical_bk-ladder"])
    def test_task_count_bounded(self, tmp_path, capsys, conf, key):
        match = (rf"tasks \({key}\) exceed the bound of {runner.MAX_TASKS} "
                 rf"tasks per run; lower {key}$")
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        _assert_cli_rejects(tmp_path, capsys, json.dumps(conf), match)
        # the bound itself is allowed
        at_bound = {"study": "swanson", "R": runner.MAX_TASKS}
        assert parse_config(json.dumps(at_bound)).R == runner.MAX_TASKS

    def test_cholesky_noise_and_factor_count(self):
        # the same ensemble fits when its noise is drawn one row block at a time
        conf = {"study": "fbm_gen", "M_t": 4096, "n": 40_000}
        assert parse_config(json.dumps(conf)).sampler_id == "circulant"

    @pytest.mark.parametrize("conf, match", [
        ({"study": "classical_bk", "ladder": {"ns": [2, 3, 4]}},
         r"^ladder sizes must be >= 3 for study 'classical_bk'"),
        ({"study": "lil_trace", "ladder": {"ns": [8, 32]}},
         r"^ladder sizes must be >= 16 for study 'lil_trace'"),
        ({"study": "lil_trace", "T": 0.5},
         r"^T must be >= 1 for study 'lil_trace'; got 0.5"),
    ], ids=["classical_bk-ladder", "lil_trace-ladder", "lil_trace-T"])
    def test_study_floor_rejected_before_out_dir(self, tmp_path, capsys, conf,
                                                 match):
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        out = tmp_path / "never"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**conf, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not out.exists()

    def test_kappa_overflowing_the_lil_constant_rejected(self, tmp_path,
                                                         capsys):
        conf = {"study": "lil_trace", "kappa": 1e300}
        match = r"^kappa must keep T\*\*kappa finite; got 1e\+300$"
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        _assert_cli_rejects(tmp_path, capsys, json.dumps(conf), match)
        # T = 1 keeps any kappa finite
        assert parse_config(json.dumps({**conf, "T": 1})).kappa == 1e300

    def test_kappa_overflowing_the_spread_rejected(self, tmp_path, capsys):
        # T**kappa is finite, but the squares of R statistics below
        # T**kappa * sqrt(n) that the spread sums are not
        conf = {"study": "lil_trace", "kappa": 1000, "M_t": 4,
                "ladder": {"ns": [16, 32], "replications": 2}}
        match = r"^kappa must keep T\*\*\(2\*kappa\) \* replications \* max\(ns\)"
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        _assert_cli_rejects(tmp_path, capsys, json.dumps(conf), match)
        # at T = 2 the default ladder still takes kappa 500
        assert parse_config(json.dumps(
            {"study": "lil_trace", "kappa": 500})).kappa == 500

    def test_largest_kappa_runs_with_finite_spread(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(json.dumps({
            "study": "lil_trace", "kappa": 500, "M_t": 4, "threads": 1,
            "ladder": {"ns": [16, 32], "replications": 2},
            "out_dir": str(out)}))
        assert run_study(cfg)[0] == 0
        per_n = json.loads((out / "result.json").read_text())["per_n"]
        assert all(type(row["se"]) is float and math.isfinite(row["se"])
                   for row in per_n)
        assert "inf" not in (out / "summary.csv").read_text()

    def test_level_grid_size_bounded(self, tmp_path, capsys):
        # parsed only: a run would build a 10**9-level grid
        conf = {"study": "weighted_bk_rate", "M_alpha": 10**9}
        match = r"^M_alpha must lie in \[1, 4096\]; got 1000000000$"
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        _assert_cli_rejects(tmp_path, capsys, json.dumps(conf), match)
        assert parse_config(json.dumps({**conf, "M_alpha": 4096})).M_alpha == 4096

    @pytest.mark.parametrize("conf", [{"H": 0.1, "eta": 4.9},
                                      {"gamma0": 1e-13}],
                             ids=["eta", "gamma0"])
    def test_window_floor_below_tolerance_runs(self, tmp_path, conf):
        # a window floor under 1e-12 takes every positive grid time, not t = 0
        cfg = parse_config(json.dumps({
            "study": "bk_rate", "ladder": {"ns": [256, 512], "replications": 2},
            "M_t": 8, "M_alpha": 3, "threads": 1,
            "out_dir": str(tmp_path / "out"), **conf}))
        assert run_study(cfg)[0] == 0

    def test_window_floor_underflow_rejected(self, tmp_path, capsys):
        # eta < 1/(2H) = 500, but gamma0 * 128**-499 underflows to 0.0
        conf = {"study": "bk_rate", "H": 0.001, "eta": 499, "M_t": 8,
                "M_alpha": 3, "ladder": {"ns": [64, 128], "replications": 2}}
        assert experiments._window_floor(128, 0.25, 499.0) == 0.0
        match = (r"^eta must keep the window floor gamma0 \* n\*\*-eta "
                 r"positive at the ladder's largest n = 128; got eta=499\.0 "
                 r"with gamma0=0\.25, for which it underflows to 0$")
        with pytest.raises(ConfigError, match=match):
            parse_config(json.dumps(conf))
        _assert_cli_rejects(tmp_path, capsys, json.dumps(conf), match)
        # at eta = 160 the floor is 2**-962 at n = 64 and underflows at 128
        conf["eta"] = 160
        with pytest.raises(ConfigError, match="^eta must keep"):
            parse_config(json.dumps(conf))
        assert experiments._window_floor(64, 0.25, 160.0) == 2.0**-962
        cfg = parse_config(json.dumps({
            **conf, "ladder": {"ns": [32, 64], "replications": 2},
            "threads": 1, "out_dir": str(tmp_path / "out")}))
        assert run_study(cfg)[0] == 0

    def test_study_floors_are_reachable(self, tmp_path):
        cfg = parse_config(json.dumps({
            "study": "lil_trace", "T": 1, "M_t": 8, "threads": 1,
            "ladder": {"ns": [16, 32], "replications": 2},
            "out_dir": str(tmp_path / "lil")}))
        assert cfg.T == 1.0 and cfg.ladder.ns[0] == 16
        assert run_study(cfg)[0] == 0
        cfg = parse_config(json.dumps({
            "study": "classical_bk", "threads": 1,
            "ladder": {"ns": [3, 4], "replications": 2},
            "out_dir": str(tmp_path / "cbk")}))
        assert run_study(cfg)[0] == 0
        # bk_rate's horizon floor stays open
        with pytest.raises(ConfigError, match="T must exceed 1"):
            parse_config('{"study": "bk_rate", "T": 1}')

    def test_default_threads_are_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        assert parse_config('{"study": "swanson"}').threads == 3


class TestStudyRegistry:
    def test_keys_are_config_fields(self):
        names = {f.name for f in fields(RunConfig)}
        assert len(names) == 22
        for spec in STUDIES.values():
            assert set(spec.keys) <= names
            assert set(spec.defaults) <= set(spec.keys)

    @pytest.mark.parametrize("study", sorted(
        name for name, spec in STUDIES.items() if spec.function))
    def test_defaults_agree_with_study_function(self, study):
        # a study's defaults live in the runner and again in its function's
        # keyword defaults; both must resolve to the same values
        def as_lists(value):
            if isinstance(value, (tuple, list)):
                return [as_lists(v) for v in value]
            return value

        spec = STUDIES[study]
        params = inspect.signature(
            getattr(experiments, spec.function)).parameters
        cfg = parse_config(json.dumps({"study": study}))
        checked = 0
        for key in spec.keys:
            default = params["seed" if key == "master_seed" else key].default
            if default is not inspect.Parameter.empty:
                assert as_lists(getattr(cfg, key)) == as_lists(default), key
                checked += 1
        assert checked

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_round_trip_every_study(self, study):
        cfg = parse_config(json.dumps({"study": study}))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_study_function_looked_up_at_call_time(self, tmp_path, monkeypatch):
        calls = []
        inner = experiments.swanson_median_study

        def wrapped(*args, **kwargs):
            calls.append(kwargs)
            return inner(*args, **kwargs)

        monkeypatch.setattr(experiments, "swanson_median_study", wrapped)
        _run_tiny(tmp_path, "wrapped")
        assert len(calls) == 1
        assert calls[0]["seed"] == 42 and calls[0]["workers"] == 1


# one tiny in-process run of each study that samples ensembles
TINY_ENSEMBLE_STUDIES = {
    "bk_rate": {"M_t": 8, "M_alpha": 3,
                "ladder": {"ns": [16, 32, 64], "replications": 2}},
    "weighted_bk_rate": {"M_t": 8, "M_alpha": 3,
                         "ladder": {"ns": [16, 32, 64], "replications": 2}},
    "kernel_validation": {"n": 20, "R": 2, "x_nodes": [[0.5, 0], [1, 0]],
                          "alpha_nodes": [[1.5, 0.5]]},
    "swanson": {"n": 21, "R": 2, "times": [0.5, 1.0]},
    "lil_trace": {"T": 1, "M_t": 8,
                  "ladder": {"ns": [16, 32], "replications": 2}},
    "fbm_gen": {"n": 3, "M_t": 4},
    "tail_fit": {"n": 2000, "M_t": 8, "levels_y": [0.5, 1.0, 1.5]},
}


class TestStudyGrid:
    def test_every_ensemble_study_has_a_grid(self):
        sampling = {s for s, spec in STUDIES.items() if "sampler_id" in spec.keys}
        assert sampling == set(TINY_ENSEMBLE_STUDIES)
        assert {s for s, spec in STUDIES.items() if spec.grid} == sampling

    @pytest.mark.parametrize("study", sorted(TINY_ENSEMBLE_STUDIES))
    def test_workers_sample_the_checked_grid(self, tmp_path, monkeypatch,
                                             study):
        grids, seeds = [], []
        inner = fbm._sample  # the sampling step of every ensemble

        def recording(n, grid, H, sampler_id, master_seed):
            grids.append(grid)
            seeds.append((n, master_seed))
            return inner(n, grid, H, sampler_id, master_seed)

        monkeypatch.setattr(fbm, "_sample", recording)
        cfg = parse_config(json.dumps({
            "study": study, "threads": 1, "out_dir": str(tmp_path / study),
            **TINY_ENSEMBLE_STUDIES[study]}))
        run_study(cfg)
        want, _ = STUDIES[study].grid(cfg)
        assert grids and all(g == want for g in grids)
        # a study's replication r at size n samples from derive_seed(seed,
        # n, r); fbm_gen samples its one ensemble from the seed itself
        R = cfg.ladder.replications if cfg.ladder else (cfg.R or 1)
        for n, seed in seeds:
            assert seed in ({cfg.master_seed} if study == "fbm_gen"
                            else {derive_seed(cfg.master_seed, n, r)
                                  for r in range(R)})


    @pytest.mark.parametrize("study, conf", [
        ("bk_rate", {"T": 1e150, "H": 0.9}),
        ("bk_rate", {"T": 1e150, "H": 0.9, "sampler_id": "cholesky"}),
        ("fbm_gen", {"T": 1e-150, "H": 0.9}),
        ("swanson", {"times": [1e300]}),
        ("kernel_validation", {"sampler_id": "cholesky", "H": 0.9,
                               "x_nodes": [[1e-100, 0], [1e100, 0]],
                               "alpha_nodes": [[1e-100, 0.5], [1e100, 0.5]]}),
    ], ids=["bk_rate", "bk_rate-cholesky", "fbm_gen", "swanson",
            "kernel_validation"])
    def test_extreme_scales_in_range_run(self, tmp_path, study, conf):
        # far from 1 but with t**(2H) in range: finite numbers, no warning
        out = tmp_path / study
        cfg = parse_config(json.dumps({
            "study": study, "threads": 1, "out_dir": str(out),
            **TINY_ENSEMBLE_STUDIES[study], **conf}))
        code, files = run_study(cfg)
        assert code == 0
        for name in STUDIES[study].outputs:
            text = (out / name).read_text()
            assert "nan" not in text and "inf" not in text, name


def _tiny_config_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**TINY_SWANSON, "out_dir": str(tmp_path / name)}))
    return path


def _run_tiny(tmp_path, name, extra=None, force=False, check=False):
    conf = dict(TINY_SWANSON)
    conf["out_dir"] = str(tmp_path / name)
    if extra:
        conf.update(extra)
    cfg = parse_config(json.dumps(conf))
    return run_study(cfg, force=force, check=check), Path(conf["out_dir"])


class TestRunStudy:
    def test_outputs_written(self, tmp_path):
        (code, files), out = _run_tiny(tmp_path, "a")
        assert code == 0
        assert (out / "result.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        payload = json.loads((out / "result.json").read_text())
        assert payload["study"] == "swanson"
        assert "pass_flags" in payload
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"result.json", "summary.csv"}
        assert manifest["config_hash"]
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "n,mean,median,se,statistic"

    def test_manifest_records_memory_and_versions(self, tmp_path, monkeypatch):
        _, out = _run_tiny(tmp_path, "m")
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mb"], float)
        assert manifest["peak_rss_mb"] > 0.0
        # one thread runs no pool, so there is no worker peak to report
        assert manifest["worker_peak_rss_mb"] is None
        # a pool of two, even where fewer CPUs are usable
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        _, out = _run_tiny(tmp_path, "pool", {"threads": 2})
        manifest = json.loads((out / "manifest.json").read_text())
        worker = manifest["worker_peak_rss_mb"]
        assert isinstance(worker, float)
        assert 0.0 < worker <= manifest["peak_rss_mb"]
        versions = manifest["versions"]
        assert set(versions) == {"python", "numpy", "scipy", "libc"}
        # scipy is null when the run never loaded it (see TestImportFootprint)
        assert all(isinstance(v, str) and v
                   for v in (versions["python"], versions["numpy"]))
        assert versions["scipy"] is None or isinstance(versions["scipy"], str)
        assert versions["libc"] is None or isinstance(versions["libc"], str)

    @pytest.mark.parametrize("libc, recorded", [
        (("glibc", "2.99"), "glibc 2.99"), (("", ""), None)],
        ids=["known", "unknown"])
    def test_manifest_records_libc(self, tmp_path, monkeypatch, libc,
                                   recorded):
        # the manifest names the C library platform.libc_ver() finds, or
        # null; result.json and the CSVs do not, so their bytes stay those
        # of any other C library's run
        (_, files), out = _run_tiny(tmp_path, "plain")
        monkeypatch.setattr(runner.platform, "libc_ver", lambda: libc)
        (_, again), other = _run_tiny(tmp_path, "libc")
        manifest = json.loads((other / "manifest.json").read_text())
        assert manifest["versions"]["libc"] == recorded
        for f, g in zip(files, again):
            if Path(f).name != "manifest.json":
                assert Path(f).read_bytes() == Path(g).read_bytes()

    def test_failed_study_removes_the_out_dir_it_created(self, tmp_path, capsys):
        out = tmp_path / "new" / "out"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**UNREACHABLE_TAIL, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "nonzero tail probability" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_failed_study_keeps_an_existing_out_dir(self, tmp_path):
        # the files already there stay byte-identical, and the run adds
        # nothing, not even its staging directory: unforced into a
        # directory that holds none of its outputs, then forced over one
        out = tmp_path / "kept"
        out.mkdir()
        cfg = parse_config(json.dumps({**UNREACHABLE_TAIL, "out_dir": str(out)}))
        before = {}
        for force, name, data in ((False, "notes.txt", b"kept"),
                                  (True, "result.json", b"old result")):
            before[name] = data
            (out / name).write_bytes(data)
            with pytest.raises(DataError):
                run_study(cfg, force=force)
            assert {f.name: f.read_bytes() for f in out.iterdir()} == before
            assert os.listdir(tmp_path) == ["kept"]

    def test_collision_without_force(self, tmp_path):
        (_, files), out = _run_tiny(tmp_path, "b")
        first = {name: (out / name).read_bytes()
                 for name in ("result.json", "summary.csv")}
        for f in files:
            Path(f).write_bytes(b"stale")
        with pytest.raises(ConfigError, match="force"):
            _run_tiny(tmp_path, "b")
        assert all(Path(f).read_bytes() == b"stale" for f in files)
        # --force replaces every output of the complete set
        (code, again), _ = _run_tiny(tmp_path, "b", force=True)
        assert code == 0 and again == files
        assert {name: (out / name).read_bytes() for name in first} == first
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "result.json", "summary.csv"]
        assert sorted(os.listdir(out)) == ["manifest.json", "result.json",
                                           "summary.csv"]
        assert os.listdir(tmp_path) == ["b"]

    def test_force_removes_the_replaced_set(self, tmp_path):
        # a forced run over another study's set removes the files its
        # manifest lists, so out_dir holds only the new set and manifest;
        # files no manifest lists stay
        out = tmp_path / "out"
        for conf in ({"study": "fbm_gen", "n": 3, "M_t": 4, "threads": 1},
                     {"study": "kernel_eval", "kind": "swanson",
                      "kernel_nodes": [[1, 2]]}):
            run_study(parse_config(json.dumps({**conf, "out_dir": str(out)})),
                      force=True)
        assert sorted(os.listdir(out)) == ["kernels.csv", "manifest.json"]
        (out / "notes.txt").write_text("kept")
        _run_tiny(tmp_path, "out", force=True)
        assert sorted(os.listdir(out)) == ["manifest.json", "notes.txt",
                                           "result.json", "summary.csv"]

    @pytest.mark.parametrize("listed", [
        ["../outside.txt"], ["sub"], ["manifest.json"], "result.json", 7],
        ids=["parent", "directory", "manifest", "string", "number"])
    def test_force_removes_only_listed_files_in_out_dir(self, tmp_path,
                                                        listed):
        # a manifest's outputs name files directly in out_dir, never the
        # new manifest, a directory or a path outside; an outputs that is
        # not a list names nothing
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (tmp_path / "outside.txt").write_text("kept")
        (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
        _run_tiny(tmp_path, "out", force=True)
        assert (tmp_path / "outside.txt").read_text() == "kept"
        assert sorted(os.listdir(out)) == ["manifest.json", "result.json",
                                           "sub", "summary.csv"]

    @pytest.mark.parametrize("conf", [
        TINY_SWANSON, {"study": "fbm_gen", "n": 3, "M_t": 4, "threads": 1}],
        ids=["summary", "ensemble"])
    def test_failed_csv_write_publishes_nothing(self, tmp_path, monkeypatch,
                                                conf):
        # a CSV writer that raises mid-rows, into an out_dir the run would
        # create: the run leaves no file, temporary or directory, and the
        # next unforced run succeeds
        cfg = parse_config(json.dumps(
            {**conf, "out_dir": str(tmp_path / "new" / "out")}))
        staged_in = []
        write_csv = runner._write_csv

        def fails_mid_rows(path, header, rows):
            staged_in.append(path.parent.parent)

            def one_row_then_fail():
                yield next(iter(rows))
                raise OSError("disk full")
            write_csv(path, header, one_row_then_fail())

        monkeypatch.setattr(runner, "_write_csv", fails_mid_rows)
        with pytest.raises(OSError, match="disk full"):
            run_study(cfg)
        # staged in the nearest directory that exists
        assert staged_in == [tmp_path]
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        code, files = run_study(cfg)
        assert code == 0
        assert sorted(os.listdir(tmp_path / "new" / "out")) == sorted(
            Path(f).name for f in files)

    def test_byte_identical_reruns_and_thread_counts(self, tmp_path):
        (_, _), out1 = _run_tiny(tmp_path, "c1")
        (_, _), out2 = _run_tiny(tmp_path, "c2")
        (_, _), out8 = _run_tiny(tmp_path, "c8", extra={"threads": 8})
        r1 = (out1 / "result.json").read_bytes()
        assert r1 == (out2 / "result.json").read_bytes()
        assert r1 == (out8 / "result.json").read_bytes()
        s1 = (out1 / "summary.csv").read_bytes()
        assert s1 == (out2 / "summary.csv").read_bytes()
        assert s1 == (out8 / "summary.csv").read_bytes()

    def test_env_out_dir_override(self, tmp_path, monkeypatch, capsys):
        # without --out-dir, the CLI writes to TQPROC_OUT over the config's
        target = tmp_path / "env_dir"
        monkeypatch.setenv("TQPROC_OUT", str(target))
        cfg_path = _tiny_config_file(tmp_path, "ignored")
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (target / "result.json").exists()
        assert not (tmp_path / "ignored").exists()
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["config"]["out_dir"] == str(target)

    def test_out_dir_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TQPROC_OUT", str(tmp_path / "env_dir"))
        cfg_path = _tiny_config_file(tmp_path, "ignored")
        flag = tmp_path / "flag_dir"
        assert main(["run", "--config", str(cfg_path),
                     "--out-dir", str(flag)]) == 0
        assert (flag / "result.json").exists()
        assert not (tmp_path / "env_dir").exists()
        manifest = json.loads((flag / "manifest.json").read_text())
        assert manifest["config"]["out_dir"] == str(flag)

    def test_run_study_reads_no_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TQPROC_OUT", str(tmp_path / "env_dir"))
        (code, _), out = _run_tiny(tmp_path, "cfg_dir")
        assert code == 0
        assert (out / "result.json").exists()
        assert not (tmp_path / "env_dir").exists()

    def test_fbm_gen_streams_its_rows(self, tmp_path):
        # the CSV rows are written as they are made: the run holds about one
        # ensemble, not a Python object per value
        conf = {"study": "fbm_gen", "master_seed": 3, "n": 8000, "M_t": 64,
                "out_dir": str(tmp_path / "big"), "threads": 1}
        cfg = parse_config(json.dumps(conf))
        grid = GridSpec.uniform_grid(cfg.T, cfg.M_t, include_zero=True)
        tracemalloc.start()
        try:
            run_study(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * ensemble_bytes(cfg.n, grid, cfg.sampler_id)
        with (tmp_path / "big" / "ensemble.csv").open() as f:
            assert sum(1 for _ in f) == 1 + 8000 * grid.M

    def test_check_mode_pass(self, tmp_path):
        conf = {"study": "tail_fit", "master_seed": 7, "n": 20000, "M_t": 32,
                "levels_y": [1.0, 1.5, 2.0, 2.5],
                "out_dir": str(tmp_path / "ok"), "threads": 1}
        cfg = parse_config(json.dumps(conf))
        code, _ = run_study(cfg, check=True)
        assert code == 0

    def test_check_mode_failure_exit_2(self, tmp_path):
        # a 30-replication variance estimate cannot sit within 5% of pi/2
        (code, _), out = _run_tiny(tmp_path, "fail", extra={"times": [0.5, 1.0, 4.0]},
                                   check=True)
        payload = json.loads((out / "result.json").read_text())
        if all(payload["pass_flags"].values()):
            pytest.skip("tiny run happened to pass every flag")
        assert code == 2

    def test_fbm_gen_outputs(self, tmp_path):
        conf = {"study": "fbm_gen", "master_seed": 5, "n": 4, "M_t": 3,
                "T": 1.0, "out_dir": str(tmp_path / "gen"), "threads": 1}
        cfg = parse_config(json.dumps(conf))
        code, files = run_study(cfg)
        assert code == 0
        out = tmp_path / "gen"
        lines = (out / "ensemble.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,value"
        assert len(lines) == 1 + 4 * 3
        # all paths anchored at 0
        zero_rows = [ln for ln in lines[1:] if ln.split(",")[1] == "0.0"]
        assert all(ln.split(",")[2] == "0.0" for ln in zero_rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["study"] == "fbm_gen"

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_manifest_config_runs_again(self, tmp_path, study):
        tiny = {**TINY_ENSEMBLE_STUDIES,
                "classical_bk": {"ladder": {"ns": [16, 32], "replications": 2}},
                "kernel_eval": {"kind": "K"}}[study]
        cfg = parse_config(json.dumps({
            "study": study, "threads": 1, "out_dir": str(tmp_path / study),
            **tiny}))
        _, files = run_study(cfg)
        manifest = json.loads((tmp_path / study / "manifest.json").read_text())
        assert parse_config(json.dumps(manifest["config"])) == cfg
        # the study's writer makes exactly the outputs it declares
        outputs = list(STUDIES[study].outputs)
        assert manifest["outputs"] == outputs
        assert files == [str(tmp_path / study / name)
                         for name in outputs + ["manifest.json"]]
        assert sorted(os.listdir(tmp_path / study)) == sorted(
            outputs + ["manifest.json"])

    def test_kernel_eval_outputs(self, tmp_path):
        conf = {"study": "kernel_eval", "kind": "swanson",
                "out_dir": str(tmp_path / "ke"), "threads": 1}
        cfg = parse_config(json.dumps(conf))
        code, _ = run_study(cfg)
        assert code == 0
        lines = (tmp_path / "ke" / "kernels.csv").read_text().splitlines()
        assert lines[0] == "kind,t1,a1,t2,a2,value"
        assert len(lines) == 1 + 55  # upper triangle of a 10x10 grid


class TestCli:
    def test_kernel_swanson(self, capsys):
        assert main(["kernel", "swanson", "1", "4"]) == 0
        out = capsys.readouterr().out.strip()
        kind, t1, a1, t2, a2, value = out.split(",")
        assert kind == "swanson" and a1 == "" and a2 == ""
        assert float(value) == pytest.approx(1.0471975511965976, abs=1e-9)

    def test_kernel_g(self, capsys):
        assert main(["kernel", "G", "1", "0", "1", "0", "--hurst", "0.5"]) == 0
        value = float(capsys.readouterr().out.strip().split(",")[-1])
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_kernel_weighted_k(self, capsys):
        assert main(["kernel", "weightedK", "1", "0.5", "4", "0.5",
                     "--hurst", "0.5"]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert out[0] == "weightedK"
        assert float(out[-1]) == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_kernel_swanson_tiny_times(self, capsys):
        # t1 * t2 underflows to 0; the kernel is still t * pi / 2
        assert main(["kernel", "swanson", "1e-200", "1e-200"]) == 0
        value = float(capsys.readouterr().out.strip().split(",")[-1])
        assert value == pytest.approx(1e-200 * math.pi / 2.0, rel=1e-15)

    @pytest.mark.parametrize("argv, want", [
        # far apart the correlation is about 1e-40, so G and K read 0
        (["K", "1e-200", "0.5", "1e200", "0.5", "--hurst", "0.9"], 0.0),
        (["G", "1e-200", "0", "1e200", "0", "--hurst", "0.9"], 0.0),
        # the kernel is scale-free: it reads as at (1, 2)
        (["K", "1e300", "0.5", "2e300", "0.6", "--hurst", "0.9"],
         analytic.kernel_eval("K", 1.0, 0.5, 2.0, 0.6, H=0.9)),
        # at q = t1/t2 near 1e-20 the correlation is q^H / 2 + H q^{1-H}
        # to double precision, and K at the medians is its arcsine / 2 pi
        (["K", "1e-320", "0.5", "1e-300", "0.5", "--hurst", "0.9"],
         math.asin(0.5 * (1e-320 / 1e-300) ** 0.9
                   + 0.9 * (1e-320 / 1e-300) ** 0.1) / (2.0 * math.pi)),
        # at q = 1e-20 in the normal float range the same holds; the
        # correlation is 0.009 at H 0.9 and sqrt(q) at H 1/2
        (["K", "1", "0.5", "1e20", "0.5", "--hurst", "0.9"],
         math.asin(0.009) / (2.0 * math.pi)),
        (["K", "1", "0.5", "1e20", "0.5"], math.asin(1e-10) / (2.0 * math.pi)),
    ], ids=["K-far-apart", "G-far-apart", "K-huge", "K-subnormal",
            "K-far-normal", "K-far-normal-brownian"])
    def test_kernel_extreme_times(self, capsys, argv, want):
        assert main(["kernel", *argv]) == 0
        value = float(capsys.readouterr().out.strip().split(",")[-1])
        assert value == pytest.approx(want, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("argv, spelled", [
        (["G", "1", "0.5", "2", "-1e-3"], ["G", "1", "0.5", "2", "-0.001"]),
        (["G", "1", "0.5", "2", "0", "--kappa", "-1e-3"],
         ["G", "1", "0.5", "2", "0", "--kappa", "-0.001"]),
    ], ids=["node", "kappa"])
    def test_kernel_negative_exponent(self, capsys, argv, spelled):
        # a negative number written with an exponent is a number, not an
        # option, and reads as its decimal spelling does
        assert main(["kernel", *spelled]) == 0
        row = capsys.readouterr().out
        assert main(["kernel", *argv]) == 0
        assert capsys.readouterr().out == row

    def test_kernel_bad_arity(self, capsys):
        assert main(["kernel", "swanson", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_kernel_hurst_only_by_flag(self, capsys):
        # a fifth positional number is a malformed node, not H
        assert main(["kernel", "G", "1", "0", "1", "0", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: kernel_nodes must be a non-empty "
                                       "list of [t1, a1, t2, a2] quadruples")

    @pytest.mark.parametrize("argv, match", [
        (["K", "1", "0", "4", "0.5"], "kernel_nodes levels must lie in (0, 1)"),
        (["K", "1", "-1e-3", "4", "0.5"],
         "kernel_nodes levels must lie in (0, 1)"),
        (["G", "0", "0", "4", "0"], "kernel_nodes times must be positive"),
        (["G", "1", "0", "4", "0", "--hurst", "1.5"], "H must satisfy 0 < H < 1"),
        (["weightedK", "1e300", "0.5", "2e300", "0.6", "--hurst", "0.9"],
         "H=0.9 makes the weight t1^H t2^H overflow"),
        (["swanson", "1", "2", "--hurst", "0.3"],
         "H must be 0.5 for kind 'swanson'"),
    ], ids=["K-level", "K-level-exponent", "G-time", "H-range",
            "weightedK-overflow", "swanson-H"])
    def test_kernel_checked_as_config(self, capsys, argv, match):
        assert main(["kernel", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {match}")

    def test_kernel_non_numeric_argument(self, capsys):
        assert main(["kernel", "swanson", "a", "b"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'a'" in err

    @pytest.mark.parametrize("argv, match", [
        (["swanson", "inf", "1"], "kernel_nodes must be a finite number"),
        (["G", "1", "0", "4", "0", "--kappa", "nan"],
         "--kappa must be a finite number"),
        (["K", "1", "0.5", "4", "0.5", "--hurst", "nan"],
         "H must be a finite number"),
    ], ids=["swanson-inf", "G-kappa-nan", "K-hurst-nan"])
    def test_kernel_nonfinite_argument(self, capsys, argv, match):
        assert main(["kernel", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {match}")

    @pytest.mark.parametrize("argv, match", [
        (["G", "1", "0", "4", "0", "--kappa", "1e300"],
         r"kappa=1e\+300 makes the weight \(t1 t2\)\^kappa overflow"),
        # t1 t2 overflows, or underflows under a negative kappa
        (["G", "1e300", "0", "2e300", "0", "--hurst", "0.9", "--kappa", "1"],
         r"kappa=1.0 makes the weight \(t1 t2\)\^kappa overflow"),
        (["G", "1e-200", "0", "1e-200", "0", "--kappa", "-1"],
         r"kappa=-1.0 makes the weight \(t1 t2\)\^kappa overflow"),
        (["G", "1e-200", "0", "1e-200", "0", "--kappa", "-1e0"],
         r"kappa=-1.0 makes the weight \(t1 t2\)\^kappa overflow"),
        (["K", "1", "0.5", "4", "0.5", "--kappa", "0.3"],
         r"kappa weights kind G only; got kind 'K'"),
        (["weightedK", "1", "0.5", "4", "0.5", "--kappa", "0.3"],
         r"kappa weights kind G only; got kind 'weightedK'"),
        (["swanson", "1", "4", "--kappa", "0.3"],
         r"kappa weights kind G only; got kind 'swanson'"),
    ], ids=["G-overflow", "G-times-overflow", "G-times-underflow",
            "G-times-underflow-exponent", "K", "weightedK", "swanson"])
    def test_kernel_kappa_rejected(self, capsys, argv, match):
        assert main(["kernel", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {match}\n", captured.err)

    @pytest.mark.parametrize("text, match", [
        ('{"study": ', "config is not well-formed JSON"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["malformed", "not-object"])
    def test_cli_overrides_leave_json_errors_to_parse_config(
            self, tmp_path, capsys, text, match):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError) as parsed:
            parse_config(text)
        assert str(parsed.value).startswith(match)
        assert main(["run", "--config", str(cfg_path), "--threads", "1",
                     "--out-dir", str(tmp_path / "never")]) == 1
        assert capsys.readouterr().err == f"error: {parsed.value}\n"
        assert not (tmp_path / "never").exists()

    def test_run_and_check_cli(self, tmp_path, capsys):
        conf = dict(TINY_SWANSON)
        conf["out_dir"] = str(tmp_path / "cli")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "result.json" in out
        # rerun without --force fails cleanly
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert main(["run", "--config", str(cfg_path), "--force"]) == 0

    def test_cli_threads_override(self, tmp_path):
        conf = dict(TINY_SWANSON)
        conf["out_dir"] = str(tmp_path / "thr")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        assert main(["run", "--config", str(cfg_path), "--threads", "2"]) == 0
        manifest = json.loads((tmp_path / "thr" / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 2

    def test_gen_cli(self, tmp_path):
        # an ensemble is exported by running the fbm_gen study
        conf = {"study": "fbm_gen", "master_seed": 1, "n": 3, "M_t": 4,
                "T": 1.0, "out_dir": str(tmp_path / "g2"), "threads": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "g2" / "ensemble.csv").exists()
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", str(cfg_path)])
        assert exc.value.code == 2

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"study": "swanson", "foo": 1}')
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "foo" in capsys.readouterr().err


class TestFieldExports:
    def test_ensemble_export_manifest(self, tmp_path):
        from tqproc.fbm import GridSpec, make_ensemble
        from tqproc.runner import export_ensemble

        grid = GridSpec.uniform_grid(1.0, 4)
        e = make_ensemble(3, grid, 0.7, sampler_id="cholesky", master_seed=9)
        export_ensemble(e, tmp_path / "ens.csv")
        manifest = json.loads((tmp_path / "ens.manifest.json").read_text())
        assert manifest["H"] == 0.7
        assert manifest["sampler_id"] == "cholesky"
        assert manifest["master_seed"] == 9
        assert manifest["grid_times"] == [0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("nested", [True, False], ids=["new-dir", "dir"])
    def test_failed_export_publishes_nothing(self, tmp_path, monkeypatch,
                                             nested):
        # the CSV writer raises mid-rows: no CSV, sidecar, temporary or
        # directory is left, and the next export succeeds
        from tqproc.runner import export_ensemble

        e = make_ensemble(3, GridSpec.uniform_grid(1.0, 4), 0.5)
        path = tmp_path / "new" / "ens.csv" if nested else tmp_path / "ens.csv"
        write_csv = runner._write_csv

        def fails_mid_rows(path, header, rows):
            def one_row_then_fail():
                yield next(iter(rows))
                raise OSError("disk full")
            write_csv(path, header, one_row_then_fail())

        monkeypatch.setattr(runner, "_write_csv", fails_mid_rows)
        with pytest.raises(OSError, match="disk full"):
            export_ensemble(e, path)
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        files = export_ensemble(e, path)
        assert files == [str(path), str(path.parent / "ens.manifest.json")]
        assert sorted(os.listdir(path.parent)) == ["ens.csv",
                                                   "ens.manifest.json"]
        assert len(path.read_text().splitlines()) == 1 + 3 * 4

    def test_manifest_published_last(self, tmp_path, monkeypatch):
        # a run's manifest.json means its set of files is complete
        published = []
        replace = os.replace

        def recording(src, dst):
            published.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        cfg = parse_config(json.dumps({
            "study": "fbm_gen", "n": 3, "M_t": 4, "threads": 1,
            "out_dir": str(tmp_path / "gen")}))
        run_study(cfg)
        assert published[-1] == "manifest.json"
        assert sorted(published) == ["ensemble.csv", "ensemble.manifest.json",
                                     "manifest.json"]


# Run in a fresh interpreter: tiny swanson, bk_rate and weighted_bk_rate
# studies, then one bivariate normal CDF; reports whether scipy.integrate was
# loaded after each.
_FOOTPRINT_SCRIPT = """
import json, sys
from tqproc import analytic, runner
rate = {"master_seed": 1, "M_t": 8, "M_alpha": 3, "threads": 1,
        "ladder": {"ns": [16, 32], "replications": 2}}
confs = [{"study": "swanson", "master_seed": 1, "n": 21, "R": 4,
          "times": [0.5, 1.0], "threads": 1, "out_dir": sys.argv[1] + "/s"},
         {"study": "bk_rate", **rate, "out_dir": sys.argv[1] + "/b"},
         {"study": "weighted_bk_rate", **rate, "out_dir": sys.argv[1] + "/w"}]
for conf in confs:
    runner.run_study(runner.parse_config(json.dumps(conf)))
studies_loaded = "scipy.integrate" in sys.modules
value = analytic.bivariate_normal_cdf(0.3, -0.2, 0.4)
print(json.dumps({"studies_loaded": studies_loaded,
                  "cdf_loaded": "scipy.integrate" in sys.modules,
                  "value": value.hex()}))
"""


# Run in a fresh interpreter: import the runner, parse the config in the
# first argument and run it; reports which of the modules named in the
# second were loaded after the import, after parse_config, on entry to the
# study's worker pool (experiments._run_tasks, for a study that has one)
# and after the run.  The pool gets the workers the config asks for,
# however few CPUs the machine has.
_STEPS_SCRIPT = """
import json, sys
def loaded():
    return sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)
from tqproc import experiments, runner
experiments.usable_cpus = lambda: 64
steps = {"import": loaded()}
run_tasks = experiments._run_tasks
def entered(worker, tasks, workers):
    steps.setdefault("pool", loaded())
    return run_tasks(worker, tasks, workers)
experiments._run_tasks = entered
cfg = runner.parse_config(sys.argv[1])
steps["parse"] = loaded()
runner.run_study(cfg)
steps["run"] = loaded()
print(json.dumps(steps))
"""

# Run in a fresh interpreter: make numpy.partition raise, then parse the
# config in the first argument and run it.  The pool gets the workers the
# config asks for, and they inherit the patch.
_NO_PARTITION_SCRIPT = """
import json, sys
import numpy
def partition(*args, **kwargs):
    raise AssertionError("numpy.partition called")
numpy.partition = partition
from tqproc import experiments, runner
experiments.usable_cpus = lambda: 64
runner.run_study(runner.parse_config(sys.argv[1]))
print(json.dumps({"ran": True}))
"""

# a tiny config of every study; kernel_eval's swanson kernel evaluates no
# normal CDF
FOOTPRINT_CONFIGS = {
    **TINY_ENSEMBLE_STUDIES,
    "classical_bk": {"ladder": {"ns": [16, 32], "replications": 2}},
    "kernel_eval": {"kind": "swanson", "kernel_nodes": [[1, 2]]},
}
# the studies that evaluate the normal CDF, and so load scipy.special before
# their pool starts: kernel_validation's parent evaluates it at the x nodes,
# lil_trace's tasks do; the normal quantile is computed in-repo, so the rate
# studies need no scipy.special
NORMAL_CDF_STUDIES = {"kernel_validation", "lil_trace"}
# the studies that run no worker pool; tail_fit samples its one
# replication in the run process
POOLLESS_STUDIES = {"fbm_gen", "kernel_eval", "tail_fit"}


def _fresh_python(*args: str) -> dict:
    """Run ``python -c`` args in a fresh interpreter that imports this
    tqproc; return the JSON object on the last line of its stdout."""
    src = str(Path(tqproc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_marked_studies(self):
        # every study has a tiny config, and the marked sets name studies
        assert set(FOOTPRINT_CONFIGS) == set(STUDIES)
        assert NORMAL_CDF_STUDIES | POOLLESS_STUDIES <= set(STUDIES)

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_scipy_special_loaded_before_the_pool(self, tmp_path, study):
        # neither the runner's import nor parse_config loads scipy.special,
        # scipy, numpy.ma or argparse; a study in NORMAL_CDF_STUDIES has
        # loaded scipy.special when its pool starts, so forked workers
        # inherit it, and no run of another study loads any of them
        out = tmp_path / "out"
        conf = {"study": study, "threads": 1, "out_dir": str(out),
                **FOOTPRINT_CONFIGS[study]}
        steps = _fresh_python(_STEPS_SCRIPT, json.dumps(conf), json.dumps(
            ["argparse", "numpy.ma", "scipy", "scipy.special"]))
        cdf_steps = {"pool", "run"} if study in NORMAL_CDF_STUDIES else set()
        want = {"import", "parse", "run"}
        if study not in POOLLESS_STUDIES:
            want.add("pool")
        assert set(steps) == want
        for step, modules in steps.items():
            if step in cdf_steps:
                assert "scipy.special" in modules
            else:
                assert modules == []
        # the manifest names the scipy the run loaded, or none
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == (
            scipy.__version__ if cdf_steps else None)

    @pytest.mark.parametrize("study", sorted(set(STUDIES) - POOLLESS_STUDIES))
    def test_pooled_parent_loads_no_numpy_random(self, tmp_path, study):
        # the noise fill loads numpy.random on a process's first draw, and
        # the parent of a pool draws none: only its forked workers load it.
        # scipy.special imports numpy.random itself (through scipy's
        # array-API layer), so a study that loads it before its pool has
        # both there
        out = tmp_path / "out"
        conf = {"study": study, "threads": 2, "out_dir": str(out),
                **FOOTPRINT_CONFIGS[study]}
        steps = _fresh_python(_STEPS_SCRIPT, json.dumps(conf),
                              json.dumps(["numpy.random", "scipy.special"]))
        scipy_loaded = (["numpy.random", "scipy.special"]
                        if study in NORMAL_CDF_STUDIES else [])
        assert steps == {"import": [], "parse": [], "pool": scipy_loaded,
                         "run": scipy_loaded}
        # the workers ran the tasks
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["worker_peak_rss_mb"] is not None

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_no_pool_machinery_loaded(self, tmp_path, study):
        # the pool forks its workers by hand: no step of a run loads
        # multiprocessing or concurrent.futures, nor the logging and socket
        # they bring.  scipy.special loads concurrent.futures, logging and
        # socket itself, so a study in NORMAL_CDF_STUDIES has them from
        # its pool on
        conf = {"study": study, "threads": 2, "out_dir": str(tmp_path / "out"),
                **FOOTPRINT_CONFIGS[study]}
        steps = _fresh_python(_STEPS_SCRIPT, json.dumps(conf), json.dumps(
            ["concurrent.futures", "logging", "multiprocessing", "socket"]))
        cdf_steps = {"pool", "run"} if study in NORMAL_CDF_STUDIES else set()
        for step, modules in steps.items():
            assert modules == (["concurrent.futures", "logging", "socket"]
                               if step in cdf_steps else [])

    @pytest.mark.parametrize("study", sorted(set(STUDIES) - POOLLESS_STUDIES))
    def test_pooled_run_calls_no_numpy_partition(self, tmp_path, study):
        # medians are taken from a Python sort, so a run process never
        # loads numpy's selection kernels, and the workers sort in place
        out = tmp_path / "out"
        conf = {"study": study, "threads": 2, "out_dir": str(out),
                **FOOTPRINT_CONFIGS[study]}
        assert _fresh_python(_NO_PARTITION_SCRIPT, json.dumps(conf)) == {
            "ran": True}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["worker_peak_rss_mb"] is not None

    @pytest.mark.parametrize("study", sorted(NORMAL_CDF_STUDIES))
    def test_marked_studies_evaluate_the_normal_cdf(self, tmp_path,
                                                    monkeypatch, study):
        # kernel_validation evaluates it in the parent, at its x nodes, and
        # not in its tasks; lil_trace's tasks evaluate it
        calls = {"parent": 0, "tasks": 0, "after": 0}
        where = ["parent"]
        cdf, run_tasks = analytic.std_normal_cdf, experiments._run_tasks

        def counted_cdf(x):
            calls[where[0]] += 1
            return cdf(x)

        def entered(worker, tasks, workers):
            where[0] = "tasks"
            try:
                return run_tasks(worker, tasks, workers)
            finally:
                where[0] = "after"

        monkeypatch.setattr(analytic, "std_normal_cdf", counted_cdf)
        monkeypatch.setattr(experiments, "_run_tasks", entered)
        conf = {"study": study, "threads": 1, "out_dir": str(tmp_path / "out"),
                **FOOTPRINT_CONFIGS[study]}
        run_study(parse_config(json.dumps(conf)))
        in_parent = study == "kernel_validation"
        assert (calls["parent"] > 0, calls["tasks"] > 0) == (in_parent,
                                                            not in_parent)

    def test_scipy_integrate_loads_only_for_the_bivariate_cdf(self, tmp_path):
        report = _fresh_python(_FOOTPRINT_SCRIPT, str(tmp_path))
        assert report["studies_loaded"] is False
        assert report["cdf_loaded"] is True
        expected = analytic.bivariate_normal_cdf(0.3, -0.2, 0.4)
        assert float.fromhex(report["value"]) == expected
