"""Configuration parsing, CLI surface, persistence, and determinism."""

import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from tqproc import experiments
from tqproc.errors import ConfigError, DataError
from tqproc.runner import (STUDIES, RunConfig, main, parse_config, run_study,
                           serialize_config)


TINY_SWANSON = {"study": "swanson", "master_seed": 42, "n": 51, "R": 30,
                "times": [0.5, 1.0], "threads": 1}
# valid config whose study fails once it runs: no path reaches the levels
UNREACHABLE_TAIL = {"study": "tail_fit", "n": 10, "M_t": 4,
                    "levels_y": [100, 200, 300], "threads": 1}


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
    ], ids=["T-inf", "kappa-inf", "x_nodes-nan", "alpha_nodes-range",
            "times-inf", "levels_y-nan", "kernel_nodes-range"])
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


class TestStudyRegistry:
    def test_keys_are_config_fields(self):
        names = {f.name for f in fields(RunConfig)}
        assert len(names) == 22
        for spec in STUDIES.values():
            assert set(spec.keys) <= names
            assert set(spec.defaults) <= set(spec.keys)

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

    def test_failed_study_removes_the_out_dir_it_created(self, tmp_path, capsys):
        out = tmp_path / "new" / "out"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**UNREACHABLE_TAIL, "out_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "nonzero tail probability" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_failed_study_keeps_an_existing_out_dir(self, tmp_path):
        out = tmp_path / "kept"
        out.mkdir()
        cfg = parse_config(json.dumps({**UNREACHABLE_TAIL, "out_dir": str(out)}))
        with pytest.raises(DataError):
            run_study(cfg)
        assert out.is_dir()

    def test_collision_without_force(self, tmp_path):
        _run_tiny(tmp_path, "b")
        with pytest.raises(ConfigError, match="force"):
            _run_tiny(tmp_path, "b")
        (code, _), _ = _run_tiny(tmp_path, "b", force=True)
        assert code == 0

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

    def test_env_out_dir_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_dir"
        monkeypatch.setenv("TQPROC_OUT", str(target))
        (code, files), _ = _run_tiny(tmp_path, "ignored")
        assert code == 0
        assert (target / "result.json").exists()

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
        assert main(["kernel", "G", "1", "0", "1", "0", "0.5"]) == 0
        value = float(capsys.readouterr().out.strip().split(",")[-1])
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_kernel_weighted_k(self, capsys):
        assert main(["kernel", "weightedK", "1", "0.5", "4", "0.5", "0.5"]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert out[0] == "weightedK"
        assert float(out[-1]) == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_kernel_bad_arity(self, capsys):
        assert main(["kernel", "swanson", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_kernel_non_numeric_argument(self, capsys):
        assert main(["kernel", "swanson", "a", "b"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'a'" in err

    @pytest.mark.parametrize("argv, name", [
        (["swanson", "inf", "1"], "t1"),
        (["G", "1", "0", "4", "0", "--kappa", "nan"], "--kappa"),
        (["K", "1", "0.5", "4", "0.5", "--hurst", "nan"], "--hurst"),
    ], ids=["swanson-inf", "G-kappa-nan", "K-hurst-nan"])
    def test_kernel_nonfinite_argument(self, capsys, argv, name):
        assert main(["kernel", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"argument {name} " in captured.err

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
        conf = {"study": "fbm_gen", "master_seed": 1, "n": 3, "M_t": 4,
                "T": 1.0, "out_dir": str(tmp_path / "g2"), "threads": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "g2" / "ensemble.csv").exists()

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"study": "swanson", "foo": 1}')
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "foo" in capsys.readouterr().err


class TestFieldExports:
    def test_remainder_field_export(self, tmp_path):
        from tqproc import empirical
        from tqproc.empirical import LevelGrid
        from tqproc.fbm import GridSpec, make_ensemble
        from tqproc.runner import export_remainder_field

        grid = GridSpec.uniform_grid(2.0, 9, include_zero=True)
        e = make_ensemble(32, grid, 0.5, master_seed=3)
        lv = LevelGrid.uniform(0.2, 3)
        fld = empirical.bk_remainder_field(e, lv, weighted=True)
        files = export_remainder_field(fld, tmp_path / "field.csv")
        lines = (tmp_path / "field.csv").read_text().splitlines()
        assert lines[0] == "t,alpha,R_n"
        assert len(lines) == 1 + 9 * 3
        manifest = json.loads((tmp_path / "field.manifest.json").read_text())
        assert manifest["weighted"] is True
        assert manifest["sup_norm"] == fld.sup_norm
        assert len(files) == 2

    def test_tie_stats_export(self, tmp_path):
        from tqproc import empirical
        from tqproc.empirical import LevelGrid
        from tqproc.fbm import GridSpec, make_ensemble
        from tqproc.runner import export_tie_stats

        grid = GridSpec.uniform_grid(1.0, 5)
        e = make_ensemble(40, grid, 0.5, master_seed=4)
        ties = empirical.tie_stats(e, LevelGrid.uniform(0.25, 3))
        export_tie_stats(ties, tmp_path / "ties.csv")
        lines = (tmp_path / "ties.csv").read_text().splitlines()
        assert lines[0] == "t,alpha,delta_n"
        assert len(lines) == 1 + 5 * 3
        manifest = json.loads((tmp_path / "ties.manifest.json").read_text())
        assert manifest["m_bound"] == 10
        assert manifest["max_violation"] <= 0.0

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
