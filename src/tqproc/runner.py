"""Configuration, CLI, orchestration, and persistence.

This is the only module with side effects.  A run is a pure function of
(config, master_seed): result files use canonical JSON (sorted keys) and
shortest-round-trip float formatting, so identical configurations produce
byte-identical ``result.json`` and ``summary.csv`` at any worker count.
The run manifest additionally records wall-clock timestamps and is the one
output excluded from the byte-identity contract.

Exit codes: 0 success, 1 error, 2 check-mode failure (some pass flag false).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, analytic, experiments
from .empirical import RemainderField, TieStats
from .errors import ConfigError, DataError, DomainError, NumericError
from .experiments import NLadder
from .fbm import Ensemble, GridSpec, make_ensemble

__all__ = ["RunConfig", "parse_config", "serialize_config", "run_study",
           "export_remainder_field", "export_tie_stats", "export_ensemble",
           "main"]

ENV_OUT_DIR = "TQPROC_OUT"


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved, validated run configuration."""
    study: str
    H: float
    T: float
    rho: float
    eta: float
    gamma0: float
    kappa: float
    ladder: NLadder | None
    n: int | None
    R: int | None
    M_t: int
    M_alpha: int
    sampler_id: str
    master_seed: int
    threads: int
    out_dir: str
    times: tuple[float, ...] | None
    x_nodes: tuple[tuple[float, float], ...] | None
    alpha_nodes: tuple[tuple[float, float], ...] | None
    levels_y: tuple[float, ...] | None
    kind: str | None
    kernel_nodes: tuple[tuple, ...] | None


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))
# read by the runner itself for every study; --threads may override any run
_RUN_KEYS = frozenset({"study", "threads", "out_dir"})


def _want(cfg: dict, key: str, typ, default, check=None, msg: str = ""):
    val = cfg.get(key, default)
    if val is None:
        return None
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if typ is float and isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{key} must be a finite number; got {val!r}")
    if typ is int and (isinstance(val, bool) or not isinstance(val, int)):
        raise ConfigError(f"{key} must be an integer; got {val!r}")
    if not isinstance(val, typ):
        raise ConfigError(f"{key} must be of type {typ.__name__}; got {val!r}")
    if check is not None and not check(val):
        raise ConfigError(f"{key} {msg}; got {val!r}")
    return val


def _numbers(cfg: dict, key: str):
    raw = cfg.get(key)
    if raw is None:
        return None
    try:
        values = tuple(float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a list of numbers") from exc
    if not values:
        raise ConfigError(f"{key} must be a non-empty list of numbers")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} must hold finite numbers; got {list(values)}")
    return values


def _nodes(cfg: dict, key: str, width: int, shape: str, times=(0,),
           levels=(), zero_time: bool = False):
    """A list of ``width``-tuples of finite numbers.  The entries at the
    ``times`` positions are times and must be positive (nonnegative with
    ``zero_time``); those at the ``levels`` positions are quantile levels
    and must lie in (0, 1)."""
    raw = cfg.get(key)
    if raw is None:
        return None
    try:
        nodes = tuple(tuple(float(v) for v in row) for row in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a list of {shape}") from exc
    if not nodes or any(len(row) != width for row in nodes):
        raise ConfigError(f"{key} must be a non-empty list of {shape}")
    if not all(math.isfinite(v) for row in nodes for v in row):
        raise ConfigError(f"{key} must hold finite numbers")
    if not all(row[i] > 0.0 or (zero_time and row[i] == 0.0)
               for row in nodes for i in times):
        rule = "nonnegative" if zero_time else "positive"
        raise ConfigError(f"{key} times must be {rule}")
    if not all(0.0 < row[i] < 1.0 for row in nodes for i in levels):
        raise ConfigError(f"{key} levels must lie in (0, 1)")
    return nodes


def _ladder(cfg: dict, default: dict) -> NLadder:
    raw = cfg["ladder"]
    if not isinstance(raw, dict):
        raise ConfigError('ladder must be an object {"ns": [...], '
                          '"replications": int}')
    extra = set(raw) - {"ns", "replications"}
    if extra:
        raise ConfigError(f"unknown ladder key(s): {sorted(extra)}")
    raw = {**default, **raw}
    try:
        return NLadder(ns=tuple(int(v) for v in raw["ns"]),
                       replications=int(raw["replications"]))
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"ladder: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration, applying study defaults.

    Unknown keys, and keys the chosen study does not read, are rejected;
    every module precondition on the numeric parameters is re-validated
    here with a message naming the field.
    """
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")

    study = cfg.get("study")
    if study not in STUDIES:
        raise ConfigError(f"study must be one of {list(STUDIES)}; got {study!r}")
    spec = STUDIES[study]
    unread = set(cfg) - _RUN_KEYS - set(spec.keys)
    if unread:
        raise ConfigError(f"study {study!r} does not read config key(s) "
                          f"{sorted(unread)}; it reads {sorted(spec.keys)}")
    # null never means "use the default": omitting the key does that
    nulls = sorted(key for key, val in cfg.items() if val is None)
    if nulls:
        raise ConfigError(f"config key(s) {nulls} must not be null; omit a "
                          f"key to use its default")
    cfg = {**spec.defaults, **cfg}

    H = _want(cfg, "H", float, 0.5, lambda v: 0.0 < v < 1.0,
              "must satisfy 0 < H < 1")
    T = _want(cfg, "T", float, 2.0, lambda v: v > spec.T_floor,
              f"must exceed {spec.T_floor:g} for study {study!r}")
    rho = _want(cfg, "rho", float, 0.1, lambda v: 0.0 < v < 0.5,
                "must lie in (0, 1/2)")
    eta = _want(cfg, "eta", float, 0.0,
                lambda v: 0.0 <= v < 1.0 / (2.0 * H),
                f"must satisfy 0 <= eta < 1/(2H) = {1.0 / (2.0 * H):.6g}")
    gamma0 = _want(cfg, "gamma0", float, 0.25, lambda v: 0.0 < v <= 1.0,
                   "must lie in (0, 1]")
    kappa = _want(cfg, "kappa", float, 0.5, lambda v: v > 0.0, "must be positive")
    ladder = None
    if "ladder" in spec.keys:
        ladder = _ladder(cfg, spec.defaults["ladder"])
    n = _want(cfg, "n", int, None, lambda v: v >= 1, "must be >= 1")
    R = _want(cfg, "R", int, None, lambda v: v >= 2, "must be >= 2")
    M_t = _want(cfg, "M_t", int, 64, lambda v: 2 <= v <= 4096,
                "must lie in [2, 4096]")
    M_alpha = _want(cfg, "M_alpha", int, 21, lambda v: v >= 1, "must be >= 1")
    sampler_id = _want(cfg, "sampler_id", str, "circulant",
                       lambda v: v in ("circulant", "cholesky"),
                       "must be 'circulant' or 'cholesky'")
    master_seed = _want(cfg, "master_seed", int, 0,
                        lambda v: 0 <= v < 2**64,
                        "must be a 64-bit unsigned integer")
    threads = _want(cfg, "threads", int, os.cpu_count() or 1,
                    lambda v: v >= 1, "must be >= 1")
    out_dir = _want(cfg, "out_dir", str, "tqproc_out")

    times = _numbers(cfg, "times")
    if times is not None and (any(t <= 0.0 for t in times)
                              or list(times) != sorted(set(times))):
        raise ConfigError("times must be positive, strictly increasing")
    x_nodes = _nodes(cfg, "x_nodes", 2, "[t, x] pairs")
    alpha_nodes = _nodes(cfg, "alpha_nodes", 2, "[t, alpha] pairs",
                         levels=(1,))
    levels_y = _numbers(cfg, "levels_y")
    if levels_y is not None and len(levels_y) < 3:
        raise ConfigError("levels_y needs at least 3 levels")
    kind = _want(cfg, "kind", str, None,
                 lambda v: v in analytic.KERNEL_KINDS,
                 f"must be one of {list(analytic.KERNEL_KINDS)}")
    # the swanson and weightedK kernels are defined at t = 0, G and K are not
    zero_time = kind in ("swanson", "weightedK")
    if kind == "swanson":
        kernel_nodes = _nodes(cfg, "kernel_nodes", 2, "[t1, t2] pairs",
                              times=(0, 1), zero_time=zero_time)
    else:
        # G's a1, a2 are x-levels, K's quantile levels
        kernel_nodes = _nodes(cfg, "kernel_nodes", 4,
                              "[t1, a1, t2, a2] quadruples", times=(0, 2),
                              levels=(1, 3) if kind != "G" else (),
                              zero_time=zero_time)

    return RunConfig(study=study, H=H, T=T, rho=rho, eta=eta, gamma0=gamma0,
                     kappa=kappa, ladder=ladder, n=n, R=R, M_t=M_t,
                     M_alpha=M_alpha, sampler_id=sampler_id,
                     master_seed=master_seed, threads=threads, out_dir=out_dir,
                     times=times, x_nodes=x_nodes, alpha_nodes=alpha_nodes,
                     levels_y=levels_y, kind=kind, kernel_nodes=kernel_nodes)


def _config_dict(cfg: RunConfig) -> dict:
    d = {key: val for key, val in asdict(cfg).items() if val is not None}
    # delta, C and c1 were config keys that reached no CLI study; their
    # defaults stay in the echo so result.json keeps its bytes.
    d.update(delta=cfg.H / 4.0, C=1.0, c1=1.0)
    return d


def _numeric_config(cfg: RunConfig) -> dict:
    """The configuration keys that determine the numbers.

    Excludes execution-environment keys (threads, out_dir) so that the
    result files and the config hash are identical across machines and
    worker counts.
    """
    d = _config_dict(cfg)
    d.pop("threads", None)
    d.pop("out_dir", None)
    return d


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON of the resolved configuration (round-trips through parse)."""
    keys = _RUN_KEYS | set(STUDIES[cfg.study].keys)
    return canonical_json({key: val for key, val in _config_dict(cfg).items()
                           if key in keys})


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def canonical_json(obj) -> str:
    """Sorted-key JSON with shortest-round-trip float formatting."""
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(_numeric_config(cfg))
                          .encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _ensemble_rows(ens: Ensemble) -> list[list]:
    ts = ens.grid.array
    return [[i, float(t), float(v)]
            for i in range(ens.n)
            for t, v in zip(ts, ens.values[i])]


def _sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".manifest.json")


def export_remainder_field(field: RemainderField, path) -> list[str]:
    """Write a remainder field as CSV ``t,alpha,R_n`` with a JSON manifest."""
    path = Path(path)
    rows = [[float(t), float(a), float(field.values[k, j])]
            for j, t in enumerate(field.times)
            for k, a in enumerate(field.levels.levels)]
    _write_csv(path, ["t", "alpha", "R_n"], rows)
    manifest = {"version": __version__, "weighted": field.weighted,
                "t_min": field.t_min, "t_max": field.t_max,
                "rho": field.levels.rho, "levels": list(field.levels.levels),
                "times": list(field.times), "sup_norm": field.sup_norm}
    _write_atomic(_sidecar(path), canonical_json(manifest))
    return [str(path), str(_sidecar(path))]


def export_tie_stats(ties: TieStats, path) -> list[str]:
    """Write tie statistics as CSV ``t,alpha,delta_n`` with a JSON manifest."""
    path = Path(path)
    rows = [[float(t), float(a), float(ties.delta_n[k, j])]
            for j, t in enumerate(ties.times)
            for k, a in enumerate(ties.levels.levels)]
    _write_csv(path, ["t", "alpha", "delta_n"], rows)
    manifest = {"version": __version__, "m_bound": ties.m_bound,
                "max_violation": ties.max_violation,
                "rho": ties.levels.rho, "levels": list(ties.levels.levels),
                "times": list(ties.times)}
    _write_atomic(_sidecar(path), canonical_json(manifest))
    return [str(path), str(_sidecar(path))]


def export_ensemble(ens: Ensemble, path) -> list[str]:
    """Write an ensemble as CSV ``path_id,t,value`` with a JSON manifest."""
    path = Path(path)
    _write_csv(path, ["path_id", "t", "value"], _ensemble_rows(ens))
    manifest = {"version": __version__, "H": ens.H,
                "grid_times": list(ens.grid.times), "T": ens.grid.T,
                "uniform": ens.grid.uniform, "sampler_id": ens.sampler_id,
                "master_seed": ens.master_seed, "n": ens.n,
                "warnings": list(ens.warnings)}
    _write_atomic(_sidecar(path), canonical_json(manifest))
    return [str(path), str(_sidecar(path))]


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

def _write_result(cfg: RunConfig, out_dir: Path):
    """Run a Monte Carlo study; write result.json and summary.csv."""
    spec = STUDIES[cfg.study]
    kwargs = {("seed" if key == "master_seed" else key): getattr(cfg, key)
              for key in spec.keys}
    # looked up at call time, so a wrapper set on the module is called
    result = getattr(experiments, spec.function)(**kwargs, workers=cfg.threads)
    payload = result.to_dict()
    payload["config_echo"] = _numeric_config(cfg)
    _write_atomic(out_dir / "result.json", canonical_json(payload))
    _write_csv(out_dir / "summary.csv",
               ["n", "mean", "median", "se", "statistic"],
               [[r["n"], r["mean"], r["median"], r["se"], r["statistic"]]
                for r in result.per_n])
    return ([out_dir / "result.json", out_dir / "summary.csv"],
            list(result.warnings), result.pass_flags)


def _write_ensemble(cfg: RunConfig, out_dir: Path):
    """Sample one ensemble; write ensemble.csv with its sidecar."""
    grid = GridSpec.uniform_grid(cfg.T, cfg.M_t, include_zero=True)
    ens = make_ensemble(cfg.n, grid, cfg.H, sampler_id=cfg.sampler_id,
                        master_seed=cfg.master_seed)
    files = export_ensemble(ens, out_dir / "ensemble.csv")
    return [Path(f) for f in files], list(ens.warnings), {}


def _default_kernel_nodes(kind: str) -> list[tuple]:
    ts = [0.4 * k for k in range(1, 11)]
    a = {"swanson": None, "K": 0.5, "weightedK": 0.5}.get(kind, 0.0)
    return [(t1, a, t2, a) for t1 in ts for t2 in ts if t1 <= t2]


def _write_kernels(cfg: RunConfig, out_dir: Path):
    """Evaluate a limit kernel over node pairs; write kernels.csv."""
    if cfg.kernel_nodes is None:
        nodes = _default_kernel_nodes(cfg.kind)
    elif cfg.kind == "swanson":
        nodes = [(t1, None, t2, None) for t1, t2 in cfg.kernel_nodes]
    else:
        nodes = cfg.kernel_nodes
    rows = [[cfg.kind, t1, a1, t2, a2,
             analytic.kernel_eval(cfg.kind, t1, a1, t2, a2, H=cfg.H)]
            for t1, a1, t2, a2 in nodes]
    _write_csv(out_dir / "kernels.csv",
               ["kind", "t1", "a1", "t2", "a2", "value"], rows)
    return [out_dir / "kernels.csv"], [], {}


@dataclass(frozen=True)
class Study:
    """How the runner drives one study.

    ``keys`` are the config keys the study reads besides ``study``,
    ``threads`` and ``out_dir``; parse_config rejects any other key.
    ``defaults`` override, for this study, the defaults parse_config gives
    every study (a study with a ladder key must give its default ladder).
    ``write`` runs the study into an output directory and returns (files
    written, warnings, pass flags); for a Monte Carlo study it calls the
    ``tqproc.experiments`` function named by ``function`` with the keys as
    keyword arguments (``master_seed`` as ``seed``).  ``outputs`` are the
    files ``write`` creates, which a run will not overwrite unforced.
    """
    keys: tuple[str, ...]
    defaults: dict
    function: str | None = None
    write: Callable = _write_result
    outputs: tuple[str, ...] = ("result.json", "summary.csv")
    T_floor: float = 0.0   # T must exceed it


_RATE_KEYS = ("ladder", "H", "T", "rho", "M_t", "M_alpha", "sampler_id",
              "master_seed")
_RATE_LADDER = {"ns": [2**k for k in range(8, 14)], "replications": 50}

STUDIES = {
    "bk_rate": Study(
        function="bk_rate_study", keys=_RATE_KEYS + ("eta", "gamma0"),
        defaults={"ladder": _RATE_LADDER}, T_floor=1.0),
    "weighted_bk_rate": Study(
        function="weighted_bk_rate_study", keys=_RATE_KEYS,
        defaults={"ladder": _RATE_LADDER}, T_floor=1.0),
    "kernel_validation": Study(
        function="kernel_validation_study",
        keys=("x_nodes", "alpha_nodes", "H", "n", "R", "sampler_id",
              "master_seed"),
        defaults={"n": 500, "R": 4000,
                  "x_nodes": [[t, x * t**0.5] for t in (0.5, 1.0, 2.0, 4.0)
                              for x in (-1.0, 0.0, 1.0)],
                  "alpha_nodes": [[1.0, 0.5], [4.0, 0.5], [1.0, 0.25],
                                  [4.0, 0.75]]}),
    # Brownian ensembles only: H is fixed at 1/2
    "swanson": Study(
        function="swanson_median_study",
        keys=("times", "n", "R", "sampler_id", "master_seed"),
        defaults={"n": 1001, "R": 5000,
                  "times": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]}),
    "lil_trace": Study(
        function="lil_trace_study",
        keys=("ladder", "H", "kappa", "T", "M_t", "sampler_id", "master_seed"),
        defaults={"ladder": {"ns": [2**k for k in range(8, 13)],
                             "replications": 4}}),
    "classical_bk": Study(
        function="classical_bk_study", keys=("ladder", "master_seed"),
        defaults={"ladder": {"ns": [2**k for k in range(12, 17)],
                             "replications": 20}}),
    "fbm_gen": Study(
        keys=("n", "H", "T", "M_t", "sampler_id", "master_seed"),
        defaults={"n": 100}, write=_write_ensemble,
        outputs=("ensemble.csv", "ensemble.manifest.json")),
    "kernel_eval": Study(
        keys=("kind", "kernel_nodes", "H"), defaults={"kind": "swanson"},
        write=_write_kernels, outputs=("kernels.csv",)),
    "tail_fit": Study(
        function="tail_fit_study",
        keys=("levels_y", "H", "T", "n", "M_t", "sampler_id", "master_seed"),
        defaults={"T": 1.0, "n": 100_000, "levels_y": [1.5, 2.0, 2.5, 3.0]}),
}


def run_study(cfg: RunConfig, force: bool = False,
              check: bool = False) -> tuple[int, list[str]]:
    """Execute a configured study and persist its outputs.

    Returns (exit_code, written file paths).  In check mode the exit code is
    2 when any pass flag is false.  Existing output files abort the run
    unless ``force`` is given.
    """
    spec = STUDIES[cfg.study]
    out_dir = Path(os.environ.get(ENV_OUT_DIR) or cfg.out_dir)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # the directories this run creates, deepest first
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    if not force:
        existing = [str(out_dir / name)
                    for name in spec.outputs + ("manifest.json",)
                    if (out_dir / name).exists()]
        if existing:
            raise ConfigError(
                f"output file(s) already exist: {existing}; pass --force to overwrite")

    try:
        written, warnings, pass_flags = spec.write(cfg, out_dir)
    except BaseException:
        # a failed study leaves behind no empty directory it created
        for d in created:
            try:
                d.rmdir()
            except OSError:
                break
        raise
    exit_code = 0
    if check and not all(pass_flags.values()):
        failed = sorted(k for k, v in pass_flags.items() if not v)
        print(f"check failed: {failed}", file=sys.stderr)
        exit_code = 2

    manifest = {
        "config_hash": _config_hash(cfg),
        "version": __version__,
        "started_utc": started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "master_seed": cfg.master_seed,
        "warnings": warnings,
        "outputs": [p.name for p in written],
        "config": _config_dict(cfg),
    }
    _write_atomic(out_dir / "manifest.json", canonical_json(manifest))
    written.append(out_dir / "manifest.json")
    return exit_code, [str(p) for p in written]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _load_config(path: str, overrides: dict) -> RunConfig:
    text = Path(path).read_text()
    if overrides:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not well-formed JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw.update(overrides)
        text = json.dumps(raw)
    return parse_config(text)


def _cmd_run(args, check: bool) -> int:
    overrides = {}
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    cfg = _load_config(args.config, overrides)
    code, files = run_study(cfg, force=args.force, check=check)
    for f in files:
        print(f)
    return code


def _cmd_kernel(args) -> int:
    try:
        vals = [float(v) for v in args.args]
    except ValueError as exc:
        raise ConfigError(f"kernel {args.kind} arguments must be numbers; "
                          f"{exc}") from exc
    kind = args.kind
    names = ["t1", "t2"] if kind == "swanson" else ["t1", "a1", "t2", "a2", "H"]
    for name, v in [*zip(names, vals), ("--hurst", args.hurst),
                    ("--kappa", args.kappa)]:
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"kernel {kind} argument {name} must be a finite "
                              f"number; got {v!r}")
    if kind == "swanson":
        if len(vals) != 2:
            raise ConfigError("kernel swanson takes: t1 t2")
        t1, t2 = vals
        a1 = a2 = None
        H = args.hurst
    else:
        if len(vals) == 4:
            t1, a1, t2, a2 = vals
            H = args.hurst
        elif len(vals) == 5:
            t1, a1, t2, a2, H = vals
        else:
            raise ConfigError(f"kernel {kind} takes: t1 a1 t2 a2 [H]")
    value = analytic.kernel_eval(kind, t1, a1, t2, a2, H=H, kappa=args.kappa)
    print(",".join(_fmt_cell(v) for v in [kind, t1, a1, t2, a2, value]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tqproc",
        description="Monte Carlo laboratory for time-dependent empirical and "
                    "quantile processes of fractional Brownian motion ensembles")
    sub = p.add_subparsers(dest="command", required=True)

    for name, hlp in (("run", "run a study and write its result files"),
                      ("check", "run a study and fail (exit 2) if any pass "
                                "flag is false")):
        q = sub.add_parser(name, help=hlp)
        q.add_argument("--config", required=True, help="path to JSON config")
        q.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        q.add_argument("--threads", type=int, default=None,
                       help="worker pool size override")
        q.add_argument("--out-dir", default=None, help="output directory override")

    g = sub.add_parser("gen", help="sample an ensemble and export it as CSV")
    g.add_argument("--config", required=True)
    g.add_argument("--force", action="store_true")

    k = sub.add_parser("kernel", help="evaluate a limit kernel at one node pair")
    k.add_argument("kind", choices=analytic.KERNEL_KINDS)
    k.add_argument("args", nargs="+", help="swanson: t1 t2 | others: t1 a1 t2 a2 [H]")
    k.add_argument("--hurst", type=float, default=0.5)
    k.add_argument("--kappa", type=float, default=None,
                   help="extra (t1*t2)^kappa weight for kind G")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "check"):
            return _cmd_run(args, check=(args.command == "check"))
        if args.command == "gen":
            cfg = _load_config(args.config, {"study": "fbm_gen"})
            code, files = run_study(cfg, force=args.force)
            for f in files:
                print(f)
            return code
        if args.command == "kernel":
            return _cmd_kernel(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, DataError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
