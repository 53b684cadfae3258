"""Configuration, CLI, orchestration, and persistence.

This is the only module with side effects.  A run is a pure function of
(config, master_seed): result files use canonical JSON (sorted keys) and
shortest-round-trip float formatting, so identical configurations produce
byte-identical ``result.json`` and ``summary.csv`` at any worker count.
The run manifest additionally records wall-clock timestamps and is the one
output excluded from the byte-identity contract.

Importing this module loads neither scipy nor argparse: the manifest
records the version of the scipy a run loaded, or null, and argparse
loads with the CLI's parser.

Exit codes: 0 success, 1 error, 2 check-mode failure (some pass flag false).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, analytic, experiments
from .errors import ConfigError, DataError, DomainError, NumericError
from .experiments import NLadder
from .fbm import Ensemble, GridSpec, _check_scale, ensemble_bytes, make_ensemble

__all__ = ["RunConfig", "parse_config", "serialize_config", "run_study",
           "export_ensemble", "main"]

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


def _number(key: str, val, integer: bool = False):
    """A JSON number as a finite float (a JSON integer as an int if
    ``integer``); any other value, bools and numeric strings too, names key."""
    if (isinstance(val, bool)
            or not isinstance(val, int if integer else (int, float))):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{key} must be {what}; got {val!r}")
    if integer:
        return val
    try:
        val = float(val)
    except OverflowError:
        raise ConfigError(f"{key} holds an integer of {len(str(abs(val)))} "
                          f"digits, too large for a float") from None
    if not math.isfinite(val):
        raise ConfigError(f"{key} must be a finite number; got {val!r}")
    return val


def _want(cfg: dict, key: str, typ, default, check=None, msg: str = ""):
    val = cfg.get(key, default)
    if val is None:
        return None
    if typ in (int, float):
        val = _number(key, val, integer=typ is int)
    elif not isinstance(val, typ):
        raise ConfigError(f"{key} must be of type {typ.__name__}; got {val!r}")
    if check is not None and not check(val):
        raise ConfigError(f"{key} {msg}; got {val!r}")
    return val


def _numbers(cfg: dict, key: str):
    raw = cfg.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key} must be a non-empty list of numbers; "
                          f"got {raw!r}")
    return tuple(_number(key, v) for v in raw)


def _nodes(cfg: dict, key: str, width: int, shape: str, times=(0,),
           levels=(), zero_time: bool = False):
    """A list of ``width``-tuples of finite numbers.  The entries at the
    ``times`` positions are times and must be positive (nonnegative with
    ``zero_time``); those at the ``levels`` positions are quantile levels
    and must lie in (0, 1)."""
    raw = cfg.get(key)
    if raw is None:
        return None
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(row, list) and len(row) == width
                       for row in raw)):
        raise ConfigError(f"{key} must be a non-empty list of {shape}; "
                          f"got {raw!r}")
    nodes = tuple(tuple(_number(key, v) for v in row) for row in raw)
    if not all(row[i] > 0.0 or (zero_time and row[i] == 0.0)
               for row in nodes for i in times):
        rule = "nonnegative" if zero_time else "positive"
        raise ConfigError(f"{key} times must be {rule}")
    if not all(0.0 < row[i] < 1.0 for row in nodes for i in levels):
        raise ConfigError(f"{key} levels must lie in (0, 1)")
    return nodes


# The most one ensemble may take (its one (n, M) array and the synthesis
# buffers; see fbm.ensemble_bytes), which bounds what each worker holds at
# a time.  A fixed bound, not a config key.
WORKER_BYTES_BUDGET = 2 << 30
# The most tasks one run may have (replications times ladder sizes, or R):
# the parent process holds every task and every result at once.  Also a
# fixed bound.
MAX_TASKS = 100_000


def _check_tasks(cfg: RunConfig, spec: Study) -> None:
    """Reject a study with over ``MAX_TASKS`` tasks, whose worker grid
    ``fbm`` will not sample at H, or whose largest task would hold over
    ``WORKER_BYTES_BUDGET``, naming the keys that set them."""
    tasks, r_key = ((cfg.ladder.replications * len(cfg.ladder.ns), "ladder")
                    if cfg.ladder is not None else (cfg.R, "R"))
    if tasks is not None and tasks > MAX_TASKS:
        raise ConfigError(f"{tasks} tasks ({r_key}) exceed the bound of "
                          f"{MAX_TASKS} tasks per run; lower {r_key}")
    n, n_key = ((max(cfg.ladder.ns), "ladder") if cfg.ladder is not None
                else (cfg.n, "n"))
    if spec.grid is not None:
        try:
            grid, key = spec.grid(cfg)
        except DomainError as exc:
            # the other grids are built from times parse_config checked, so
            # only M_t times spread over a T too small to part them, or to
            # hold their lattice, fail
            raise ConfigError(f"T / M_t {exc}; T={cfg.T!r} is too small "
                              f"for {cfg.M_t} grid times") from None
        try:
            # H of a study that does not read it is the 1/2 it samples at
            _check_scale(grid, cfg.H)
        except DomainError as exc:
            # M_t sets how many times a ladder grid has, T where they lie
            raise ConfigError(f"{'T' if key == 'M_t' else key} {exc}") from None
        try:
            need = ensemble_bytes(n, grid, cfg.sampler_id)
        except DomainError as exc:
            raise ConfigError(f"{key} {exc}") from None
        what = f"{n} paths ({n_key}) on {grid.M} grid points ({key})"
        task, lower = "ensemble", f"{n_key} or {key}"
    elif n is not None:
        # classical_bk: no grid, about a dozen float arrays of n uniforms
        need = experiments.CLASSICAL_BYTES_PER_N * n
        what, task, lower = f"{n} uniforms ({n_key})", "replication", n_key
    else:
        return
    if need > WORKER_BYTES_BUDGET:
        # need may be an integer too large for a float; decimal is imported
        # only here, since it adds to every run's footprint
        from decimal import Decimal
        raise ConfigError(
            f"{what} need about {Decimal(need) / 2**30:.3g} GiB for one "
            f"{task}, over the {WORKER_BYTES_BUDGET / 2**30:g} GiB budget; "
            f"lower {lower}")


def _ladder(cfg: dict, default: dict) -> NLadder:
    raw = cfg["ladder"]
    if not isinstance(raw, dict):
        raise ConfigError('ladder must be an object {"ns": [...], '
                          '"replications": int}')
    extra = set(raw) - {"ns", "replications"}
    if extra:
        raise ConfigError(f"unknown ladder key(s): {sorted(extra)}")
    raw = {**default, **raw}
    ns = raw["ns"]
    if not isinstance(ns, list):
        raise ConfigError(f"ladder ns must be a list of integers; got {ns!r}")
    ns = tuple(_number("ladder ns", v, integer=True) for v in ns)
    replications = _number("ladder replications", raw["replications"], True)
    try:
        return NLadder(ns=ns, replications=replications)
    except DomainError as exc:
        raise ConfigError(f"ladder: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration, applying study defaults.

    Unknown keys, and keys the chosen study does not read, are rejected;
    every module precondition on the numeric parameters is re-validated
    here with a message naming the field.
    """
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # also an integer over Python's digit limit
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
    T = _want(cfg, "T", float, 2.0,
              lambda v: v >= spec.T_floor if spec.T_floor_closed
              else v > spec.T_floor,
              f"must {'be >=' if spec.T_floor_closed else 'exceed'} "
              f"{spec.T_floor:g} for study {study!r}")
    # below about 1.1e-16, 1 - rho rounds to 1, which is no quantile level
    rho = _want(cfg, "rho", float, 0.1,
                lambda v: 0.0 < v < 0.5 and 1.0 - v < 1.0,
                "must lie in (0, 1/2) and keep 1 - rho below 1")
    eta = _want(cfg, "eta", float, 0.0,
                lambda v: 0.0 <= v < 1.0 / (2.0 * H),
                f"must satisfy 0 <= eta < 1/(2H) = {1.0 / (2.0 * H):.6g}")
    gamma0 = _want(cfg, "gamma0", float, 0.25, lambda v: 0.0 < v <= 1.0,
                   "must lie in (0, 1]")
    kappa = _want(cfg, "kappa", float, 0.5, lambda v: v > 0.0, "must be positive")
    try:
        T**kappa  # lil_trace's normalizing constant
    except OverflowError:
        raise ConfigError(f"kappa must keep T**kappa finite; got {kappa!r}") from None
    ladder = None
    if "ladder" in spec.keys:
        ladder = _ladder(cfg, spec.defaults["ladder"])
        if ladder.ns[0] < spec.n_floor:
            raise ConfigError(f"ladder sizes must be >= {spec.n_floor} for "
                              f"study {study!r}; got {list(ladder.ns)}")
    # lil_trace's statistic is below T**kappa * sqrt(n), and its spread sums
    # the squares of R of them: that sum must stay finite.  T**kappa is
    # finite, so kappa * log(T) cannot overflow
    if "kappa" in spec.keys and (
            2.0 * (kappa * math.log(T))
            + math.log(ladder.replications * ladder.ns[-1])
            > math.log(sys.float_info.max)):
        raise ConfigError(
            f"kappa must keep T**(2*kappa) * replications * max(ns) finite; "
            f"got kappa={kappa!r} with T={T!r}, replications="
            f"{ladder.replications} and max(ns)={ladder.ns[-1]}")
    if "eta" in spec.keys and experiments._window_floor(
            ladder.ns[-1], gamma0, eta) == 0.0:
        raise ConfigError(
            f"eta must keep the window floor gamma0 * n**-eta positive at the "
            f"ladder's largest n = {ladder.ns[-1]}; got eta={eta!r} with "
            f"gamma0={gamma0!r}, for which it underflows to 0")
    n = _want(cfg, "n", int, None, lambda v: v >= 1, "must be >= 1")
    R = _want(cfg, "R", int, None, lambda v: v >= 2, "must be >= 2")
    M_t = _want(cfg, "M_t", int, 64, lambda v: 2 <= v <= 4096,
                "must lie in [2, 4096]")
    M_alpha = _want(cfg, "M_alpha", int, 21, lambda v: 1 <= v <= 4096,
                    "must lie in [1, 4096]")
    sampler_id = _want(cfg, "sampler_id", str, "circulant",
                       lambda v: v in ("circulant", "cholesky"),
                       "must be 'circulant' or 'cholesky'")
    master_seed = _want(cfg, "master_seed", int, 0,
                        lambda v: 0 <= v < 2**64,
                        "must be a 64-bit unsigned integer")
    threads = _want(cfg, "threads", int, experiments.usable_cpus(),
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
    if levels_y is not None and (len(levels_y) < 3 or min(levels_y) <= 0.0
                                 or len(set(levels_y)) < len(levels_y)):
        raise ConfigError(f"levels_y needs at least 3 levels, positive and "
                          f"distinct; got {list(levels_y)}")
    kind = _want(cfg, "kind", str, None,
                 lambda v: v in analytic.KERNEL_KINDS,
                 f"must be one of {list(analytic.KERNEL_KINDS)}")
    if kind == "swanson" and H != 0.5:
        raise ConfigError(f"H must be 0.5 for kind 'swanson', the Brownian "
                          f"kernel; got {H!r}")
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

    resolved = RunConfig(
        study=study, H=H, T=T, rho=rho, eta=eta, gamma0=gamma0, kappa=kappa,
        ladder=ladder, n=n, R=R, M_t=M_t, M_alpha=M_alpha,
        sampler_id=sampler_id, master_seed=master_seed, threads=threads,
        out_dir=out_dir, times=times, x_nodes=x_nodes,
        alpha_nodes=alpha_nodes, levels_y=levels_y, kind=kind,
        kernel_nodes=kernel_nodes)
    # what the study's workers will run, checked before any run starts
    _check_tasks(resolved, spec)
    return resolved


def _numeric_config(cfg: RunConfig) -> dict:
    """The configuration keys that determine the numbers.

    Excludes execution-environment keys (threads, out_dir) so that the
    result files and the config hash are identical across machines and
    worker counts.
    """
    d = {key: val for key, val in asdict(cfg).items()
         if val is not None and key not in ("threads", "out_dir")}
    # delta, C and c1 were config keys that reached no CLI study; their
    # defaults stay in the echo so result.json keeps its bytes.
    d.update(delta=cfg.H / 4.0, C=1.0, c1=1.0)
    return d


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON of the resolved configuration (round-trips through parse)."""
    keys = _RUN_KEYS | set(STUDIES[cfg.study].keys)
    return canonical_json({key: val for key, val in asdict(cfg).items()
                           if key in keys and val is not None})


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    # a numpy float64 is a float, which json writes as one
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def canonical_json(obj) -> str:
    """Sorted-key JSON with shortest-round-trip float formatting."""
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """Write the rows as they come, so a large table is never held whole."""
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_fmt_cell, row)) + "\n" for row in rows)


def _config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(_numeric_config(cfg))
                          .encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

@contextmanager
def _staged(dest_dir: Path) -> Iterator[Path]:
    """A new directory inside ``dest_dir`` or its nearest existing ancestor;
    when the block completes its files move into ``dest_dir`` (made with
    its parents), ``manifest.json`` last, so a manifest means a complete
    set.  It is removed either way: a failed block leaves nothing."""
    base = next(d for d in (dest_dir, *dest_dir.parents) if d.exists())
    with tempfile.TemporaryDirectory(prefix=".tqproc-staging-",
                                     dir=base) as staging:
        yield Path(staging)
        dest_dir.mkdir(parents=True, exist_ok=True)
        for f in sorted(Path(staging).iterdir(),
                        key=lambda f: f.name == "manifest.json"):
            os.replace(f, dest_dir / f.name)


def _ensemble_rows(times: np.ndarray, values: np.ndarray) -> Iterator[list]:
    # the path id and time cells repeat, so each is formatted once
    ts = [_fmt_cell(t) for t in times.tolist()]
    for i, row in enumerate(values):
        path_id = _fmt_cell(i)
        for t, v in zip(ts, row.tolist()):
            yield [path_id, t, v]


def _sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".manifest.json")


def _write_ensemble_files(ens: Ensemble, path: Path) -> None:
    """``export_ensemble``'s CSV and JSON manifest, written at ``path``."""
    # the paths are read before the file is opened: an ensemble that holds
    # only its column sort raises here
    _write_csv(path, ["path_id", "t", "value"],
               _ensemble_rows(ens.grid.array, ens.values))
    manifest = {"version": __version__, "H": ens.H,
                "grid_times": list(ens.grid.times), "T": ens.grid.T,
                "uniform": ens.grid.uniform, "sampler_id": ens.sampler_id,
                "master_seed": ens.master_seed, "n": ens.n,
                "warnings": list(ens.warnings)}
    _sidecar(path).write_text(canonical_json(manifest))


def export_ensemble(ens: Ensemble, path) -> list[str]:
    """Write an ensemble as CSV ``path_id,t,value`` with a JSON manifest."""
    path = Path(path)
    with _staged(path.parent) as staging:
        _write_ensemble_files(ens, staging / path.name)
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
    (out_dir / "result.json").write_text(canonical_json(payload))
    _write_csv(out_dir / "summary.csv",
               ["n", "mean", "median", "se", "statistic"],
               [[r["n"], r["mean"], r["median"], r["se"], r["statistic"]]
                for r in result.per_n])
    return list(result.warnings), result.pass_flags


def _write_ensemble(cfg: RunConfig, out_dir: Path):
    """Sample one ensemble; write ensemble.csv with its sidecar."""
    grid, _ = STUDIES[cfg.study].grid(cfg)
    ens = make_ensemble(cfg.n, grid, cfg.H, sampler_id=cfg.sampler_id,
                        master_seed=cfg.master_seed)
    _write_ensemble_files(ens, out_dir / "ensemble.csv")
    return list(ens.warnings), {}


def _default_kernel_nodes(kind: str) -> list[tuple]:
    ts = [0.4 * k for k in range(1, 11)]
    a = {"swanson": None, "K": 0.5, "weightedK": 0.5}.get(kind, 0.0)
    return [(t1, a, t2, a) for t1 in ts for t2 in ts if t1 <= t2]


def _kernel_rows(cfg: RunConfig, kappa: float | None = None) -> list[list]:
    """One ``[kind, t1, a1, t2, a2, value]`` row per kernel node of cfg."""
    if cfg.kernel_nodes is None:
        nodes = _default_kernel_nodes(cfg.kind)
    elif cfg.kind == "swanson":
        nodes = [(t1, None, t2, None) for t1, t2 in cfg.kernel_nodes]
    else:
        nodes = cfg.kernel_nodes
    return [[cfg.kind, t1, a1, t2, a2,
             analytic.kernel_eval(cfg.kind, t1, a1, t2, a2, H=cfg.H,
                                  kappa=kappa)]
            for t1, a1, t2, a2 in nodes]


def _write_kernels(cfg: RunConfig, out_dir: Path):
    """Evaluate a limit kernel over node pairs; write kernels.csv."""
    _write_csv(out_dir / "kernels.csv",
               ["kind", "t1", "a1", "t2", "a2", "value"], _kernel_rows(cfg))
    return [], {}


@dataclass(frozen=True)
class Study:
    """How the runner drives one study.

    ``keys`` are the config keys the study reads besides ``study``,
    ``threads`` and ``out_dir``; parse_config rejects any other key.
    ``defaults`` override, for this study, the defaults parse_config gives
    every study (a study with a ladder key must give its default ladder).
    ``write`` runs the study into an output directory and returns
    (warnings, pass flags); for a Monte Carlo study it calls the
    ``tqproc.experiments`` function named by ``function`` with the keys as
    keyword arguments (``master_seed`` as ``seed``).  ``outputs`` are the
    files ``write`` creates, as the manifest lists them; unforced, no run
    overwrites them.
    ``grid`` maps a config of a study that samples ensembles to the grid
    its workers sample on, built by the function the study itself calls,
    and to the config key that sets that grid.
    Whatever a study's workers import, the study loads before its pool
    starts (see ``tqproc.analytic``), so the runner loads no study's
    modules.
    """
    keys: tuple[str, ...]
    defaults: dict
    function: str | None = None
    grid: Callable[[RunConfig], tuple[GridSpec, str]] | None = None
    write: Callable = _write_result
    outputs: tuple[str, ...] = ("result.json", "summary.csv")
    T_floor: float = 0.0   # T must exceed it (or reach it, if T_floor_closed)
    T_floor_closed: bool = False
    n_floor: int = 2       # every ladder size must reach it


def _ladder_grid(cfg: RunConfig) -> tuple[GridSpec, str]:
    return experiments.ladder_grid(cfg.T, cfg.M_t), "M_t"


_RATE_KEYS = ("ladder", "H", "T", "rho", "M_t", "M_alpha", "sampler_id",
              "master_seed")
_RATE_LADDER = {"ns": [2**k for k in range(8, 14)], "replications": 50}

STUDIES = {
    "bk_rate": Study(
        function="bk_rate_study", keys=_RATE_KEYS + ("eta", "gamma0"),
        defaults={"ladder": _RATE_LADDER}, grid=_ladder_grid, T_floor=1.0),
    "weighted_bk_rate": Study(
        function="weighted_bk_rate_study", keys=_RATE_KEYS,
        defaults={"ladder": _RATE_LADDER}, grid=_ladder_grid, T_floor=1.0),
    "kernel_validation": Study(
        function="kernel_validation_study",
        keys=("x_nodes", "alpha_nodes", "H", "n", "R", "sampler_id",
              "master_seed"),
        defaults={"n": 500, "R": 4000,
                  "x_nodes": [[t, x * t**0.5] for t in (0.5, 1.0, 2.0, 4.0)
                              for x in (-1.0, 0.0, 1.0)],
                  "alpha_nodes": [[1.0, 0.5], [4.0, 0.5], [1.0, 0.25],
                                  [4.0, 0.75]]},
        grid=lambda cfg: (experiments.node_grid(cfg.x_nodes, cfg.alpha_nodes),
                          "x_nodes / alpha_nodes times")),
    # Brownian ensembles only: H is fixed at 1/2
    "swanson": Study(
        function="swanson_median_study",
        keys=("times", "n", "R", "sampler_id", "master_seed"),
        defaults={"n": 1001, "R": 5000,
                  "times": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]},
        grid=lambda cfg: (GridSpec.from_times(cfg.times), "times")),
    "lil_trace": Study(
        function="lil_trace_study",
        keys=("ladder", "H", "kappa", "T", "M_t", "sampler_id", "master_seed"),
        defaults={"ladder": {"ns": [2**k for k in range(8, 13)],
                             "replications": 4}},
        grid=_ladder_grid, T_floor=1.0, T_floor_closed=True,
        n_floor=experiments.LIL_MIN_N),
    "classical_bk": Study(
        function="classical_bk_study", keys=("ladder", "master_seed"),
        defaults={"ladder": {"ns": [2**k for k in range(12, 17)],
                             "replications": 20}},
        n_floor=experiments.CLASSICAL_MIN_N),
    "fbm_gen": Study(
        keys=("n", "H", "T", "M_t", "sampler_id", "master_seed"),
        defaults={"n": 100}, grid=_ladder_grid,
        write=_write_ensemble,
        outputs=("ensemble.csv", "ensemble.manifest.json")),
    "kernel_eval": Study(
        keys=("kind", "kernel_nodes", "H"), defaults={"kind": "swanson"},
        write=_write_kernels, outputs=("kernels.csv",)),
    "tail_fit": Study(
        function="tail_fit_study",
        keys=("levels_y", "H", "T", "n", "M_t", "sampler_id", "master_seed"),
        defaults={"T": 1.0, "n": 100_000, "levels_y": [1.5, 2.0, 2.5, 3.0]},
        grid=_ladder_grid),
}


def _replaced_files(out_dir: Path, outputs: tuple[str, ...]) -> list[Path]:
    """The files in ``out_dir`` that its run manifest lists in ``outputs``
    and a run writing ``outputs`` does not write: a forced run removes them
    once its own set is in.  A missing or unreadable manifest lists none,
    and a listed name that is not a file directly in ``out_dir`` stays."""
    try:
        listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, LookupError, TypeError):
        return []
    if not isinstance(listed, list):
        return []
    return [out_dir / name for name in listed
            if isinstance(name, str) and Path(name).name == name
            and name not in (*outputs, "manifest.json")
            and (out_dir / name).is_file()]


def _rss_mb(usage) -> float:
    """A ``resource.getrusage`` peak resident set size in MB (2**20 bytes)."""
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def run_study(cfg: RunConfig, force: bool = False,
              check: bool = False) -> tuple[int, list[str]]:
    """Execute a configured study and persist its outputs.

    Writes to ``cfg.out_dir``, all files or none.  Returns (exit_code,
    written file paths).  In check mode the exit code is 2 when any pass
    flag is false.  Existing output files abort the run unless ``force``;
    a forced run also removes the files of the set it replaces that it
    does not write itself, so ``out_dir`` holds only what its manifest
    lists.
    """
    spec = STUDIES[cfg.study]
    out_dir = Path(cfg.out_dir)
    files = [out_dir / name for name in spec.outputs + ("manifest.json",)]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if not force:
        existing = [str(f) for f in files if f.exists()]
        if existing:
            raise ConfigError(
                f"output file(s) already exist: {existing}; pass --force to overwrite")
    replaced = _replaced_files(out_dir, spec.outputs)

    with _staged(out_dir) as staging:
        # a pool worker the study waits for adds to the children's usage
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        warnings, pass_flags = spec.write(cfg, staging)
        # scipy as the run loaded it; a study that evaluates no normal CDF
        # never does, and its bits cannot depend on scipy
        scipy = sys.modules.get("scipy")
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        manifest = {
            "config_hash": _config_hash(cfg),
            "version": __version__,
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__,
                         "scipy": scipy.__version__ if scipy else None,
                         # the C library, whose libm the bits rest on
                         "libc": " ".join(platform.libc_ver()).strip() or None},
            # peaks so far of this process or of any pool worker it has
            # waited for, and of those workers alone (null if it had none)
            "peak_rss_mb": max(_rss_mb(resource.getrusage(resource.RUSAGE_SELF)),
                               _rss_mb(children)),
            "worker_peak_rss_mb": (_rss_mb(children)
                                   if children != children_before else None),
            "started_utc": started,
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "master_seed": cfg.master_seed,
            "warnings": warnings,
            "outputs": list(spec.outputs),
            # the run's config as parse_config reads it, so it can run again
            "config": json.loads(serialize_config(cfg)),
        }
        (staging / "manifest.json").write_text(canonical_json(manifest))
    for f in replaced:
        f.unlink(missing_ok=True)
    failed = sorted(k for k, v in pass_flags.items() if not v)
    if check and failed:
        print(f"check failed: {failed}", file=sys.stderr)
    return (2 if check and failed else 0), [str(f) for f in files]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _load_config(path: str, overrides: dict) -> RunConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text) if overrides else None
    except ValueError:  # parse_config reports it
        raw = None
    if isinstance(raw, dict):
        text = json.dumps({**raw, **overrides})
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
    """Evaluate one node of the kernel_eval study, parsed as a config is."""
    kappa = None if args.kappa is None else _number("--kappa", args.kappa)
    try:
        node = [float(v) for v in args.args]
    except ValueError as exc:
        raise ConfigError(f"kernel_nodes must hold numbers; {exc}") from exc
    cfg = parse_config(json.dumps({"study": "kernel_eval", "kind": args.kind,
                                   "kernel_nodes": [node], "H": args.hurst}))
    [row] = _kernel_rows(cfg, kappa=kappa)
    print(",".join(map(_fmt_cell, row)))
    return 0


def build_parser():
    """The ``tqproc`` command line, an ``argparse.ArgumentParser``.

    argparse loads here, so that library callers of ``parse_config`` and
    ``run_study`` never load it.
    """
    import argparse
    import re

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
        # the one place the environment is read: --out-dir, else TQPROC_OUT,
        # else the config's out_dir
        q.add_argument("--out-dir", default=os.environ.get("TQPROC_OUT") or None,
                       help="output directory override (default: $TQPROC_OUT)")

    k = sub.add_parser("kernel", help="evaluate a limit kernel at one node pair")
    # Python 3.11's argparse takes a negative number written with an
    # exponent, such as -1e-3, for an option; the kernel's numbers may be
    # negative, so its parser knows them as numbers
    k._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    k.add_argument("kind", choices=analytic.KERNEL_KINDS)
    k.add_argument("args", nargs="+", help="swanson: t1 t2 | others: t1 a1 t2 a2")
    k.add_argument("--hurst", type=float, default=0.5, help="Hurst index H")
    k.add_argument("--kappa", type=float, default=None,
                   help="extra (t1*t2)^kappa weight for kind G")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "kernel":
            return _cmd_kernel(args)
        return _cmd_run(args, check=(args.command == "check"))
    except (ConfigError, DomainError, DataError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
