"""End-to-end experiment orchestration: single runs, grids, result tables.

A run is fully described by a flat RunConfig; the sha256 of its canonical
JSON (output directory excluded) names the run directory, so re-running the
same config lands in the same place with byte-identical artifacts. Grid
search expands value lists over RunConfig fields, gives every cell a derived
training seed, executes cells in isolation, and ranks completed runs by
their modified validation score.
"""

from __future__ import annotations

import functools
import hashlib
import json
import signal
import time
import traceback
import typing
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from itertools import product
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .data import (
    Dataset,
    Provenance,
    Schema,
    SplitMode,
    SyntheticSpec,
    _frozen_id_map,
    _nonblank_lines,
    generate_synthetic,
    load_tsv,
    split_ratio,
)
from .errors import ParseError, SsteError, ValidationError
from .model import Branch, MfModel, load_checkpoint, save_checkpoint
from .propensity import (DEFAULT_FLOOR, DEFAULT_GAMMA, check_epsilon, check_settings,
                         estimate_popularity_propensity, train_family, val_family)
from .seeding import derive_seed
from .train import Objective, TrainState, fit

_RUN_ID_HEX_CHARS = 16

# RunConfig's text fields that name an enum value, by that enum.
_ENUM_FIELDS = {"objective": Objective, "schema": Schema, "split_mode": SplitMode}


@dataclass(frozen=True)
class RunConfig:
    """Flat, fully serializable description of one experiment run.

    Synthetic mode draws the three datasets from the data fields; file mode
    (synthetic=false) loads TSVs instead, splitting train when val_path is
    empty. A file-mode config without test_path can train but not run. ``seed``
    drives training, initialization, and sampling; ``data_seed`` drives
    dataset generation and splitting. Every setting is range-checked and
    finite here (the world's by SyntheticSpec), so no bad value reaches a stage.
    """

    # data
    synthetic: bool = True
    n_users: int = 500
    n_items: int = 100
    latent_dim: int = 8
    exposure_bias_strength: float = 1.5
    positive_threshold: float = 0.25
    train_impressions: int = 20000
    test_impressions: int = 10000
    data_seed: int = 0
    train_path: str = ""
    val_path: str = ""
    test_path: str = ""
    schema: str = "rating"
    split_ratio: float = 0.8
    split_mode: str = "per_user"
    # objective
    objective: str = "naive"
    gamma: float = DEFAULT_GAMMA
    floor: float = DEFAULT_FLOOR
    epsilon_train: tuple[float, ...] = ()
    epsilon_val: tuple[float, ...] = ()
    resample_each_epoch: bool = False
    # model and optimizer
    embedding_dim: int = 10
    init_scale: float = 0.01
    learning_rate: float = 0.01
    l2_lambda: float = 1e-5
    batch_size: int = 512
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    # evaluation
    precision_ks: tuple[int, ...] = (5, 10)
    ndcg_k: int = 50
    # output
    out_dir: str = "runs"

    def __post_init__(self):
        object.__setattr__(self, "epsilon_train", tuple(self.epsilon_train))
        object.__setattr__(self, "epsilon_val", tuple(self.epsilon_val))
        object.__setattr__(self, "precision_ks", tuple(self.precision_ks))
        for name, enum in _ENUM_FIELDS.items():
            enum(getattr(self, name))
        if self.objective == "sste" and not self.epsilon_train:
            raise ValidationError("sste needs at least one epsilon_train value")
        if self.objective != "sste" and (self.epsilon_train or self.resample_each_epoch):
            raise ValidationError("epsilon_train and resample_each_epoch apply only to sste")
        if not self.synthetic and not self.train_path:
            raise ValidationError("file mode needs train_path")
        if not self.synthetic and not (self.test_path or self.val_path):
            raise ValidationError("file mode needs test_path")
        if self.ndcg_k < 1 or any(k < 1 for k in self.precision_ks):
            raise ValidationError("ndcg_k and every precision_ks value must be >= 1")
        repeated = sorted({k for k in self.precision_ks if self.precision_ks.count(k) > 1})
        if repeated:
            raise ValidationError(f"precision_ks repeats {', '.join(map(str, repeated))}")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if not self.l2_lambda >= 0:
            raise ValidationError("l2_lambda must be >= 0")
        for name in ("batch_size", "max_epochs", "patience", "embedding_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not self.init_scale > 0:
            raise ValidationError("init_scale must be positive")
        self.synthetic_spec()
        check_settings(self.gamma, self.floor)
        for name in ("epsilon_train", "epsilon_val"):
            for e in getattr(self, name):
                check_epsilon(e, name)
        if not 0 < self.split_ratio < 1:
            raise ValidationError("split_ratio must lie in (0,1)")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")

    def synthetic_spec(self) -> SyntheticSpec:
        """The world of this config: its SyntheticSpec fields, seeded by data_seed."""
        names = [f.name for f in fields(SyntheticSpec) if f.name != "seed"]
        return SyntheticSpec(**{n: getattr(self, n) for n in names}, seed=self.data_seed)

    def identity_dict(self) -> dict:
        out = asdict(self)
        out.pop("out_dir")
        return out

    @property
    def run_id(self) -> str:
        return _run_id(self.identity_dict())


def _run_id(identity: dict) -> str:
    """The run id of a config's ``identity_dict``."""
    canonical = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:_RUN_ID_HEX_CHARS]


_TRUE_WORDS = {"true", "1", "yes"}
_FALSE_WORDS = {"false", "0", "no"}


def parse_value(text: str, hint):
    """``text`` as a ``hint`` value, or ValueError: bool (true/1/yes or
    false/0/no, any case), tuple[T, ...] (comma-separated; an empty text is
    ()), an Enum (the text of one of its values, kept as text), or a
    converter of the stripped text such as int, float or str."""
    text = text.strip()
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        return tuple(parse_value(part, element) for part in text.split(",")) if text else ()
    if hint is bool:
        word = text.lower()
        if word not in _TRUE_WORDS | _FALSE_WORDS:
            raise ValueError(f"not a boolean: {text!r}")
        return word in _TRUE_WORDS
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(text).value
    return hint(text)


# RunConfig's field types; an enum field is typed by its enum where a file is
# read, so that a bad name is refused on its line.
_FIELD_TYPES = {**typing.get_type_hints(RunConfig), **_ENUM_FIELDS}


def read_fields(path, hints: dict, kind: str) -> dict:
    """The ``key = value`` lines of ``path`` (blanks and ``#`` comments
    skipped), typed by ``hints``. A line that is not UTF-8 or has no ``=``
    (checked first, in file order), an unknown ``kind`` key, a key given
    twice or a bad value is a ParseError naming its line. Lines end at
    ``\n``, ``\r\n`` or ``\r``."""
    entries = []
    for line_no, line in _nonblank_lines(Path(path).read_bytes()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line_no)
        key, _, text = line.partition("=")
        entries.append((line_no, key.strip(), text))
    values = {}
    for line_no, key, text in entries:
        if key not in hints:
            raise ParseError(f"unknown {kind} key {key!r}", line_no)
        if key in values:
            raise ParseError(f"repeated {kind} key {key!r}", line_no)
        try:
            values[key] = parse_value(text, hints[key])
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line_no) from None
    return values


def load_config(path) -> RunConfig:
    """RunConfig from a flat key=value file; unknown keys are errors."""
    return RunConfig(**read_fields(path, _FIELD_TYPES, "config"))


def save_config(cfg: RunConfig, path) -> None:
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Default search space, small enough that a full grid stays cheap on one CPU.
DEFAULT_GRID: dict[str, tuple] = {
    "embedding_dim": (10, 50),
    "l2_lambda": (1e-5, 1e-3),
    "batch_size": (512, 4096),
    "learning_rate": (1e-3, 1e-2),
}


@dataclass(frozen=True)
class GridSpec:
    """Value lists per RunConfig field plus the search mode.

    mode "full" expands the whole product; "random" draws ``samples``
    distinct cells with ``grid_seed``, which full mode refuses. Runs are
    ranked by the modified validation score.
    """

    values: dict[str, tuple]
    mode: str = "full"
    samples: int = 0
    grid_seed: int = 0

    def __post_init__(self):
        if not self.values:
            raise ValidationError("grid needs at least one field")
        clean = {}
        for name, options in self.values.items():
            if name not in _FIELD_TYPES:
                raise ValidationError(f"unknown grid field {name!r}")
            if typing.get_origin(_FIELD_TYPES[name]) is tuple:
                raise ValidationError(f"cannot sweep list-valued field {name!r}")
            options = tuple(options)
            if not options:
                raise ValidationError(f"empty value list for {name!r}")
            repeated = [v for i, v in enumerate(options) if v in options[:i]]
            if repeated:
                raise ValidationError(f"value list for {name!r} repeats {repeated[0]!r}")
            clean[name] = options
        object.__setattr__(self, "values", clean)
        if self.mode not in ("full", "random"):
            raise ValidationError(f"unknown grid mode {self.mode!r}")
        if self.mode == "random" and not (self.samples >= 1 and self.grid_seed >= 0):
            raise ValidationError("random mode needs samples >= 1 and grid_seed >= 0")
        if self.mode == "full" and (self.samples or self.grid_seed):
            raise ValidationError("samples and grid_seed apply only to mode = random")

    def combinations(self) -> list[dict]:
        names = sorted(self.values)
        all_cells = [
            dict(zip(names, combo))
            for combo in product(*(self.values[name] for name in names))
        ]
        if self.mode == "full" or self.samples >= len(all_cells):
            return all_cells
        rng = np.random.default_rng(self.grid_seed)
        picks = np.sort(rng.choice(len(all_cells), size=self.samples, replace=False))
        return [all_cells[i] for i in picks]


def _value_list(hint, text: str) -> tuple:
    """One or more comma-separated ``hint`` values; an empty part is a bad value."""
    return tuple(parse_value(part, hint) for part in text.split(","))


def load_grid(path) -> GridSpec:
    """GridSpec from key=value lines: control keys, or a swept RunConfig field."""
    control = typing.get_type_hints(GridSpec)
    del control["values"]
    hints = {name: functools.partial(_value_list, hint) for name, hint in _FIELD_TYPES.items()}
    values = read_fields(path, {**hints, **control}, "grid")
    settings = {name: values.pop(name) for name in control if name in values}
    return GridSpec(values=values, **settings)


def load_spec(path) -> SyntheticSpec:
    """SyntheticSpec from key=value lines that give every one of its fields."""
    values = read_fields(path, typing.get_type_hints(SyntheticSpec), "synthetic")
    missing = [f.name for f in fields(SyntheticSpec) if f.name not in values]
    if missing:
        raise ParseError(f"missing synthetic keys: {', '.join(missing)}")
    return SyntheticSpec(**values)


@dataclass(frozen=True)
class RunResult:
    run_id: str
    run_dir: str
    status: str
    stage: str
    error: str | None
    report: dict | None


# The world of the last config a process built, under its key: the cells of
# a grid share it, and runs stay independent because Dataset columns are
# read-only.
_WORLD: dict = {}


def _file_world(cfg: RunConfig,
                data: dict[str, bytes]) -> tuple[Dataset, Dataset, Dataset | None]:
    """(train, val, test) of a file-mode config, parsed from ``data``, the
    bytes of its train, val and test files by those names. Each file's bytes
    leave ``data`` as they are parsed."""
    biased = load_tsv(cfg.train_path, cfg.schema, Provenance.BIASED_TRAIN,
                      data=data.pop("train"))
    maps = biased.user_id_map, biased.item_id_map
    if cfg.val_path:
        train = biased
        val = load_tsv(cfg.val_path, cfg.schema, Provenance.BIASED_VALIDATION, *maps,
                       data=data.pop("val"))
    else:
        train, val = split_ratio(
            biased, cfg.split_ratio, cfg.split_mode, seed=derive_seed(cfg.data_seed, "split"),
        )
    test = (load_tsv(cfg.test_path, cfg.schema, Provenance.UNIFORM_TEST, *maps,
                     data=data.pop("test")) if cfg.test_path else None)
    return train, val, test


def build_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset, Dataset | None]:
    """(train, val, test) of a config; test is None when file mode has no test_path.

    A process keeps the last world it built. A synthetic world is keyed by
    its spec; a file-mode world by its paths, its schema, its split settings
    when it has no val_path, and the sha256 of the bytes read from each
    file. Those are the bytes it parses, so a file edited since is read
    again; every file is read, hit or miss, before any is parsed. In every
    mode the train split is
    nonempty and the validation split holds both labels, as training and
    self-evaluation's AUC need; else a ValidationError names the setting or
    file that made the split."""
    if cfg.synthetic:
        key = cfg.synthetic_spec()
        cause, source = f"train_impressions = {cfg.train_impressions}", "the synthetic world"
    else:
        paths = {"train": cfg.train_path, "val": cfg.val_path, "test": cfg.test_path}
        data = {name: Path(path).read_bytes() for name, path in paths.items() if path}
        split = () if cfg.val_path else (cfg.split_ratio, cfg.split_mode, cfg.data_seed)
        key = (*paths.values(), cfg.schema, *split,
               *(hashlib.sha256(b).hexdigest() for b in data.values()))
        if cfg.val_path:
            cause, source = "val_path", cfg.val_path
        else:
            cause, source = f"split_ratio = {cfg.split_ratio} ({cfg.split_mode})", cfg.train_path
    if key not in _WORLD:
        _WORLD.clear()
        _WORLD[key] = generate_synthetic(key)[:3] if cfg.synthetic else _file_world(cfg, data)
    train, val, test = _WORLD[key]
    for side, part in (("train", train), ("validation", val)):
        if not len(part):
            raise ValidationError(f"{cause} leaves the {side} split of {source} empty")
    if not 0 < val.positive_count < len(val):
        raise ValidationError(f"{cause} leaves the validation split of {source} "
                              "with one class; self-evaluation needs both")
    return train, val, test


def train_model(
    cfg: RunConfig, train: Dataset, val: Dataset, log, on_stage=None
) -> tuple[MfModel, TrainState]:
    """Propensity, self-sampling and training of one config on its datasets.

    The one training pipeline behind ``run_one`` and ``sste train``; every
    objective runs every stage, and an empty threshold list draws no subset.
    Random streams are seeded from ``cfg.seed`` by derived seeds, and each
    epoch writes one JSON line to the text handle ``log``. ``on_stage(name)``
    is called as the propensity, selfsample and train stages begin.
    """
    on_stage = on_stage or (lambda name: None)
    on_stage("propensity")
    pt = estimate_popularity_propensity(train, gamma=cfg.gamma, floor=cfg.floor)

    on_stage("selfsample")
    aux_seed = derive_seed(cfg.seed, "selfsample")
    a_tr = train_family(train, pt, cfg.epsilon_train, aux_seed, epoch=0)
    a_val = val_family(val, pt, cfg.epsilon_val, aux_seed)

    on_stage("train")

    def on_epoch(epoch, breakdown, report):
        line = {
            "epoch": epoch,
            "loss": asdict(breakdown),
            "val_score": report.score_on_val,
            "aux_scores": list(report.scores_on_aux),
            "alpha": report.alpha,
            "modified_score": report.modified_score,
        }
        log.write(json.dumps(line, sort_keys=True) + "\n")

    return fit(train, val, (a_tr, a_val), cfg, pt, on_epoch=on_epoch)


def test_metrics_for(
    model: MfModel, test: Dataset, exclude: Dataset | None, ks: tuple[int, ...], ndcg_k: int
) -> dict[str, float]:
    """Global AUC plus full-ranking top-K metrics, ranking no positive of ``exclude``."""
    metrics = {
        "auc": ev.auc_scores(model.predict(Branch.HAT, test.users, test.items), test.labels)
    }
    ranked = ev.build_ranked_lists(
        lambda block: model.predict_rows(Branch.HAT, block),
        test,
        exclude=exclude,
        depth=max((*ks, ndcg_k)),
    )
    metrics.update(ev.topk_metrics(ranked, ks=ks, ndcg_k=ndcg_k))
    return metrics


# Ids formatted at a time into the vocab sidecar, so that writing it holds
# the Python ints and strings of one chunk, never of a whole id map.
_SIDECAR_CHUNK = 4096


def save_model(model: MfModel, train: Dataset, path) -> None:
    """Checkpoint at ``path``, plus ``<path>.vocab.json`` when ``train`` was
    loaded from files: its two id maps as sorted lists of original ids, which
    ``load_model`` reads back so that ``sste evaluate`` scores files in the
    original id space. The sidecar holds the bytes of
    ``json.dumps({"items": ..., "users": ...}, sort_keys=True)``, written
    ``_SIDECAR_CHUNK`` ids at a time."""
    save_checkpoint(model, path)
    if train.user_id_map is None:
        return
    with open(str(path) + ".vocab.json", "w", encoding="utf-8") as out:
        for opening, ids in (('{"items": [', train.item_id_map),
                             ('], "users": [', train.user_id_map)):
            out.write(opening)
            for lo in range(0, len(ids), _SIDECAR_CHUNK):
                if lo:
                    out.write(", ")
                out.write(", ".join(map(str, ids[lo:lo + _SIDECAR_CHUNK].tolist())))
        out.write("]}")


def load_model(path) -> tuple[MfModel, np.ndarray, np.ndarray]:
    """(model, user ids, item ids) of a ``save_model`` checkpoint; row ``i`` is
    original id ``ids[i]``, and the ids are the rows when there is no sidecar.
    Each sidecar list must hold JSON integers that form an id map of the
    checkpoint's row count (``data._frozen_id_map``), else ParseError."""
    model = load_checkpoint(path)
    sidecar = Path(str(path) + ".vocab.json")
    if not sidecar.exists():
        return model, np.arange(model.n_users), np.arange(model.n_items)
    try:
        raw = json.loads(sidecar.read_text(encoding="utf-8"))
        ids = []
        for key, n_rows in (("users", model.n_users), ("items", model.n_items)):
            values = raw.get(key) if isinstance(raw, dict) else None
            # The type test refuses a JSON true, which np.asarray reads as 1.
            if not isinstance(values, list) or any(type(v) is not int for v in values):
                raise ValidationError(f"{key} must be a list of JSON integers")
            ids.append(_frozen_id_map(values, key, n_rows))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed vocab sidecar {sidecar}: {exc}") from None
    return model, *ids


def _write_whole(path: Path, text: str) -> None:
    """``text`` to a temp file beside ``path``, then moved into place by
    ``os.replace``: a reader finds the old file or all of the new one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, payload: dict) -> None:
    _write_whole(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_status(run_dir: Path, status: str, stage: str, error: str | None,
                  trace: str | None, elapsed: float, stage_seconds: dict) -> None:
    _write_json(run_dir / "status.json", {
        "status": status, "stage": stage, "error": error, "traceback": trace,
        "elapsed_seconds": elapsed, "stage_seconds": stage_seconds,
    })


def run_one(cfg: RunConfig) -> RunResult:
    """Execute one config end to end, persisting artifacts in its run dir.

    Writes config.txt/config.json, epochs.jsonl, model.ckpt (with its vocab
    sidecar in file mode), report.json, and status.json. The run first
    empties its directory, status.json first and subdirectories last, so a
    failed rerun leaves nothing of the old run; a subdirectory there fails
    the run at stage config, once every file is gone. Any Exception is
    recorded in status.json with the stage that failed and its traceback,
    and reported in the returned RunResult, alone (with the write's OSError)
    if no status can be written. KeyboardInterrupt and SystemExit propagate.
    status.json's ``stage_seconds`` gives the wall seconds of each stage the
    run entered, up to the status write; together they are
    ``elapsed_seconds``.
    """
    identity = cfg.identity_dict()
    run_id = _run_id(identity)
    run_dir = Path(cfg.out_dir) / f"run-{run_id}"
    started = entered = time.monotonic()
    stage = "config"
    stage_seconds: dict[str, float] = {}

    def enter(name: str) -> None:
        nonlocal stage, entered
        now = time.monotonic()
        stage_seconds[stage] = stage_seconds.get(stage, 0.0) + (now - entered)
        stage, entered = name, now

    def finish(error: str | None) -> None:
        """Write status.json: ok if ``error`` is None, else failed at ``stage``
        with the traceback of the exception being handled."""
        status, at = ("ok", "done") if error is None else ("failed", stage)
        enter(stage)  # closes the stage's time
        _write_status(run_dir, status, at, error,
                      None if error is None else traceback.format_exc(),
                      entered - started, stage_seconds)

    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "status.json").unlink(missing_ok=True)  # first: no ok outlives its files
        for old in sorted(run_dir.iterdir(), key=Path.is_dir):  # a directory fails it, last
            old.unlink()
        save_config(cfg, run_dir / "config.txt")
        _write_json(run_dir / "config.json", identity)
        enter("data")
        if not (cfg.synthetic or cfg.test_path):
            raise ValidationError("file mode needs test_path")
        train, val, test = build_datasets(cfg)
        with open(run_dir / "epochs.jsonl", "w", encoding="utf-8") as log:
            model, state = train_model(cfg, train, val, log, on_stage=enter)

        enter("evaluate")
        metrics = test_metrics_for(
            model, test, train, ks=cfg.precision_ks, ndcg_k=cfg.ndcg_k
        )
        best_report = state.history[state.best_epoch - 1]

        enter("persist")
        save_model(model, train, run_dir / "model.ckpt")
        report = {
            "run_id": run_id,
            "objective": cfg.objective,
            "config": identity,
            "epochs_run": state.epoch,
            "best_epoch": state.best_epoch,
            "best_modified_score": state.best_score,
            "best_val_score": best_report.score_on_val,
            "best_alpha": best_report.alpha,
            "test_metrics": {name: float(value) for name, value in metrics.items()},
        }
        _write_json(run_dir / "report.json", report)
        finish(None)
        return RunResult(run_id, str(run_dir), "ok", "done", None, report)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return _failed(run_id, run_dir, stage, error, lambda: finish(error))


def _failed(run_id: str, run_dir: Path, stage: str, error: str, write_status) -> RunResult:
    """The result of a run that failed at ``stage`` with ``error``, once
    ``write_status()`` has recorded that in its status.json. If the write
    raises OSError, the run is left with no status.json, and so no ok, and
    the error says why."""
    try:
        write_status()
    except OSError as lost:
        error += f"; status.json not written: {type(lost).__name__}: {lost}"
    return RunResult(run_id, str(run_dir), "failed", stage, error, None)


@dataclass(frozen=True)
class GridResult:
    rows: tuple[dict, ...]
    best_run_id: str
    leaderboard_path: str


# Leaderboard scores of a completed cell, each its report's best_<name>.
_SCORE_COLUMNS = ("modified_score", "val_score", "alpha")


def run_grid(grid: GridSpec, base: RunConfig, workers: int = 1) -> GridResult:
    """Run every grid cell with a derived seed and rank completed runs.

    Failures are recorded as rows with status "failed" and excluded from
    the ranking. The leaderboard is written as TSV next to the run
    directories; if every cell failed, the grid then fails. With more than
    one worker, a worker process that dies fails only the cells in flight
    (``_run_in_pools``).
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    cells = grid.combinations()
    configs = [replace(base, **{"seed": derive_seed(base.seed, "grid", order), **overrides})
               for order, overrides in enumerate(cells)]
    if workers > 1:
        results = _run_in_pools(configs, workers)
    else:
        results = [run_one(c) for c in configs]

    rows = []
    for order, (overrides, result) in enumerate(zip(cells, results)):
        row = {
            "order": order,
            "run_id": result.run_id,
            "status": result.status,
            "overrides": dict(overrides),
            "error": result.error,
        }
        if result.status == "ok":
            row.update({name: result.report[f"best_{name}"] for name in _SCORE_COLUMNS})
        rows.append(row)

    # ok rows by modified score, ties in grid order; failed rows after, in order
    rows.sort(key=lambda r: (r["status"] != "ok", -r.get("modified_score", 0), r["order"]))

    out_dir = Path(base.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    leaderboard = out_dir / "leaderboard.tsv"
    lines = ["\t".join(["rank", "run_id", "status", *_SCORE_COLUMNS, "overrides"])]
    for rank, row in enumerate(rows, start=1):
        scores = [_fmt(row.get(name)) for name in _SCORE_COLUMNS]
        overrides = ";".join(f"{k}={v}" for k, v in sorted(row["overrides"].items()))
        lines.append("\t".join([str(rank), row["run_id"], row["status"], *scores, overrides]))
    _write_whole(leaderboard, "\n".join(lines) + "\n")
    if rows[0]["status"] != "ok":
        raise SsteError(f"every grid cell failed; see {leaderboard}")
    return GridResult(
        rows=tuple(rows),
        best_run_id=rows[0]["run_id"],
        leaderboard_path=str(leaderboard),
    )


def _run_in_pools(configs: list[RunConfig], workers: int) -> list[RunResult]:
    """``run_one`` of each config, in config order, in a process pool that
    holds at most ``workers`` cells at a time, so that the cells in flight
    are the ones the pool is running. If a worker process dies, the pool
    breaks: each cell in flight fails at stage ``worker`` (its status.json
    written here), and the cells not yet started, the one whose submit
    found the pool broken included, run in a fresh pool. No cell runs
    twice."""
    # Imported here: the process-pool modules cost every other command
    # about 20 ms at start-up.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    results: list[RunResult | None] = [None] * len(configs)
    waiting = list(range(len(configs)))[::-1]  # popped from the end, in order
    while waiting:
        in_flight: dict = {}  # future -> (config index, submit time)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # The pool's own dict: shutdown drops the pool's reference to
                # it, and the exit codes are read once shutdown has joined them.
                processes = pool._processes
                while waiting or in_flight:
                    while waiting and len(in_flight) < workers:
                        future = pool.submit(run_one, configs[waiting[-1]])
                        in_flight[future] = (waiting.pop(), time.monotonic())
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        results[in_flight[future][0]] = future.result()
                        del in_flight[future]
        except BrokenProcessPool as exc:
            codes = sorted({p.exitcode for p in processes.values()} - {None, 0, -signal.SIGTERM})
            error = f"BrokenProcessPool: {exc}" + (
                f" (worker exit code {', '.join(map(str, codes))})" if codes else "")
            for future, (i, submitted) in in_flight.items():
                if not isinstance(future.exception(), BrokenProcessPool):
                    results[i] = future.result()  # finished before the pool broke
                    continue
                run_dir = Path(configs[i].out_dir) / f"run-{configs[i].run_id}"

                def write_status():
                    run_dir.mkdir(parents=True, exist_ok=True)
                    _write_status(run_dir, "failed", "worker", error, None,
                                  time.monotonic() - submitted, {})

                results[i] = _failed(configs[i].run_id, run_dir, "worker", error, write_status)
    return results


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def metric_columns(ks, ndcg_k: int) -> tuple[str, ...]:
    """auc, ndcg@``ndcg_k``, then p@k and r@k for each of ``ks``: the test
    metrics of a run whose config sets those cutoffs."""
    return ("auc", f"ndcg@{ndcg_k}", *(f"p@{k}" for k in ks), *(f"r@{k}" for k in ks))


def make_table(run_dirs) -> tuple[str, list[dict]]:
    """Comparison table over completed runs (text + machine-readable rows).

    The columns are the metrics each run's config asks for; runs must agree
    on them, and a run whose status.json is not ok is refused once its
    report parses. The best value per column is wrapped in ** **, the
    second best in _ _.
    """
    run_dirs = list(run_dirs)
    if not run_dirs:
        raise ValidationError("no runs to tabulate")
    rows = []
    for run_dir in run_dirs:
        try:
            report = json.loads((Path(run_dir) / "report.json").read_text(encoding="utf-8"))
            run_columns = metric_columns(report["config"]["precision_ks"],
                                         report["config"]["ndcg_k"])
            label = f"{report['objective']}/{report['run_id'][:8]}"
            metrics = {name: float(v) for name, v in report.get("test_metrics", {}).items()}
        except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
                RecursionError) as exc:
            raise ValidationError(f"unreadable report.json under {run_dir}: {exc!r}") from None
        try:
            ok = json.loads((Path(run_dir) / "status.json").read_bytes())["status"] == "ok"
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            ok = False
        if not ok:
            raise ValidationError(f"{run_dir} has no status.json that says ok")
        if rows and run_columns != columns:
            raise ValidationError(
                f"{run_dir} reports {', '.join(run_columns)}, "
                f"not {', '.join(columns)}"
            )
        columns = run_columns
        missing = [c for c in columns if c not in metrics]
        if missing:
            raise ValidationError(f"{run_dir} lacks metrics: {', '.join(missing)}")
        rows.append(
            {
                "label": label,
                "run_id": report["run_id"],
                "objective": report["objective"],
                "metrics": {c: metrics[c] for c in columns},
            }
        )

    emphasis: dict[tuple[int, str], str] = {}
    for column in columns:
        ranked = sorted(
            range(len(rows)), key=lambda i: -rows[i]["metrics"][column]
        )
        emphasis[(ranked[0], column)] = "**"
        if len(ranked) > 1:
            emphasis[(ranked[1], column)] = "_"

    label_width = max(len("method"), max(len(r["label"]) for r in rows))
    cells_width = 12
    header = "method".ljust(label_width) + "".join(
        c.upper().replace("NDCG", "nDCG").rjust(cells_width) for c in columns
    )
    lines = [header]
    for i, row in enumerate(rows):
        cells = []
        for column in columns:
            text = f"{row['metrics'][column]:.4f}"
            mark = emphasis.get((i, column))
            if mark:
                text = f"{mark}{text}{mark}"
            cells.append(text.rjust(cells_width))
        lines.append(row["label"].ljust(label_width) + "".join(cells))
    return "\n".join(lines) + "\n", rows


def save_table(rows: list[dict], path) -> None:
    """The rows of ``make_table`` as TSV: label, run id, then each metric."""
    columns = list(rows[0]["metrics"])
    lines = ["\t".join(["label", "run_id", *columns])]
    for row in rows:
        cells = [row["label"], row["run_id"]]
        cells += [f"{row['metrics'][c]:.6f}" for c in columns]
        lines.append("\t".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
