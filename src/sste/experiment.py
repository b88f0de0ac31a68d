"""End-to-end experiment orchestration: single runs, grids, result tables.

A run is fully described by a flat RunConfig; the sha256 of its canonical
JSON (output directory excluded) names the run directory, so re-running the
same config lands in the same place with byte-identical artifacts. Grid
search expands value lists over RunConfig fields, gives every cell a derived
training seed, executes cells in isolation, and ranks completed runs by
their modified validation score.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
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
    generate_synthetic,
    load_tsv,
    split_ratio,
)
from .errors import ParseError, SsteError, ValidationError
from .model import Branch, InitSpec, MfModel, save_checkpoint
from .propensity import estimate_popularity_propensity
from .seeding import derive_seed
from .selfsample import train_family, val_family
from .train import Objective, TrainConfig, TrainState, fit

_RUN_ID_HEX_CHARS = 16


@dataclass(frozen=True)
class RunConfig:
    """Flat, fully serializable description of one experiment run.

    Synthetic mode draws the three datasets from the data fields; file mode
    (synthetic=false) loads TSVs instead, splitting train when val_path is
    empty. A file-mode config without test_path can train but not run. ``seed``
    drives training, initialization, and sampling; ``data_seed`` drives
    dataset generation and splitting.
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
    gamma: float = 0.5
    floor: float = 0.01
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
        Objective(self.objective)
        Schema(self.schema)
        SplitMode(self.split_mode)
        if self.objective == "sste" and not self.epsilon_train:
            raise ValidationError("sste needs at least one epsilon_train value")
        if self.objective != "sste" and (self.epsilon_train or self.resample_each_epoch):
            raise ValidationError("epsilon_train and resample_each_epoch apply only to sste")
        if not self.synthetic and not (self.test_path or self.val_path):
            raise ValidationError("file mode needs test_path")
        if self.ndcg_k < 1 or any(k < 1 for k in self.precision_ks):
            raise ValidationError("ndcg_k and every precision_ks value must be >= 1")

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("epsilon_train", "epsilon_val", "precision_ks"):
            out[key] = list(out[key])
        return out

    def identity_dict(self) -> dict:
        out = self.to_dict()
        out.pop("out_dir")
        return out

    @property
    def run_id(self) -> str:
        canonical = json.dumps(self.identity_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:_RUN_ID_HEX_CHARS]


_TUPLE_ELEMENT_TYPES = {
    "epsilon_train": float,
    "epsilon_val": float,
    "precision_ks": int,
}
_TRUE_WORDS = {"true", "1", "yes"}
_FALSE_WORDS = {"false", "0", "no"}


def _field_types() -> dict[str, type]:
    defaults = RunConfig()
    return {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}


def _parse_scalar(name: str, text: str, kind: type):
    text = text.strip()
    if kind is bool:
        word = text.lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def _parse_value(name: str, text: str, kind: type):
    if kind is tuple:
        element = _TUPLE_ELEMENT_TYPES[name]
        text = text.strip()
        if not text:
            return ()
        return tuple(element(part.strip()) for part in text.split(","))
    return _parse_scalar(name, text, kind)


def _read_kv_lines(path) -> list[tuple[int, str, str]]:
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}", line_no)
            key, _, value = line.partition("=")
            entries.append((line_no, key.strip(), value.strip()))
    return entries


def load_config(path, **overrides) -> RunConfig:
    """RunConfig from a flat key=value file; unknown keys are errors."""
    types = _field_types()
    values: dict = {}
    for line_no, key, text in _read_kv_lines(path):
        if key not in types:
            raise ParseError(f"unknown config key {key!r}", line_no)
        try:
            values[key] = _parse_value(key, text, types[key])
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line_no) from None
    values.update(overrides)
    return RunConfig(**values)


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
    distinct cells with ``grid_seed``. Runs are ranked by the modified
    validation score.
    """

    values: dict[str, tuple]
    mode: str = "full"
    samples: int = 0
    grid_seed: int = 0

    def __post_init__(self):
        if not self.values:
            raise ValidationError("grid needs at least one field")
        clean = {}
        types = _field_types()
        for name, options in self.values.items():
            if name not in types:
                raise ValidationError(f"unknown grid field {name!r}")
            if types[name] is tuple:
                raise ValidationError(f"cannot sweep list-valued field {name!r}")
            options = tuple(options)
            if not options:
                raise ValidationError(f"empty value list for {name!r}")
            clean[name] = options
        object.__setattr__(self, "values", clean)
        if self.mode not in ("full", "random"):
            raise ValidationError(f"unknown grid mode {self.mode!r}")
        if self.mode == "random" and self.samples < 1:
            raise ValidationError("random mode needs samples >= 1")

    def combinations(self) -> list[dict]:
        names = sorted(self.values)
        all_cells = [
            dict(zip(names, combo))
            for combo in product(*(self.values[name] for name in names))
        ]
        if self.mode == "full":
            return all_cells
        if self.samples >= len(all_cells):
            return all_cells
        rng = np.random.default_rng(self.grid_seed)
        picks = np.sort(rng.choice(len(all_cells), size=self.samples, replace=False))
        return [all_cells[i] for i in picks]


def load_grid(path) -> GridSpec:
    """GridSpec from key=value lines; non-control keys sweep RunConfig fields."""
    types = _field_types()
    control = {"mode": "full", "samples": 0, "grid_seed": 0}
    values: dict[str, tuple] = {}
    for line_no, key, text in _read_kv_lines(path):
        if key not in control and key not in types:
            raise ParseError(f"unknown grid key {key!r}", line_no)
        try:
            if key == "mode":
                control[key] = text
            elif key in control:
                control[key] = int(text)
            else:
                values[key] = tuple(
                    _parse_scalar(key, part, types[key]) for part in text.split(",")
                )
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line_no) from None
    return GridSpec(values=values, **control)


@dataclass(frozen=True)
class RunResult:
    run_id: str
    run_dir: str
    status: str
    stage: str
    error: str | None
    report: dict | None


def build_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset, Dataset | None]:
    """(train, val, test) of a config; test is None when file mode has no test_path."""
    if cfg.synthetic:
        spec = SyntheticSpec(
            n_users=cfg.n_users,
            n_items=cfg.n_items,
            latent_dim=cfg.latent_dim,
            exposure_bias_strength=cfg.exposure_bias_strength,
            positive_threshold=cfg.positive_threshold,
            train_impressions=cfg.train_impressions,
            test_impressions=cfg.test_impressions,
            seed=cfg.data_seed,
        )
        train, val, test, _ = generate_synthetic(spec)
        return train, val, test
    schema = Schema(cfg.schema)
    biased = load_tsv(cfg.train_path, schema, provenance=Provenance.BIASED_TRAIN)
    if cfg.val_path:
        train = biased
        val = load_tsv(
            cfg.val_path, schema, provenance=Provenance.BIASED_VALIDATION,
            user_map=biased.user_id_map, item_map=biased.item_id_map,
        )
    else:
        train, val = split_ratio(
            biased, cfg.split_ratio, SplitMode(cfg.split_mode),
            seed=derive_seed(cfg.data_seed, "split"),
        )
    if not cfg.test_path:
        return train, val, None
    test = load_tsv(
        cfg.test_path, schema, provenance=Provenance.UNIFORM_TEST,
        user_map=biased.user_id_map, item_map=biased.item_id_map,
    )
    return train, val, test


def train_model(
    cfg: RunConfig, train: Dataset, val: Dataset, log, on_stage=None
) -> tuple[MfModel, TrainState]:
    """Propensity, self-sampling and training of one config on its datasets.

    The one training pipeline behind ``run_one`` and ``sste train``: every
    random stream is seeded from ``cfg.seed`` by a derived seed, and each
    epoch writes one JSON line to the text handle ``log``. ``on_stage(name)``
    is called as the propensity, selfsample and train stages begin.
    """
    on_stage = on_stage or (lambda name: None)
    on_stage("propensity")
    objective = Objective(cfg.objective)
    needs_propensity = objective is not Objective.NAIVE or cfg.epsilon_val
    pt = (
        estimate_popularity_propensity(train, gamma=cfg.gamma, floor=cfg.floor)
        if needs_propensity
        else None
    )

    on_stage("selfsample")
    aux_seed = derive_seed(cfg.seed, "selfsample")
    a_tr = (
        train_family(train, pt, cfg.epsilon_train, aux_seed, epoch=0)
        if objective is Objective.SSTE
        else []
    )
    a_val = val_family(val, pt, cfg.epsilon_val, aux_seed) if cfg.epsilon_val else []

    on_stage("train")
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        l2_lambda=cfg.l2_lambda,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        objective=objective,
        seed=derive_seed(cfg.seed, "train"),
    )

    def on_epoch(epoch, breakdown, report):
        line = {
            "epoch": epoch,
            "loss": breakdown.to_dict(),
            "val_score": report.score_on_val,
            "aux_scores": list(report.scores_on_aux),
            "alpha": report.alpha,
            "modified_score": report.modified_score,
        }
        log.write(json.dumps(line, sort_keys=True) + "\n")

    return fit(
        train, val, (a_tr, a_val), train_cfg,
        embedding_dim=cfg.embedding_dim,
        init_spec=InitSpec(scale=cfg.init_scale, seed=derive_seed(cfg.seed, "init")),
        propensity=pt,
        resample_seed=aux_seed if cfg.resample_each_epoch else None,
        on_epoch=on_epoch,
    )


def test_metrics_for(
    model: MfModel, test: Dataset, exclude: Dataset | None, ks=(5, 10), ndcg_k: int = 50
) -> dict[str, float]:
    """Global AUC plus full-ranking top-K metrics, ranking no positive of ``exclude``."""
    metrics = {
        "auc": ev.auc_scores(model.predict(Branch.HAT, test.users, test.items), test.labels)
    }
    lists = ev.build_ranked_lists(
        lambda users, items: model.predict(Branch.HAT, users, items),
        test,
        exclude=exclude,
    )
    metrics.update(ev.topk_metrics(lists, ks=ks, ndcg_k=ndcg_k))
    return metrics


def run_one(cfg: RunConfig) -> RunResult:
    """Execute one config end to end, persisting artifacts in its run dir.

    Writes config.txt/config.json, epochs.jsonl, model.ckpt, report.json,
    and status.json. Any failure is recorded in status.json with the stage
    that failed, and reported in the returned RunResult.
    """
    run_dir = Path(cfg.out_dir) / f"run-{cfg.run_id}"
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, run_dir / "config.txt")
    (run_dir / "config.json").write_text(
        json.dumps(cfg.identity_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    started = time.monotonic()
    stage = "data"

    def _fail(exc: Exception) -> RunResult:
        status = {
            "status": "failed",
            "stage": stage,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_seconds": time.monotonic() - started,
        }
        (run_dir / "status.json").write_text(
            json.dumps(status, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return RunResult(
            run_id=cfg.run_id, run_dir=str(run_dir), status="failed",
            stage=stage, error=status["error"], report=None,
        )

    def enter(name: str) -> None:
        nonlocal stage
        stage = name

    try:
        if not (cfg.synthetic or cfg.test_path):
            raise ValidationError("file mode needs test_path")
        train, val, test = build_datasets(cfg)
        with open(run_dir / "epochs.jsonl", "w", encoding="utf-8") as log:
            model, state = train_model(cfg, train, val, log, on_stage=enter)

        stage = "evaluate"
        metrics = test_metrics_for(
            model, test, train, ks=cfg.precision_ks, ndcg_k=cfg.ndcg_k
        )
        best_report = state.history[state.best_epoch - 1]

        stage = "persist"
        save_checkpoint(model, run_dir / "model.ckpt")
        report = {
            "run_id": cfg.run_id,
            "objective": cfg.objective,
            "config": cfg.identity_dict(),
            "epochs_run": state.epoch,
            "best_epoch": state.best_epoch,
            "best_modified_score": state.best_score,
            "best_val_score": best_report.score_on_val,
            "best_alpha": best_report.alpha,
            "test_metrics": {name: float(value) for name, value in metrics.items()},
        }
        (run_dir / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        status = {
            "status": "ok",
            "stage": "done",
            "error": None,
            "elapsed_seconds": time.monotonic() - started,
        }
        (run_dir / "status.json").write_text(
            json.dumps(status, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return RunResult(
            run_id=cfg.run_id, run_dir=str(run_dir), status="ok",
            stage="done", error=None, report=report,
        )
    except (SsteError, OSError) as exc:
        return _fail(exc)


@dataclass(frozen=True)
class GridResult:
    rows: tuple[dict, ...]
    best_run_id: str
    leaderboard_path: str


def run_grid(grid: GridSpec, base: RunConfig, workers: int = 1) -> GridResult:
    """Run every grid cell with a derived seed and rank completed runs.

    Failures are recorded as rows with status "failed" and excluded from
    the ranking; if every cell fails the grid itself fails. The leaderboard
    is written as TSV next to the run directories.
    """
    cells = grid.combinations()
    configs = []
    for order, overrides in enumerate(cells):
        cell = replace(base, **overrides)
        if "seed" not in overrides:
            cell = replace(cell, seed=derive_seed(base.seed, "grid", order))
        configs.append(cell)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, configs))
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
            row["modified_score"] = result.report["best_modified_score"]
            row["val_score"] = result.report["best_val_score"]
            row["alpha"] = result.report["best_alpha"]
        rows.append(row)

    completed = [r for r in rows if r["status"] == "ok"]
    if not completed:
        raise SsteError("every grid cell failed")
    completed.sort(key=lambda r: (-r["modified_score"], r["order"]))
    failed = [r for r in rows if r["status"] != "ok"]
    ordered = completed + failed

    out_dir = Path(base.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    leaderboard = out_dir / "leaderboard.tsv"
    header = ["rank", "run_id", "status", "modified_score", "val_score", "alpha", "overrides"]
    lines = ["\t".join(header)]
    for rank, row in enumerate(ordered, start=1):
        overrides = ";".join(f"{k}={v}" for k, v in sorted(row["overrides"].items()))
        lines.append(
            "\t".join(
                [
                    str(rank),
                    row["run_id"],
                    row["status"],
                    _fmt(row.get("modified_score")),
                    _fmt(row.get("val_score")),
                    _fmt(row.get("alpha")),
                    overrides,
                ]
            )
        )
    leaderboard.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return GridResult(
        rows=tuple(ordered),
        best_run_id=completed[0]["run_id"],
        leaderboard_path=str(leaderboard),
    )


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


_TABLE_COLUMNS = ("auc", "ndcg@50", "p@5", "p@10", "r@5", "r@10")
_TABLE_HEADERS = ("AUC", "nDCG@50", "P@5", "P@10", "R@5", "R@10")


def make_table(run_dirs) -> tuple[str, list[dict]]:
    """Comparison table over completed runs (text + machine-readable rows).

    The best value per column is wrapped in ** **, the second best in _ _.
    """
    run_dirs = list(run_dirs)
    if not run_dirs:
        raise ValidationError("no runs to tabulate")
    rows = []
    for run_dir in run_dirs:
        report_path = Path(run_dir) / "report.json"
        if not report_path.exists():
            raise ValidationError(f"missing report.json under {run_dir}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        metrics = report.get("test_metrics", {})
        missing = [c for c in _TABLE_COLUMNS if c not in metrics]
        if missing:
            raise ValidationError(f"{run_dir} lacks metrics: {', '.join(missing)}")
        rows.append(
            {
                "label": f"{report['objective']}/{report['run_id'][:8]}",
                "run_id": report["run_id"],
                "objective": report["objective"],
                "metrics": {c: float(metrics[c]) for c in _TABLE_COLUMNS},
            }
        )

    marks: dict[tuple[int, str], str] = {}
    for column in _TABLE_COLUMNS:
        ranked = sorted(
            range(len(rows)), key=lambda i: -rows[i]["metrics"][column]
        )
        if ranked:
            marks[(ranked[0], column)] = "**"
        if len(ranked) > 1:
            marks[(ranked[1], column)] = "_"

    label_width = max(len("method"), max(len(r["label"]) for r in rows))
    cells_width = 12
    header = "method".ljust(label_width) + "".join(
        h.rjust(cells_width) for h in _TABLE_HEADERS
    )
    lines = [header]
    for i, row in enumerate(rows):
        cells = []
        for column in _TABLE_COLUMNS:
            text = f"{row['metrics'][column]:.4f}"
            mark = marks.get((i, column))
            if mark:
                text = f"{mark}{text}{mark}"
            cells.append(text.rjust(cells_width))
        lines.append(row["label"].ljust(label_width) + "".join(cells))
    return "\n".join(lines) + "\n", rows
