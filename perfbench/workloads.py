"""The benchmark's workloads, built on the package's public run configs.

Every workload trains a fixed number of epochs (patience equals
max_epochs), so a change that only moves the numbers cannot move the run
time through the epoch count, and runs in one process (grid workers=1).

- study-grid: one seed of the synthetic debiasing study, i.e. the world and
  training constants of ``scripts/run_synthetic_study.py`` over
  ``DEFAULT_GRID`` for naive and sste (32 small cells). Per-batch overhead
  in train/optim dominates; no TSV is read.
- yahoo-sste: Yahoo! R3-shaped TSVs in file mode with sste, k=10, B=512 and
  per-epoch auxiliary redraws. Full-ranking evaluation over 1,000 items,
  TSV parsing, the per-user split and the sampler dominate.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STUDY_SCRIPT = ROOT / "scripts" / "run_synthetic_study.py"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from sste import experiment  # noqa: E402
from sste.data import (  # noqa: E402
    Provenance, Schema, SplitMode, SyntheticSpec, generate_synthetic, load_tsv, split_ratio,
)
from sste.experiment import DEFAULT_GRID, GridSpec, RunConfig  # noqa: E402
from sste.seeding import derive_seed  # noqa: E402


@functools.cache
def study_constants() -> tuple[dict, dict]:
    """(STUDY, SSTE_EXTRAS) from the study script, their one definition."""
    spec = importlib.util.spec_from_file_location("run_synthetic_study", STUDY_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STUDY, module.SSTE_EXTRAS


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int
    uses_files: bool

    def configs(self, seed: int, out_dir: str, data_dir: str) -> list[RunConfig]:
        """Base configs of one pass: one per grid (study) or the single run."""
        fixed = dict(max_epochs=self.epochs, patience=self.epochs, data_seed=seed, seed=seed)
        if self.name == "study-grid":
            study, sste_extras = study_constants()
            out = []
            for objective in ("naive", "sste"):
                kw = dict(study, objective=objective, out_dir=f"{out_dir}/{objective}", **fixed)
                if objective == "sste":
                    kw.update(sste_extras)
                out.append(RunConfig(**kw))
            return out
        return [RunConfig(
            synthetic=False, schema="rating",
            train_path=f"{data_dir}/train.tsv", test_path=f"{data_dir}/test.tsv",
            split_ratio=0.8, split_mode="per_user", out_dir=out_dir,
            objective="sste", epsilon_train=(0.5,), epsilon_val=(0.3,),
            resample_each_epoch=True, embedding_dim=10, batch_size=512, **fixed,
        )]

    def runs_per_pass(self) -> int:
        if self.uses_files:
            return len(self.configs(0, "", ""))
        return len(self.configs(0, "", "")) * len(GridSpec(values=DEFAULT_GRID).combinations())

    def run_pass(self, seed: int, out_dir: str, data_dir: str) -> None:
        """One pass through the public entry points. Failed runs are left for
        the correctness gate to count. The entry point is looked up on the
        module at call time, so trace wrappers see the call."""
        for cfg in self.configs(seed, out_dir, data_dir):
            if self.uses_files:
                experiment.run_one(cfg)
            else:
                experiment.run_grid(GridSpec(values=DEFAULT_GRID), cfg, workers=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-grid", epochs=6, uses_files=False),
        Workload("yahoo-sste", epochs=2, uses_files=True),
    )
}


def datasets(cfg: RunConfig):
    """(train, val, test) of a config, built through the public data functions
    the way run_one builds them."""
    if cfg.synthetic:
        train, val, test, _ = generate_synthetic(SyntheticSpec(
            n_users=cfg.n_users, n_items=cfg.n_items, latent_dim=cfg.latent_dim,
            exposure_bias_strength=cfg.exposure_bias_strength,
            positive_threshold=cfg.positive_threshold,
            train_impressions=cfg.train_impressions,
            test_impressions=cfg.test_impressions, seed=cfg.data_seed,
        ))
        return train, val, test
    schema = Schema(cfg.schema)
    biased = load_tsv(cfg.train_path, schema, provenance=Provenance.BIASED_TRAIN)
    train, val = split_ratio(
        biased, cfg.split_ratio, SplitMode(cfg.split_mode),
        seed=derive_seed(cfg.data_seed, "split"),
    )
    test = load_tsv(
        cfg.test_path, schema, provenance=Provenance.UNIFORM_TEST,
        user_map=biased.user_id_map, item_map=biased.item_id_map,
    )
    return train, val, test
