"""Debiasing study on the synthetic world: SSTE against naive MF.

For each seed, both objectives search the default hyperparameter grid and
the selected model (best modified validation score) is scored on the
uniformly-exposed test pool. The summary reports per-seed test AUCs and
margins (sste minus naive), the win count, and the mean margin.

Run:
    python scripts/run_synthetic_study.py --out runs/synthetic-study

Exit status: 0 when SSTE wins a majority of the seeds, 1 when it does not,
and 2 on an error, such as a bad argument or an unwritable directory, which
is printed to stderr as ``error: ...``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sste.errors import SsteError, ValidationError
from sste.experiment import DEFAULT_GRID, GridSpec, RunConfig, run_grid

# World and training constants for the study; the grid on top of these is
# DEFAULT_GRID. Naive cells leave the epsilon lists empty, so their
# selection score degenerates to plain validation AUC.
STUDY = dict(
    synthetic=True,
    n_users=500,
    n_items=100,
    latent_dim=8,
    exposure_bias_strength=1.5,
    positive_threshold=0.25,
    train_impressions=20000,
    test_impressions=10000,
    gamma=0.5,
    floor=0.05,
    init_scale=0.1,
    max_epochs=30,
    patience=5,
)
SSTE_EXTRAS = dict(
    epsilon_train=(0.5,),
    epsilon_val=(0.3,),
    resample_each_epoch=True,
)


def study_config(seed: int, objective: str, out_dir: str) -> RunConfig:
    kw = dict(STUDY, objective=objective, data_seed=seed, seed=seed, out_dir=out_dir)
    if objective == "sste":
        kw.update(SSTE_EXTRAS)
    return RunConfig(**kw)


def selected_test_auc(grid_dir: Path, best_run_id: str) -> float:
    report = json.loads((grid_dir / f"run-{best_run_id}" / "report.json").read_text())
    return report["test_metrics"]["auc"]


def parse_seeds(text: str) -> list[int]:
    """The seeds of a comma-separated list; ValidationError unless it holds
    one or more distinct integers."""
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--seeds must list integers, got {text!r}") from None
    if not seeds:
        raise ValidationError("--seeds lists no seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValidationError(f"--seeds repeats {', '.join(map(str, repeated))}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated study seeds")
    parser.add_argument("--out", default="runs/synthetic-study",
                        help="root directory for run artifacts")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel grid cells per study")
    args = parser.parse_args(argv)
    try:
        return run_study(parse_seeds(args.seeds), Path(args.out), args.workers)
    except (SsteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_study(seeds: list[int], out_root: Path, workers: int) -> int:
    """Both objectives' grids for every seed, then the summary; 0 if SSTE
    wins a majority of the seeds, else 1."""
    results = {}
    t0 = time.time()
    for seed in seeds:
        for objective in ("naive", "sste"):
            grid_dir = out_root / f"seed{seed}" / objective
            cfg = study_config(seed, objective, str(grid_dir))
            res = run_grid(GridSpec(values=DEFAULT_GRID), cfg, workers=workers)
            results[(seed, objective)] = selected_test_auc(grid_dir, res.best_run_id)
            print(f"seed={seed} {objective:>5}: test AUC "
                  f"{results[(seed, objective)]:.4f}", flush=True)
        margin = results[(seed, "sste")] - results[(seed, "naive")]
        print(f"seed={seed} margin: {margin:+.6f}", flush=True)

    wins = sum(results[(s, "sste")] > results[(s, "naive")] for s in seeds)
    naive_mean = sum(results[(s, "naive")] for s in seeds) / len(seeds)
    sste_mean = sum(results[(s, "sste")] for s in seeds) / len(seeds)
    print(f"\nper-seed wins: {wins}/{len(seeds)}")
    print(f"mean test AUC: naive {naive_mean:.4f}, sste {sste_mean:.4f} "
          f"(margin {sste_mean - naive_mean:+.4f})")
    print(f"elapsed: {time.time() - t0:.0f}s")

    summary = out_root / "summary.tsv"
    lines = ["seed\tnaive_auc\tsste_auc\tmargin\twin"]
    for s in seeds:
        n, t = results[(s, "naive")], results[(s, "sste")]
        lines.append(f"{s}\t{n:.6f}\t{t:.6f}\t{t - n:+.6f}\t{int(t > n)}")
    summary.parent.mkdir(parents=True, exist_ok=True)
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"summary written to {summary}")
    return 0 if wins * 2 > len(seeds) else 1


if __name__ == "__main__":
    raise SystemExit(main())
