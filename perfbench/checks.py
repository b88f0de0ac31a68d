"""Correctness gate for the passes of one benchmark run.

A run (one run directory) fails when any of these holds:

- its ``status.json`` is not ``status=ok`` or ``epochs.jsonl`` does not have
  exactly the fixed number of lines;
- any of its files other than ``status.json`` differs byte for byte from
  the same run in the first pass (this covers traced passes too), or a
  pass-level file such as ``leaderboard.tsv`` differs;
- the top-K metrics in its first-pass ``report.json`` differ from those of
  the dense full-ranking oracle below.

The oracle reads ``model.ckpt`` itself and scores every (user, item) pair
of a block of users at once, ranks by the clipped Hat probability with the
smaller item id first among ties, and excludes the train split's
positives, rebuilt with the public ``split_ratio`` and
``derive_seed(data_seed, "split")`` as ``run_one`` does. Per-pair scores
repeat the model's arithmetic (one ``einsum`` row dot, then the biases in
the same order, then the stable sigmoid and clip), so exact ties compare
exactly; ranking, exclusion, tie order and the metric formulas are the
oracle's own.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import datasets

from sste.experiment import RunConfig

_CKPT_MAGIC = b"SSTE-MF-CKPT-1\n"
_PROB_EPS = 1e-15
_METRIC_TOL = 1e-9
_USER_BLOCK = 64


def run_dirs(pass_dir: Path) -> dict[str, Path]:
    """Run directories of one pass, keyed by their path inside the pass."""
    return {str(p.relative_to(pass_dir)): p for p in sorted(pass_dir.glob("**/run-*"))}


def _files(root: Path, skip_runs: bool) -> dict[str, bytes]:
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_dir() or path.name == "status.json":
            continue
        if skip_runs and any(part.startswith("run-") for part in rel.parts):
            continue
        out[str(rel)] = path.read_bytes()
    return out


def run_ok(run_dir: Path, epochs: int) -> bool:
    try:
        status = json.loads((run_dir / "status.json").read_text(encoding="utf-8"))
        lines = (run_dir / "epochs.jsonl").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError):
        return False
    return status.get("status") == "ok" and len(lines) == epochs


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """Hat-branch parameters from the package's documented checkpoint layout."""
    raw = path.read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path} is not a model checkpoint")
    header_end = raw.index(b"\n", len(_CKPT_MAGIC))
    dims = json.loads(raw[len(_CKPT_MAGIC):header_end])
    n_users, n_items, k = dims["n_users"], dims["n_items"], dims["k"]
    flat = np.frombuffer(raw[header_end + 1:], dtype="<f8")
    sizes = [n_users * k, n_items * k, n_users, n_items, 1, n_users, n_items, 1]
    if len(flat) != sum(sizes):
        raise ValueError(f"{path} has {len(flat)} values, expected {sum(sizes)}")
    blocks = np.split(flat.astype(np.float64), np.cumsum(sizes)[:-1])
    return {
        "U": blocks[0].reshape(n_users, k), "V": blocks[1].reshape(n_items, k),
        "bu": blocks[5], "bi": blocks[6], "g": float(blocks[7][0]),
    }


def _hat_probability(p: dict, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    z = np.einsum("ij,ij->i", p["U"][users], p["V"][items])
    z = z + p["bu"][users] + p["bi"][items] + p["g"]
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _PROB_EPS, 1.0 - _PROB_EPS)


def _positive_matrix(d, n_users: int, n_items: int) -> np.ndarray:
    mask = np.zeros((n_users, n_items), dtype=bool)
    pos = d.labels == 1
    mask[d.users[pos], d.items[pos]] = True
    return mask


def oracle_topk(params: dict, train, test, ks, ndcg_k: int) -> dict[str, float]:
    """Macro P@K, R@K and nDCG@ndcg_k by dense full ranking of every item."""
    n_users, n_items = params["U"].shape[0], params["V"].shape[0]
    banned = _positive_matrix(train, n_users, n_items)
    relevant = _positive_matrix(test, n_users, n_items) & ~banned
    users = np.flatnonzero(relevant.any(axis=1))
    if len(users) == 0:
        raise ValueError("no user has a relevant test item")
    depth = min(max(max(ks), ndcg_k), n_items)
    discounts = 1.0 / np.log2(np.arange(2, depth + 2))
    sums = {f"p@{k}": 0.0 for k in ks} | {f"r@{k}": 0.0 for k in ks} | {f"ndcg@{ndcg_k}": 0.0}
    all_items = np.arange(n_items)
    for lo in range(0, len(users), _USER_BLOCK):
        block = users[lo:lo + _USER_BLOCK]
        probs = _hat_probability(
            params, np.repeat(block, n_items), np.tile(all_items, len(block))
        ).reshape(len(block), n_items)
        probs[banned[block]] = -np.inf  # excluded items sort after every candidate
        order = np.argsort(-probs, axis=1, kind="stable")[:, :depth]
        gains = np.take_along_axis(relevant[block], order, axis=1)
        n_rel = relevant[block].sum(axis=1)
        for k in ks:
            hits = gains[:, :k].sum(axis=1)
            sums[f"p@{k}"] += float((hits / k).sum())
            sums[f"r@{k}"] += float((hits / n_rel).sum())
        top = gains[:, :ndcg_k]
        dcg = (top * discounts[:top.shape[1]]).sum(axis=1)
        ideal = np.cumsum(discounts[:ndcg_k])[np.minimum(n_rel, ndcg_k) - 1]
        sums[f"ndcg@{ndcg_k}"] += float((dcg / ideal).sum())
    return {name: total / len(users) for name, total in sums.items()}


# RunConfig fields that decide the datasets of a run.
_DATA_FIELDS = (
    "synthetic", "n_users", "n_items", "latent_dim", "exposure_bias_strength",
    "positive_threshold", "train_impressions", "test_impressions", "data_seed",
    "train_path", "val_path", "test_path", "schema", "split_ratio", "split_mode",
)


def oracle_agrees(run_dir: Path, cache: dict) -> bool:
    """Whether the stored top-K metrics match the oracle's; ``cache`` holds
    (train, test) per data spec across calls."""
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    cfg = RunConfig(**json.loads((run_dir / "config.json").read_text(encoding="utf-8")))
    key = tuple(getattr(cfg, name) for name in _DATA_FIELDS)
    if key not in cache:
        train, _, test = datasets(cfg)
        cache[key] = (train, test)
    train, test = cache[key]
    expected = oracle_topk(
        read_checkpoint(run_dir / "model.ckpt"), train, test, cfg.precision_ks, cfg.ndcg_k
    )
    stored = report["test_metrics"]
    return all(
        name in stored and math.isclose(stored[name], value, rel_tol=0.0, abs_tol=_METRIC_TOL)
        for name, value in expected.items()
    )


def gate(work: Path, pass_names: list[str], epochs: int, runs_per_pass: int) -> tuple[int, int]:
    """(attempted, failed) runs over all passes; the first pass is the reference."""
    reference = work / pass_names[0]
    ref_files = {rel: _files(path, skip_runs=False) for rel, path in run_dirs(reference).items()}
    ref_outer = _files(reference, skip_runs=True)
    cache = {}
    oracle_ok = {}
    for rel in ref_files:
        try:
            oracle_ok[rel] = oracle_agrees(reference / rel, cache)
        except (OSError, ValueError, KeyError):
            oracle_ok[rel] = False
    attempted = failed = 0
    for name in pass_names:
        pass_dir = work / name
        runs = run_dirs(pass_dir)
        outer_same = _files(pass_dir, skip_runs=True) == ref_outer
        attempted += runs_per_pass
        failed += max(runs_per_pass - len(runs), 0)
        for rel, run_dir in runs.items():
            failed += not (
                outer_same and run_ok(run_dir, epochs) and oracle_ok.get(rel, False)
                and _files(run_dir, skip_runs=False) == ref_files[rel]
            )
    return attempted, min(failed, attempted)
