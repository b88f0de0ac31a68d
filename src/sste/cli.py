"""Command-line entry points.

Subcommands mirror the pipeline: data stats/synth, propensity, selfsample,
train, evaluate, and the experiment harness (exp run/grid/table). All
machine output is JSON on stdout; errors go to stderr with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data as datamod
from . import experiment as exp
from . import propensity as prop
from .errors import SsteError, ValidationError
from .train import Objective, self_evaluate


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_data_stats(args) -> int:
    d = datamod.load_tsv(args.input, args.schema)
    _print_json(asdict(datamod.stats(d)))
    return 0


def _cmd_data_synth(args) -> int:
    train, val, test, relevance = datamod.generate_synthetic(exp.load_spec(args.spec))
    # sste train maps val/test ids through the ids train.tsv shows.
    for name, d in (("val.tsv", val), ("test.tsv", test)):
        for kind, unseen in (("user", np.setdiff1d(d.users, train.users)),
                             ("item", np.setdiff1d(d.items, train.items))):
            if len(unseen):
                raise ValidationError(f"{name} would hold {len(unseen)} {kind} ids that "
                                      f"train.tsv never shows (first: {unseen[0]})")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datamod.save_tsv(train, out / "train.tsv")
    datamod.save_tsv(val, out / "val.tsv")
    datamod.save_tsv(test, out / "test.tsv")
    np.save(out / "relevance.npy", relevance)
    _print_json({"out_dir": str(out), "train": len(train), "val": len(val), "test": len(test)})
    return 0


def _cmd_propensity(args) -> int:
    d = datamod.load_tsv(args.input, args.schema)
    table = prop.estimate_popularity_propensity(d, gamma=args.gamma, floor=args.floor)
    prop.save_table(table, args.out, d.item_id_map)
    _print_json({"out": args.out, "n_items": d.n_items})
    return 0


def _cmd_selfsample(args) -> int:
    prop.check_epsilon(args.epsilon)
    if args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
    d = datamod.load_tsv(args.input, args.schema)
    table = prop.estimate_popularity_propensity(d, gamma=args.gamma, floor=args.floor)
    probs = prop.sampling_probabilities(d, table)
    subset = prop.draw_auxiliary(d, probs, args.epsilon, args.seed)
    datamod.save_tsv(subset, args.out)
    _print_json(
        {
            "out": args.out,
            "source_size": len(d),
            "subset_size": len(subset),
            "expected_size": float(np.where(probs >= args.epsilon, 1.0, probs).sum()),
        }
    )
    return 0


def _epsilons(text: str) -> tuple[float, ...]:
    return exp.parse_value(text, typing.get_type_hints(exp.RunConfig)["epsilon_train"])


def _cmd_train(args) -> int:
    # The train flags are stored under RunConfig field names.
    names = {f.name for f in fields(exp.RunConfig)}
    cfg = exp.RunConfig(
        synthetic=False, **{k: v for k, v in vars(args).items() if k in names}
    )
    train_set, val_set, _ = exp.build_datasets(cfg)
    log_handle = open(args.log, "w", encoding="utf-8") if args.log else sys.stdout
    try:
        model, state = exp.train_model(cfg, train_set, val_set, log_handle)
    finally:
        if args.log:
            log_handle.close()

    exp.save_model(model, train_set, args.checkpoint_out)
    _print_json(
        {
            "checkpoint": args.checkpoint_out,
            "epochs_run": state.epoch,
            "best_epoch": state.best_epoch,
            "best_modified_score": state.best_score,
        }
    )
    return 0


def _parse_metrics(text: str) -> tuple[list[str], tuple[int, ...], int]:
    """Requested names, the P/R cutoffs and the nDCG cutoff (50 if none)."""
    names = [m.strip() for m in text.split(",") if m.strip()]
    ks, ndcg_ks = set(), set()
    for name in names:
        if name == "auc":
            continue
        kind, _, k_text = name.partition("@")
        k = int(k_text) if k_text.isdecimal() else 0
        if kind not in ("p", "r", "ndcg") or k < 1 or name != f"{kind}@{k}":
            raise ValidationError(
                f"unknown metric {name!r}: expected auc, p@K, r@K or ndcg@K with K >= 1"
            )
        (ndcg_ks if kind == "ndcg" else ks).add(k)
    if len(ndcg_ks) > 1:
        raise ValidationError("ask for at most one ndcg@K")
    return names, tuple(sorted(ks)), ndcg_ks.pop() if ndcg_ks else 50


def _cmd_evaluate(args) -> int:
    if args.aux_val and not args.val:
        raise ValidationError("--aux-val needs --val")
    names, ks, ndcg_k = _parse_metrics(args.metrics)
    model, user_ids, item_ids = exp.load_model(args.checkpoint)

    def load(path, schema, provenance):
        return datamod.load_tsv(path, schema, provenance, user_ids, item_ids)

    test_set = load(args.test, args.schema, datamod.Provenance.UNIFORM_TEST)
    exclude = None
    if args.exclude_train:
        exclude = load(args.exclude_train, args.schema, datamod.Provenance.BIASED_TRAIN)
    metrics = exp.test_metrics_for(model, test_set, exclude, ks=ks, ndcg_k=ndcg_k)
    out = {name: metrics[name] for name in names}
    if args.val:
        val_set = load(args.val, args.schema, datamod.Provenance.BIASED_VALIDATION)
        # A TSV records no draw seed or threshold, so each auxiliary file
        # loads as plain validation-side data.
        aux_sets = [
            load(path, "label", datamod.Provenance.BIASED_VALIDATION)
            for path in args.aux_val or []
        ]
        report = self_evaluate(model, val_set, aux_sets)
        out["val_auc"] = report.score_on_val
        out["aux_auc"] = list(report.scores_on_aux)
        out["alpha"] = report.alpha
        out["modified_score"] = report.modified_score
    _print_json(out)
    return 0


def _cmd_exp_run(args) -> int:
    cfg = exp.load_config(args.config)
    result = exp.run_one(cfg)
    _print_json({name: getattr(result, name)
                 for name in ("run_id", "run_dir", "status", "stage", "error")})
    return 0 if result.status == "ok" else 1


def _cmd_exp_grid(args) -> int:
    base = exp.load_config(args.config)
    grid = exp.load_grid(args.grid)
    result = exp.run_grid(grid, base, workers=args.workers)
    _print_json({"best_run_id": result.best_run_id, "leaderboard": result.leaderboard_path,
                 "n_rows": len(result.rows)})
    return 0


def _cmd_exp_table(args) -> int:
    text, rows = exp.make_table(args.runs)
    print(text, end="")
    if args.out:
        exp.save_table(rows, args.out)
    return 0


def _add_schema(parser, default="rating") -> None:
    parser.add_argument("--schema", choices=["rating", "label"], default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sste")
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("data", help="dataset utilities")
    data_sub = p_data.add_subparsers(dest="data_command", required=True)
    p_stats = data_sub.add_parser("stats", help="counts and P/N ratio of a TSV")
    p_stats.add_argument("--input", required=True)
    _add_schema(p_stats)
    p_stats.set_defaults(func=_cmd_data_stats)
    p_synth = data_sub.add_parser("synth", help="generate a synthetic dataset triple")
    p_synth.add_argument("--spec", required=True, help="key=value spec file")
    p_synth.add_argument("--out-dir", default=".")
    p_synth.set_defaults(func=_cmd_data_synth)

    p_prop = sub.add_parser("propensity", help="estimate per-item propensities")
    p_prop.add_argument("--input", required=True)
    p_prop.add_argument("--gamma", type=float, default=prop.DEFAULT_GAMMA)
    p_prop.add_argument("--floor", type=float, default=prop.DEFAULT_FLOOR)
    p_prop.add_argument("--out", required=True)
    _add_schema(p_prop)
    p_prop.set_defaults(func=_cmd_propensity)

    p_ss = sub.add_parser("selfsample", help="draw one auxiliary subset")
    p_ss.add_argument("--input", required=True)
    p_ss.add_argument("--gamma", type=float, default=prop.DEFAULT_GAMMA)
    p_ss.add_argument("--floor", type=float, default=prop.DEFAULT_FLOOR)
    p_ss.add_argument("--epsilon", type=float, required=True)
    p_ss.add_argument("--seed", type=int, required=True)
    p_ss.add_argument("--out", required=True)
    _add_schema(p_ss)
    p_ss.set_defaults(func=_cmd_selfsample)

    # Flags left out take RunConfig's defaults.
    p_train = sub.add_parser(
        "train", help="train one model", argument_default=argparse.SUPPRESS
    )
    p_train.add_argument(
        "--objective", choices=[o.value for o in Objective], required=True
    )
    p_train.add_argument("--train", dest="train_path", required=True)
    p_train.add_argument("--val", dest="val_path", required=True)
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--floor", type=float)
    p_train.add_argument("--epsilon-train", type=_epsilons, help="comma-separated")
    p_train.add_argument("--epsilon-val", type=_epsilons, help="comma-separated")
    p_train.add_argument("--lr", dest="learning_rate", type=float)
    p_train.add_argument("--l2", dest="l2_lambda", type=float)
    p_train.add_argument("--batch", dest="batch_size", type=int)
    p_train.add_argument("--max-epochs", type=int)
    p_train.add_argument("--patience", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--embedding-dim", type=int)
    p_train.add_argument("--init-scale", type=float)
    p_train.add_argument("--checkpoint-out", required=True)
    p_train.add_argument("--log", default="", help="epoch JSONL path (default stdout)")
    _add_schema(p_train, default=argparse.SUPPRESS)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on a test TSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--metrics", default="auc,p@5,p@10,r@5,r@10,ndcg@50")
    p_eval.add_argument("--exclude-train", default="", help="TSV of training positives")
    p_eval.add_argument("--val", default="", help="validation TSV for alpha scoring")
    p_eval.add_argument("--aux-val", nargs="*", help="auxiliary validation TSVs")
    _add_schema(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_exp = sub.add_parser("exp", help="experiment harness")
    exp_sub = p_exp.add_subparsers(dest="exp_command", required=True)
    p_run = exp_sub.add_parser("run", help="run one config")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_exp_run)
    p_grid = exp_sub.add_parser("grid", help="grid search over a config")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--grid", required=True)
    p_grid.add_argument("--workers", type=int, default=1)
    p_grid.set_defaults(func=_cmd_exp_grid)
    p_table = exp_sub.add_parser("table", help="comparison table over run dirs")
    p_table.add_argument("--runs", nargs="+", required=True)
    p_table.add_argument("--out", default="", help="also write a TSV here")
    p_table.set_defaults(func=_cmd_exp_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SsteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
