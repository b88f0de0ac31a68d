"""Per-layer spans taken from outside the package.

A Tracer replaces each public function of the sste modules on the name
where its caller looks it up (``sste.experiment.fit``,
``sste.train.batch_gradients``, ``sste.optim.SparseAdam.update``, ...) with
a wrapper that records a span: name, start, end and the index of the
enclosing span. Spans stay in memory until the pass ends. ``restore`` puts
every original back. Nothing under ``src/`` knows about the tracer.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of all spans add up to the traced time.
``trace.covered_frac`` leaves out the self time of the entry points
(``run_grid``, ``run_one``): it is the share of a pass that the layers
below them account for, and it falls as work moves outside those layers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict

from sste import evaluate, experiment, model, optim
from sste import train as train_mod


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters take (tracer, args, kwargs, result) and add to tracer.counts.
def _count_tsv_rows(tracer, args, kwargs, result):
    tracer.counts["data.load_tsv.rows"] += len(result)


def _count_spec(tracer, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    if spec in tracer.specs_built:
        tracer.counts["data.generate_synthetic.repeats"] += 1
    tracer.specs_built.add(spec)


def _count_sample(tracer, args, kwargs, result):
    source = _arg(args, kwargs, 0, "train")
    epsilons = _arg(args, kwargs, 2, "epsilons")
    tracer.counts["selfsample.offered"] += len(source) * len(epsilons)
    tracer.counts["selfsample.kept"] += sum(len(subset) for subset in result)


def _count_batch(tracer, args, kwargs, result):
    tracer.counts["train.batch_rows"] += len(_arg(args, kwargs, 2, "users"))


def _count_update(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 2, "rows")
    tracer.counts["optim.rows_updated"] += 1 if rows is None else len(rows)


def _count_checkpoint(tracer, args, kwargs, result):
    tracer.counts["model.ckpt_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_ranked(tracer, args, kwargs, result):
    tracer.counts["evaluate.ranked_users"] += len(result)


# (owner, attribute, span name, counter); one entry per place a caller looks a name up.
TARGETS = (
    (experiment, "run_grid", "experiment.run_grid", None),
    (experiment, "run_one", "experiment.run_one", None),
    (experiment, "test_metrics_for", "experiment.test_metrics_for", None),
    (experiment, "load_tsv", "data.load_tsv", _count_tsv_rows),
    (experiment, "split_ratio", "data.split_ratio", None),
    (experiment, "generate_synthetic", "data.generate_synthetic", _count_spec),
    (experiment, "estimate_popularity_propensity", "propensity.estimate", None),
    (experiment, "train_family", "selfsample.train_family", _count_sample),
    (train_mod, "train_family", "selfsample.train_family", _count_sample),
    (experiment, "val_family", "selfsample.val_family", _count_sample),
    (experiment, "fit", "train.fit", None),
    (train_mod, "sste_epoch", "train.epoch", None),
    (train_mod, "baseline_epoch", "train.epoch", None),
    (train_mod, "batch_gradients", "train.batch_gradients", _count_batch),
    (train_mod, "_apply_batch", "train.apply_batch", None),
    (train_mod, "self_evaluate", "train.self_evaluate", None),
    (optim.SparseAdam, "update", "optim.update", _count_update),
    (model.MfModel, "logits", "model.logits", None),
    (model.MfModel, "predict", "model.predict", None),
    (model.MfModel, "copy", "model.copy", None),
    (experiment, "save_checkpoint", "model.save_checkpoint", _count_checkpoint),
    (evaluate, "build_ranked_lists", "evaluate.build_ranked_lists", _count_ranked),
    (evaluate, "topk_metrics", "evaluate.topk_metrics", None),
    (evaluate, "auc_scores", "evaluate.auc_scores", None),
)


# Spans that wrap a whole run or grid; their self time is what no layer below explains.
ENTRY_POINTS = ("experiment.run_grid", "experiment.run_one")


def lookup(owner, attr):
    """The object stored on ``owner`` itself (a plain function for methods)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Context manager that records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.specs_built: set = set()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = lookup(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def bound_objects() -> list:
    """What each target name holds now; compare by identity to see a restore."""
    return [lookup(owner, attr) for owner, attr, _, _ in TARGETS]


def same_objects(before: list, after: list) -> bool:
    return len(before) == len(after) and all(a is b for a, b in zip(before, after))


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def tail(values) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest value. With fewer than eleven samples no
    such percentile exists, and the maximum is returned.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(spans, counts, run_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass that took ``run_s`` seconds."""
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
    run_one = [end - start for name, start, end, _ in spans if name == "experiment.run_one"]
    offered = counts["selfsample.offered"]
    epoch_s = total["train.epoch"]
    return {
        "data.load_tsv.s": total["data.load_tsv"],
        "data.load_tsv.rows": counts["data.load_tsv.rows"],
        "data.split_ratio.s": total["data.split_ratio"],
        "data.generate_synthetic.s": total["data.generate_synthetic"],
        "data.generate_synthetic.calls": calls["data.generate_synthetic"],
        "data.generate_synthetic.repeat_frac": (
            counts["data.generate_synthetic.repeats"] / calls["data.generate_synthetic"]
            if calls["data.generate_synthetic"] else 0.0
        ),
        "propensity.estimate.s": total["propensity.estimate"],
        "selfsample.train_family.s": total["selfsample.train_family"],
        "selfsample.train_family.calls": calls["selfsample.train_family"],
        "selfsample.val_family.s": total["selfsample.val_family"],
        "selfsample.kept_frac": counts["selfsample.kept"] / offered if offered else 0.0,
        "train.fit.s": total["train.fit"],
        "train.fit.self_s": own["train.fit"],
        "train.epoch.s": epoch_s,
        "train.epochs": calls["train.epoch"],
        "train.batch_gradients.s": total["train.batch_gradients"],
        "train.apply_batch.self_s": own["train.apply_batch"],
        "train.batches": calls["train.batch_gradients"],
        "train.batch_rows": counts["train.batch_rows"],
        "train.rows_per_s": counts["train.batch_rows"] / epoch_s if epoch_s else 0.0,
        "train.self_evaluate.s": total["train.self_evaluate"],
        "train.self_evaluate.calls": calls["train.self_evaluate"],
        "optim.update.s": total["optim.update"],
        "optim.update.calls": calls["optim.update"],
        "optim.rows_updated": counts["optim.rows_updated"],
        "model.logits.s": total["model.logits"],
        "model.logits.calls": calls["model.logits"],
        "model.predict.s": total["model.predict"],
        "model.predict.calls": calls["model.predict"],
        "model.copy.s": total["model.copy"],
        "model.save_checkpoint.s": total["model.save_checkpoint"],
        "model.ckpt_bytes": counts["model.ckpt_bytes"],
        "evaluate.build_ranked_lists.s": total["evaluate.build_ranked_lists"],
        "evaluate.ranked_users": counts["evaluate.ranked_users"],
        "evaluate.topk_metrics.s": total["evaluate.topk_metrics"],
        "evaluate.auc_scores.s": total["evaluate.auc_scores"],
        "experiment.run_one.s": statistics.median(run_one) if run_one else 0.0,
        "experiment.run_one.s.tail": tail(run_one) if run_one else 0.0,
        "experiment.run_one.self_s": own["experiment.run_one"],
        "experiment.test_metrics_for.s": total["experiment.test_metrics_for"],
        "trace.covered_frac": sum(
            self_s for name, self_s in own.items() if name not in ENTRY_POINTS
        ) / run_s,
    }
