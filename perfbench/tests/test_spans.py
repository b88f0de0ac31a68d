from collections import Counter

import pytest
import spans

from sste import experiment, optim, train


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] counts once
        ("c", 2.0, 3.0, 1),
        ("d", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] is covered
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    tree = [("root", 0.0, 9.0, -1), ("a", 1.0, 5.0, 0), ("b", 2.0, 3.0, 1), ("c", 6.0, 8.0, 0)]
    assert sum(spans.self_times(tree)) == pytest.approx(9.0)


def test_covered_frac_leaves_out_the_entry_points_own_time():
    tree = [
        ("experiment.run_grid", 0.0, 10.0, -1),  # 1 s of its own
        ("experiment.run_one", 0.5, 9.5, 0),  # 3 s of its own
        ("train.fit", 1.0, 6.0, 1),
        ("evaluate.auc_scores", 7.0, 8.0, 1),
    ]
    metrics = spans.layer_metrics(tree, Counter(), run_s=10.0)
    assert metrics["trace.covered_frac"] == pytest.approx(0.6)
    assert metrics["experiment.run_one.self_s"] == pytest.approx(3.0)


def test_tail_keeps_ten_samples_beyond_it():
    assert spans.tail(range(32)) == 21  # ten values (22..31) lie beyond it
    assert spans.tail(range(11)) == 0
    assert spans.tail([3.0, 1.0, 2.0]) == 3.0


def test_wrappers_are_restored_after_a_traced_pass(tiny_config):
    before = spans.bound_objects()
    original_gradients = train.batch_gradients
    original_update = vars(optim.SparseAdam)["update"]
    with spans.Tracer() as tracer:
        assert train.batch_gradients is not original_gradients
        result = experiment.run_one(tiny_config)
    assert result.status == "ok"
    assert spans.same_objects(before, spans.bound_objects())
    assert train.batch_gradients is original_gradients
    assert vars(optim.SparseAdam)["update"] is original_update

    names = {name for name, _, _, _ in tracer.spans}
    assert {"experiment.run_one", "train.fit", "train.batch_gradients", "optim.update",
            "evaluate.build_ranked_lists", "model.save_checkpoint"} <= names
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["experiment.run_one"]
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, run_s=root[0][2] - root[0][1])
    run_one_own = metrics["experiment.run_one.self_s"] / (root[0][2] - root[0][1])
    assert 0.0 < run_one_own < 1.0
    assert metrics["trace.covered_frac"] == pytest.approx(1.0 - run_one_own)
    assert metrics["train.epochs"] == 2
    assert metrics["model.ckpt_bytes"] > 0


def test_wrappers_are_restored_when_the_pass_raises():
    before = spans.bound_objects()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert spans.same_objects(before, spans.bound_objects())
