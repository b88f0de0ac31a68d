import numpy as np
import pytest
import yahoo_gen
from yahoo_gen import Shape, ShapeError

SMALL = Shape(n_users=300, n_items=100, train_rows=3300, test_users=50, test_items_per_user=5)


def test_small_world_has_the_shape_and_is_seeded(tmp_path):
    yahoo_gen.build(tmp_path / "a", seed=4, shape=SMALL)  # checks shape and coverage
    yahoo_gen.build(tmp_path / "b", seed=4, shape=SMALL)
    yahoo_gen.build(tmp_path / "c", seed=5, shape=SMALL)
    for name in ("train.tsv", "test.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "train.tsv").read_bytes() != (tmp_path / "c" / "train.tsv").read_bytes()
    train = np.loadtxt(tmp_path / "a" / "train.tsv", dtype=np.int64, delimiter="\t")
    pairs = {(u, i) for u, i, _ in train.tolist()}
    assert len(pairs) == SMALL.train_rows  # no user rates a song twice


def test_yahoo_shape_constants():
    assert (yahoo_gen.YAHOO_R3.train_rows, yahoo_gen.YAHOO_R3.n_users,
            yahoo_gen.YAHOO_R3.n_items, yahoo_gen.YAHOO_R3.test_rows) == (311_704, 15_400, 1_000, 54_000)


def test_check_rejects_an_off_target_positive_rate(tmp_path):
    yahoo_gen.build(tmp_path, seed=1, shape=SMALL)
    path = tmp_path / "test.tsv"
    path.write_text("".join(line[:-2] + "1\n" for line in path.read_text().splitlines(keepends=True)))
    with pytest.raises(ShapeError, match="test positive rate 0.0000 misses 0.17"):
        yahoo_gen.check_files(tmp_path / "train.tsv", path, SMALL)


def _rewrite(path, keep):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if keep(line.split("\t"))))


def test_check_rejects_a_test_item_missing_from_train(tmp_path):
    yahoo_gen.build(tmp_path, seed=1, shape=SMALL)
    test_item = (tmp_path / "test.tsv").read_text().split("\t")[1]
    _rewrite(tmp_path / "train.tsv", lambda f: f[1] != test_item)
    with pytest.raises(ShapeError, match="test items never appear in train"):
        yahoo_gen.check_files(tmp_path / "train.tsv", tmp_path / "test.tsv", SMALL)


def test_check_rejects_wrong_counts(tmp_path):
    yahoo_gen.build(tmp_path, seed=1, shape=SMALL)
    lines = (tmp_path / "test.tsv").read_text().splitlines(keepends=True)
    (tmp_path / "test.tsv").write_text("".join(lines[:-1]))
    with pytest.raises(ShapeError, match="test has 249 rows, expected 250"):
        yahoo_gen.check_files(tmp_path / "train.tsv", tmp_path / "test.tsv", SMALL)
