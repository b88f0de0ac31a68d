"""Seeded generator of rating TSVs with the shape of Yahoo! R3.

Yahoo! R3 (Marlin & Zemel 2009) pairs 311,704 user-selected ("biased")
ratings from 15,400 users over 1,000 songs with a uniformly exposed test
set in which 5,400 of those users each rated 10 random songs. This module
draws a world of the same shape from a latent-factor model: each user
picks songs with probability rising in item popularity and in the user's
own relevance. Ratings are 1..5; ``rating > 3`` is positive, as in the
package's rating schema.

The label density follows the rating histograms published for Yahoo! R3
(``TRAIN_RATING_SHARES``, ``TEST_RATING_SHARES``). Two constants are fitted
to them on every world: the relevance intercept, so that songs shown at
random are positive at the test file's rate, and the pull of relevance on
selection, so that the songs users pick are positive at the train file's
rate. Within the positive (4..5) and negative (1..3) ratings the level is
drawn with the published shares. ``check_files`` rejects files whose
positive rates miss their targets.

Only numpy is used, so the world never touches the package under test, and
the generator is meant to run in its own process: the measured process then
gets nothing but the two files.

Run:
    python3 perfbench/yahoo_gen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Shares of the ratings 1..5 among user-selected songs (the train file) and
# among songs shown at random (the test file), rounded from the rating
# histograms of Marlin, Zemel, Roweis & Slaney (UAI 2007) and Marlin &
# Zemel (RecSys 2009): users rate the songs they pick highly far more often,
# while about half of the ratings of random songs are 1.
TRAIN_RATING_SHARES = (0.22, 0.12, 0.18, 0.20, 0.28)
TEST_RATING_SHARES = (0.52, 0.17, 0.14, 0.09, 0.08)

_LATENT_DIM = 8
_RELEVANCE_SLOPE = 2.0  # logit of relevance = slope * (user . item) / sqrt(dim) + intercept
_POPULARITY_EXPONENT = 1.0  # selection weight ~ popularity ** exponent * relevance ** pull
_MIN_USER_RATINGS = 10  # every Yahoo! R3 user rated at least ten songs
_USER_BLOCK = 1024
_FIT_PAIRS = 200_000  # random (user, song) pairs that fit the intercept
_FIT_USERS = 2_000  # users whose selections fit the pull
_FIT_STEPS = 24  # bisection steps per fitted constant
_RATE_SE_SLACK = 4.0  # a positive rate may miss its target by this many standard errors
_RATE_ABS_SLACK = 0.01  # ... plus this much for the fit's own error


class ShapeError(Exception):
    """The generated files do not have the promised shape or coverage."""


@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    train_rows: int
    test_users: int
    test_items_per_user: int

    @property
    def test_rows(self) -> int:
        return self.test_users * self.test_items_per_user


YAHOO_R3 = Shape(
    n_users=15_400, n_items=1_000, train_rows=311_704,
    test_users=5_400, test_items_per_user=10,
)


def _user_counts(rng: np.random.Generator, shape: Shape) -> np.ndarray:
    """Ratings per user: the minimum plus a heavy-tailed share of the rest."""
    extra = shape.train_rows - _MIN_USER_RATINGS * shape.n_users
    if extra < 0:
        raise ShapeError("too few train rows for the per-user minimum")
    weights = rng.lognormal(sigma=1.0, size=shape.n_users)
    counts = _MIN_USER_RATINGS + rng.multinomial(extra, weights / weights.sum())
    # Move any overflow beyond the catalogue onto the lightest users.
    overflow = int(np.maximum(counts - shape.n_items, 0).sum())
    counts = np.minimum(counts, shape.n_items)
    while overflow:
        light = np.argsort(counts, kind="stable")[:overflow]
        room = np.minimum(shape.n_items - counts[light], 1)
        counts[light] += room
        overflow -= int(room.sum())
    return counts


def positive_rate(shares) -> float:
    """Share of ratings above 3."""
    return round(float(sum(shares[3:])), 6)


def _ratings(rng: np.random.Generator, positive: np.ndarray, shares) -> np.ndarray:
    """4..5 for positives, 1..3 for negatives, each with the published shares."""
    shares = np.asarray(shares, dtype=float)
    high = rng.choice([4, 5], size=len(positive), p=shares[3:] / shares[3:].sum())
    low = rng.choice([1, 2, 3], size=len(positive), p=shares[:3] / shares[:3].sum())
    return np.where(positive, high, low)


def _bisect(f, target: float, lo: float, hi: float) -> float:
    """x in [lo, hi] with f(x) close to ``target``, for f rising in x."""
    for _ in range(_FIT_STEPS):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def _top_counts(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each row's ``counts[row]`` largest keys."""
    order = np.argsort(-keys, axis=1, kind="stable")
    rows, ranks = np.nonzero(np.arange(keys.shape[1])[None, :] < counts[:, None])
    return rows, order[rows, ranks]


def generate(shape: Shape, seed: int):
    """(train, test, fitted): two (user, item, rating) int64 column triples
    with 0-based ids, and the fitted relevance intercept and pull."""
    if shape.test_items_per_user > shape.n_items or shape.test_users > shape.n_users:
        raise ShapeError("test shape exceeds the catalogue")
    if shape.n_items > shape.n_users:
        raise ShapeError("coverage needs at least as many users as items")
    if shape.train_rows > shape.n_users * shape.n_items:
        raise ShapeError("more train rows than (user, item) pairs")
    root = np.random.SeedSequence(seed)
    rng_world, rng_train, rng_test, rng_fit = (np.random.default_rng(s) for s in root.spawn(4))

    user_f = rng_world.normal(size=(shape.n_users, _LATENT_DIM))
    item_f = rng_world.normal(size=(shape.n_items, _LATENT_DIM))
    popularity = 1.0 + rng_world.pareto(1.0, size=shape.n_items)
    log_pop = _POPULARITY_EXPONENT * np.log(popularity)

    def relevance_logit(users: np.ndarray) -> np.ndarray:
        return _RELEVANCE_SLOPE * (user_f[users] @ item_f.T) / np.sqrt(_LATENT_DIM)

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    counts = _user_counts(rng_train, shape)

    # Songs shown at random are positive at the test file's rate.
    pair_u = rng_fit.integers(shape.n_users, size=_FIT_PAIRS)
    pair_i = rng_fit.integers(shape.n_items, size=_FIT_PAIRS)
    pair_z = _RELEVANCE_SLOPE * np.einsum("ij,ij->i", user_f[pair_u], item_f[pair_i])
    pair_z /= np.sqrt(_LATENT_DIM)
    intercept = _bisect(
        lambda c: sigmoid(pair_z + c).mean(), positive_rate(TEST_RATING_SHARES), -20.0, 20.0
    )

    # Songs users pick are positive at the train file's rate: fit the pull on
    # a sample of users with one fixed draw of selection noise.
    fit_users = rng_fit.choice(shape.n_users, size=min(_FIT_USERS, shape.n_users), replace=False)
    fit_rel = sigmoid(relevance_logit(fit_users) + intercept)
    fit_noise = log_pop + rng_fit.gumbel(size=fit_rel.shape)

    def picked_rate(pull: float) -> float:
        rows, items = _top_counts(fit_noise + pull * np.log(fit_rel), counts[fit_users])
        return float(fit_rel[rows, items].mean())

    pull = _bisect(picked_rate, positive_rate(TRAIN_RATING_SHARES), 0.0, 20.0)

    # Every item gets one rater drawn without replacement, so the train file
    # covers the whole catalogue whatever the popularity draw.
    forced_user = rng_train.choice(shape.n_users, size=shape.n_items, replace=False)
    forced_item = np.full(shape.n_users, -1)
    forced_item[forced_user] = np.arange(shape.n_items)

    train_parts = []
    for lo in range(0, shape.n_users, _USER_BLOCK):
        users = np.arange(lo, min(lo + _USER_BLOCK, shape.n_users))
        rel = sigmoid(relevance_logit(users) + intercept)
        # Gumbel top-k draws each user's songs without replacement with
        # probability proportional to popularity^a * relevance^pull.
        keys = log_pop + pull * np.log(rel) + rng_train.gumbel(size=rel.shape)
        has_forced = forced_item[users] >= 0
        keys[has_forced, forced_item[users][has_forced]] = np.inf
        rows, items = _top_counts(keys, counts[users])
        positive = rng_train.random(len(items)) < rel[rows, items]
        train_parts.append((users[rows], items, positive))

    t_users = np.concatenate([p[0] for p in train_parts])
    t_items = np.concatenate([p[1] for p in train_parts])
    t_pos = np.concatenate([p[2] for p in train_parts])
    order = np.lexsort((t_items, t_users))
    train = (t_users[order], t_items[order], _ratings(rng_train, t_pos[order], TRAIN_RATING_SHARES))

    test_users = np.sort(rng_test.choice(shape.n_users, size=shape.test_users, replace=False))
    picks = np.argsort(rng_test.random((shape.test_users, shape.n_items)), axis=1)
    picks = np.sort(picks[:, : shape.test_items_per_user], axis=1)
    u = np.repeat(test_users, shape.test_items_per_user)
    i = picks.ravel()
    rel = sigmoid(relevance_logit(test_users) + intercept)
    rel = rel[np.repeat(np.arange(shape.test_users), shape.test_items_per_user), i]
    test_pos = rng_test.random(len(i)) < rel
    test = (u, i, _ratings(rng_test, test_pos, TEST_RATING_SHARES))
    return train, test, {"relevance_intercept": intercept, "relevance_pull": pull}


def write_tsv(columns, path: Path) -> None:
    """Write 1-based ``user item rating`` lines, as in the Yahoo! R3 files."""
    users, items, ratings = columns
    text = "".join(
        f"{u}\t{i}\t{r}\n"
        for u, i, r in zip((users + 1).tolist(), (items + 1).tolist(), ratings.tolist())
    )
    path.write_text(text, encoding="utf-8")


def check_files(train_path, test_path, shape: Shape) -> None:
    """Raise ShapeError unless both files have ``shape``, test is covered by
    train, and each file's positive rate is near its published target."""
    train = np.loadtxt(train_path, dtype=np.int64, delimiter="\t", ndmin=2)
    test = np.loadtxt(test_path, dtype=np.int64, delimiter="\t", ndmin=2)
    problems = []
    for label, table, rows, users, items in (
        ("train", train, shape.train_rows, shape.n_users, shape.n_items),
        ("test", test, shape.test_rows, shape.test_users, None),
    ):
        if len(table) != rows:
            problems.append(f"{label} has {len(table)} rows, expected {rows}")
        if len(np.unique(table[:, 0])) != users:
            problems.append(f"{label} has {len(np.unique(table[:, 0]))} users, expected {users}")
        if items is not None and len(np.unique(table[:, 1])) != items:
            problems.append(f"{label} has {len(np.unique(table[:, 1]))} items, expected {items}")
        if not np.all((table[:, 2] >= 1) & (table[:, 2] <= 5)):
            problems.append(f"{label} has a rating outside 1..5")
    _, per_user = np.unique(test[:, 0], return_counts=True)
    if not np.all(per_user == shape.test_items_per_user):
        problems.append(f"some test user lacks exactly {shape.test_items_per_user} items")
    for column, kind in ((0, "user"), (1, "item")):
        missing = np.setdiff1d(test[:, column], train[:, column])
        if len(missing):
            problems.append(f"{len(missing)} test {kind}s never appear in train, e.g. {missing[0]}")
    for label, table, shares in (("train", train, TRAIN_RATING_SHARES),
                                 ("test", test, TEST_RATING_SHARES)):
        target, rate = positive_rate(shares), float((table[:, 2] > 3).mean())
        slack = _RATE_SE_SLACK * np.sqrt(target * (1 - target) / len(table)) + _RATE_ABS_SLACK
        if abs(rate - target) > slack:
            problems.append(f"{label} positive rate {rate:.4f} misses {target:.2f} by more than {slack:.4f}")
    if problems:
        raise ShapeError("; ".join(problems))


def build(out_dir, seed: int, shape: Shape = YAHOO_R3) -> dict:
    """Generate, write and check ``train.tsv``/``test.tsv`` under ``out_dir``;
    return the fitted constants and the realised positive rates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test, fitted = generate(shape, seed)
    train_path, test_path = out_dir / "train.tsv", out_dir / "test.tsv"
    write_tsv(train, train_path)
    write_tsv(test, test_path)
    check_files(train_path, test_path, shape)
    test_users_with_positive = len(np.unique(test[0][test[2] > 3]))
    return dict(
        fitted,
        seed=seed,
        train_positive_rate=float((train[2] > 3).mean()),
        train_positive_target=positive_rate(TRAIN_RATING_SHARES),
        test_positive_rate=float((test[2] > 3).mean()),
        test_positive_target=positive_rate(TEST_RATING_SHARES),
        test_users_with_positive=test_users_with_positive,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for train.tsv and test.tsv")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        info = build(args.out, args.seed)
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["seconds"] = time.perf_counter() - started
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
