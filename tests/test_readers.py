"""Every reader of an input file either parses it or refuses it with an
SsteError, which the CLI prints as ``error: ...``: never another exception.

Each reader takes arbitrary bytes and mutations of a valid file of its
kind: the TSV, config, grid and synthetic-spec readers, the checkpoint, its
vocab sidecar, and ``report.json`` as ``exp table`` reads it. A spec that
loads also draws its world, or refuses it with an SsteError.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sste.data import Provenance, Schema, generate_synthetic, load_tsv
from sste.errors import SsteError
from sste.experiment import load_config, load_grid, load_model, load_spec, make_table
from sste.model import load_checkpoint

# Byte strings a mutation may insert: separators, signs and number forms,
# JSON brackets and words, a byte that is not UTF-8, or any few bytes.
PIECES = st.one_of(
    st.sampled_from([
        b"\t", b"\n", b"\r", b" ", b"=", b",", b"#", b"-", b".", b"0", b"1", b"9" * 25,
        b"1e999", b"nan", b"inf", b"true", b"null", b"[", b"]", b"{", b"}", b'"', b":",
        b"\xff",
    ]),
    st.binary(min_size=1, max_size=6),
)

# JSON nested deeper than Python's recursion limit.
DEEP = b"[" * 100_000


@st.composite
def mutations(draw, valid: bytes) -> bytes:
    """``valid`` after one to four edits, each at a drawn position: a piece
    inserted, a span deleted, or a span repeated."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        span = draw(st.integers(1, 12))
        edit = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if edit == "insert":
            data[at:at] = draw(PIECES)
        elif edit == "delete":
            del data[at:at + span]
        else:
            data[at:at] = data[at:at + span]
    return bytes(data)


def inputs(valid: bytes):
    return st.one_of(st.binary(max_size=300), mutations(valid))


TSV = b"10\t30\t4\n3\t20\t2\n\n3\t30\t1\n"
CONFIG = (b"# a joint run\nobjective = sste\nepsilon_train = 0.3,0.7\nepsilon_val = 0.5\n"
          b"resample_each_epoch = yes\nsplit_mode = chronological\nlearning_rate = 0.05\n"
          b"precision_ks = 5,10\nout_dir = runs\n")
GRID = b"# sweep\nembedding_dim = 10,50\nl2_lambda = 1e-5, 1e-3\nmode = random\nsamples = 2\n"
SPEC = (b"n_users = 30\nn_items = 20\nlatent_dim = 4\nexposure_bias_strength = 1.5\n"
        b"positive_threshold = 0.3\ntrain_impressions = 1500\ntest_impressions = 600\n"
        b"seed = 5\n")
# A checkpoint of 2 users, 2 items and k = 3: its magic line, its dims and
# 22 float64 parameters. SIDECAR holds an id map of each side for it.
MAGIC = b"SSTE-MF-CKPT-1\n"
PAYLOAD = np.arange(22, dtype="<f8").tobytes()
CHECKPOINT = MAGIC + b'{"k": 3, "n_items": 2, "n_users": 2}\n' + PAYLOAD
SIDECAR = b'{"items": [20, 30], "users": [3, 10]}'
REPORT = json.dumps({
    "run_id": "0123456789abcdef", "objective": "sste",
    "config": {"ndcg_k": 50, "precision_ks": [5]},
    "test_metrics": {"auc": 0.7, "ndcg@50": 0.3, "p@5": 0.2, "r@5": 0.1},
}).encode()


def read_sidecar(path):
    """``load_model`` of the checkpoint whose sidecar is ``path``."""
    ckpt = path.with_name(path.name.removesuffix(".vocab.json"))
    ckpt.write_bytes(CHECKPOINT)
    return load_model(ckpt)


def read_report(path):
    """``make_table`` of the run directory that holds ``path``."""
    return make_table([path.parent])


READERS = {
    "data.tsv": (lambda path: load_tsv(path, Schema.USER_ITEM_RATING), TSV),
    "run.cfg": (load_config, CONFIG),
    "grid.txt": (load_grid, GRID),
    "spec.cfg": (load_spec, SPEC),
    "model.ckpt": (load_checkpoint, CHECKPOINT),
    "m.ckpt.vocab.json": (read_sidecar, SIDECAR),
    "report.json": (read_report, REPORT),
}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def parses_or_refuses(folder, name: str, data: bytes) -> None:
    read, _ = READERS[name]
    path = folder / name
    path.write_bytes(data)
    try:
        read(path)
    except SsteError:
        pass


class TestEveryReader:
    @pytest.mark.parametrize("name", READERS)
    def test_the_valid_file_parses(self, folder, name):
        read, valid = READERS[name]
        (folder / name).write_bytes(valid)
        read(folder / name)

    @given(data=inputs(TSV), schema=st.sampled_from(Schema), given_maps=st.booleans())
    @settings(max_examples=150)
    def test_tsv(self, folder, data, schema, given_maps):
        maps = (np.array([3, 10]), np.array([20, 30])) if given_maps else (None, None)
        path = folder / "data.tsv"
        path.write_bytes(data)
        try:
            load_tsv(path, schema, Provenance.BIASED_TRAIN, *maps)
        except SsteError:
            pass

    @given(data=inputs(CONFIG))
    @settings(max_examples=150)
    def test_config(self, folder, data):
        parses_or_refuses(folder, "run.cfg", data)

    @given(data=inputs(GRID))
    @settings(max_examples=150)
    def test_grid(self, folder, data):
        parses_or_refuses(folder, "grid.txt", data)

    @given(data=inputs(SPEC))
    @example(data=SPEC.replace(b"= 1.5", b"= 1000"))
    @example(data=SPEC.replace(b"= 1.5", b"= inf"))
    @settings(max_examples=150)
    def test_spec(self, folder, data):
        # A spec that loads also draws its world or refuses it, when the
        # world is small enough to draw here.
        path = folder / "spec.cfg"
        path.write_bytes(data)
        try:
            spec = load_spec(path)
            if (spec.n_users * spec.n_items <= 10**5
                    and max(spec.train_impressions, spec.test_impressions) <= 10**5):
                generate_synthetic(spec)
        except SsteError:
            pass

    @given(data=inputs(CHECKPOINT))
    @example(data=MAGIC + DEEP + b"\n" + PAYLOAD)
    @settings(max_examples=150)
    def test_checkpoint(self, folder, data):
        parses_or_refuses(folder, "model.ckpt", data)

    @given(data=inputs(SIDECAR))
    @example(data=DEEP)
    @settings(max_examples=150)
    def test_vocab_sidecar(self, folder, data):
        parses_or_refuses(folder, "m.ckpt.vocab.json", data)

    @given(data=inputs(REPORT))
    @example(data=DEEP)
    @example(data=REPORT.replace(b"0.7", b"1" * 400))  # an int too large for a float
    @settings(max_examples=150)
    def test_report(self, folder, data):
        parses_or_refuses(folder, "report.json", data)
