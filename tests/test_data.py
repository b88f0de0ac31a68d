"""Dataset loading, splitting, statistics, and the synthetic generator."""

import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sste import data as datamod
from sste.data import (
    Dataset,
    DatasetStats,
    Provenance,
    Schema,
    SplitMode,
    SyntheticSpec,
    generate_synthetic,
    load_tsv,
    save_tsv,
    split_ratio,
    stats,
    synthetic_exposure_weights,
)
from sste.errors import MetricUndefinedError, ParseError, ValidationError

from reference import load_tsv_per_line, make_dataset, save_tsv_per_row, split_per_user_loop


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def load_rating(tmp_path, rating):
    """The label load_tsv gives one rating row."""
    path = write_lines(tmp_path / "rating.tsv", [f"0\t0\t{rating}"])
    return int(load_tsv(path, Schema.USER_ITEM_RATING).labels[0])


class TestBinarize:
    def test_rating_four_is_positive(self, tmp_path):
        assert load_rating(tmp_path, 4) == 1

    def test_rating_three_is_negative(self, tmp_path):
        assert load_rating(tmp_path, 3) == 0

    @given(st.integers(min_value=1, max_value=5))
    def test_threshold_is_exactly_above_three(self, tmp_path_factory, rating):
        label = load_rating(tmp_path_factory.getbasetemp(), rating)
        assert label == (1 if rating > 3 else 0)


class TestLoadTsv:
    def test_rating_rows_are_binarized(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t7\t4", "1\t7\t3"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        assert ds.labels.tolist() == [1, 0]

    def test_label_schema_passes_labels_through(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["0\t0\t1", "0\t1\t0"])
        ds = load_tsv(path, Schema.USER_ITEM_LABEL)
        assert ds.labels.tolist() == [1, 0]

    def test_ids_are_densified_in_sorted_order(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["10\t30\t4", "3\t20\t2"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        assert ds.user_id_map.tolist() == [3, 10]
        assert ds.item_id_map.tolist() == [20, 30]
        assert ds.users.tolist() == [1, 0]
        assert ds.items.tolist() == [1, 0]

    def test_shared_maps_keep_id_space_aligned(self, tmp_path):
        train = write_lines(tmp_path / "tr.tsv", ["5\t9\t4", "6\t8\t1"])
        test = write_lines(tmp_path / "te.tsv", ["6\t9\t5"])
        tr = load_tsv(train, Schema.USER_ITEM_RATING)
        te = load_tsv(
            test,
            Schema.USER_ITEM_RATING,
            provenance=Provenance.UNIFORM_TEST,
            user_map=tr.user_id_map,
            item_map=tr.item_id_map,
        )
        assert te.users.tolist() == [1]
        assert te.items.tolist() == [1]
        assert te.n_users == tr.n_users
        assert te.n_items == tr.n_items

    def test_unknown_id_under_shared_map_is_rejected(self, tmp_path):
        train = write_lines(tmp_path / "tr.tsv", ["5\t9\t4"])
        test = write_lines(tmp_path / "te.tsv", ["77\t9\t5"])
        tr = load_tsv(train, Schema.USER_ITEM_RATING)
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(
                test,
                Schema.USER_ITEM_RATING,
                user_map=tr.user_id_map,
                item_map=tr.item_id_map,
            )

    def test_the_earliest_unknown_id_is_reported_with_its_line(self, tmp_path):
        train = write_lines(tmp_path / "tr.tsv", ["5\t9\t4", "6\t8\t1"])
        # Blank lines count for the line number but not as rows.
        test = write_lines(tmp_path / "te.tsv",
                           ["6\t9\t5", "", "5\t7\t5", "", "77\t8\t2", "78\t7\t1"])
        tr = load_tsv(train, Schema.USER_ITEM_RATING)
        with pytest.raises(ParseError, match="^line 3: unknown item id 7$"):
            load_tsv(test, Schema.USER_ITEM_RATING,
                     user_map=tr.user_id_map, item_map=tr.item_id_map)

    def test_an_unknown_user_is_named_before_an_unknown_item_of_its_line(self, tmp_path):
        test = write_lines(tmp_path / "te.tsv", ["5\t9\t4", "-3\t7\t1"])
        with pytest.raises(ParseError, match="^line 2: unknown user id -3$"):
            load_tsv(test, Schema.USER_ITEM_RATING,
                     user_map=np.array([5]), item_map=np.array([9]))

    @pytest.mark.parametrize("given, message", [
        (dict(user_map=np.array([5, 6])), "^line 3: unknown user id 7$"),
        (dict(item_map=np.array([8, 9])), "^line 2: unknown item id 4$"),
    ])
    def test_only_a_given_map_can_lack_an_id(self, tmp_path, given, message):
        # The other map is the file's own, which holds every id of the file.
        test = write_lines(tmp_path / "te.tsv", ["5\t9\t4", "6\t4\t1", "7\t8\t2"])
        with pytest.raises(ParseError, match=message):
            load_tsv(test, Schema.USER_ITEM_RATING, **given)

    @pytest.mark.parametrize("bad_map, message", [
        (np.array([9, 5]), "strictly increasing"),
        (np.array([5, 5, 9]), "strictly increasing"),
        (np.array([], dtype=np.int64), "strictly increasing"),
        (np.array([5.0, 9.0]), "int64 vector"),
        (np.array([[5, 9]]), "int64 vector"),
    ])
    def test_a_given_map_that_is_not_a_sorted_id_vector_is_rejected(
        self, tmp_path, bad_map, message
    ):
        test = write_lines(tmp_path / "te.tsv", ["9\t9\t4"])
        with pytest.raises(ValidationError, match=f"user_map must be .*{message}"):
            load_tsv(test, Schema.USER_ITEM_RATING, user_map=bad_map)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t4", "", "2\t2\t1"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        assert len(ds) == 2

    def test_wrong_column_count_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t4", "2\t2"])
        with pytest.raises(ParseError, match="line 2"):
            load_tsv(path, Schema.USER_ITEM_RATING)

    def test_non_integer_field_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\tx\t4"])
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(path, Schema.USER_ITEM_RATING)

    def test_rating_out_of_range_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t6"])
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(path, Schema.USER_ITEM_RATING)

    def test_label_out_of_range_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t2"])
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(path, Schema.USER_ITEM_LABEL)

    def test_empty_file_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", [])
        with pytest.raises(ValidationError):
            load_tsv(path, Schema.USER_ITEM_RATING)


def load_outcome(load, path, schema, **maps):
    """What ``load`` makes of a file: its columns and id maps, or the class,
    message and line of the error it raises."""
    try:
        result = load(path, schema, **maps)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_number", None)
    if not isinstance(result, dict):
        result = {name: getattr(result, name)
                  for name in ("users", "items", "labels", "user_id_map", "item_id_map")}
    return {name: (a.dtype.str, a.tolist()) for name, a in result.items()}


# Inputs at the edges of the grammar: the value column holds 1 where the
# case is about something else, so both schemas read it.
ODD_INPUTS = {
    "blank lines": b"\n1\t2\t1\n\n\n3\t4\t1\n\n",
    "crlf endings": b"1\t2\t1\r\n\r\n3\t4\t1\r\n",
    "cr endings": b"1\t2\t1\r3\t4\t1\r",
    "no final newline": b"1\t2\t1\n3\t4\t1",
    "plus sign": b"+3\t2\t1\n",
    "leading space": b" 3\t2\t1\n",
    "trailing space": b"3\t2\t1 \n",
    "underscore": b"1_0\t2\t1\n",
    "leading zeros": b"007\t0002\t01\n",
    "negative id": b"-3\t2\t1\n",
    "empty field": b"1\t\t1\n",
    "trailing tab": b"1\t2\t1\t\n",
    "a line's fields split by a newline": b"1\t\n2\t1\n",
    "two fields": b"1\t2\n",
    "four fields": b"1\t2\t1\t1\n",
    "two fields, then four": b"1\t2\n3\t4\t1\t1\n",
    "spaces-only line": b"1\t2\t1\n \n",
    "18-digit ids": b"999999999999999999\t100000000000000000\t1\n",
    "19-digit ids within int64": b"9223372036854775807\t-9223372036854775808\t1\n",
    "19-digit id beyond int64": b"1\t2\t1\n9223372036854775808\t1\t1\n",
    "20-digit id": b"99999999999999999999\t1\t4\n",
    "item id below int64": b"1\t-9223372036854775809\t1\n",
    "non-ASCII digit": "\u0661\t2\t1\n".encode(),
    "byte order mark": b"\xef\xbb\xbf1\t2\t1\n",
    "non-UTF-8 byte": b"1\t2\t4\n\xff\t2\t4\n",
    "malformed line before a non-UTF-8 byte": b"1\tx\t1\n\xff\n",
    "value 0": b"1\t2\t0\n",
    "value 6": b"1\t2\t6\n",
    "value 2": b"1\t2\t2\n",
    "bad value after plain lines": b"1\t2\t1\n" * 3 + b"5\t5\t9\n",
    "empty file": b"",
    "only newlines": b"\n\n\n",
}
# The inputs the vectorized parse takes whole.
PLAIN_INPUTS = ("blank lines", "no final newline", "leading zeros", "18-digit ids",
                "value 0", "empty file", "only newlines")
GIVEN_MAPS = {"user_map": np.array([1, 3, 7]), "item_map": np.array([2, 4])}


def forbid_the_line_loop(monkeypatch):
    """Make load_tsv fail the test if it reads any file line by line."""
    def no_lines(data):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(datamod, "_nonblank_lines", no_lines)


class TestLoadTsvMatchesTheLineReader:
    """load_tsv against the line-by-line reader of reference.py: the same
    arrays, or the same error class, message and line."""

    @pytest.mark.parametrize("schema", list(Schema))
    @pytest.mark.parametrize("given_maps", [False, True], ids=["own maps", "given maps"])
    @pytest.mark.parametrize("name", ODD_INPUTS)
    def test_odd_inputs(self, tmp_path, name, schema, given_maps):
        path = tmp_path / "odd.tsv"
        path.write_bytes(ODD_INPUTS[name])
        maps = GIVEN_MAPS if given_maps else {}
        assert (load_outcome(load_tsv, path, schema, **maps)
                == load_outcome(load_tsv_per_line, path, schema, **maps))

    @pytest.mark.parametrize("name", PLAIN_INPUTS)
    def test_plain_inputs_never_reach_the_line_loop(self, tmp_path, monkeypatch, name):
        path = tmp_path / "plain.tsv"
        path.write_bytes(ODD_INPUTS[name])
        expected = load_outcome(load_tsv_per_line, path, Schema.USER_ITEM_LABEL)
        forbid_the_line_loop(monkeypatch)
        assert load_outcome(load_tsv, path, Schema.USER_ITEM_LABEL) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(
            st.text("0123456789", min_size=1, max_size=20),
            st.text("0123456789", min_size=1, max_size=20),
            st.integers(0, 6),
            st.sampled_from(["", "", "", "+", " ", "-"]),
            st.sampled_from(["\n", "\n", "\n", "\n\n", "\r\n", "\t\n", "\t"]),
        ), max_size=12),
        final_newline=st.booleans(),
        schema=st.sampled_from(list(Schema)),
    )
    def test_random_files(self, tmp_path_factory, rows, final_newline, schema):
        text = "".join(f"{prefix}{u}\t{v}\t{x}{end}" for u, v, x, prefix, end in rows)
        text = text.rstrip("\n") + ("\n" if final_newline else "")
        path = tmp_path_factory.mktemp("random") / "r.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        assert (load_outcome(load_tsv, path, schema)
                == load_outcome(load_tsv_per_line, path, schema))


class TestPlainTable:
    """The vectorized parse against the line parser on files it must take:
    the first field's width is its first separator's position, whether a
    row or a blank line comes first."""

    @given(
        rows=st.lists(st.tuples(
            st.text("0123456789", min_size=1, max_size=18),
            st.text("0123456789", min_size=1, max_size=18),
            st.integers(0, 5),
            st.sampled_from(["\n", "\n", "\n\n"]),
        ), min_size=1, max_size=12),
        leading=st.integers(0, 3),
        trailing=st.integers(0, 3),
        schema=st.sampled_from(list(Schema)),
    )
    def test_matches_the_line_parser_with_blank_lines_first_and_last(
            self, rows, leading, trailing, schema):
        low, high = (1, 5) if schema is Schema.USER_ITEM_RATING else (0, 1)
        body = "".join(f"{u}\t{v}\t{min(max(x, low), high)}{end}" for u, v, x, end in rows)
        data = ("\n" * leading + body + "\n" * trailing).encode()
        table = datamod._plain_table(data, schema)
        assert table is not None
        assert table.tolist() == datamod._parse_lines(data, schema).tolist()
        narrow = max(len(field) for u, v, _, _ in rows for field in (u, v)) <= 9
        assert table.dtype == (np.int32 if narrow else np.int64)


INT64_EDGES = (-2**63, -2**63 + 1, -2, -1, 0, 1, 2**63 - 2, 2**63 - 1)
any_id = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(INT64_EDGES),
                   st.integers(-20, 20))


def is_dense(id_map) -> bool:
    """Whether ``_id_codes`` takes its lookup-table branch for this map."""
    return int(id_map[-1]) - int(id_map[0]) + 1 <= 2 * len(id_map)


class TestSortedUnique:
    """``_sorted_unique`` against ``np.unique``."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(any_id, max_size=30), strided=st.booleans())
    def test_matches_np_unique(self, values, strided):
        x = np.array(values, dtype=np.int64)
        if strided:  # a column of a row-major table, as load_tsv passes it
            x = np.column_stack([x, x, x])[:, 0]
        out = datamod._sorted_unique(x)
        assert out.dtype == np.int64
        assert out.tolist() == np.unique(x).tolist()

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
    @pytest.mark.parametrize("values", [[], [7], [3, 1, 3, 2, 1]])
    def test_keeps_the_dtype_and_takes_empty_input(self, dtype, values):
        x = np.array(values, dtype=dtype)
        out = datamod._sorted_unique(x)
        assert out.dtype == x.dtype
        assert out.tolist() == np.unique(x).tolist() == sorted(set(values))


class TestIdCodes:
    """``_id_codes`` against ``searchsorted``: a known id gets its index in
    the map, an unknown one an index whose map entry differs."""

    @staticmethod
    def check(id_map, queries):
        id_map = np.array(sorted(id_map), dtype=np.int64)
        q = np.array(queries, dtype=np.int64)
        codes = datamod._id_codes(q, id_map)
        assert codes.shape == q.shape
        assert np.all((codes >= 0) & (codes < len(id_map)))
        known = np.isin(q, id_map)
        assert codes[known].tolist() == np.searchsorted(id_map, q[known]).tolist()
        assert np.all(id_map[codes[~known]] != q[~known])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_dense_maps_take_the_table(self, data, n):
        lo = data.draw(st.one_of(st.sampled_from([-2**63, -5, 0, 2**63 - 2 * n]),
                                 st.integers(-2**63, 2**63 - 2 * n)))
        offsets = data.draw(st.lists(st.integers(0, 2 * n - 1), min_size=n, max_size=n,
                                     unique=True))
        id_map = [lo + o for o in offsets]
        assert is_dense(sorted(id_map))
        near = st.integers(max(lo - 3, -2**63), min(lo + 2 * n + 3, 2**63 - 1))
        queries = data.draw(st.lists(st.one_of(st.sampled_from(id_map), near, any_id),
                                     max_size=30))
        self.check(id_map, queries)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sparse_maps_take_searchsorted(self, data):
        id_map = data.draw(st.lists(any_id, min_size=2, max_size=12, unique=True))
        assume(not is_dense(sorted(id_map)))
        queries = data.draw(st.lists(st.one_of(st.sampled_from(id_map), any_id), max_size=30))
        self.check(id_map, queries)

    @pytest.mark.parametrize("id_map", [[0, 1, 3], [-2**63, -2**63 + 2], [2**63 - 3, 2**63 - 1],
                                        [-2**63, 2**63 - 1], [-7, 2**62]])
    def test_ids_at_the_ends_of_int64_are_unknown_not_out_of_bounds(self, id_map):
        self.check(id_map, [*INT64_EDGES, *id_map, 2])


class TestUnknownIdsUnderBothBranches:
    """The line of the first unknown id, whichever way the codes are found."""

    @pytest.mark.parametrize("lines, message", [
        (["1\t10\t4", "", "3\t11\t1"], "^line 3: unknown user id 3$"),  # in a hole
        (["2\t12\t1", "-1\t10\t4"], "^line 2: unknown user id -1$"),  # below the range
        (["4\t10\t1", "2\t99\t5"], "^line 2: unknown item id 99$"),  # above the range
    ])
    def test_dense_maps(self, tmp_path, lines, message):
        train = load_tsv(write_lines(tmp_path / "tr.tsv", ["1\t10\t4", "2\t11\t1", "4\t12\t5"]),
                         Schema.USER_ITEM_RATING)
        assert is_dense(train.user_id_map) and is_dense(train.item_id_map)
        with pytest.raises(ParseError, match=message):
            load_tsv(write_lines(tmp_path / "te.tsv", lines), Schema.USER_ITEM_RATING,
                     user_map=train.user_id_map, item_map=train.item_id_map)

    @pytest.mark.parametrize("lines, message", [
        (["100000000000000000\t7\t4", "100000000000000001\t7\t1"],
         "^line 2: unknown user id 100000000000000001$"),
        (["999999999999999999\t7\t4", "", "100000000000000000\t123456789012345678\t1"],
         "^line 3: unknown item id 123456789012345678$"),
    ])
    def test_sparse_maps_of_18_digit_ids(self, tmp_path, lines, message):
        train = load_tsv(write_lines(tmp_path / "tr.tsv", [
            "100000000000000000\t7\t4", "555555555555555555\t900000000000000000\t1",
            "999999999999999999\t7\t5",
        ]), Schema.USER_ITEM_RATING)
        assert not is_dense(train.user_id_map) and not is_dense(train.item_id_map)
        with pytest.raises(ParseError, match=message):
            load_tsv(write_lines(tmp_path / "te.tsv", lines), Schema.USER_ITEM_RATING,
                     user_map=train.user_id_map, item_map=train.item_id_map)


class TestSaveTsv:
    def test_round_trip_preserves_original_ids(self, tmp_path):
        src = write_lines(tmp_path / "a.tsv", ["10\t30\t4", "3\t20\t2"])
        ds = load_tsv(src, Schema.USER_ITEM_RATING)
        out = tmp_path / "b.tsv"
        save_tsv(ds, str(out))
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows == [["10", "30", "1"], ["3", "20", "0"]]

    def test_round_trip_reload_matches(self, tmp_path):
        src = write_lines(tmp_path / "a.tsv", ["10\t30\t4", "3\t20\t2", "10\t20\t5"])
        ds = load_tsv(src, Schema.USER_ITEM_RATING)
        out = tmp_path / "b.tsv"
        save_tsv(ds, str(out))
        back = load_tsv(str(out), Schema.USER_ITEM_LABEL,
                        user_map=ds.user_id_map, item_map=ds.item_id_map)
        assert np.array_equal(back.users, ds.users)
        assert np.array_equal(back.items, ds.items)
        assert np.array_equal(back.labels, ds.labels)

    def test_the_int64_extremes_are_written_exactly(self, tmp_path):
        ids = [-2**63, -1, 0, 2**53 + 1, 2**63 - 1]
        ds = make_dataset(range(5), [0, 1, 2, 3, 4], [1, 0, 1, 0, 1], n_users=5, n_items=5,
                          user_id_map=ids, item_id_map=ids)
        save_tsv(ds, tmp_path / "d.tsv")
        assert (tmp_path / "d.tsv").read_text() == save_tsv_per_row(ds)

    @settings(max_examples=60)
    @given(data=st.data(), n_rows=st.integers(0, 12), mapped=st.booleans())
    def test_matches_the_per_row_writer(self, tmp_path_factory, data, n_rows, mapped):
        id_maps = st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6, unique=True)
        user_ids = np.sort(np.array(data.draw(id_maps), dtype=np.int64))
        item_ids = np.sort(np.array(data.draw(id_maps), dtype=np.int64))
        rows = st.lists(st.integers(0, 10**6), min_size=n_rows, max_size=n_rows)
        ds = make_dataset(
            np.array(data.draw(rows), dtype=np.int64) % len(user_ids),
            np.array(data.draw(rows), dtype=np.int64) % len(item_ids),
            np.array(data.draw(rows), dtype=np.int64) % 2,
            n_users=len(user_ids), n_items=len(item_ids),
            user_id_map=user_ids if mapped else None,
            item_id_map=item_ids if mapped else None,
        )
        out = tmp_path_factory.mktemp("save") / "d.tsv"
        save_tsv(ds, out)
        assert out.read_bytes() == save_tsv_per_row(ds).encode("utf-8")


class TestDatasetValidation:
    def test_an_unsorted_id_map_is_rejected(self):
        with pytest.raises(ValidationError, match="user_id_map must be .*strictly increasing"):
            make_dataset([0, 1], [0, 0], [1, 0], n_users=2, n_items=1,
                         user_id_map=[10, 3], item_id_map=[7])

    def test_an_id_map_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValidationError, match="item_id_map holds 3 ids, expected 1"):
            make_dataset([0], [0], [1], n_users=1, n_items=1,
                         user_id_map=[3], item_id_map=[7, 8, 9])

    def test_id_maps_are_read_only_copies(self):
        given = np.array([3, 10])
        ds = make_dataset([0, 1], [0, 0], [1, 0], n_users=2, n_items=1,
                          user_id_map=given, item_id_map=[7])
        given[0] = 99
        assert ds.user_id_map.tolist() == [3, 10]
        assert ds.user_id_map.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            ds.user_id_map[0] = 4
        assert ds.take(np.array([1])).user_id_map.tolist() == [3, 10]

    @pytest.mark.parametrize("columns, sizes, message", [
        (([0, 1], [0], [1, 0]), (2, 1), "column arrays must have equal length"),
        (([0], [0], [1, 0]), (1, 1), "column arrays must have equal length"),
        (([], [], []), (0, 1), "vocabulary sizes must be positive"),
        (([0], [0], [1]), (1, 0), "vocabulary sizes must be positive"),
    ], ids=["short-items", "long-labels", "no-users", "no-items"])
    def test_a_bad_shape_is_rejected(self, columns, sizes, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_dataset(*columns, *sizes)

    def test_user_id_out_of_range(self):
        with pytest.raises(ValidationError):
            make_dataset([0, 5], [0, 0], [1, 0], n_users=2, n_items=1)

    def test_negative_item_id(self):
        with pytest.raises(ValidationError):
            make_dataset([0], [-1], [1], n_users=1, n_items=1)

    def test_label_must_be_binary(self):
        with pytest.raises(ValidationError):
            make_dataset([0], [0], [2], n_users=1, n_items=1)

    def test_columns_are_read_only(self):
        ds = make_dataset([0], [0], [1], 1, 1)
        with pytest.raises((ValueError, RuntimeError)):
            ds.users[0] = 3

    def test_iteration_yields_interactions(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["0\t1\t5", "1\t0\t2"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        rows = list(zip(ds.users.tolist(), ds.items.tolist(),
                        ds.labels.tolist()))
        assert rows == [(0, 1, 1), (1, 0, 0)]

    @pytest.mark.parametrize("indices", [np.array([3, 0, 2]), np.array([True, False, True, True])],
                             ids=["index vector", "boolean mask"])
    def test_taken_columns_are_read_only_and_c_contiguous(self, indices):
        ds = make_dataset([0, 1, 2, 1], [2, 1, 0, 0], [1, 0, 1, 0], 3, 3)
        sub = ds.take(indices)
        for column in (sub.users, sub.items, sub.labels):
            assert column.flags.c_contiguous and column.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_a_writeable_array_passed_in_is_copied(self):
        users, items = np.array([0, 1]), np.array([1, 0])
        labels = np.array([1, 0], dtype=np.int8)
        ds = Dataset(users=users, items=items, labels=labels, n_users=2, n_items=2,
                     provenance=Provenance.BIASED_TRAIN)
        users[0], items[0], labels[0] = 1, 0, 0
        assert (ds.users.tolist(), ds.items.tolist(), ds.labels.tolist()) == ([0, 1], [1, 0], [1, 0])

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        base = np.array([0, 1])
        view = base[:]
        view.flags.writeable = False
        ds = make_dataset(view, [0, 0], [1, 0], 2, 1)
        base[0] = 1
        assert ds.users.tolist() == [0, 1]

    def test_another_datasets_columns_are_shared_not_copied(self):
        ds = make_dataset([0, 1], [0, 0], [1, 0], 2, 1)
        again = Dataset(users=ds.users, items=ds.items, labels=ds.labels, n_users=2,
                        n_items=1, provenance=Provenance.BIASED_TRAIN)
        assert again.users is ds.users and again.labels is ds.labels

    def test_take_preserves_row_content(self):
        ds = make_dataset([0, 1, 2], [2, 1, 0], [1, 0, 1], 3, 3)
        sub = ds.take(np.array([2, 0]), Provenance.AUXILIARY_SUBSET)
        assert sub.users.tolist() == [2, 0]
        assert sub.items.tolist() == [0, 2]
        assert sub.labels.tolist() == [1, 1]
        assert sub.provenance is Provenance.AUXILIARY_SUBSET
        assert (sub.n_users, sub.n_items) == (3, 3)


class TestSplit:
    def test_per_user_eight_two(self):
        ds = make_dataset([0] * 10, list(range(10)), [1] * 10, 1, 10)
        first, second = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM, seed=1)
        assert len(first) == 8
        assert len(second) == 2

    def test_per_user_floor_rounding(self):
        ds = make_dataset([0] * 5, list(range(5)), [1] * 5, 1, 5)
        first, second = split_ratio(ds, 0.5, SplitMode.PER_USER_RANDOM, seed=0)
        assert len(first) == 2
        assert len(second) == 3

    def test_singleton_user_goes_to_first_split(self):
        ds = make_dataset([0, 1, 1], [0, 0, 1], [1, 1, 0], 2, 2)
        first, second = split_ratio(ds, 0.5, SplitMode.PER_USER_RANDOM, seed=3)
        assert 0 in first.users.tolist()
        assert 0 not in second.users.tolist()

    def test_chronological_takes_leading_rows(self):
        ds = make_dataset(list(range(10)), [0] * 10, [1] * 10, 10, 1)
        first, second = split_ratio(ds, 0.75, SplitMode.CHRONOLOGICAL, seed=0)
        assert first.users.tolist() == list(range(8))
        assert second.users.tolist() == [8, 9]

    def test_chronological_ignores_seed(self):
        ds = make_dataset(list(range(6)), [0] * 6, [1] * 6, 6, 1)
        a, _ = split_ratio(ds, 0.5, SplitMode.CHRONOLOGICAL, seed=1)
        b, _ = split_ratio(ds, 0.5, SplitMode.CHRONOLOGICAL, seed=2)
        assert a.users.tolist() == b.users.tolist()

    def test_same_seed_reproduces_split(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.integers(0, 20, 200), rng.integers(0, 30, 200),
                          rng.integers(0, 2, 200), 20, 30)
        a1, b1 = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM, seed=11)
        a2, b2 = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM, seed=11)
        assert np.array_equal(a1.items, a2.items)
        assert np.array_equal(b1.items, b2.items)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=60))
    @settings(max_examples=40)
    def test_splits_partition_the_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 8, n)
        items = rng.integers(0, 9, n)
        labels = rng.integers(0, 2, n)
        ds = make_dataset(users, items, labels, 8, 9)
        first, second = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM,
                                    seed=seed)
        assert len(first) + len(second) == n
        combined = collections.Counter(
            (int(u), int(i), int(y))
            for part in (first, second)
            for u, i, y in zip(part.users, part.items, part.labels)
        )
        original = collections.Counter(
            (int(u), int(i), int(y)) for u, i, y in zip(users, items, labels)
        )
        assert combined == original


def assert_split_matches_the_loop(ds, ratio, seed):
    """split_ratio's per-user split has the oracle's rows, byte for byte."""
    first, second = split_ratio(ds, ratio, SplitMode.PER_USER_RANDOM, seed=seed)
    for part, idx in zip((first, second), split_per_user_loop(ds, ratio, seed)):
        want = ds.take(idx)
        for column in ("users", "items", "labels"):
            got_col, want_col = getattr(part, column), getattr(want, column)
            assert got_col.dtype == want_col.dtype
            assert got_col.tobytes() == want_col.tobytes(), column


class TestSplitAgainstLoop:
    """The per-user split equals the old loop over users, which draws one
    ``rng.permutation`` per user with at least 2 rows."""

    @given(
        counts=st.lists(st.sampled_from([1, 1, 2, 2, 3, 5, 17]), min_size=1, max_size=30),
        ratio=st.sampled_from([1e-9, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-9])
        | st.floats(1e-6, 1 - 1e-6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_on_drawn_datasets(self, counts, ratio, seed):
        # Users with 1, 2 and many rows, in shuffled file order, with gaps
        # in the user ids.
        rng = np.random.default_rng(seed)
        users = rng.permutation(np.repeat(2 * np.arange(len(counts)), counts))
        n = len(users)
        ds = make_dataset(users, rng.integers(0, 50, n), rng.integers(0, 2, n),
                          2 * len(counts), 50)
        assert_split_matches_the_loop(ds, ratio, seed)

    def test_a_one_row_user_beside_a_user_with_no_first_row(self):
        # User 0 goes wholly first; user 1's floor(0.3 * 2) = 0 rows go
        # first, so its stop mark falls where user 0's stop does.
        ds = make_dataset([1, 0, 1, 2, 2, 2, 2], range(7), [1, 0] * 3 + [1], 3, 7)
        assert_split_matches_the_loop(ds, 0.3, seed=4)


def yahoo_shaped_columns(n: int):
    """(users, items, ratings) of ``n`` rows over 15,400 users and 1,000 items."""
    rng = np.random.default_rng(0)
    return rng.integers(0, 15400, n), rng.integers(0, 1000, n), rng.integers(1, 6, n)


class TestPeakMemory:
    """``tracemalloc`` peaks of the data stage's large steps on fixed inputs.
    Each bound is the peak measured with numpy 2.4 on CPython 3.11 plus the
    margin stated beside it. The figure marked "before" is the peak of the
    earlier code, which held int64 separator positions, their ``diff``, the
    split's ``rank`` and ``repeat`` vectors and a second copy of each taken
    column."""

    def test_load_tsv_of_a_plain_file(self, tmp_path, traced_peak):
        users, items, ratings = yahoo_shaped_columns(300_000)
        path = tmp_path / "plain.tsv"
        path.write_text("".join(f"{u}\t{i}\t{r}\n" for u, i, r in
                                zip(users.tolist(), items.tolist(), ratings.tolist())))
        assert path.stat().st_size == 3_350_573
        ds, peak = traced_peak(load_tsv, path, Schema.USER_ITEM_RATING)
        assert len(ds) == 300_000
        # Measured 12.42 MB, 3.7 times the file (before: 27.65 MB, 8.3
        # times); bound 14 MiB, 18% above.
        assert peak <= 14 * 2**20

    @pytest.mark.parametrize("mode", list(SplitMode))
    def test_split_ratio_of_300k_rows(self, mode, traced_peak):
        users, items, ratings = yahoo_shaped_columns(300_000)
        ds = make_dataset(users, items, ratings > 3, 15400, 1000)
        (first, second), peak = traced_peak(split_ratio, ds, 0.8, mode, 3)
        assert len(first) + len(second) == 300_000
        # Measured 6.14 MB per user and 5.70 MB in file order (before: 18.93
        # and 11.28 MB), 20.5 and 19.0 bytes a row; bound 24 bytes a row,
        # 17% above the per-user peak.
        assert peak <= 24 * 300_000


class TestStats:
    def test_counts_and_ratio(self):
        ds = make_dataset([0, 0, 1], [0, 1, 0], [1, 0, 1], 2, 2)
        s = stats(ds)
        assert s == DatasetStats(n_feedback=3, pn_ratio_percent=200.0,
                                 n_users=2, n_items=2)

    def test_ratio_is_positives_per_hundred_negatives(self):
        ds = make_dataset([0] * 167, list(range(167)),
                          [1] * 67 + [0] * 100, 1, 167)
        assert stats(ds).pn_ratio_percent == pytest.approx(67.0)

    def test_no_positives_gives_zero_ratio(self):
        ds = make_dataset([0], [0], [0], 1, 1)
        assert stats(ds).pn_ratio_percent == 0.0

    def test_no_negatives_is_guarded(self):
        ds = make_dataset([0], [0], [1], 1, 1)
        with pytest.raises(MetricUndefinedError,
                           match="P/N ratio undefined without negatives"):
            stats(ds)


class TestSyntheticSpec:
    def test_rejects_latent_dim_larger_than_sides(self):
        with pytest.raises(ValidationError):
            small_spec(n_users=4, n_items=3, latent_dim=5)

    def test_rejects_threshold_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            small_spec(positive_threshold=1.0)

    def test_rejects_negative_bias(self):
        with pytest.raises(ValidationError):
            small_spec(exposure_bias_strength=-1.0)

    def test_rejects_a_one_pair_world(self):
        # Its one score has no spread to standardize by: relevance was NaN.
        with pytest.raises(ValidationError, match="n_users \\* n_items must be at least 2"):
            small_spec(n_users=1, n_items=1, latent_dim=1)
        for n_users, n_items in ((1, 2), (2, 1)):
            _, _, _, relevance = generate_synthetic(
                small_spec(n_users=n_users, n_items=n_items, latent_dim=1))
            assert np.all((relevance > 0) & (relevance < 1))


def small_spec(**overrides):
    base = dict(n_users=40, n_items=25, latent_dim=4,
                exposure_bias_strength=1.5, positive_threshold=0.3,
                train_impressions=1200, test_impressions=800, seed=5)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_shapes_and_provenances(self):
        train, val, test, relevance = generate_synthetic(small_spec())
        assert len(train) + len(val) == 1200
        assert len(test) == 800
        assert train.provenance is Provenance.BIASED_TRAIN
        assert val.provenance is Provenance.BIASED_VALIDATION
        assert test.provenance is Provenance.UNIFORM_TEST
        assert relevance.shape == (40, 25)
        assert np.all(relevance > 0) and np.all(relevance < 1)

    def test_biased_pool_splits_eight_to_two(self):
        _, val, _, _ = generate_synthetic(small_spec(train_impressions=1000))
        assert len(val) == pytest.approx(200, abs=25)

    def test_same_seed_is_bitwise_identical(self):
        a_train, _, a_test, a_rel = generate_synthetic(small_spec())
        b_train, _, b_test, b_rel = generate_synthetic(small_spec())
        assert np.array_equal(a_train.items, b_train.items)
        assert np.array_equal(a_test.labels, b_test.labels)
        assert np.array_equal(a_rel, b_rel)

    def test_different_seed_changes_draws(self):
        a_train, _, _, _ = generate_synthetic(small_spec(seed=5))
        b_train, _, _, _ = generate_synthetic(small_spec(seed=6))
        assert not np.array_equal(a_train.items, b_train.items)

    def test_zero_bias_exposure_is_uniform(self):
        spec = small_spec(exposure_bias_strength=0.0,
                          train_impressions=30000, test_impressions=100)
        train, val, _, _ = generate_synthetic(spec)
        counts = np.bincount(train.items, minlength=spec.n_items)
        counts = counts + np.bincount(val.items, minlength=spec.n_items)
        expected = 30000 / spec.n_items
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 99.9th percentile of chi-square with 24 degrees of freedom.
        assert chi2 < 51.18

    def test_the_world_computes_its_relevance_once(self, monkeypatch):
        calls = []

        def counting(spec):
            calls.append(spec)
            return latent_relevance(spec)

        latent_relevance = datamod._latent_relevance
        monkeypatch.setattr(datamod, "_latent_relevance", counting)
        spec = small_spec()
        generate_synthetic(spec)
        assert calls == [spec]

    def test_bias_concentrates_exposure_on_popular_items(self):
        spec = small_spec(train_impressions=20000)
        train, val, _, relevance = generate_synthetic(spec)
        _, weights = synthetic_exposure_weights(spec, relevance)
        counts = np.bincount(train.items, minlength=spec.n_items)
        counts = counts + np.bincount(val.items, minlength=spec.n_items)
        top = np.argsort(-weights)[:5]
        assert counts[top].sum() > 0.5 * counts.sum()

    def test_exposure_frequencies_track_powered_popularity(self):
        from scipy import stats as scipy_stats

        # Enough draws that every item's empirical frequency is resolved;
        # the flat end of the popularity curve ties up at smaller samples.
        spec = SyntheticSpec(
            n_users=500, n_items=100, latent_dim=8,
            exposure_bias_strength=1.5, positive_threshold=0.25,
            train_impressions=200000, test_impressions=100, seed=7,
        )
        train, val, _, relevance = generate_synthetic(spec)
        popularity, _ = synthetic_exposure_weights(spec, relevance)
        counts = np.bincount(train.items, minlength=spec.n_items)
        counts = counts + np.bincount(val.items, minlength=spec.n_items)
        rho = scipy_stats.spearmanr(counts, popularity ** 1.5).statistic
        assert rho > 0.95

    @pytest.mark.parametrize("strength", [1000.0, math.inf])
    def test_an_overflowing_bias_strength_is_refused(self, strength):
        # Popularity ** strength overflows for these draws; no range check
        # on the strength alone could tell.
        with pytest.raises(ValidationError, match=f"exposure_bias_strength = {strength} "
                                                  "overflows the synthetic exposure weights"):
            generate_synthetic(small_spec(n_users=20, n_items=10, exposure_bias_strength=strength))

    def test_test_items_stay_uniform_under_bias(self):
        spec = small_spec(test_impressions=30000)
        _, _, test, _ = generate_synthetic(spec)
        counts = np.bincount(test.items, minlength=spec.n_items)
        expected = 30000 / spec.n_items
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 51.18

    def test_labels_follow_relevance(self):
        spec = small_spec(train_impressions=40000)
        train, val, _, relevance = generate_synthetic(spec)
        users = np.concatenate([train.users, val.users])
        items = np.concatenate([train.items, val.items])
        labels = np.concatenate([train.labels, val.labels])
        probs = relevance[users, items]
        # Mean label matches mean relevance over the drawn impressions.
        assert abs(labels.mean() - probs.mean()) < 0.01
