import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dbtune import synth
from dbtune.errors import DataError
from dbtune.ingest import (
    GROUP_NAMES,
    csv_text,
    drop_constant_columns,
    encode_booleans,
    load_corpus,
    load_corpus_from_manifest,
    read_text,
    split_map_validation,
    write_text,
)

from conftest import make_table


def write_manifest(path, knobs, metrics, groups=None):
    doc = {"workload_id": "workload_id", "latency": "latency",
           "knobs": knobs, "metrics": metrics}
    if groups:
        doc["groups"] = groups
    path.write_text(json.dumps(doc))
    return path


class TestEncodeBooleans:
    @pytest.mark.parametrize("token,expected", [
        ("TRUE", 1.0), ("false", 0.0), ("On", 1.0), ("off", 0.0),
        ("yes", 1.0), ("NO", 0.0), ("42.5", 42.5), ("-3", -3.0),
    ])
    def test_spellings(self, token, expected):
        assert encode_booleans(token) == expected

    def test_unrecognized_token(self):
        with pytest.raises(DataError):
            encode_booleans("maybe")

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_numeric_identity(self, x):
        assert encode_booleans(repr(x)) == x


class TestLoadCorpus:
    def test_grouping_identity(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        lines = ["workload_id,k0,m0,latency"]
        for wid in ("a", "b"):
            for i in range(3):
                lines.append(f"{wid},{i},{i * 2},{10 + i}")
        csv.write_text("\n".join(lines) + "\n")
        corpus = load_corpus([csv], manifest)
        assert len(corpus.offline) == 2
        assert all(t.n_rows == 3 for t in corpus.offline)

    def test_total_row_count_preserved(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        rows = [f"w{i % 4},{i},{i},{i}" for i in range(17)]
        csv.write_text("workload_id,k0,m0,latency\n" + "\n".join(rows) + "\n")
        corpus = load_corpus([csv], manifest)
        assert sum(t.n_rows for t in corpus.offline) == 17

    def test_rows_in_file_then_line_order(self, tmp_path):
        # a and b interleave in z.csv; a goes on in a.csv, read second
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        first, second = tmp_path / "z.csv", tmp_path / "a.csv"
        first.write_text("workload_id,k0,m0,latency\na,30,0,30\nb,20,0,20\na,10,0,10\n"
                         "b,40,0,40\n")
        second.write_text("workload_id,k0,m0,latency\na,5,0,5\na,50,0,50\n")
        tables = load_corpus([first, second], manifest).offline
        assert [t.workload_id for t in tables] == ["a", "b"]
        assert [t.latency.tolist() for t in tables] == [[30, 10, 5, 50], [20, 40]]
        assert all((t.knobs[:, 0] == t.latency).all() for t in tables)

    def test_empty_csv_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,m0,latency\n")
        with pytest.raises(DataError, match="no observations"):
            load_corpus([csv], manifest)

    def test_missing_column(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,latency\nw,1,2\n")
        with pytest.raises(DataError, match="m0"):
            load_corpus([csv], manifest)

    def test_duplicate_columns(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,k0,m0,latency\nw,1,1,2,3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_corpus([csv], manifest)

    def test_bad_cell_names_location(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,m0,latency\nw,1,bogus,3\n")
        with pytest.raises(DataError, match="m0"):
            load_corpus([csv], manifest)

    def test_missing_file(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        with pytest.raises(DataError, match="cannot read .*nope.csv: No such file"):
            load_corpus([tmp_path / "nope.csv"], manifest)

    @pytest.fixture
    def small_corpus(self, tmp_path):
        spec = synth.SynthSpec(n_offline=3, n_online=1, rows_per_workload=3,
                               n_knobs=1, n_latent=1, metrics_per_latent=1,
                               noise_std=0.1, seed=0)
        return synth.write_corpus(synth.generate_corpus(spec)[0], tmp_path / "data")

    def test_group_entry_in_subdirectory(self, small_corpus):
        (small_corpus.parent / "sub").mkdir()
        (small_corpus.parent / "online_b_b_000.csv").rename(
            small_corpus.parent / "sub" / "online_b_b_000.csv")
        doc = json.loads(small_corpus.read_text())
        doc["groups"]["online_b"] = ["sub/online_b_b_000.csv"]
        small_corpus.write_text(json.dumps(doc))
        corpus = load_corpus_from_manifest(small_corpus)
        assert [t.workload_id for t in corpus.online_b] == ["b_000"]
        assert [t.workload_id for t in corpus.offline] == ["off_000", "off_001", "off_002"]

    def test_one_group_loaded(self, small_corpus):
        full = load_corpus_from_manifest(small_corpus)
        one = load_corpus_from_manifest(small_corpus, ("online_b",))
        assert one.offline == () and one.online_c == () and one.schema == full.schema
        assert [t.workload_id for t in one.online_b] == [t.workload_id for t in full.online_b]
        for got, want in zip(one.online_b, full.online_b):
            for name in ("knobs", "metrics", "latency"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("second_group", ["offline", "online_b"])
    def test_file_listed_twice_rejected(self, small_corpus, second_group):
        doc = json.loads(small_corpus.read_text())
        doc["groups"][second_group].append("./offline_off_001.csv")
        small_corpus.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="'./offline_off_001.csv' listed twice, "
                                            f"in offline and in {second_group}"):
            load_corpus_from_manifest(small_corpus)

    def test_ids_differing_in_unicode_blanks_stay_distinct(self, tmp_path):
        # only spaces and tabs are stripped around an id; \xa0, \x1c and \x85,
        # which str.strip() also removes, are part of it
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,m0,latency\nb,1,2,3\nb\xa0,1,2,3\n b\t,4,5,6\n"
                       "b\x1c,1,2,3\n\x85b,1,2,3\n", encoding="utf-8")
        tables = {t.workload_id: t for t in load_corpus([csv], manifest).offline}
        assert sorted(tables) == ["b", "b\x1c", "b\xa0", "\x85b"]
        assert tables["b"].n_rows == 2

    def test_utf8_bom_ignored(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        text = "workload_id,k0,m0,latency\nw,1,2,3\nw,on,5.5,6\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = load_corpus([plain], manifest).offline[0]
        got = load_corpus([bom], manifest).offline[0]
        for name in ("knobs", "metrics", "latency"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_58_offline_files(self, tmp_path):
        spec = synth.SynthSpec(n_offline=58, n_online=1, rows_per_workload=2,
                               n_knobs=1, n_latent=1, metrics_per_latent=1,
                               noise_std=0.1, seed=0)
        corpus, _ = synth.generate_corpus(spec)
        manifest = synth.write_corpus(corpus, tmp_path / "data")
        loaded = load_corpus_from_manifest(manifest)
        assert len(loaded.offline) == 58
        assert len(list((tmp_path / "data").glob("offline_*.csv"))) == 58


class TestRoundTrip:
    def test_write_then_load_bitwise(self, tmp_path):
        spec = synth.SynthSpec(n_offline=4, n_online=2, rows_per_workload=3,
                               noise_std=0.3, seed=5)
        corpus, _ = synth.generate_corpus(spec)
        manifest = synth.write_corpus(corpus, tmp_path / "data")
        loaded = load_corpus_from_manifest(manifest)
        for orig, back in zip(corpus.all_tables(), loaded.all_tables()):
            assert orig.workload_id == back.workload_id
            assert np.array_equal(orig.knobs, back.knobs)
            assert np.array_equal(orig.metrics, back.metrics)
            assert np.array_equal(orig.latency, back.latency)


class TestWriteText:
    def test_utf8_read_back_and_directory_made(self, tmp_path):
        path = tmp_path / "new" / "dir" / "ids.csv"
        text = "workload_id\nb\xa0\n\x85b\n"
        write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert read_text(path) == text

    def test_unwritable_path_or_text_refused(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(DataError, match="cannot write .*file/x.csv: Not a directory"):
            write_text(tmp_path / "file" / "x.csv", "a\n")
        with pytest.raises(DataError, match="cannot write .*: Is a directory"):
            write_text(tmp_path, "a\n")
        # the undecodable bytes of a file name, as os.fsdecode gives them
        with pytest.raises(DataError, match="cannot encode .*x.csv: surrogates not allowed"):
            write_text(tmp_path / "x.csv", "predictions_\udcff\n")
        assert not (tmp_path / "x.csv").exists()


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestCsvText:
    @given(st.lists(st.floats(), min_size=1, max_size=6))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
    @example([1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf])
    def test_floats_read_back_bit_equal(self, values):
        header = [f"c{j}" for j in range(len(values))]
        text = csv_text(header, [[v] for v in values])
        first, line, end = text.split("\n")
        assert (first, end) == (",".join(header), "")
        assert line.split(",") == [format(v, ".17g") for v in values]
        back = [float(cell) for cell in line.split(",")]
        for x, y in zip(values, back):
            assert math.isnan(y) if math.isnan(x) else _bits(x) == _bits(y)
        # a numpy float64 is a float, written alike
        assert csv_text(header, [[np.float64(v)] for v in values]) == text

    @given(st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(st.one_of(
        st.none(), st.integers(), st.floats(),
        st.text(st.characters(blacklist_characters=',"\r\n'))), min_size=n, max_size=n),
        min_size=1, max_size=4)))
    def test_none_empty_ints_and_strings_pass_through(self, columns):
        header = [f"h{j}" for j in range(len(columns))]
        rows = [",".join(f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v)
                         for v in row) for row in zip(*columns)]
        assert csv_text(header, columns).split("\n") == [",".join(header), *rows, ""]

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [[1, 2], [3]])
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [[1]])


_PAD = st.sampled_from(["", " ", "  ", "\t", " \t"])
_BOOL = st.sampled_from(["true", "FALSE", "On", "off", "YES", "no", "True", "oFF"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3e}"),
)
_LATENCY = st.one_of(st.floats(0, 1e9).map(repr), st.integers(0, 10**6).map(str), _BOOL)


def _cell(token):
    return st.tuples(_PAD, token, _PAD).map("".join)


class TestColumnParse:
    """Column-wise float() parsing against encode_booleans applied cell by cell."""

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), _cell(st.one_of(_NUMBER, _BOOL)),
                              _cell(_NUMBER), _cell(st.one_of(_NUMBER, _BOOL)),
                              _cell(_LATENCY)),
                    min_size=1, max_size=8))
    def test_bit_equal_to_per_cell_encoding(self, tmp_path, rows):
        manifest = write_manifest(tmp_path / "m.json", ["k0", "k1"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,k1,m0,latency\n"
                       + "".join(",".join(row) + "\n" for row in rows))
        corpus = load_corpus([csv], manifest)
        assert [t.workload_id for t in corpus.offline] == sorted({r[0] for r in rows})
        for table in corpus.offline:
            cells = np.array([[encode_booleans(c) for c in r[1:]]
                              for r in rows if r[0] == table.workload_id])
            for got, want in ((table.knobs, cells[:, :2]), (table.metrics, cells[:, 2:3]),
                              (table.latency, cells[:, 3])):
                assert got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("body,message", [
        # one fault each
        ("w,1,2,3\nw,1,bogus,3\n", "{path}:3: column 'm0': unrecognized cell value 'bogus'"),
        ("w,1,2,3\nw,1,2\n", "{path}:3: expected 4 cells, got 3"),
        ("w,1,2,3\n\nw,1,2,-2.5\n", "{path}:4: negative latency -2.5"),
        # two faults: the one a row-by-row reader meets first
        ("w,1,2,-1\nw,x,2,3\n", "{path}:2: negative latency -1.0"),
        ("w,1,y,-1\n", "{path}:2: column 'm0': unrecognized cell value 'y'"),
        ("w,1,2,z\nw,q,2,3\n", "{path}:2: column 'latency': unrecognized cell value 'z'"),
        ("w,q,2,3\nw,1,2\n", "{path}:2: column 'k0': unrecognized cell value 'q'"),
        ("w,1,2\nw,q,2,3\n", "{path}:2: expected 4 cells, got 3"),
        # an id csv_text cannot write as one cell, before the row's other faults
        ('w,1,2,3\n"a\nb",q,2,-1\n',
         "{path}:3: workload id 'a\\nb' holds a comma, quote or line break"),
        ('w,1,2,3\n" x""y",1,2,3\n',
         "{path}:3: workload id 'x\"y' holds a comma, quote or line break"),
        # a field the csv reader refuses ends the rows like a ragged one
        pytest.param("w,1,2,3\nw,1," + "9" * 131073 + ",3\n",
                     "{path}:3: field larger than field limit (131072)", id="huge-field"),
        pytest.param("w,1,bogus,3\nw,1," + "9" * 131073 + ",3\n",
                     "{path}:2: column 'm0': unrecognized cell value 'bogus'",
                     id="bad-cell-then-huge-field"),
    ])
    def test_first_fault_message(self, tmp_path, body, message):
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
        csv = tmp_path / "data.csv"
        csv.write_text("workload_id,k0,m0,latency\n" + body)
        with pytest.raises(DataError) as info:
            load_corpus([csv], manifest)
        assert str(info.value) == message.format(path=csv)


_ROW = st.tuples(st.sampled_from(["a", "b"]), _cell(_NUMBER), _cell(_NUMBER), _cell(_LATENCY))
_NONFINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
                              "-1e400"])
_NO_ROWS = st.sampled_from(["", "workload_id,k0,m0,latency\n",
                            "workload_id,k0,m0,latency\n\n , ,,\n"])


def _load_error(tmp_path, rows) -> tuple[str, object]:
    """The DataError message of loading one CSV of these rows (any other
    exception fails the test), and the CSV's path."""
    manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"])
    csv = tmp_path / "data.csv"
    csv.write_text("workload_id,k0,m0,latency\n" + "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(DataError) as info:
        load_corpus([csv], manifest)
    return str(info.value), csv


class TestMalformedInputProperties:
    """Ragged rows, non-finite cells and groups without rows are DataErrors
    that name the file, and the line where there is one."""

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_ROW, min_size=1, max_size=6), st.data())
    def test_ragged_row(self, tmp_path, rows, data):
        at = data.draw(st.integers(0, len(rows) - 1))
        width = data.draw(st.integers(1, 9).filter(lambda w: w != 4))
        rows[at] = (rows[at] * 3)[:width]
        message, csv = _load_error(tmp_path, rows)
        assert message == f"{csv}:{at + 2}: expected 4 cells, got {width}"

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_ROW, min_size=1, max_size=6), st.data())
    def test_nonfinite_cell(self, tmp_path, rows, data):
        at = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(1, 3))
        token = data.draw(_cell(_NONFINITE))
        rows[at] = rows[at][:j] + (token,) + rows[at][j + 1:]
        message, csv = _load_error(tmp_path, rows)
        column = ("k0", "m0", "latency")[j - 1]
        assert message == (f"{csv}:{at + 2}: column {column!r}: "
                           f"non-finite value {token.strip()!r}")

    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.fixed_dictionaries({g: st.lists(_NO_ROWS, max_size=2) for g in GROUP_NAMES}))
    def test_groups_without_rows(self, tmp_path, bodies):
        groups = {g: [f"{g}_{i}.csv" for i in range(len(bodies[g]))] for g in GROUP_NAMES}
        for g in GROUP_NAMES:
            for name, body in zip(groups[g], bodies[g]):
                (tmp_path / name).write_text(body)
        manifest = write_manifest(tmp_path / "m.json", ["k0"], ["m0"], groups)
        with pytest.raises(DataError) as info:
            load_corpus_from_manifest(manifest)
        listed = [(tmp_path / n, b) for g in GROUP_NAMES for n, b in zip(groups[g], bodies[g])]
        if not listed:
            assert str(info.value) == f"manifest {manifest} names no input files"
        else:
            first, body = listed[0]
            assert str(info.value) == (f"{first}: empty file, no header" if not body
                                       else f"{first}: no observations")


class TestDropConstantColumns:
    def _corpus(self, tmp_path, rows_by_wid, knobs, metrics):
        manifest = write_manifest(tmp_path / "m.json", knobs, metrics)
        csv = tmp_path / "d.csv"
        header = ["workload_id"] + knobs + metrics + ["latency"]
        lines = [",".join(header)]
        for wid, rows in rows_by_wid.items():
            for row in rows:
                lines.append(",".join([wid] + [str(v) for v in row]))
        csv.write_text("\n".join(lines) + "\n")
        return load_corpus([csv], manifest)

    def test_constant_metric_dropped(self, tmp_path):
        corpus = self._corpus(tmp_path, {"w": [[1, 7.0, 5, 9], [2, 7.0, 6, 9]]},
                              ["k0"], ["m0", "m1"])
        out, dropped = drop_constant_columns(corpus)
        assert dropped == ["m0"]
        assert out.schema.metric_names == ("m1",)

    def test_constant_within_workload_kept(self, tmp_path):
        # constant within each workload but differing across -> kept
        corpus = self._corpus(
            tmp_path,
            {"a": [[1, 5.0, 9], [2, 5.0, 9]], "b": [[3, 6.0, 9], [4, 6.0, 9]]},
            ["k0"], ["m0"])
        # brute-force oracle over concatenated rows
        concat = np.concatenate([t.metrics[:, 0] for t in corpus.all_tables()])
        assert len(set(concat.tolist())) > 1
        out, dropped = drop_constant_columns(corpus)
        assert dropped == []
        assert "m0" in out.schema.metric_names

    def test_no_constants_identity(self, tmp_path):
        corpus = self._corpus(tmp_path, {"w": [[1, 2, 3], [4, 5, 6]]},
                              ["k0"], ["m0"])
        out, dropped = drop_constant_columns(corpus)
        assert dropped == []
        assert np.array_equal(out.offline[0].metrics, corpus.offline[0].metrics)

    def test_idempotent(self, tmp_path):
        corpus = self._corpus(tmp_path, {"w": [[1, 7.0, 5, 9], [2, 7.0, 6, 9]]},
                              ["k0"], ["m0", "m1"])
        once, _ = drop_constant_columns(corpus)
        twice, dropped2 = drop_constant_columns(once)
        assert dropped2 == []
        assert twice.schema == once.schema

    def test_constant_knob_dropped_symmetrically(self, tmp_path):
        corpus = self._corpus(tmp_path, {"w": [[3.0, 1, 9], [3.0, 2, 8]]},
                              ["k0"], ["m0"])
        _, dropped = drop_constant_columns(corpus)
        assert dropped == ["k0"]


class TestSplitMapValidation:
    def _table(self, tiny_schema, n):
        return make_table("w", [[i, i] for i in range(n)],
                          [[i, -i] for i in range(n)], list(range(1, n + 1)),
                          tiny_schema)

    def test_six_rows_nmap_five(self, tiny_schema):
        table = self._table(tiny_schema, 6)
        map_part, val = split_map_validation(table, 5)
        assert map_part.n_rows == 5
        assert val.n_rows == 1
        assert val.latency[0] == table.latency[5]

    def test_nmap_zero_rejected(self, tiny_schema):
        with pytest.raises(DataError, match="w"):
            split_map_validation(self._table(tiny_schema, 6), 0)

    def test_extra_rows_ignored_with_warning(self, tiny_schema):
        table = self._table(tiny_schema, 8)
        with pytest.warns(UserWarning, match="ignoring 2"):
            map_part, val = split_map_validation(table, 5)
        assert map_part.n_rows == 5
        assert val.latency[0] == table.latency[5]

    def test_too_few_rows_names_workload(self, tiny_schema):
        with pytest.raises(DataError, match="w"):
            split_map_validation(self._table(tiny_schema, 4), 5)
