import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copygen import cli, data
from copygen.data import (
    DataError,
    DatasetMeta,
    augment_reciprocal,
    chronological_split,
    dedupe,
    load_dataset,
    normalize_timestamps,
    parse_quadruple_file,
    read_quadruple_file,
    serialize_quadruples,
    write_dataset,
)

from oracles import dedupe_oracle, split_oracle

META = DatasetMeta(num_entities=20, num_relations=6)


def quads(*rows):
    return np.asarray(rows, dtype=np.int64).reshape(-1, 4)


class TestParse:
    def test_basic_line_with_granularity_24(self):
        parsed = parse_quadruple_file(["8\t4\t12\t48"], META)
        normalized = normalize_timestamps(parsed, 24, origin=0)
        assert normalized.tolist() == [[8, 4, 12, 2]]

    def test_empty_input(self):
        assert parse_quadruple_file([], META).shape == (0, 4)
        assert parse_quadruple_file(["", "   "], META).shape == (0, 4)

    def test_order_preserved_and_extra_columns_ignored(self):
        lines = ["3\t1\t4\t0\t999", "1\t0\t2\t24"]
        assert parse_quadruple_file(lines, META).tolist() == [[3, 1, 4, 0], [1, 0, 2, 24]]

    def test_space_separated_fallback(self):
        assert parse_quadruple_file(["3 1 4 0"], META).tolist() == [[3, 1, 4, 0]]

    @pytest.mark.parametrize("line,fragment", [
        ("3\t1\t4", "expected >=4"),
        ("3\t1\tx\t0", "non-integer"),
        ("99\t1\t4\t0", "entity id"),
        ("3\t17\t4\t0", "relation id"),
        ("3\t1\t4\t-5", "negative"),
    ])
    def test_errors_carry_line_number(self, line, fragment):
        with pytest.raises(DataError, match=r"line 2.*" + fragment):
            parse_quadruple_file(["1\t0\t2\t0", line], META)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        facts = np.column_stack([
            rng.integers(0, 20, 50), rng.integers(0, 6, 50),
            rng.integers(0, 20, 50), rng.integers(0, 9, 50)])
        normalized = dedupe(normalize_timestamps(facts, 1))
        reparsed = parse_quadruple_file(serialize_quadruples(normalized).splitlines(), META)
        assert np.array_equal(dedupe(reparsed), normalized)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_any_in_range(self, example):
        """Any in-range (n, 4) array, in any order and with repeats, reads
        back exactly."""
        meta = DatasetMeta(num_entities=example.draw(st.integers(1, 2**31 - 1)),
                           num_relations=example.draw(st.integers(1, 2**31 - 1)))
        entity = st.integers(0, meta.num_entities - 1)
        rows = example.draw(st.lists(st.tuples(entity, st.integers(0, meta.num_relations - 1),
                                            entity, st.integers(0, 2**63 - 1)),
                                  max_size=30))
        q = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        reparsed = parse_quadruple_file(serialize_quadruples(q).splitlines(), meta)
        assert reparsed.dtype == np.int64 and np.array_equal(reparsed, q)


def per_line_read(path, meta):
    """What ``read_quadruple_file`` returns or raises when every file goes
    through the per-line parser."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_quadruple_file(fh, meta)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def outcome(read, path, meta):
    """The array ``read`` returns, or the type and message of what it raises."""
    try:
        return read(path, meta)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


# Fields of fact files: ids in range for META, ids out of its range, and
# tokens only the per-line parser takes or neither reader does.
IN_RANGE = st.one_of(st.integers(0, 5).map(str), st.sampled_from(["+3", "007", "-0"]))
OUT_OF_RANGE = st.sampled_from(["-1", "6", "20", "25", str(2**63 - 1)])
ODD = st.sampled_from([
    "", " ", "x", "4.0", "1e3", "1_000", "#", "#3", "\ufeff1", "\uff13", "0x4", " 3 ",
    "3\x0b", "\x1c3", "\xa03", "3\x00", "- 3", str(2**63), str(2**64), str(-2**63 - 1)])


@st.composite
def fact_files(draw):
    """The bytes of a fact file of one of four kinds: in range and
    tab-separated; the same with ids out of range; in range in another
    layout (space-separated and mixed separators, whitespace-only lines);
    or odd (also ``#`` lines, a byte-order mark, short lines, fields no
    integer parser takes, bytes that are not UTF-8). Every kind may have
    LF, CRLF and lone CR line ends, empty lines, extra columns and a
    trailing tab."""
    kind = draw(st.sampled_from(["in range", "out of range", "other layout", "odd"]))
    fields = {"out of range": st.one_of(IN_RANGE, OUT_OF_RANGE),
              "odd": st.one_of(IN_RANGE, OUT_OF_RANGE, ODD)}.get(kind, IN_RANGE)
    tabbed = kind in ("in range", "out of range")
    separators = st.sampled_from(["\t"] if tabbed else
                                 ["\t", " ", "  ", "\t ", " \t", "\t\t", "\x0c"])
    blanks = [""] if tabbed else ["", " ", "\t", "\x0b"] + ["# note"] * (kind == "odd")
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(blanks)))
            continue
        # four fields, then up to three extra columns of any token
        cells = draw(st.lists(fields, min_size=4, max_size=4))
        cells += draw(st.lists(st.one_of(IN_RANGE, ODD), max_size=3))
        cut = draw(st.integers(2, len(cells))) if kind == "odd" else len(cells)
        line = "".join(cell + draw(separators) for cell in cells[:cut])[:-1]
        if draw(st.booleans()):
            line += draw(st.sampled_from(["\t"] if tabbed else ["\t", " "]))
        lines.append(line)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    if kind == "odd" and draw(st.booleans()):
        text = "\ufeff" + text
    blob = text.encode("utf-8")
    return blob + b"\xff" if kind == "odd" and draw(st.integers(0, 9)) == 0 else blob


@pytest.fixture(scope="module")
def facts_path(tmp_path_factory):
    return tmp_path_factory.mktemp("facts") / "train.txt"


class TestRead:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_per_line_parser(self, facts_path, example):
        """Any file reads as the per-line parser reads it: the same int64,
        C-ordered array, or the same error and message."""
        path = facts_path
        path.write_bytes(example.draw(fact_files()))
        got, want = outcome(read_quadruple_file, path, META), outcome(per_line_read, path, META)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), got
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want)
        else:
            assert got == want

    def test_benchmark_layout_takes_the_array_reader(self, tmp_path, monkeypatch):
        """A ``copygen synth`` dataset loads without the per-line parser,
        into the arrays that parser gives."""
        out = tmp_path / "synth"
        assert cli.main(["synth", "--out", str(out), "--entities", "30",
                         "--relations", "4", "--snapshots", "12",
                         "--facts-per-snapshot", "40", "--seed", "5"]) == 0
        want = load_dataset(out)

        def refuse(lines, meta):
            raise AssertionError("the per-line parser ran on a benchmark-layout file")

        monkeypatch.setattr(data, "parse_quadruple_file", refuse)
        got = load_dataset(out)
        for name in ("train", "valid", "test"):
            assert np.array_equal(got.split(name), want.split(name)), name
            assert got.split(name).dtype == np.int64
        assert got.meta == want.meta

    @pytest.mark.parametrize("line,num_entities", [
        (f"3\t1\t4\t{2**63}", 20),
        (f"{2**63}\t1\t4\t0", 2**64),
    ])
    def test_over_int64_field_names_file_and_line(self, tmp_path, line, num_entities):
        path = tmp_path / "train.txt"
        path.write_text(f"1\t0\t2\t0\n{line}\n", encoding="utf-8")
        meta = DatasetMeta(num_entities=num_entities, num_relations=6)
        with pytest.raises(DataError, match=re.escape(f"{path}: line 2: field {2**63} ")):
            read_quadruple_file(path, meta)


class TestDedupe:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_row_unique(self, example):
        """Distinct rows in np.unique(axis=0) order, int64, (0, 4) when
        empty, from any rows: repeats, negative and extreme values."""
        pool = example.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4))
        value = st.one_of(st.sampled_from(pool), st.integers(-3, 3))
        rows = example.draw(st.lists(st.tuples(value, value, value, value), max_size=40))
        repeats = example.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=10))
        q = np.asarray(rows + [rows[i] for i in repeats if rows], dtype=np.int64).reshape(-1, 4)
        if example.draw(st.booleans()):
            q = q[::-1]  # a strided view
        got = dedupe(q)
        assert got.dtype == np.int64 and got.shape[1:] == (4,)
        assert np.array_equal(got, dedupe_oracle(q))
        empty = dedupe(q[:0])
        assert empty.dtype == np.int64 and empty.shape == (0, 4)


class TestNormalize:
    def test_granularity_15(self):
        q = quads((0, 0, 1, 0), (0, 0, 1, 15), (0, 0, 1, 30))
        assert normalize_timestamps(q, 15)[:, 3].tolist() == [0, 1, 2]

    def test_rebased_offset(self):
        q = quads((0, 0, 1, 24), (0, 0, 1, 48))
        assert normalize_timestamps(q, 24)[:, 3].tolist() == [0, 1]

    def test_repeated_times(self):
        q = quads((0, 0, 1, 0), (0, 0, 2, 0), (0, 0, 1, 24))
        assert normalize_timestamps(q, 24)[:, 3].tolist() == [0, 0, 1]

    def test_shared_origin(self):
        late = quads((0, 0, 1, 48))
        assert normalize_timestamps(late, 24, origin=0)[:, 3].tolist() == [2]

    def test_input_unchanged(self):
        q = quads((0, 0, 1, 24))
        normalize_timestamps(q, 24)
        assert q[0, 3] == 24

    def test_bad_granularity(self):
        with pytest.raises(DataError):
            normalize_timestamps(quads((0, 0, 1, 0)), 0)

    @pytest.mark.parametrize("times, origin, message", [
        ((3, -1), None, "raw timestamps must be non-negative"),
        ((24, 48), 2, "origin is later than the earliest snapshot")])
    def test_bad_times(self, times, origin, message):
        q = quads(*[(0, 0, 1, t) for t in times])
        with pytest.raises(DataError, match=f"^{message}$"):
            normalize_timestamps(q, 24, origin=origin)


class TestAugment:
    def test_definition(self):
        meta = DatasetMeta(5, 3)
        out, r_aug = augment_reciprocal(quads((1, 0, 2, 0)), meta)
        assert out.tolist() == [[1, 0, 2, 0], [2, 3, 1, 0]]
        assert r_aug == 6

    def test_empty(self):
        out, r_aug = augment_reciprocal(np.empty((0, 4), np.int64), DatasetMeta(5, 3))
        assert out.shape == (0, 4) and r_aug == 6

    def test_cardinality(self):
        rng = np.random.default_rng(0)
        facts = np.column_stack([rng.integers(0, 9, 10), rng.integers(0, 5, 10),
                                 rng.integers(0, 9, 10), rng.integers(0, 4, 10)])
        out, r_aug = augment_reciprocal(dedupe(facts), DatasetMeta(9, 5))
        assert len(out) == 2 * len(dedupe(facts)) and r_aug == 10

    def test_restriction_recovers_original(self):
        meta = DatasetMeta(9, 5)
        rng = np.random.default_rng(1)
        facts = dedupe(np.column_stack([
            rng.integers(0, 9, 30), rng.integers(0, 5, 30),
            rng.integers(0, 9, 30), rng.integers(0, 4, 30)]))
        out, _ = augment_reciprocal(facts, meta)
        restricted = out[out[:, 1] < meta.num_relations]
        assert np.array_equal(dedupe(restricted), facts)

    def test_double_augment_rejected(self):
        meta = DatasetMeta(5, 3)
        out, _ = augment_reciprocal(quads((1, 0, 2, 0)), meta)
        with pytest.raises(DataError, match="reciprocal"):
            augment_reciprocal(out, meta)


class TestSplit:
    def test_ten_equal_snapshots(self):
        rows = [(i % 5, 0, (i + 1) % 5, t) for t in range(10) for i in range(4)]
        split = chronological_split(quads(*rows))
        assert split.boundaries == (8, 9)
        assert sorted(set(split.train[:, 3].tolist())) == list(range(8))
        assert set(split.valid[:, 3].tolist()) == {8}
        assert set(split.test[:, 3].tolist()) == {9}

    def test_uneven_sizes_match_exhaustive_search(self):
        sizes = [50, 20, 10, 10, 10]
        rows = []
        for t, size in enumerate(sizes):
            rows.extend((i % 7, i % 3, (i + t) % 7, t) for i in range(size))
        q = quads(*rows)
        split = chronological_split(q)
        dev, v_start, t_start = split_oracle(q, (0.8, 0.1, 0.1))
        assert (v_start, t_start) == (3, 4)  # exact 80/10/10 at these boundaries
        assert split.boundaries == (v_start, t_start)
        assert dev == 0.0

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            horizon = int(rng.integers(3, 9))
            rows = []
            for t in range(horizon):
                for i in range(int(rng.integers(1, 12))):
                    rows.append((int(rng.integers(6)), 0, int(rng.integers(6)), t))
            q = quads(*rows)
            split = chronological_split(q)
            _, v_start, t_start = split_oracle(q, (0.8, 0.1, 0.1))
            assert split.boundaries == (v_start, t_start)

    def test_chronology_invariant(self):
        rng = np.random.default_rng(11)
        rows = [(int(rng.integers(5)), 0, int(rng.integers(5)), int(rng.integers(7)))
                for _ in range(60)]
        split = chronological_split(quads(*rows))
        assert split.train[:, 3].max() < split.valid[:, 3].min()
        assert split.valid[:, 3].max() < split.test[:, 3].min()

    def test_two_way_mode(self):
        rows = [(i % 3, 0, i % 5, t) for t in range(10) for i in range(10)]
        split = chronological_split(quads(*rows), ratios=(0.8, 0.2))
        assert split.boundaries == (8,)
        assert len(split.valid) == 0
        assert len(split.train) == 80 and len(split.test) == 20

    @pytest.mark.parametrize("ratios, message", [
        ((1.0,), "two or three entries"), ((0.25, 0.25, 0.25, 0.25), "two or three entries"),
        ((0.8, 0.1, 0.2), "sum to 1"), ((0.8, 0.3, -0.1), "positive")])
    def test_bad_ratios(self, ratios, message):
        rows = [(i % 3, 0, i % 5, t) for t in range(6) for i in range(4)]
        with pytest.raises(DataError, match=message):
            chronological_split(quads(*rows), ratios)

    def test_too_few_snapshots(self):
        with pytest.raises(DataError, match="at least 3"):
            chronological_split(quads((0, 0, 1, 0), (0, 0, 2, 1)))

    def test_counts_preserved(self):
        rows = [(i % 3, 0, i % 5, t) for t in range(6) for i in range(9)]
        q = quads(*rows)
        split = chronological_split(q)
        assert len(split.train) + len(split.valid) + len(split.test) == len(q)


class TestLoadDataset:
    def _write(self, root, name, rows):
        data.write_quadruple_file(root / f"{name}.txt", quads(*rows))

    def test_joint_normalization(self, tmp_path):
        (tmp_path / "stat.txt").write_text("10 4\n")
        self._write(tmp_path, "train", [(0, 0, 1, 24), (1, 1, 2, 48)])
        self._write(tmp_path, "valid", [(2, 2, 3, 72)])
        self._write(tmp_path, "test", [(3, 3, 4, 96)])
        ds = load_dataset(tmp_path, granularity=24)
        assert ds.train[:, 3].tolist() == [0, 1]
        assert ds.valid[:, 3].tolist() == [2]
        assert ds.test[:, 3].tolist() == [3]
        assert ds.meta.num_snapshots == 4

    def test_missing_valid_is_empty(self, tmp_path):
        (tmp_path / "stat.txt").write_text("10 4\n")
        self._write(tmp_path, "train", [(0, 0, 1, 0)])
        self._write(tmp_path, "test", [(1, 1, 2, 1)])
        ds = load_dataset(tmp_path)
        assert len(ds.valid) == 0

    def test_missing_train_errors(self, tmp_path):
        (tmp_path / "stat.txt").write_text("10 4\n")
        with pytest.raises(DataError, match="train"):
            load_dataset(tmp_path)

    def test_non_positive_granularity(self, tmp_path):
        (tmp_path / "stat.txt").write_text("10 4\n")
        self._write(tmp_path, "train", [(0, 0, 1, 0)])
        for granularity in (0, -1):
            with pytest.raises(DataError, match="^granularity must be positive$"):
                load_dataset(tmp_path, granularity=granularity)

    def test_bad_stat(self, tmp_path):
        (tmp_path / "stat.txt").write_text("10\n")
        with pytest.raises(DataError, match="stat"):
            load_dataset(tmp_path)


class TestWriteDataset:
    FACTS = dedupe(quads(*[(i % 5, i % 2, (i + t) % 7, t) for t in range(10)
                           for i in range(6)]))
    META = DatasetMeta(num_entities=7, num_relations=2)

    @pytest.mark.parametrize("ratios, names", [
        ((0.8, 0.1, 0.1), ["train", "valid", "test"]), ((0.8, 0.2), ["train", "test"])],
        ids=["three-way", "two-way"])
    def test_load_reads_back_what_it_writes(self, tmp_path, ratios, names):
        """A two-way split has no ``valid`` part, so it writes no
        ``valid.txt``, and loads with an empty validation split."""
        split = chronological_split(self.FACTS, ratios)
        assert list(split.files()) == names
        write_dataset(tmp_path / "ds", self.META, split.files())
        assert sorted(path.name for path in (tmp_path / "ds").iterdir()) == sorted(
            ["stat.txt"] + [f"{name}.txt" for name in names])
        ds = load_dataset(tmp_path / "ds")
        assert (ds.meta.num_entities, ds.meta.num_relations) == (7, 2)
        for name in ("train", "valid", "test"):
            np.testing.assert_array_equal(ds.split(name), getattr(split, name))

    def test_two_way_over_three_way_leaves_no_stale_split(self, tmp_path):
        write_dataset(tmp_path, self.META, chronological_split(self.FACTS).files())
        split = chronological_split(self.FACTS, (0.8, 0.2))
        write_dataset(tmp_path, DatasetMeta(8, 3), split.files())
        assert not (tmp_path / "valid.txt").exists()
        ds = load_dataset(tmp_path)
        assert (ds.meta.num_entities, ds.meta.num_relations) == (8, 3)
        assert len(ds.valid) == 0
        np.testing.assert_array_equal(ds.train, split.train)
        np.testing.assert_array_equal(ds.test, split.test)
