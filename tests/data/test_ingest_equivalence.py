"""Block-parsed ``load_csv`` against the per-row reference loader.

Every file here is loaded twice, by :func:`repro.data.io.load_csv` and by
:func:`tests.data.ingest_reference.reference_load_csv`, in strict and
quarantine modes, in memory and out of core.  The two must agree bit for
bit: column values, store part files and manifest, ``IngestError`` text,
quarantine records and JSONL lines, and the row at which an error budget
aborts.  The generated lines include cells and lines the block parser must
not accept on its own, placed on and around block boundaries.
"""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import io as data_io
from repro.data.columnar.store import DEFAULT_CHUNK_ROWS, ColumnStore
from repro.data.relation import Relation
from repro.resilience.sink import ErrorBudget, Quarantine
from tests.data.ingest_reference import reference_load_csv

BLOCK = data_io._BLOCK_LINES

#: Cells ``float()`` reads, each spelled in a way a fast parser could get
#: wrong: underscores, padding, signs, bare dots, signed zero, subnormals,
#: 17-digit mantissas, non-finite spellings and overflow.
TRICKY_NUMBERS = [
    "1_0", " 1.5 ", "\t2.5", "+.5", "5.", "-0.0", "5e-324", "2.2250738585072009e-308",
    "0.10000000000000001", "9007199254740993", "nan", "-nan", "-inf", "Infinity",
    "1e400", "-1e400",
]
#: Cells ``float()`` rejects; ``1.5\x1c`` NumPy would read as 1.5, and a
#: NUL makes some Python versions' ``csv.reader`` raise ``csv.Error``.
BAD_NUMBERS = ["", "abc", "0x10", "1d5", "1.5.5", "1.5\x1c", "1\x005"]


def _number():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(TRICKY_NUMBERS),
        st.sampled_from(BAD_NUMBERS),
    )


def _nominal():
    plain = st.text(alphabet="abc xyz-_.#", max_size=4)
    # Quoted cells, some holding a line break: csv.reader then reads one
    # record from two lines, which may straddle a block boundary.
    quoted = st.one_of(
        st.sampled_from(['"a\nb"', '"a,\r\nb"', '"x,y"', '"say ""hi"""']),
        st.text(alphabet='ab,"\n ', min_size=1, max_size=4).map(
            lambda text: '"' + text.replace('"', '""') + '"'
        ),
    )
    return st.one_of(plain, quoted)


@st.composite
def _line(draw, numeric):
    kind = draw(st.sampled_from(
        ["row"] * 8 + ["blank", "spaces", "comment", "short", "long", "quoted"]
    ))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return draw(st.sampled_from([" ", "   ", "\t"]))
    cells = [draw(_number() if is_numeric else _nominal()) for is_numeric in numeric]
    if kind == "comment":
        cells[0] = "#" + cells[0]
    elif kind == "short":
        cells = cells[:-1]
    elif kind == "long":
        cells.append(draw(_number()))
    elif kind == "quoted":
        index = draw(st.integers(0, len(cells) - 1))
        cells[index] = '"' + cells[index].replace('"', '""') + '"'
    return ",".join(cells)


SCHEMAS = [
    (("x", "interval"),),
    (("x", "interval"), ("y", "ordinal"), ("z", "interval")),
    (("x", "interval"), ("tag", "nominal"), ("y", "interval")),
    # A quoted nominal cell last in the row can hold a line break and
    # still leave the row's first line with the full arity.
    (("x", "interval"), ("tag", "nominal")),
]


@st.composite
def csv_files(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    numeric = [kind != "nominal" for _, kind in schema]
    clean_row = st.tuples(*[
        st.floats(allow_nan=False, allow_infinity=False).map(repr) if is_numeric
        else st.sampled_from(["a", "b c", ""])
        for is_numeric in numeric
    ]).map(",".join)
    # Mostly clean rows, so that whole blocks take the fast path.
    lines = draw(st.lists(st.one_of(clean_row, clean_row, clean_row, _line(numeric)),
                          max_size=30))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):  # mix endings line by line
        endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                                min_size=len(lines) + 2, max_size=len(lines) + 2))
    else:
        endings = [ending] * (len(lines) + 2)
    header = [
        "# " + ",".join(f"{name}:{kind}" for name, kind in schema),
        ",".join(name for name, _ in schema),
    ]
    text = "".join(line + end for line, end in zip(header + lines, endings))
    if lines and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no newline after the last line
    return text


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _load(loader, path, workdir, tag, *, sink, out_of_core, chunk_rows):
    """``(outcome, records, jsonl)``: the result or the error, plus the sink's trail."""
    quarantine = None
    if sink is not None:
        quarantine = Quarantine(path=workdir / f"{tag}.jsonl", budget=ErrorBudget(*sink))
    kwargs = {}
    if out_of_core:
        kwargs = {"out_of_core": True, "chunk_rows": chunk_rows,
                  "spill_dir": workdir / f"{tag}-store"}
    try:
        outcome = loader(path, sink=quarantine, **kwargs)
    except Exception as error:  # compared by type and text below
        outcome = (type(error), str(error))
    finally:
        if quarantine is not None:
            quarantine.close()
    if quarantine is None:
        return outcome, None, None
    jsonl = workdir / f"{tag}.jsonl"
    return outcome, quarantine.records, jsonl.read_bytes() if jsonl.exists() else b""


def _bits(column):
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return column.dtype.str, column.view(np.uint64).tolist()
    return column.dtype.str, list(column)


def _store_files(store):
    return {path.name: path.read_bytes() for path in sorted(store.directory.iterdir())}


def assert_same_load(path, workdir, *, sink=None, out_of_core=False, chunk_rows=None):
    """Load ``path`` both ways and compare; return the reference's outcome.

    ``sink`` is ``None`` (strict) or the ``ErrorBudget`` arguments of a
    fresh :class:`Quarantine` per loader.
    """
    workdir = Path(tempfile.mkdtemp(dir=workdir))
    options = {"sink": sink, "out_of_core": out_of_core, "chunk_rows": chunk_rows}
    got, got_records, got_jsonl = _load(data_io.load_csv, path, workdir, "got", **options)
    want, want_records, want_jsonl = _load(reference_load_csv, path, workdir, "want", **options)
    assert got_records == want_records
    assert got_jsonl == want_jsonl
    if isinstance(want, tuple):
        assert got == want
        return want
    assert type(got) is type(want)
    assert got.schema == want.schema
    assert len(got) == len(want)
    if isinstance(want, Relation):
        columns = [(got.column(n), want.column(n)) for n in want.schema.names]
    else:
        assert _store_files(got) == _store_files(want)
        columns = [(got.column(n).to_numpy(), want.column(n).to_numpy())
                   for n in want.schema.names]
        got.close()
        want.close()
    for got_column, want_column in columns:
        assert _bits(got_column) == _bits(want_column)
    return want


SINKS = [None, (None, 1), (0.2, 5), (0.5, 1)]


@settings(max_examples=200, deadline=None)
@given(
    text=csv_files(),
    block=st.sampled_from([1, 2, 3, 4, 7]),
    sink=st.sampled_from(SINKS),
    out_of_core=st.booleans(),
    chunk=st.sampled_from(["default", "1", "7", "block-1", "block+1"]),
)
def test_generated_files_load_identically(text, block, sink, out_of_core, chunk):
    chunk_rows = {"default": None, "1": 1, "7": 7,
                  "block-1": max(block - 1, 1), "block+1": block + 1}[chunk]
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(data_io, "_BLOCK_LINES", block):
        workdir = Path(scratch)
        path = workdir / "data.csv"
        path.write_text(text, newline="")
        assert_same_load(path, workdir, sink=sink, out_of_core=out_of_core,
                         chunk_rows=chunk_rows)


# ----------------------------------------------------------------------
# The real block size
# ----------------------------------------------------------------------

#: Lines that stress the block parser, by name: some it must hand to the
#: per-row path, the others it must read exactly as ``float()`` does.
SPECIAL_LINES = {
    "underscore": "1_0,2.0",
    "padded": " 1.5 ,+.5",
    "signed_zero": "-0.0,5.",
    "subnormal": "5e-324,2.2250738585072009e-308",
    "nan": "nan,1.0",
    "infinity": "-inf,Infinity",
    "overflow": "1e400,1.0",
    "unparseable": "oops,1.0",
    "separator": "1.5\x1c,1.0",
    "nul": "1.5\x00,1.0",
    "blank": "",
    "spaces": "   ",
    "comment": "#1.0,2.0",
    "short": "1.0",
    "long": "1.0,2.0,3.0",
    "quoted": '"1.5",2.0',
}


def _tall_file(path, specials, ending="\n", n_rows=2 * BLOCK + 40):
    """Clean random rows with ``specials`` (``{data line index: name}``) spliced in."""
    rng = np.random.default_rng(7)
    values = rng.normal(scale=1e3, size=(n_rows, 2))
    lines = [f"{a!r},{b!r}" for a, b in values.tolist()]
    for index, name in specials.items():
        lines[index] = SPECIAL_LINES[name]
    path.write_text(
        "".join(line + ending for line in ["# a:interval,b:interval", "a,b", *lines]),
        newline="",
    )


BOUNDARY_ROWS = [0, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK]


@pytest.mark.parametrize("index, name", enumerate(sorted(SPECIAL_LINES)))
def test_special_lines_at_block_boundaries(tmp_path, index, name):
    path = tmp_path / "tall.csv"
    # A bad last row pins the line and data-row counts after the specials.
    specials = {**{row: name for row in BOUNDARY_ROWS}, 2 * BLOCK + 39: "unparseable"}
    _tall_file(path, specials, ending="\r\n")
    # Each special line meets one flush size; together they cover all four.
    chunk_rows = (7, BLOCK - 1, BLOCK + 1, None)[index % 4]
    for sink in (None, (None, 1)):
        assert_same_load(path, tmp_path, sink=sink)
        assert_same_load(path, tmp_path, sink=sink, out_of_core=True, chunk_rows=chunk_rows)


@pytest.mark.parametrize("row", BOUNDARY_ROWS)
def test_strict_error_names_the_line_at_each_boundary(tmp_path, row):
    path = tmp_path / "tall.csv"
    _tall_file(path, {row: "spaces"})
    outcome = assert_same_load(path, tmp_path)
    assert outcome[1].startswith(f"{path}:{row + 3}: ")


@pytest.mark.parametrize("block", [1, 2, 3])
def test_quoted_record_spanning_a_block_boundary(tmp_path, block):
    path = tmp_path / "quoted.csv"
    path.write_text('# x:interval,tag:nominal\nx,tag\n1.0,"a\nb"\n2.0,c\n3.0,"d\ne"\n',
                    newline="")
    with mock.patch.object(data_io, "_BLOCK_LINES", block):
        relation = assert_same_load(path, tmp_path)
        assert list(relation.column("tag")) == ["a\nb", "c", "d\ne"]


def test_whitespace_only_line_is_never_skipped(tmp_path):
    path = tmp_path / "tall.csv"
    _tall_file(path, {BLOCK + 5: "spaces"})
    sink = Quarantine()
    relation = data_io.load_csv(path, sink=sink)
    assert sink.rows() == [BLOCK + 5]
    assert len(relation) == 2 * BLOCK + 39


def test_error_budget_aborts_at_the_same_row(tmp_path):
    path = tmp_path / "tall.csv"
    _tall_file(path, {BLOCK + i: "unparseable" for i in range(0, 40, 2)})
    outcome = assert_same_load(path, tmp_path, sink=(0.001, 20), out_of_core=True)
    assert "error budget exceeded" in outcome[1]


def test_clean_file_reads_exactly_like_float(tmp_path):
    path = tmp_path / "tall.csv"
    _tall_file(path, {})
    cells = [line.split(",") for line in path.read_text().splitlines()[2:]]
    relation = data_io.load_csv(path)
    for index, name in enumerate(("a", "b")):
        want = [struct.pack("<d", float(row[index])) for row in cells]
        got = [struct.pack("<d", value) for value in relation.column(name).tolist()]
        assert got == want


def test_spill_is_byte_identical_at_default_chunk(tmp_path):
    path = tmp_path / "tall.csv"
    _tall_file(path, {}, n_rows=DEFAULT_CHUNK_ROWS + BLOCK + 3)
    store = assert_same_load(path, tmp_path, out_of_core=True)
    assert isinstance(store, ColumnStore)
