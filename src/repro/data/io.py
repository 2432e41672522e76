"""CSV persistence for relations, with the schema in a header comment.

Format: a first line ``# name:kind,name:kind,...`` followed by a standard
CSV with a header row of attribute names.  Round-trips exactly for
interval/ordinal columns (repr-precision floats) and nominal strings.

:func:`load_csv` has two modes over one single-pass parser that reads the
file in bounded blocks of lines, each parsed into columns at once: the
default materializes an in-memory :class:`~repro.data.relation.Relation`;
``out_of_core=True`` streams the blocks to a memory-mapped
:class:`~repro.data.columnar.ColumnStore` so files larger than RAM load
in constant memory.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.data.relation import Attribute, AttributeKind, Relation, Schema
from repro.obs.trace import span
from repro.resilience.errors import IngestError

__all__ = ["save_csv", "load_csv", "load_plain_csv"]

PathLike = Union[str, Path]


def save_csv(relation: Relation, path: PathLike) -> None:
    """Write ``relation`` to ``path`` (parent directory must exist)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        schema_line = ",".join(
            f"{attribute.name}:{attribute.kind.value}"
            for attribute in relation.schema
        )
        handle.write(f"# {schema_line}\n")
        writer = csv.writer(handle)
        writer.writerow(relation.schema.names)
        for row in relation.rows():
            writer.writerow([_render(value) for value in row])


def _render(value: object) -> str:
    # Numpy scalars repr as "np.float64(...)" under numpy >= 2; go through
    # the plain Python float, whose repr round-trips exactly.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def load_csv(
    path: PathLike,
    *,
    sink=None,
    out_of_core: bool = False,
    chunk_rows: Optional[int] = None,
    spill_dir: Optional[PathLike] = None,
):
    """Read a relation written by :func:`save_csv`.

    Strict by default: a missing or malformed schema header, a column row
    disagreeing with it, a row with the wrong number of cells, or an
    unparseable numeric cell all raise an
    :class:`~repro.resilience.errors.IngestError` (a ``ValueError``)
    naming the file, line and offending value.  Numeric cells read
    exactly as Python's ``float()`` reads them.

    With ``sink`` (a :class:`~repro.resilience.sink.RowSink`), per-row
    problems — wrong arity, unparseable numbers, non-finite numeric
    values — are diverted to the sink instead of aborting, and the
    relation is built from the remaining clean rows.  File-level problems
    (missing header, bad schema line) always raise.  Row numbers reported
    to the sink are 0-based data-row indices (header lines excluded).

    With ``out_of_core=True`` the file is *spilled* instead of
    materialized: blocks of rows stream through a
    :class:`~repro.data.columnar.ColumnStoreWriter` into ``spill_dir``
    (a fresh temp directory when ``None``) in batches of ``chunk_rows``,
    and the return value is a memory-mapped
    :class:`~repro.data.columnar.ColumnStore` rather than a
    :class:`Relation`.  Parsing, the ``path:line`` error contract, and
    quarantine behaviour are byte-for-byte identical to the in-memory
    path — both are fed by the same single-pass block generator, so no
    mode ever re-reads the file to discover its row count.
    """
    path = Path(path)
    if not out_of_core and (chunk_rows is not None or spill_dir is not None):
        raise ValueError("chunk_rows/spill_dir are only meaningful with out_of_core=True")
    with path.open(newline="") as handle:
        schema = _parse_header(handle, path)
        blocks = _iter_blocks(path, schema, handle, sink)
        if out_of_core:
            from repro.data.columnar.store import DEFAULT_CHUNK_ROWS, ColumnStoreWriter

            with span("columnar.spill", path=str(path)):
                with ColumnStoreWriter(
                    schema,
                    spill_dir,
                    chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS,
                ) as writer:
                    for block in blocks:
                        writer.append_block(block)
                    return writer.finish()
        pieces = [[] for _ in schema]
        for block in blocks:
            for column_pieces, column in zip(pieces, block):
                column_pieces.append(column)
    columns = {}
    for attribute, column_pieces in zip(schema, pieces):
        if attribute.kind.is_numeric:
            columns[attribute.name] = (
                np.concatenate(column_pieces) if column_pieces else np.empty(0)
            )
        else:
            columns[attribute.name] = list(itertools.chain.from_iterable(column_pieces))
    return Relation(schema, columns)


def _parse_header(handle, path: Path) -> Schema:
    """Parse the schema comment + column header; return the schema.

    The handle is left at the first data line.  All file-level problems
    raise :class:`IngestError` naming the file.
    """
    first = handle.readline()
    if not first:
        raise IngestError(
            f"{path}: file is empty — expected a '# name:kind,...' "
            f"schema header as the first line"
        )
    if not first.startswith("#"):
        raise IngestError(f"{path}: missing '# name:kind,...' schema header")
    attributes = []
    for chunk in first[1:].strip().split(","):
        name, _, kind = chunk.partition(":")
        if not kind:
            raise IngestError(f"{path}: malformed schema entry {chunk!r}")
        try:
            parsed_kind = AttributeKind(kind.strip())
        except ValueError:
            raise IngestError(
                f"{path}: malformed schema entry {chunk!r}: unknown "
                f"attribute kind {kind.strip()!r}"
            ) from None
        attributes.append(Attribute(name.strip(), parsed_kind))
    schema = Schema(attributes)

    # csv.reader pulls one line per record and reads no further, so the
    # handle is left exactly after the header record.
    header = next(csv.reader(handle), None)
    if header is None:
        raise IngestError(
            f"{path}: file ends after the schema line — expected a "
            f"column header row naming {list(schema.names)}"
        )
    if tuple(header) != schema.names:
        raise IngestError(
            f"{path}: column header {header} does not match schema {schema.names}"
        )
    return schema


#: Lines parsed per block.  Bounds the text held at once: a block's lines
#: live as Python strings until its columns are built.
_BLOCK_LINES = 8192

#: Characters that send a block to the per-row path: a quote (csv.reader
#: unquotes the cell, and the record may span lines) and the ASCII
#: separators U+001C–U+001F, which NumPy strips as whitespace around a
#: number and ``float()`` does not.
_ROW_PATH_CHARS = '"\x1c\x1d\x1e\x1f'

#: Lines that csv.reader reads as an empty record (skipped, but counted
#: in line numbers) and ``numpy.loadtxt`` drops without a trace.
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})


def _iter_blocks(path: Path, schema: Schema, handle, sink):
    """Generate blocks of clean rows, column by column, in one pass.

    Each block is a list in schema order: a ``float64`` array per numeric
    attribute, a list of strings per nominal one.  Shared by the
    in-memory and out-of-core paths of :func:`load_csv`, so both see
    identical rows, identical errors and identical quarantine records.

    A block of up to ``_BLOCK_LINES`` lines is parsed whole when
    :func:`_parse_block` can vouch that the result equals the per-row
    reading.  Otherwise its lines (and any continuation lines of a quoted
    record) go through ``csv.reader`` and :func:`_convert_row` one record
    at a time.  Row numbers reported to the sink are 0-based data-row
    indices; error messages use 1-based record numbers, which count the
    two header lines.
    """
    line_number = 3
    data_index = 0
    while True:
        lines = list(itertools.islice(handle, _BLOCK_LINES))
        if not lines:
            return
        columns = _parse_block(lines, schema, sink)
        if columns is not None:
            line_number += len(lines)
            data_index += len(lines)
            if sink is not None:
                sink.note_ok(len(lines))
            yield columns
            continue
        rows = []
        reader = csv.reader(itertools.chain(lines, handle))
        for row in reader:
            if row:
                try:
                    converted = _convert_row(path, schema, row, line_number, sink)
                except _RowRejected as rejection:
                    sink.divert(data_index, rejection.reason, tuple(row))
                else:
                    if sink is not None:
                        sink.note_ok()
                    rows.append(converted)
                data_index += 1
            line_number += 1
            if reader.line_num >= len(lines):
                break
        cells = list(zip(*rows)) or [()] * len(schema)
        yield [
            np.array(column, dtype=np.float64) if attribute.kind.is_numeric else list(column)
            for attribute, column in zip(schema, cells)
        ]


def _parse_block(lines, schema: Schema, sink):
    """Parse a block of lines whole, or return ``None`` for the per-row path.

    Only all-numeric schemas are parsed whole, by one ``numpy.loadtxt``
    call; its float parser is CPython's own correctly rounded
    ``PyOS_string_to_double``, so each value is bit-identical to
    ``float()`` of the same cell.  Schemas with a nominal attribute always
    take the per-row path.  The block is also refused, and read row by row
    instead, whenever the whole-block result could differ from that
    reading: a quote or separator character, a blank line, a line longer
    than csv's field limit, a row count or arity other than expected, any
    cell the parser rejects, or (with a sink) a non-finite value.
    """
    if not all(attribute.kind.is_numeric for attribute in schema):
        return None
    text = "".join(lines)
    if (
        any(char in text for char in _ROW_PATH_CHARS)
        or not _BLANK_LINES.isdisjoint(lines)
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    try:
        values = np.loadtxt(
            lines,
            dtype=np.float64,
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=2,
        )
    except ValueError:
        return None
    if values.shape != (len(lines), len(schema)):
        return None
    if sink is not None and not np.isfinite(values).all():
        return None
    return list(values.T)


class _RowRejected(Exception):
    """Internal: a row failed conversion and a sink will absorb it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _convert_row(path: Path, schema: Schema, row, line_number: int, sink):
    """One CSV row → typed tuple; raise precisely on anything wrong.

    Without a sink the error is an :class:`IngestError` naming
    ``path:line``; with one it is the internal ``_RowRejected`` carrying
    the same reason, which ``load_csv`` turns into a quarantine record.
    """
    def reject(reason: str):
        if sink is not None:
            return _RowRejected(reason)
        return IngestError(f"{path}:{line_number}: {reason}")

    if len(row) != len(schema):
        raise reject(
            f"row has {len(row)} cells, schema {tuple(schema.names)} "
            f"expects {len(schema)}"
        )
    converted = []
    for attribute, text in zip(schema, row):
        if attribute.kind.is_numeric:
            try:
                value = float(text)
            except ValueError:
                raise reject(
                    f"unparseable value {text!r} for "
                    f"{attribute.kind.value} attribute {attribute.name!r}"
                ) from None
            # Strict mode keeps NaN (cleaning may handle it downstream);
            # lenient mode quarantines it with the other bad rows.
            if sink is not None and not math.isfinite(value):
                raise reject(
                    f"non-finite value {text!r} for "
                    f"{attribute.kind.value} attribute {attribute.name!r}"
                )
            converted.append(value)
        else:
            converted.append(text)
    return tuple(converted)


def load_plain_csv(path: PathLike) -> Relation:
    """Read an ordinary CSV (header row, no schema comment), inferring kinds.

    A column whose every non-empty cell parses as a float becomes an
    ``interval`` attribute (blank cells load as NaN — clean them with
    :mod:`repro.data.cleaning` before mining); anything else is
    ``nominal``, with blanks kept as empty strings.  This is the
    permissive entry point for data not written by :func:`save_csv`; when
    ordinal semantics matter, construct the :class:`Schema` explicitly.
    Raises ``ValueError`` on an empty file or ragged rows.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = []
        for line_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line_number}: row has {len(row)} cells, "
                    f"header has {len(header)}"
                )
            rows.append(row)

    def is_numeric(column_index: int) -> bool:
        saw_value = False
        for row in rows:
            text = row[column_index].strip()
            if not text:
                continue
            saw_value = True
            try:
                float(text)
            except ValueError:
                return False
        return saw_value

    attributes = []
    numeric = []
    for index, name in enumerate(header):
        column_is_numeric = is_numeric(index)
        numeric.append(column_is_numeric)
        kind = AttributeKind.INTERVAL if column_is_numeric else AttributeKind.NOMINAL
        attributes.append(Attribute(name.strip(), kind))
    schema = Schema(attributes)

    def convert(index: int, cell: str):
        if not numeric[index]:
            return cell
        text = cell.strip()
        return float(text) if text else float("nan")

    converted = []
    for row in rows:
        converted.append(tuple(convert(index, cell) for index, cell in enumerate(row)))
    return Relation.from_rows(schema, converted)
