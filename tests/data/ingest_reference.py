"""The per-row CSV loader, kept as the oracle for block-parsed ingest.

:func:`reference_load_csv` is :func:`repro.data.io.load_csv` as it was
before block parsing: ``csv.reader`` yields one record at a time,
``_convert_row`` turns it into a tuple of ``float()`` values and strings,
and the rows go to per-column lists (in memory) or, one by one, to
:class:`_ReferenceWriter` (out of core), which keeps the column store
writer's original per-row list buffers and flush, so the part files are
checked against an independent writer.  ``load_csv`` must match it bit
for bit: values, part files, manifest, error text and quarantine records.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.columnar.store import DEFAULT_CHUNK_ROWS, ColumnStoreWriter
from repro.data.io import _convert_row, _parse_header, _RowRejected
from repro.data.relation import Relation
from repro.obs import metrics as obs_metrics


class _ReferenceWriter(ColumnStoreWriter):
    """The column store writer as it was: a Python list per column.

    Only the buffering differs from :class:`ColumnStoreWriter`; part file
    names, the manifest and :meth:`finish` are shared.
    """

    def __init__(self, schema, directory=None, *, chunk_rows=DEFAULT_CHUNK_ROWS):
        super().__init__(schema, directory, chunk_rows=chunk_rows)
        self._row_buffers = {name: [] for name in schema.names}

    def append_row(self, row: Sequence) -> None:
        for name, value in zip(self.schema.names, row):
            self._row_buffers[name].append(value)
        self._buffered += 1
        self.n_rows += 1
        if self._buffered >= self.chunk_rows:
            self.flush()

    def flush(self) -> None:
        if not self._buffered:
            return
        flushed_bytes = 0
        for attribute in self.schema:
            buffer = self._row_buffers[attribute.name]
            if attribute.kind.is_numeric:
                block = np.asarray(buffer, dtype="<f8")
            else:
                vocabulary = self._categories[attribute.name]
                codes = np.empty(len(buffer), dtype="<i4")
                for i, value in enumerate(buffer):
                    if value is None:
                        codes[i] = -1
                        continue
                    text = str(value)
                    code = vocabulary.get(text)
                    if code is None:
                        code = len(vocabulary)
                        vocabulary[text] = code
                    codes[i] = code
                block = codes
            with self._files[attribute.name].open("ab") as handle:
                block.tofile(handle)
            flushed_bytes += block.nbytes
            buffer.clear()
        self.n_bytes += flushed_bytes
        if obs_metrics.metrics_enabled():
            obs_metrics.inc(
                "repro_data_spilled_rows_total", self._buffered,
                help="Rows spilled to columnar stores",
            )
            obs_metrics.inc(
                "repro_data_spilled_bytes_total", flushed_bytes,
                help="Bytes appended to columnar store part files",
                unit="bytes",
            )
        self._buffered = 0


def _iter_clean_rows(path: Path, schema, reader, sink):
    """Generate converted row tuples, diverting bad rows to ``sink``."""
    data_index = 0
    for line_number, row in enumerate(reader, start=3):
        if not row:
            continue  # blank line
        try:
            converted = _convert_row(path, schema, row, line_number, sink)
        except _RowRejected as rejection:
            sink.divert(data_index, rejection.reason, tuple(row))
        else:
            if sink is not None:
                sink.note_ok()
            yield converted
        data_index += 1


def reference_load_csv(path, *, sink=None, out_of_core=False, chunk_rows=None, spill_dir=None):
    """Load ``path`` row by row; same signature and results as ``load_csv``."""
    path = Path(path)
    with path.open(newline="") as handle:
        schema = _parse_header(handle, path)
        clean_rows = _iter_clean_rows(path, schema, csv.reader(handle), sink)
        if out_of_core:
            with _ReferenceWriter(
                schema, spill_dir, chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS
            ) as writer:
                for row in clean_rows:
                    writer.append_row(row)
                return writer.finish()
        columns = {name: [] for name in schema.names}
        for row in clean_rows:
            for name, value in zip(schema.names, row):
                columns[name].append(value)
    return Relation(schema, columns)
