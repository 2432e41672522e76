"""The on-disk columnar relation: per-column binary files + JSON manifest.

A :class:`ColumnStore` is the out-of-core twin of
:class:`~repro.data.relation.Relation`: the same schema and the same
``matrix``/``len`` surface the miner reads, but columns live in raw
little-endian binary files inside one directory, opened as
``numpy.memmap`` views so only the pages a scan touches are ever
resident.  The directory layout is::

    store/
      manifest.json          # format tag, row count, schema, column index
      c0000_age.data.bin     # one file per column storage part
      c0001_job.codes.bin
      ...

The manifest (see :data:`MANIFEST_VERSION`) records everything needed to
reopen the store: row count, write-side chunk size, the attribute schema
and, per column, the dtype manifest plus each part's file name and scalar
dtype.  ``manifest.json`` is written last, atomically, so a directory
with a manifest is a complete store by construction.

Construction paths:

* :meth:`ColumnStore.from_arrays` / :meth:`from_tuples` /
  :meth:`from_relation` — encode in-memory data and spill it.
* :class:`ColumnStoreWriter` — the streaming path:
  ``load_csv(..., out_of_core=True)`` feeds it blocks of rows, column by
  column, and it flushes every ``chunk_rows`` rows, so the CSV is never
  materialized.
* :meth:`ColumnStore.open` — reopen an existing directory.

Backend failures (missing files, corrupt manifests, truncated parts)
raise :class:`~repro.resilience.errors.ColumnStoreError`, which the
guarded miner catches to degrade to the in-memory engine.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.columnar.chunks import ChunkIterator
from repro.data.columnar.column import Column
from repro.data.columnar.dtypes import (
    CategoricalDtype,
    ColumnDtype,
    MaskedNumericDtype,
    NumericDtype,
)
from repro.data.relation import Attribute, AttributeKind, Relation, Schema
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.errors import ColumnStoreError, InjectedFault

__all__ = ["DEFAULT_CHUNK_ROWS", "MANIFEST_NAME", "ColumnStore", "ColumnStoreWriter"]

PathLike = Union[str, Path]

#: Default write-side spill granularity (rows buffered per flush) and the
#: default read-side scan cadence when the caller does not choose one.
DEFAULT_CHUNK_ROWS = 65536

#: The manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Manifest format version; bump when a field changes meaning.
MANIFEST_VERSION = 1

_FORMAT_TAG = "repro-columnar"


def _safe_file_prefix(index: int, name: str) -> str:
    """A filesystem-safe, unique file prefix for column ``index``/``name``."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    return f"c{index:04d}_{safe[:48]}"


def _resolve_directory(directory: Optional[PathLike]) -> Tuple[Path, bool]:
    """``(path, ephemeral)`` — a fresh temp dir when none was given."""
    if directory is None:
        return Path(tempfile.mkdtemp(prefix="repro-columnar-")), True
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path, False


class ColumnStoreWriter:
    """Single-pass streaming spill: blocks of rows in, a finished store out.

    Buffers column blocks and flushes every ``chunk_rows`` rows by
    *appending* to each column's part files — the reason the format is
    raw binary: nothing about the files depends on the final row count,
    so the CSV reader never needs a counting pre-pass.  A block that
    straddles a flush boundary is split there, so every flush but the
    last writes exactly ``chunk_rows`` rows.  Nominal columns build their
    category vocabulary incrementally; numeric columns store ``float64``
    verbatim (NaN included).

    Use as a context manager or call :meth:`finish` explicitly;
    :meth:`abort` removes a partially written directory.
    """

    def __init__(
        self,
        schema: Schema,
        directory: Optional[PathLike] = None,
        *,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        self.schema = schema
        self.chunk_rows = int(chunk_rows)
        self.directory, self._ephemeral = _resolve_directory(directory)
        self.n_rows = 0
        self.n_bytes = 0
        #: Per attribute (schema order), the column slices buffered since
        #: the last flush.
        self._buffers: List[List[Sequence]] = [[] for _ in schema]
        self._buffered = 0
        self._categories: Dict[str, Dict[str, int]] = {}
        self._files: Dict[str, Path] = {}
        self._finished = False
        for index, attribute in enumerate(schema):
            prefix = _safe_file_prefix(index, attribute.name)
            part = "data" if attribute.kind.is_numeric else "codes"
            path = self.directory / f"{prefix}.{part}.bin"
            path.write_bytes(b"")  # truncate any stale file from a prior run
            self._files[attribute.name] = path
            if not attribute.kind.is_numeric:
                self._categories[attribute.name] = {}

    def append_block(self, columns: Sequence[Sequence]) -> None:
        """Buffer a block of rows given column by column, in schema order.

        Numeric columns are ``float64`` arrays (or sequences of floats),
        nominal ones sequences of values; all have the block's length.
        """
        if len(columns) != len(self.schema):
            raise ValueError(
                f"block has {len(columns)} columns, schema expects {len(self.schema)}"
            )
        n = len(columns[0]) if columns else 0
        start = 0
        while start < n:
            take = min(n - start, self.chunk_rows - self._buffered)
            for buffer, column in zip(self._buffers, columns):
                buffer.append(column[start:start + take])
            start += take
            self._buffered += take
            self.n_rows += take
            if self._buffered >= self.chunk_rows:
                self.flush()

    def append_row(self, row: Sequence) -> None:
        """Buffer one converted row (values in schema order)."""
        self.append_rows((row,))

    def append_rows(self, rows) -> None:
        """Buffer many rows (any iterable of schema-ordered sequences)."""
        rows = iter(rows)
        while True:
            batch = list(itertools.islice(rows, self.chunk_rows - self._buffered))
            if not batch:
                return
            self.append_block(
                [[row[index] for row in batch] for index in range(len(self.schema))]
            )

    def flush(self) -> None:
        """Append every buffered column slice to its part file."""
        if not self._buffered:
            return
        flushed_bytes = 0
        for attribute, pieces in zip(self.schema, self._buffers):
            if attribute.kind.is_numeric:
                block = np.concatenate([np.asarray(piece, dtype="<f8") for piece in pieces])
            else:
                vocabulary = self._categories[attribute.name]
                codes = np.empty(self._buffered, dtype="<i4")
                for i, value in enumerate(itertools.chain.from_iterable(pieces)):
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
            pieces.clear()
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

    def finish(self) -> "ColumnStore":
        """Flush, write the manifest, and open the finished store."""
        if self._finished:
            raise RuntimeError("writer already finished")
        self.flush()
        columns: Dict[str, Any] = {}
        for index, attribute in enumerate(self.schema):
            if attribute.kind.is_numeric:
                dtype: ColumnDtype = NumericDtype()
                part = "data"
            else:
                vocabulary = self._categories[attribute.name]
                ordered = sorted(vocabulary, key=vocabulary.__getitem__)
                dtype = CategoricalDtype(tuple(ordered))
                part = "codes"
            columns[attribute.name] = {
                "dtype": dtype.to_manifest(),
                "parts": {
                    part: {
                        "file": self._files[attribute.name].name,
                        "numpy_dtype": dtype.parts[part].str,
                    }
                },
            }
        _write_manifest(
            self.directory, self.schema, self.n_rows, self.chunk_rows, columns
        )
        self._finished = True
        return ColumnStore.open(self.directory, _ephemeral=self._ephemeral)

    def abort(self) -> None:
        """Discard a partial spill (removes the directory if we created it)."""
        self._finished = True
        if self._ephemeral:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "ColumnStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not self._finished:
            self.abort()


def _write_manifest(
    directory: Path,
    schema: Schema,
    n_rows: int,
    chunk_rows: int,
    columns: Dict[str, Any],
) -> None:
    """Atomically write ``manifest.json`` (temp file + rename)."""
    document = {
        "format": _FORMAT_TAG,
        "schema_version": MANIFEST_VERSION,
        "n_rows": int(n_rows),
        "chunk_rows": int(chunk_rows),
        "attributes": [[a.name, a.kind.value] for a in schema],
        "columns": columns,
    }
    target = directory / MANIFEST_NAME
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, target)


class ColumnStore:
    """A memory-mapped columnar relation rooted at one directory.

    Offers the read surface the mining pipeline needs — ``schema``,
    ``len``, :meth:`matrix`, :meth:`chunks` — without ever loading a
    column eagerly: :meth:`matrix` returns a float64 *view* of the
    memory-mapped storage for single-attribute partitions (the common
    case), and a disk-backed stacked ``.npy`` for multi-attribute ones.
    Use :meth:`to_relation` to materialize an in-memory copy.

    Instances should be built through the classmethod constructors;
    stores created without an explicit ``directory`` live in a temp dir
    that is removed when the store is garbage-collected.
    """

    def __init__(
        self,
        directory: PathLike,
        schema: Schema,
        n_rows: int,
        chunk_rows: int,
        columns: Mapping[str, Any],
        *,
        _ephemeral: bool = False,
    ):
        self.directory = Path(directory)
        self._schema = schema
        self._n_rows = int(n_rows)
        self.chunk_rows = int(chunk_rows)
        self._manifest_columns = dict(columns)
        self._columns: Dict[str, Column] = {}
        self._stacks: Dict[Tuple[str, ...], np.ndarray] = {}
        if _ephemeral:
            weakref.finalize(self, shutil.rmtree, str(self.directory), True)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: PathLike, *, _ephemeral: bool = False) -> "ColumnStore":
        """Open an existing store directory by reading its manifest.

        Any structural problem — missing or unparseable manifest, wrong
        format tag, unknown manifest version — raises
        :class:`~repro.resilience.errors.ColumnStoreError`.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            document = json.loads(manifest_path.read_text())
        except OSError as error:
            raise ColumnStoreError(
                f"{manifest_path}: cannot read store manifest: {error}"
            ) from error
        except ValueError as error:
            raise ColumnStoreError(
                f"{manifest_path}: store manifest is not valid JSON: {error}"
            ) from error
        if document.get("format") != _FORMAT_TAG:
            raise ColumnStoreError(
                f"{manifest_path}: not a {_FORMAT_TAG} manifest "
                f"(format={document.get('format')!r})"
            )
        if document.get("schema_version") != MANIFEST_VERSION:
            raise ColumnStoreError(
                f"{manifest_path}: manifest version "
                f"{document.get('schema_version')!r} is not supported "
                f"(expected {MANIFEST_VERSION})"
            )
        try:
            schema = Schema(
                Attribute(name, AttributeKind(kind))
                for name, kind in document["attributes"]
            )
            n_rows = int(document["n_rows"])
            chunk_rows = int(document["chunk_rows"])
            columns = document["columns"]
        except (KeyError, TypeError, ValueError) as error:
            raise ColumnStoreError(
                f"{manifest_path}: malformed store manifest: {error}"
            ) from error
        missing = [name for name in schema.names if name not in columns]
        if missing:
            raise ColumnStoreError(
                f"{manifest_path}: manifest lacks column entries for {missing}"
            )
        return cls(
            directory, schema, n_rows, chunk_rows, columns, _ephemeral=_ephemeral
        )

    @classmethod
    def from_arrays(
        cls,
        schema: Schema,
        arrays: Mapping[str, Sequence],
        *,
        directory: Optional[PathLike] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        dtypes: Optional[Mapping[str, ColumnDtype]] = None,
    ) -> "ColumnStore":
        """Spill per-attribute value sequences into a new store.

        ``dtypes`` optionally overrides the storage dtype per column —
        e.g. ``{"age": MaskedNumericDtype()}`` to store NaNs as an
        explicit validity mask.  Defaults follow the schema: numeric
        kinds → :class:`NumericDtype`, nominal →
        :class:`CategoricalDtype` over the observed values.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        dtypes = dict(dtypes or {})
        missing = [name for name in schema.names if name not in arrays]
        if missing:
            raise ValueError(f"arrays missing for attributes: {missing}")
        directory, ephemeral = _resolve_directory(directory)
        columns: Dict[str, Any] = {}
        lengths = set()
        for index, attribute in enumerate(schema):
            dtype = dtypes.get(attribute.name)
            if dtype is None and not attribute.kind.is_numeric:
                dtype = CategoricalDtype.from_values(arrays[attribute.name])
            elif dtype is None:
                dtype = NumericDtype()
            column = Column(dtype, dtype.encode(arrays[attribute.name]))
            lengths.add(len(column))
            columns[attribute.name] = column.write(
                directory, _safe_file_prefix(index, attribute.name)
            )
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0
        if obs_metrics.metrics_enabled():
            obs_metrics.inc(
                "repro_data_spilled_rows_total", n_rows,
                help="Rows spilled to columnar stores",
            )
        _write_manifest(directory, schema, n_rows, chunk_rows, columns)
        return cls.open(directory, _ephemeral=ephemeral)

    @classmethod
    def from_tuples(
        cls,
        schema: Schema,
        rows,
        *,
        directory: Optional[PathLike] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "ColumnStore":
        """Stream schema-ordered tuples into a new store (single pass)."""
        with ColumnStoreWriter(
            schema, directory, chunk_rows=chunk_rows
        ) as writer:
            writer.append_rows(rows)
            return writer.finish()

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        *,
        directory: Optional[PathLike] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "ColumnStore":
        """Spill an in-memory relation column by column."""
        return cls.from_arrays(
            relation.schema,
            {name: relation.column(name) for name in relation.schema.names},
            directory=directory,
            chunk_rows=chunk_rows,
        )

    @classmethod
    def from_csv(
        cls,
        path: PathLike,
        *,
        directory: Optional[PathLike] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        sink=None,
    ) -> "ColumnStore":
        """Stream a repro CSV to disk without materializing it.

        Exactly :func:`repro.data.io.load_csv` with ``out_of_core=True``:
        one pass, the same strict ``path:line`` errors, the same optional
        quarantine ``sink``.
        """
        from repro.data.io import load_csv

        return load_csv(
            path,
            sink=sink,
            out_of_core=True,
            chunk_rows=chunk_rows,
            spill_dir=directory,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The store's schema (same type the in-memory relation uses)."""
        return self._schema

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._schema)

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self._schema!r}, n={self._n_rows}, "
            f"dir={str(self.directory)!r})"
        )

    @property
    def n_bytes(self) -> int:
        """Total bytes of all column part files currently on disk."""
        total = 0
        for entry in self._manifest_columns.values():
            for part in entry["parts"].values():
                candidate = self.directory / part["file"]
                if candidate.exists():
                    total += candidate.stat().st_size
        return total

    def column(self, name: str) -> Column:
        """The memory-mapped :class:`Column` for attribute ``name``."""
        self._schema[name]  # KeyError with a helpful message on unknowns
        if name not in self._columns:
            try:
                self._columns[name] = Column.read(
                    self.directory, self._manifest_columns[name], self._n_rows
                )
            except (OSError, ValueError) as error:
                raise ColumnStoreError(
                    f"column {name!r} of store {self.directory} cannot be "
                    f"opened: {error}"
                ) from error
        return self._columns[name]

    # ------------------------------------------------------------------
    # Mining surface
    # ------------------------------------------------------------------

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """``(n, len(names))`` float64 array over numeric attributes.

        The out-of-core counterpart of :meth:`Relation.matrix`: for a
        single attribute (the default-partition case) this is a zero-copy
        reshaped view of the memory-mapped column, so scans stream pages
        from disk; for multi-attribute partitions the columns are stacked
        once into a disk-backed ``.npy`` inside the store directory
        (cached per name tuple) and memory-mapped back.  Backend failures
        raise :class:`~repro.resilience.errors.ColumnStoreError`.
        """
        try:
            faults.fire("columnar.matrix")
        except InjectedFault as error:
            raise ColumnStoreError(f"injected columnar backend failure: {error}") from error
        for name in names:
            attribute = self._schema[name]
            if not attribute.kind.is_numeric:
                raise TypeError(
                    f"attribute {name!r} is {attribute.kind.value}, not numeric"
                )
        if not names:
            return np.empty((self._n_rows, 0), dtype=np.float64)
        if len(names) == 1:
            return self._numeric_view(names[0]).reshape(self._n_rows, 1)
        return self._stacked(tuple(names))

    def _numeric_view(self, name: str) -> np.ndarray:
        """A 1-D float64 array for ``name``, zero-copy whenever possible."""
        column = self.column(name)
        dtype = column.dtype
        if isinstance(dtype, NumericDtype):
            return np.asarray(column.parts["data"])
        if isinstance(dtype, MaskedNumericDtype):
            # No missing values: the data part alone is already canonical.
            if not bool(column.isna().any()):
                return np.asarray(column.parts["data"])
            return column.to_numpy()  # NaN-filled copy; validation rejects it
        raise TypeError(
            f"column {name!r} has non-numeric storage ({dtype.kind}); "
            f"it cannot join a numeric matrix"
        )

    def _stacked(self, names: Tuple[str, ...]) -> np.ndarray:
        """Disk-backed column stack for a multi-attribute partition."""
        if names in self._stacks:
            return self._stacks[names]
        digest = abs(hash(names)) % 16**8
        path = self.directory / f"_stack_{digest:08x}_{len(names)}.npy"
        with span("columnar.stack", columns=len(names), rows=self._n_rows):
            out = np.lib.format.open_memmap(
                path, mode="w+", dtype=np.float64, shape=(self._n_rows, len(names))
            )
            step = max(self.chunk_rows, 1)
            views = [self._numeric_view(name) for name in names]
            for start in range(0, self._n_rows, step):
                stop = min(start + step, self._n_rows)
                for j, view in enumerate(views):
                    out[start:stop, j] = view[start:stop]
            out.flush()
        del out
        mapped = np.load(path, mmap_mode="r")
        self._stacks[names] = mapped
        return mapped

    def chunks(
        self,
        partitions=None,
        *,
        chunk_rows: Optional[int] = None,
    ) -> ChunkIterator:
        """A :class:`ChunkIterator` over this store's partition matrices.

        ``partitions`` is a sequence of
        :class:`~repro.data.relation.AttributePartition` (default: one
        per interval attribute, as the miner assumes); ``chunk_rows``
        defaults to the store's write-side granularity.  The chunk views
        alias the memory-mapped columns, so iterating is allocation-free.
        """
        from repro.data.relation import default_partitions

        if partitions is None:
            partitions = default_partitions(self._schema)
        matrices = {p.name: self.matrix(p.attributes) for p in partitions}
        return ChunkIterator(matrices, chunk_rows or self.chunk_rows)

    def to_relation(self) -> Relation:
        """Materialize an in-memory :class:`Relation` copy of the store.

        This is the degradation target of the guard ladder's columnar
        rung — everything is copied out of the memory maps, so the
        relation stays valid after the store (or its directory) is gone.
        """
        columns = {}
        for name in self._schema.names:
            columns[name] = np.array(self.column(name).to_numpy(), copy=True)
        return Relation(self._schema, columns)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop cached columns and stacked matrices (releases the maps)."""
        self._columns.clear()
        self._stacks.clear()

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
