"""Durable, checksummed checkpoints for the streaming miner.

The ACF Additivity Theorem (Eq. 7) means a serialized ACF-tree *is* a
complete checkpoint: leaf moments are the entire Phase I state, and
Phase II derives everything else from them.  This module provides the
container format; the structural state itself comes from
``ACFTree.state_dict`` / ``StreamingDARMiner`` (which serialize the exact
node graph, so a restored tree makes bit-identical routing decisions).

Container layout (all integers big-endian)::

    bytes 0..7    magic  b"REPROCKP"
    bytes 8..11   format version (uint32)
    bytes 12..15  CRC-32 of the payload (uint32)
    bytes 16..23  payload length in bytes (uint64)
    bytes 24..    payload: UTF-8 JSON of the state dict

Floats ride through JSON via Python's shortest-round-trip ``repr``, which
is exact for every finite ``float64`` — restored moments are bit-identical
to the saved ones.  Writes go to a temp file in the same directory and
are renamed into place, so a crash mid-save leaves the previous
checkpoint intact (the ``checkpoint.replace`` fault point sits between
the two steps so tests can prove it).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Union

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointInfo",
    "write_checkpoint",
    "read_checkpoint",
]

PathLike = Union[str, Path]

MAGIC = b"REPROCKP"
FORMAT_VERSION = 1
_HEADER = struct.Struct(">8sIIQ")


class CheckpointInfo:
    """What one ``write_checkpoint`` call did (for ``--stats`` reporting)."""

    __slots__ = ("path", "n_bytes", "seconds")

    def __init__(self, path: Path, n_bytes: int, seconds: float):
        self.path = path
        self.n_bytes = n_bytes
        self.seconds = seconds

    def __repr__(self) -> str:
        return (
            f"CheckpointInfo(path={str(self.path)!r}, n_bytes={self.n_bytes}, "
            f"seconds={self.seconds:.3f})"
        )


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to disk by fsyncing the containing directory.

    ``os.replace`` makes the swap atomic against concurrent readers, but
    the *rename itself* lives in the directory inode — until that is
    synced, a power loss can roll the directory back and lose a
    checkpoint the caller was told succeeded.  Directory fds are a POSIX
    notion; on platforms where opening a directory fails (Windows) the
    rename is already durable-enough by local convention and we skip.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_checkpoint(state: Dict[str, Any], path: PathLike) -> CheckpointInfo:
    """Serialize ``state`` to ``path`` atomically; returns size and timing
    (the duration of the ``checkpoint.save`` span)."""
    path = Path(path)
    with span("checkpoint.save") as save_span:
        try:
            payload = json.dumps(state, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint state is not serializable: {error}"
            ) from error
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, zlib.crc32(payload), len(payload))
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(header)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        # A crash between here and the rename leaves the previous checkpoint
        # untouched — that is the whole point of the temp-file dance.
        faults.fire("checkpoint.replace")
        os.replace(tmp, path)
        _fsync_directory(path.parent)
        n_bytes = len(header) + len(payload)
        save_span.set("bytes", n_bytes)
    if obs_metrics.metrics_enabled():
        obs_metrics.inc("repro_checkpoint_writes_total", help="Checkpoints written")
        obs_metrics.inc(
            "repro_checkpoint_bytes_total",
            n_bytes,
            help="Total checkpoint bytes written",
            unit="bytes",
        )
        obs_metrics.inc(
            "repro_checkpoint_seconds_total",
            save_span.seconds,
            help="Wall seconds spent writing checkpoints",
            unit="seconds",
        )
    return CheckpointInfo(path=path, n_bytes=n_bytes, seconds=save_span.seconds)


def read_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Read and verify a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`CheckpointCorruptError` on a damaged file (bad magic,
    truncation, CRC mismatch, undecodable payload) and
    :class:`CheckpointVersionError` on an unknown format version.
    """
    path = Path(path)
    with span("checkpoint.load") as load_span:
        state = _read_verified(path, load_span)
    if obs_metrics.metrics_enabled():
        obs_metrics.inc("repro_checkpoint_reads_total", help="Checkpoints read")
    return state


def _read_verified(path: Path, load_span) -> Dict[str, Any]:
    """The body of :func:`read_checkpoint` (split out for span wrapping)."""
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"{path}: cannot read checkpoint: {error}") from error
    load_span.set("bytes", len(blob))
    if len(blob) < _HEADER.size:
        raise CheckpointCorruptError(
            f"{path}: file is {len(blob)} bytes, smaller than the "
            f"{_HEADER.size}-byte checkpoint header"
        )
    magic, version, crc, length = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointCorruptError(
            f"{path}: bad magic {magic!r} (not a repro checkpoint)"
        )
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"{path}: payload is {len(payload)} bytes, header promised {length} "
            f"(truncated or padded file)"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError(f"{path}: payload CRC mismatch (corrupt file)")
    try:
        state = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointCorruptError(
            f"{path}: payload passed CRC but is not valid JSON: {error}"
        ) from error
    if not isinstance(state, dict):
        raise CheckpointCorruptError(f"{path}: checkpoint payload is not an object")
    return state
