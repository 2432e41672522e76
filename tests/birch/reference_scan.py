"""The per-point 1-D scan as a reference engine.

:class:`ReferenceInserter` is a :class:`~repro.birch.batch.BatchInserter`
that sends every point of a 1-D batch through the per-point loop
(:meth:`~repro.birch.batch.BatchInserter._scan_range`), never through the
verified bulk windows.  The real engine must leave a tree in exactly the
state this one does, down to the bytes of :meth:`ACFTree.state_dict`.
"""

from __future__ import annotations

from repro.birch.batch import BatchInserter
from repro.birch.tree import ACFTree


class ReferenceInserter(BatchInserter):
    """Batch engine whose 1-D scan is the per-point loop alone."""

    def _scan_scalar(self, batch, stats):
        xs = batch.ls[:, 0].tolist()
        qs = batch.ss[:, 0].tolist()
        return self._scan_range(batch, stats, xs, qs, 0, batch.size)


class ReferenceTree(ACFTree):
    """An :class:`ACFTree` whose batch inserts use :class:`ReferenceInserter`."""

    def _engine(self) -> BatchInserter:
        if self._batch_engine is None:
            self._batch_engine = ReferenceInserter(self)
        return self._batch_engine
