"""The file regions Phase I workers map (``MatrixFile``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.columnar import ColumnStore
from repro.data.relation import Relation, Schema
from repro.parallel import MatrixFile
from repro.resilience.errors import ColumnStoreError


@pytest.fixture
def store(tmp_path):
    rng = np.random.default_rng(4)
    relation = Relation(
        Schema.of(a="interval", b="interval"),
        {"a": rng.normal(size=40), "b": rng.normal(size=40)},
    )
    return ColumnStore.from_relation(relation, directory=tmp_path / "s")


def test_store_matrices_map_back_bit_for_bit(store):
    for names in (("a",), ("b",), ("a", "b")):
        matrix = store.matrix(names)
        found = MatrixFile.of(matrix)
        assert found is not None
        assert str(store.directory) in found.path
        mapped = found.open()
        assert mapped.shape == matrix.shape
        assert np.array_equal(mapped, matrix)
        assert not mapped.flags.writeable


def test_views_into_a_mapping_keep_their_offset(store):
    column = np.asarray(store.column("b").parts["data"])
    window = column[7:30].reshape(-1, 1)
    assert np.array_equal(MatrixFile.of(window).open(), window)


def test_in_memory_and_strided_matrices_are_not_files(store):
    assert MatrixFile.of(np.ones((5, 2))) is None
    assert MatrixFile.of(store.matrix(("a", "b"))[:, 1:]) is None


def test_missing_file_is_a_columnar_error(tmp_path):
    with pytest.raises(ColumnStoreError, match="cannot map"):
        MatrixFile(str(tmp_path / "gone.bin"), 0, (4, 1)).open()
