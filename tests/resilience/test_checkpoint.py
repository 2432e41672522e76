"""Checkpoint container and StreamingDARMiner resume guarantees.

The headline property (Hypothesis): interrupt a stream at *any* batch
boundary, resume from the checkpoint, finish the stream — the leaf
moments are bit-identical and the rule set equal to the uninterrupted
run's.  Plus the container-level rejections: truncation, bit flips, bad
magic, unknown versions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DARConfig
from repro.core.streaming import StreamingDARMiner
from repro.data.relation import AttributePartition
from repro.resilience import faults
from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    _HEADER,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)

PARTITIONS = [AttributePartition("x", ("x",)), AttributePartition("y", ("y",))]


def make_batches(n_batches: int, rows: int = 120, seed: int = 11):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n_batches):
        base = rng.normal(size=(rows, 1))
        batches.append(
            {
                "x": base + rng.normal(scale=0.1, size=(rows, 1)),
                "y": 2.0 * base + rng.normal(scale=0.1, size=(rows, 1)),
            }
        )
    return batches


def leaf_moments(miner: StreamingDARMiner):
    return {
        name: [
            entry.state_dict()
            for leaf in tree.leaves()
            for entry in leaf.entries
        ]
        for name, tree in miner._trees.items()
    }


def rule_signature(result):
    return [
        (
            sorted(c.uid for c in rule.antecedent),
            sorted(c.uid for c in rule.consequent),
            rule.degree,
            tuple(sorted(rule.degrees.items())),
        )
        for rule in result.rules
    ]


# ----------------------------------------------------------------------
# Container format
# ----------------------------------------------------------------------


def test_container_round_trip(tmp_path):
    state = {"kind": "test", "values": [1.5, float(np.nextafter(0.1, 1.0))]}
    path = tmp_path / "state.ckpt"
    info = write_checkpoint(state, path)
    assert info.n_bytes == path.stat().st_size
    assert read_checkpoint(path) == state


def test_overwrite_is_atomic(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"generation": 1}, path)
    write_checkpoint({"generation": 2}, path)
    assert read_checkpoint(path)["generation"] == 2
    assert not path.with_name(path.name + ".tmp").exists()


def test_crash_before_replace_keeps_previous(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"generation": 1}, path)
    with faults.injected(faults.FaultInjector().fail_at("checkpoint.replace")):
        with pytest.raises(faults.InjectedFault):
            write_checkpoint({"generation": 2}, path)
    assert read_checkpoint(path)["generation"] == 1


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"a": list(range(100))}, path)
    faults.truncate_file(path, path.stat().st_size - 7)
    with pytest.raises(CheckpointCorruptError, match="truncated|bytes"):
        read_checkpoint(path)


def test_header_only_rejected(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"a": 1}, path)
    faults.truncate_file(path, 10)
    with pytest.raises(CheckpointCorruptError, match="smaller than"):
        read_checkpoint(path)


def test_flipped_payload_byte_rejected(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"a": list(range(100))}, path)
    faults.flip_byte(path, -1)
    with pytest.raises(CheckpointCorruptError, match="CRC"):
        read_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"a": 1}, path)
    faults.flip_byte(path, 0)
    with pytest.raises(CheckpointCorruptError, match="magic"):
        read_checkpoint(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint({"a": 1}, path)
    blob = path.read_bytes()
    payload = blob[_HEADER.size:]
    _, _, crc, length = _HEADER.unpack_from(blob)
    path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION + 1, crc, length) + payload)
    with pytest.raises(CheckpointVersionError, match="version"):
        read_checkpoint(path)


def test_unserializable_state_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="serializable"):
        write_checkpoint({"bad": object()}, tmp_path / "state.ckpt")


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(tmp_path / "never-written.ckpt")


# ----------------------------------------------------------------------
# Miner resume
# ----------------------------------------------------------------------


def test_resume_wrong_kind_rejected(tmp_path):
    path = tmp_path / "other.ckpt"
    write_checkpoint({"kind": "something-else"}, path)
    with pytest.raises(CheckpointCorruptError, match="streaming-darminer"):
        StreamingDARMiner.from_checkpoint(path)


def test_resume_structurally_broken_payload_rejected(tmp_path):
    path = tmp_path / "broken.ckpt"
    write_checkpoint({"kind": "streaming-darminer", "config": {}}, path)
    with pytest.raises(CheckpointCorruptError, match="structurally invalid"):
        StreamingDARMiner.from_checkpoint(path)


def test_checkpoint_before_first_batch_resumes(tmp_path):
    path = tmp_path / "empty.ckpt"
    miner = StreamingDARMiner(PARTITIONS)
    miner.save_checkpoint(path)
    resumed = StreamingDARMiner.from_checkpoint(path)
    assert resumed.n_points == 0
    for batch in make_batches(2):
        resumed.update_arrays(batch)
    assert resumed.rules().rules is not None


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_batches=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_resume_bit_identical_at_any_interruption(tmp_path, n_batches, data):
    """Kill after any checkpointed batch: resume matches uninterrupted."""
    interrupt_after = data.draw(
        st.integers(min_value=1, max_value=n_batches - 1), label="interrupt_after"
    )
    batches = make_batches(n_batches)
    path = tmp_path / "stream.ckpt"

    # Uninterrupted run, checkpointing on the same cadence (a checkpoint
    # quiesces the trees' batch engines, so cadence is part of the
    # decision sequence and must match between the two runs).
    full = StreamingDARMiner(PARTITIONS, DARConfig())
    for index, batch in enumerate(batches):
        full.update_arrays(batch)
        if index + 1 == interrupt_after:
            full.save_checkpoint(path)

    resumed = StreamingDARMiner.from_checkpoint(path)
    assert resumed.n_points == full.n_points - sum(
        b["x"].shape[0] for b in batches[interrupt_after:]
    )
    for batch in batches[interrupt_after:]:
        resumed.update_arrays(batch)

    assert leaf_moments(resumed) == leaf_moments(full)
    assert rule_signature(resumed.rules()) == rule_signature(full.rules())


def test_resume_checkpoint_from_before_option_retirement(tmp_path):
    """A checkpoint written while ``BirchOptions`` still had
    ``batch_insert`` (and ``ScanStats`` had no ``verified``) resumes to the
    uninterrupted run's trees and rules."""
    batches = make_batches(4)
    path = tmp_path / "old.ckpt"
    full = StreamingDARMiner(PARTITIONS, DARConfig())
    for index, batch in enumerate(batches):
        full.update_arrays(batch)
        if index == 1:
            state = full.state_dict()
    state["config"]["birch"]["batch_insert"] = True
    for stats in state["scan_stats"].values():
        del stats["verified"]
    write_checkpoint(state, path)

    resumed = StreamingDARMiner.from_checkpoint(path)
    for batch in batches[2:]:
        resumed.update_arrays(batch)
    assert leaf_moments(resumed) == leaf_moments(full)
    assert rule_signature(resumed.rules()) == rule_signature(full.rules())


@pytest.mark.parametrize("value", [None, 777])
def test_resume_checkpoint_recording_retired_scan_chunk_rows(tmp_path, value):
    """``BirchOptions.scan_chunk_rows`` is gone; checkpoints that still
    record it resume to the uninterrupted run's trees and rules."""
    batches = make_batches(4)
    path = tmp_path / "old.ckpt"
    full = StreamingDARMiner(PARTITIONS, DARConfig())
    for index, batch in enumerate(batches):
        full.update_arrays(batch)
        if index == 1:
            state = full.state_dict()
    state["config"]["birch"]["scan_chunk_rows"] = value
    write_checkpoint(state, path)

    resumed = StreamingDARMiner.from_checkpoint(path)
    for batch in batches[2:]:
        resumed.update_arrays(batch)
    assert leaf_moments(resumed) == leaf_moments(full)
    assert rule_signature(resumed.rules()) == rule_signature(full.rules())


@pytest.mark.parametrize("engine", ["auto", "vector", "scalar"])
def test_resume_checkpoint_recording_retired_phase2_engine(tmp_path, engine):
    """``DARConfig.phase2_engine`` is gone; checkpoints that still record
    any of its values resume to the uninterrupted run's trees and rules."""
    batches = make_batches(4)
    path = tmp_path / "old.ckpt"
    full = StreamingDARMiner(PARTITIONS, DARConfig())
    for index, batch in enumerate(batches):
        full.update_arrays(batch)
        if index == 1:
            state = full.state_dict()
    state["config"]["phase2_engine"] = engine
    write_checkpoint(state, path)

    resumed = StreamingDARMiner.from_checkpoint(path)
    for batch in batches[2:]:
        resumed.update_arrays(batch)
    assert leaf_moments(resumed) == leaf_moments(full)
    assert rule_signature(resumed.rules()) == rule_signature(full.rules())


def test_resume_preserves_scan_stats_and_counters(tmp_path):
    batches = make_batches(3)
    path = tmp_path / "stream.ckpt"
    miner = StreamingDARMiner(PARTITIONS)
    for batch in batches[:2]:
        miner.update_arrays(batch)
    miner.save_checkpoint(path)
    resumed = StreamingDARMiner.from_checkpoint(path)
    assert resumed.rows_seen == miner.rows_seen
    assert resumed.n_points == miner.n_points
    assert resumed.density_thresholds == miner.density_thresholds
    for name in ("x", "y"):
        assert resumed.scan_stats[name].to_dict() == miner.scan_stats[name].to_dict()


def test_directory_fsynced_after_replace(tmp_path, monkeypatch):
    # The rename alone does not make a checkpoint durable: the directory
    # entry must also reach disk, so write_checkpoint fsyncs the parent
    # directory after os.replace — and only after, never on the crashed
    # path where the rename did not happen.
    from repro.resilience import checkpoint as checkpoint_module

    synced = []
    monkeypatch.setattr(
        checkpoint_module,
        "_fsync_directory",
        lambda directory: synced.append(directory),
    )
    path = tmp_path / "state.ckpt"
    write_checkpoint({"generation": 1}, path)
    assert synced == [tmp_path]

    synced.clear()
    with faults.injected(faults.FaultInjector().fail_at("checkpoint.replace")):
        with pytest.raises(faults.InjectedFault):
            write_checkpoint({"generation": 2}, path)
    assert synced == []
    assert read_checkpoint(path)["generation"] == 1


def test_fsync_directory_tolerates_unsyncable_paths(tmp_path):
    from repro.resilience.checkpoint import _fsync_directory

    _fsync_directory(tmp_path)  # a real directory: must not raise
    _fsync_directory(tmp_path / "does-not-exist")  # open fails: swallowed
