"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.relation import AttributePartition, Relation, Schema
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation


@pytest.fixture(autouse=True)
def _reset_obs():
    """Keep observability state from leaking between tests.

    Any test may enable tracing/metrics/logging or arm the flight
    recorder; this disables every layer and clears its recorder
    afterwards so ordering never matters.
    """
    yield
    from repro import obs
    from repro.obs import log as obs_log
    from repro.obs import trace

    obs.disable()
    obs.disable_flight()
    obs.get_registry().reset()
    if obs.get_tracer().capacity != trace.DEFAULT_CAPACITY:
        # A test shrank the ring buffer; later tests expect the default.
        trace.enable_tracing(capacity=trace.DEFAULT_CAPACITY)
        trace.disable_tracing()
    obs.get_tracer().clear()
    # Rebuild the logger (closing any file sink a test attached) and
    # leave it disabled with the default configuration.
    obs_log.enable_logging(
        level=obs_log.INFO, capacity=obs_log.DEFAULT_CAPACITY
    )
    obs_log.disable_logging()


@pytest.fixture
def tiny_relation() -> Relation:
    """Three numeric columns, eight tuples, no special structure."""
    schema = Schema.of(x="interval", y="interval", z="interval")
    rng = np.random.default_rng(123)
    return Relation(
        schema,
        {
            "x": rng.normal(0, 1, size=8),
            "y": rng.normal(10, 2, size=8),
            "z": rng.normal(-5, 0.5, size=8),
        },
    )


@pytest.fixture
def mixed_relation() -> Relation:
    """Nominal + interval attributes, ten tuples."""
    schema = Schema.of(color="nominal", size="interval")
    return Relation(
        schema,
        {
            "color": ["red", "red", "blue", "blue", "blue", "green", "red", "blue", "green", "red"],
            "size": [1.0, 1.1, 5.0, 5.2, 4.9, 9.0, 1.05, 5.1, 9.1, 0.95],
        },
    )


@pytest.fixture
def clustered_relation():
    """A 3-mode clustered relation with ground truth."""
    return make_clustered_relation(
        n_modes=3, points_per_mode=100, n_attributes=2, seed=11
    )


@pytest.fixture
def planted_relation():
    """The insurance-flavored relation with planted rules."""
    return make_planted_rule_relation(seed=7)


@pytest.fixture
def xy_partitions():
    """Two single-attribute partitions named like their attributes."""
    return [
        AttributePartition("x", ("x",)),
        AttributePartition("y", ("y",)),
    ]
