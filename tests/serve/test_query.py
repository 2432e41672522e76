"""RuleQuery semantics and the QueryEngine/apply_query identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.query import QueryEngine, RuleQuery, apply_query

from .conftest import PARTITIONS


def _positions(result):
    """Rule object identity → snapshot rule id (compile-order position)."""
    return {id(rule): index for index, rule in enumerate(result.rules)}


_names = st.sets(st.sampled_from(PARTITIONS), min_size=1).map(
    lambda s: tuple(sorted(s))
)

#: Arbitrary valid queries; min_degree/max_degree ranges never cross.
_queries = st.builds(
    RuleQuery,
    targets=st.none() | _names,
    antecedents=st.none() | _names,
    min_degree=st.none() | st.floats(0.0, 5.0),
    max_degree=st.none() | st.floats(5.0, 100.0),
    top_k=st.none() | st.integers(1, 10),
    prune_redundant=st.booleans(),
)


class TestRuleQuery:
    def test_normalizes_names(self):
        query = RuleQuery(targets="claims, age,claims")
        assert query.targets == ("age", "claims")

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            RuleQuery(targets=())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_degree": -1.0},
            {"max_degree": float("nan")},
            {"min_degree": 3.0, "max_degree": 1.0},
            {"min_support": -1},
            {"top_k": 0},
        ],
    )
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuleQuery(**kwargs)

    def test_hashable_and_canonical(self):
        a = RuleQuery(targets=("b", "a"), min_degree=1)
        b = RuleQuery(targets="a,b", min_degree=1.0)
        assert a == b and hash(a) == hash(b)

    def test_coerce_rejects_query_plus_kwargs(self):
        with pytest.raises(ValueError, match="not both"):
            RuleQuery.coerce(RuleQuery(), {"top_k": 1})

    def test_coerce_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="min_degre"):
            RuleQuery.coerce(None, {"min_degre": 1.0})

    def test_legacy_target_kwarg_rejected(self):
        for old in ("target", "partition_names"):
            with pytest.raises(TypeError, match=old):
                RuleQuery(**{old: "claims"})
            with pytest.raises(ValueError, match=f"unknown query field.*{old}"):
                RuleQuery.coerce(None, {old: "claims"})
            with pytest.raises(ValueError, match=f"unknown query parameter '{old}'"):
                RuleQuery.from_query_string(f"{old}=claims")

    def test_query_string_round_trip(self):
        query = RuleQuery(
            targets=("claims", "age"),
            min_degree=0.5,
            top_k=7,
            prune_redundant=True,
        )
        assert RuleQuery.from_query_string(query.to_query_string()) == query

    def test_query_string_repeated_params_merge(self):
        query = RuleQuery.from_query_string("targets=age&targets=claims")
        assert query.targets == ("age", "claims")

    def test_query_string_unknown_param(self):
        with pytest.raises(ValueError, match="frobnicate"):
            RuleQuery.from_query_string("frobnicate=1")

    def test_query_string_bad_number(self):
        with pytest.raises(ValueError, match="top_k"):
            RuleQuery.from_query_string("top_k=lots")

    def test_unconstrained(self):
        assert RuleQuery().is_unconstrained
        assert not RuleQuery(top_k=1).is_unconstrained


class TestEngineIdentity:
    """The acceptance property: engine ids == direct result filtering."""

    @settings(max_examples=40, deadline=None)
    @given(query=_queries)
    def test_engine_matches_reference(self, query, planted_result, snapshot):
        engine = QueryEngine(snapshot, cache_size=0)
        expected = apply_query(planted_result.rules, query)
        positions = _positions(planted_result)
        assert list(engine.query(query).ids) == [
            positions[id(rule)] for rule in expected
        ]

    @settings(max_examples=15, deadline=None)
    @given(
        query=st.builds(
            RuleQuery,
            min_support=st.none() | st.integers(0, 50),
            top_k=st.none() | st.integers(1, 10),
        )
    )
    def test_min_support_matches_reference(
        self, query, support_result, support_snapshot
    ):
        engine = QueryEngine(support_snapshot, cache_size=0)
        expected = apply_query(support_result.rules, query)
        positions = _positions(support_result)
        assert list(engine.query(query).ids) == [
            positions[id(rule)] for rule in expected
        ]

    def test_min_support_without_counts_raises_same_error(
        self, planted_result, snapshot
    ):
        match = "count_rule_support"
        with pytest.raises(ValueError, match=match):
            apply_query(planted_result.rules, RuleQuery(min_support=1))
        with pytest.raises(ValueError, match=match):
            QueryEngine(snapshot, cache_size=0).query(RuleQuery(min_support=1))


class TestEngineCache:
    def test_hit_returns_same_ids(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=4)
        first = engine.query(RuleQuery(top_k=3))
        second = engine.query(RuleQuery(top_k=3))
        assert not first.cached and second.cached
        assert first.ids == second.ids
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_lru_evicts_oldest(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=2)
        engine.query(RuleQuery(top_k=1))
        engine.query(RuleQuery(top_k=2))
        engine.query(RuleQuery(top_k=3))  # evicts top_k=1
        assert engine.cache_info()["entries"] == 2
        assert engine.query(RuleQuery(top_k=3)).cached
        assert not engine.query(RuleQuery(top_k=1)).cached

    def test_cache_disabled(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=0)
        engine.query(RuleQuery())
        assert not engine.query(RuleQuery()).cached

    def test_publishes_metrics(self, snapshot):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.get_registry()
        was_enabled = obs_metrics.metrics_enabled()
        registry.reset()
        obs_metrics.enable_metrics()
        try:
            engine = QueryEngine(snapshot, cache_size=4)
            engine.query(RuleQuery(top_k=2))
            engine.query(RuleQuery(top_k=2))
            state = registry.snapshot()
        finally:
            if not was_enabled:
                obs_metrics.disable_metrics()
            registry.reset()
        assert state['repro_serve_queries_total{cache="miss"}'] == 1
        assert state['repro_serve_queries_total{cache="hit"}'] == 1
        assert state["repro_serve_cache_entries"] == 1
        assert state["repro_serve_query_seconds"]["count"] == 2


class TestRuleListCallable:
    def test_result_rules_is_callable(self, planted_result):
        subset = planted_result.rules(RuleQuery(top_k=3))
        assert len(subset) == 3
        assert subset == apply_query(planted_result.rules, RuleQuery(top_k=3))

    def test_kwargs_form(self, planted_result):
        assert planted_result.rules(top_k=2) == planted_result.rules(
            RuleQuery(top_k=2)
        )

    def test_still_a_plain_list(self, planted_result):
        assert isinstance(planted_result.rules, list)
        assert len(list(planted_result.rules)) == len(planted_result.rules)
