"""The repro.mine facade: one stable entrypoint over the two-phase miner."""

import json

import pytest

import repro
from repro.api import mine
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.synthetic import make_planted_rule_relation


@pytest.fixture(scope="module")
def relation():
    relation, _ = make_planted_rule_relation(seed=7)
    return relation


def assert_same_result(a, b):
    assert [r.key() for r in a.rules] == [r.key() for r in b.rules]
    assert [r.degree for r in a.rules] == [r.degree for r in b.rules]
    assert a.density_thresholds == b.density_thresholds
    assert a.degree_thresholds == b.degree_thresholds
    assert a.frequency_count == b.frequency_count
    assert a.phase2.n_edges == b.phase2.n_edges
    assert a.phase2.n_cliques == b.phase2.n_cliques


class TestFacade:
    def test_matches_darminer_defaults(self, relation):
        assert_same_result(mine(relation), DARMiner().mine(relation))

    def test_matches_darminer_with_config(self, relation):
        config = DARConfig(frequency_fraction=0.05, metric="d1")
        assert_same_result(
            mine(relation, config=config), DARMiner(config).mine(relation)
        )

    def test_accepts_mapping_config(self, relation):
        config = {"frequency_fraction": 0.05, "metric": "d1"}
        assert_same_result(
            mine(relation, config=config),
            DARMiner(DARConfig(frequency_fraction=0.05, metric="d1")).mine(relation),
        )

    def test_targets_forwarded(self, relation):
        target = sorted(relation.schema.interval_names())[0]
        direct = DARMiner().mine(relation, targets=[target])
        via_facade = mine(relation, targets=[target])
        assert_same_result(via_facade, direct)
        assert all(
            cluster.partition.name == target
            for rule in via_facade.rules
            for cluster in rule.consequent
        )

    def test_bad_config_type_rejected(self, relation):
        with pytest.raises(TypeError, match="DARConfig"):
            mine(relation, config=42)

    def test_package_level_export(self, relation):
        assert repro.mine is mine
        assert "mine" in repro.__all__

    def test_curated_exports_resolve(self):
        for name in ("mine", "DARMiner", "DARConfig", "DARResult", "DistanceRule"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


class TestResultSerialization:
    def test_to_dict_matches_export(self, relation):
        from repro.report.export import result_to_dict

        result = mine(relation)
        assert result.to_dict() == result_to_dict(result)

    def test_to_json_round_trips(self, relation):
        result = mine(relation)
        decoded = json.loads(result.to_json())
        assert decoded["frequency_count"] == result.frequency_count
        assert len(decoded["rules"]) == len(result.rules)
        assert set(decoded["phase2"]["stage_seconds"]) == {
            "extract", "graph", "cliques", "rules", "postscan",
        }
        assert set(decoded["phase1"]) == set(result.phase1)
        for stats in decoded["phase1"].values():
            assert stats["points_inserted"] == len(relation)

    def test_json_is_pure_builtins(self, relation):
        # json.dumps without a custom encoder is the whole contract.
        text = mine(relation).to_json(indent=None)
        assert json.loads(text)
