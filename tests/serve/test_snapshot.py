"""RuleSnapshot compilation, persistence and checkpoint dispatch."""

import pytest

from repro.core.config import DARConfig
from repro.resilience.checkpoint import write_checkpoint
from repro.resilience.errors import CheckpointCorruptError
from repro.serve.snapshot import RuleSnapshot, compile_snapshot


class TestCompile:
    def test_one_row_per_rule(self, planted_result, snapshot):
        assert snapshot.n_rules == len(planted_result.rules)
        assert len(snapshot.descriptions) == snapshot.n_rules

    def test_columns_mirror_rules(self, planted_result, snapshot):
        for index, rule in enumerate(planted_result.rules):
            assert snapshot.degree[index] == rule.degree
            assert snapshot.descriptions[index] == str(rule)
            assert snapshot.antecedent_uids(index) == tuple(
                cluster.uid for cluster in rule.antecedent
            )
            assert snapshot.consequent_uids(index) == tuple(
                cluster.uid for cluster in rule.consequent
            )

    def test_thresholds_and_partitions_carried(self, planted_result, snapshot):
        assert snapshot.density_thresholds == dict(
            planted_result.density_thresholds
        )
        assert snapshot.degree_thresholds == dict(planted_result.degree_thresholds)
        assert set(snapshot.partitions) == set(planted_result.all_clusters)

    def test_support_sentinel_for_uncounted(self, snapshot):
        # Mined without count_rule_support: every support is the -1
        # sentinel and rule_dict renders it as None.
        assert (snapshot.support < 0).all()
        assert snapshot.rule_dict(0)["support_count"] is None

    def test_support_preserved_when_counted(self, support_result, support_snapshot):
        for index, rule in enumerate(support_result.rules):
            expected = rule.support_count
            rendered = support_snapshot.rule_dict(index)["support_count"]
            assert rendered == expected

    def test_rule_dict_shape(self, planted_result, snapshot):
        entry = snapshot.rule_dict(2)
        rule = planted_result.rules[2]
        assert entry["id"] == 2
        assert entry["degree"] == rule.degree
        assert entry["description"] == str(rule)
        assert entry["consequent"]

    def test_rule_dict_bad_id(self, snapshot):
        with pytest.raises(IndexError):
            snapshot.rule_dict(snapshot.n_rules)


class TestPersistence:
    def test_save_load_bit_identical(self, snapshot, tmp_path):
        path = tmp_path / "rules.snap"
        info = snapshot.save(path)
        assert info.n_bytes > 0
        loaded = RuleSnapshot.load(path)
        assert loaded.state_dict() == snapshot.state_dict()

    def test_load_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint({"kind": "something-else"}, path)
        with pytest.raises(CheckpointCorruptError, match="rule-snapshot"):
            RuleSnapshot.load(path)

    def test_loaded_snapshot_answers_identically(self, snapshot, tmp_path):
        from repro.serve.query import QueryEngine, RuleQuery

        path = tmp_path / "rules.snap"
        snapshot.save(path)
        loaded = RuleSnapshot.load(path)
        query = RuleQuery(top_k=5, prune_redundant=True)
        assert (
            QueryEngine(loaded, cache_size=0).query(query).ids
            == QueryEngine(snapshot, cache_size=0).query(query).ids
        )


class TestCompileSnapshotDispatch:
    def test_result_source(self, planted_result):
        compiled = compile_snapshot(planted_result, version=4)
        assert compiled.version == 4
        assert compiled.n_rules == len(planted_result.rules)

    def test_snapshot_passthrough(self, planted_result):
        compiled = compile_snapshot(planted_result, version=1)
        assert compile_snapshot(compiled) is compiled

    def test_snapshot_checkpoint_path(self, planted_result, tmp_path):
        path = tmp_path / "rules.snap"
        compile_snapshot(planted_result).save(path)
        loaded = compile_snapshot(str(path))
        assert loaded.n_rules == len(planted_result.rules)

    def test_streaming_checkpoint_path(self, tmp_path):
        from repro.core.streaming import StreamingDARMiner
        from repro.data.relation import default_partitions
        from repro.data.synthetic import make_planted_rule_relation

        relation, _ = make_planted_rule_relation(seed=7)
        miner = StreamingDARMiner(
            default_partitions(relation.schema), DARConfig()
        )
        miner.update(relation)
        path = tmp_path / "stream.ckpt"
        miner.save_checkpoint(path)
        compiled = compile_snapshot(str(path))
        assert compiled.n_rules == len(miner.rules().rules)

    def test_foreign_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint({"kind": "mystery"}, path)
        with pytest.raises(CheckpointCorruptError, match="mystery"):
            compile_snapshot(str(path))

    def test_garbage_source_rejected(self):
        with pytest.raises(TypeError, match="compile_snapshot"):
            compile_snapshot(42)


class TestMixedResult:
    """A mixed result's nominal clusters have a value, not a box."""

    @pytest.fixture(scope="class")
    def mixed_result(self):
        from repro.mixed.miner import MixedDARMiner
        from tests.mixed.test_miner import make_mixed_relation

        return MixedDARMiner().mine_mixed(make_mixed_relation())

    def test_compile_save_load_and_query_by_nominal_target(self, mixed_result, tmp_path):
        from repro.serve.query import QueryEngine, RuleQuery

        snapshot = compile_snapshot(mixed_result)
        path = tmp_path / "mixed.snap"
        snapshot.save(path)
        loaded = RuleSnapshot.load(path)
        assert loaded.state_dict() == snapshot.state_dict()

        nominal = {
            cluster.uid: cluster
            for rule in mixed_result.rules
            for cluster in rule.consequent
            if cluster.is_nominal
        }
        assert nominal
        for uid, cluster in nominal.items():
            entry = loaded.clusters[uid]
            assert entry["value"] == str(cluster.value)
            assert entry["n"] == cluster.n
            assert entry["diameter"] == cluster.diameter
            assert "bounding_box" not in entry and "centroid" not in entry

        answer = QueryEngine(loaded, cache_size=0).query(RuleQuery(targets=["job"]))
        expected = [
            index
            for index, rule in enumerate(mixed_result.rules)
            if all(cluster.partition.name == "job" for cluster in rule.consequent)
        ]
        assert expected
        assert sorted(answer.ids) == expected
        for row in answer.to_dicts():
            assert "=> C" in row["description"] and "job=" in row["description"]
