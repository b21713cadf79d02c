"""Tests for the online arrival session."""

import pytest

from repro.cluster.state import ClusterState
from repro.core import OnlineConfig, OnlineSession, appro_rule, greedy_rule
from repro.core.online import admit
from repro.experiments.runner import make_instance
from repro.topology.twotier import TwoTierConfig
from repro.util.validation import ValidationError
from repro.workload.params import PaperDefaults


@pytest.fixture(scope="module")
def instance():
    return make_instance(TwoTierConfig(), PaperDefaults(), 3, 0)


class TestOnlineSession:
    def test_every_arrival_decided(self, instance):
        report = OnlineSession().run(instance, appro_rule)
        assert len(report.outcomes) == instance.num_queries
        assert {o.query_id for o in report.outcomes} == set(
            range(instance.num_queries)
        )

    def test_arrivals_in_time_order(self, instance):
        report = OnlineSession().run(instance, appro_rule)
        times = [o.arrival_s for o in report.outcomes]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_volume_consistent_with_outcomes(self, instance):
        report = OnlineSession().run(instance, appro_rule)
        assert report.admitted_volume_gb == pytest.approx(
            sum(o.volume_gb for o in report.outcomes if o.admitted)
        )
        assert report.throughput == pytest.approx(
            sum(1 for o in report.outcomes if o.admitted) / len(report.outcomes)
        )

    def test_deterministic(self, instance):
        cfg = OnlineConfig(seed=7)
        r1 = OnlineSession(cfg).run(instance, appro_rule)
        r2 = OnlineSession(cfg).run(instance, appro_rule)
        assert r1.outcomes == r2.outcomes

    def test_peak_allocation_positive_when_admitting(self, instance):
        report = OnlineSession().run(instance, appro_rule)
        if report.throughput > 0:
            assert report.peak_allocated_ghz > 0.0

    def test_appro_beats_greedy_online(self, instance):
        """Capacity churn rewards price-aware placement even more than the
        batch setting does."""
        va = vg = 0.0
        for seed in range(3):
            cfg = OnlineConfig(seed=seed)
            va += OnlineSession(cfg).run(instance, appro_rule).admitted_volume_gb
            vg += OnlineSession(cfg).run(instance, greedy_rule).admitted_volume_gb
        assert va > vg

    def test_churn_beats_batch_admission(self, instance):
        """With releases, the online session serves at least as much volume
        as the batch all-or-nothing solution on the same instance."""
        from repro.core import evaluate_solution, make_algorithm

        batch = evaluate_solution(
            instance, make_algorithm("appro-g").solve(instance)
        ).admitted_volume_gb
        # Slow arrivals → the cluster is nearly empty at each arrival.
        online = OnlineSession(OnlineConfig(mean_interarrival_s=10.0)).run(
            instance, appro_rule
        )
        assert online.admitted_volume_gb >= batch * 0.9

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            OnlineConfig(mean_interarrival_s=0.0)
        with pytest.raises(ValidationError):
            OnlineConfig(hold_factor=0.0)


class TestAdmitCore:
    """``admit`` is all-or-nothing over the demanded pairs."""

    @staticmethod
    def _fingerprint(state):
        return (
            state.available_array().tobytes(),
            {d: frozenset(state.replicas.nodes(d)) for d in state.instance.datasets},
        )

    def _multi_pair_query(self, instance):
        """First multi-dataset query an empty cluster admits."""
        rule = greedy_rule(instance)
        for query in instance.queries:
            if len(query.demanded) > 1 and admit(
                ClusterState(instance), rule, query, query.demanded
            ):
                return query
        pytest.skip("no admissible multi-dataset query in this instance")

    @pytest.mark.parametrize("probe", [True, False])
    def test_rule_refusal_rolls_back_every_pair(self, instance, probe):
        query = self._multi_pair_query(instance)
        rule = greedy_rule(instance)
        last = query.demanded[-1]

        def refuses_last(state, q, d_id):
            return None if d_id == last else rule(state, q, d_id)

        state = ClusterState(instance)
        before = self._fingerprint(state)
        assert admit(state, refuses_last, query, query.demanded, probe=probe) is None
        assert self._fingerprint(state) == before

    def test_admitted_pairs_follow_dataset_order(self, instance):
        query = self._multi_pair_query(instance)
        state = ClusterState(instance)
        held = state.available_array()
        admitted = admit(
            state, greedy_rule(instance), query, query.demanded, available=held
        )
        assert admitted is not None
        assert [a.dataset_id for a in admitted] == list(query.demanded)
        assert state.total_allocated() == pytest.approx(
            sum(a.compute_ghz for a in admitted)
        )


class TestNoFaultParity:
    """With faults disabled the session must be bit-identical to the
    pre-fault-layer behaviour — pinned against golden values captured
    before the fault subsystem landed."""

    def test_appro_golden_values(self, instance):
        report = OnlineSession(OnlineConfig(seed=7)).run(instance, appro_rule)
        assert report.faults is None
        assert report.admitted_volume_gb == 649.6883870602176
        assert report.throughput == 0.574468085106383
        assert report.peak_allocated_ghz == 68.3429133942284
        assert report.replicas_placed == 23
        first = report.outcomes[0]
        assert first.query_id == 0
        assert first.arrival_s == 0.10333573166295018
        assert first.admitted is True
        assert first.volume_gb == 12.965732248723615

    def test_greedy_golden_values(self, instance):
        report = OnlineSession(OnlineConfig(seed=7)).run(instance, greedy_rule)
        assert report.faults is None
        assert report.admitted_volume_gb == 111.93933170440027
        assert report.throughput == 0.11702127659574468
        assert report.replicas_placed == 19


class TestFaultSession:
    def _config(self, **kwargs):
        from repro.sim.faults import FaultConfig

        defaults = dict(
            mean_time_to_failure_s=1.0, mean_downtime_s=0.5, seed=11
        )
        defaults.update(kwargs)
        return OnlineConfig(seed=7, hold_factor=20.0, faults=FaultConfig(**defaults))

    def test_deterministic_with_faults(self, instance):
        cfg = self._config()
        r1 = OnlineSession(cfg).run(instance, appro_rule)
        r2 = OnlineSession(cfg).run(instance, appro_rule)
        assert r1 == r2  # full report: outcomes, fault schedule, metrics

    def test_fault_report_attached_and_consistent(self, instance):
        report = OnlineSession(self._config()).run(instance, appro_rule)
        faults = report.faults
        assert faults is not None
        assert faults.crashes == sum(
            1 for e in faults.schedule if e.kind == "crash"
        )
        assert 0.0 <= faults.time_weighted_availability <= 1.0
        assert faults.failovers_succeeded <= faults.failovers_attempted
        assert faults.queries_recovered + faults.queries_interrupted <= len(
            report.outcomes
        )
        assert faults.degraded_admitted <= faults.degraded_arrivals

    def test_fault_seed_changes_schedule_not_arrivals(self, instance):
        r1 = OnlineSession(self._config(seed=1)).run(instance, appro_rule)
        r2 = OnlineSession(self._config(seed=2)).run(instance, appro_rule)
        assert r1.faults.schedule != r2.faults.schedule
        assert [o.arrival_s for o in r1.outcomes] == [
            o.arrival_s for o in r2.outcomes
        ]

    def test_faults_hurt_admission(self, instance):
        clean = OnlineSession(OnlineConfig(seed=7, hold_factor=20.0)).run(
            instance, appro_rule
        )
        faulty = OnlineSession(self._config()).run(instance, appro_rule)
        assert faulty.admitted_volume_gb <= clean.admitted_volume_gb
