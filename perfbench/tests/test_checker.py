"""Tests for the benchmark's independent answer checker.

Run with ``python3 -m pytest perfbench/tests -q``.  The checker imports
nothing from the program, so these tests build their cluster by hand.
"""

from __future__ import annotations

import copy
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from checker import Oracle, Tally, check_online, check_run, shortest_delays  # noqa: E402

# Placement nodes 0, 1, 2; node 3 is a user's home station.
LINKS = {(0, 3): 0.10, (1, 3): 0.30, (0, 1): 0.05, (1, 2): 0.10}
PROC = {0: 0.01, 1: 0.02, 2: 0.03}
VOLUMES = {10: 4.0, 11: 2.0}


@pytest.fixture
def oracle() -> Oracle:
    return Oracle(PROC, LINKS, VOLUMES, max_replicas=2)


def make_query(qid: int, deadline_s: float = 10.0) -> dict:
    return {
        "query_id": qid,
        "home_node": 3,
        "demanded": [10, 11],
        "selectivity": [0.5, 0.25],
        "compute_rate": 1.5,
        "deadline_s": deadline_s,
    }


def admitted(oracle: Oracle, query: dict, nodes: dict[int, int]) -> dict:
    """The answer a correct gateway gives for ``query`` served at ``nodes``."""
    assignments = [
        {
            "dataset_id": d,
            "node": nodes[d],
            "latency_s": oracle.latency(query, d, nodes[d]),
            "compute_ghz": VOLUMES[d] * query["compute_rate"],
        }
        for d in query["demanded"]
    ]
    return {
        "ok": True,
        "result": "admitted",
        "assignments": assignments,
        "response_s": max(a["latency_s"] for a in assignments),
    }


def test_shortest_delays_take_the_cheaper_detour():
    dist = shortest_delays(LINKS, [1, 2])
    # 1 -> 3 directly costs 0.30; through 0 it costs 0.05 + 0.10.
    assert dist[1][3] == pytest.approx(0.15)
    assert dist[2][3] == pytest.approx(0.25)
    assert dist[2][0] == pytest.approx(0.15)


def test_latency_formula(oracle):
    query = make_query(0)
    # |S| * (d(v) + alpha * dt(p(v, h))) for dataset 10 (alpha 0.5) at node 1.
    assert oracle.latency(query, 10, 1) == pytest.approx(4.0 * (0.02 + 0.5 * 0.15))


def test_correct_answers_pass(oracle):
    queries = [make_query(0), make_query(1)]
    answers = {
        0: admitted(oracle, queries[0], {10: 0, 11: 1}),
        1: {"ok": True, "result": "rejected", "reason": "infeasible"},
    }
    tally = check_run(oracle, queries, answers)
    assert tally.errors == []
    assert (tally.attempted, tally.admitted, tally.rejected, tally.failed) == (2, 1, 1, 0)
    assert tally.admitted_gb == pytest.approx(6.0)
    assert tally.copies_max == 1


def test_perturbed_latency_fails(oracle):
    query = make_query(0)
    answer = admitted(oracle, query, {10: 0, 11: 1})
    answer["assignments"][0]["latency_s"] *= 1 + 1e-6
    answer["response_s"] = max(a["latency_s"] for a in answer["assignments"])
    tally = check_run(oracle, [query], {0: answer})
    assert len(tally.errors) == 1 and "recomputed" in tally.errors[0]


def test_wrong_compute_and_response_fail(oracle):
    query = make_query(0)
    answer = admitted(oracle, query, {10: 0, 11: 1})
    answer["assignments"][1]["compute_ghz"] += 0.1
    answer["response_s"] /= 2
    tally = check_run(oracle, [query], {0: answer})
    assert any("compute" in e for e in tally.errors)
    assert any("response_s" in e for e in tally.errors)


def test_missed_deadline_fails(oracle):
    query = make_query(0, deadline_s=0.1)
    tally = check_run(oracle, [query], {0: admitted(oracle, query, {10: 0, 11: 0})})
    assert any("deadline" in e for e in tally.errors)


def test_assignment_set_must_match_demand(oracle):
    query = make_query(0)
    answer = admitted(oracle, query, {10: 0, 11: 1})
    answer["assignments"].append(copy.deepcopy(answer["assignments"][0]))
    tally = check_run(oracle, [query], {0: answer})
    assert any("demanded" in e for e in tally.errors)


def test_dropped_answer_counts_as_failed(oracle):
    queries = [make_query(0), make_query(1)]
    answers = {0: admitted(oracle, queries[0], {10: 0, 11: 0})}
    tally = check_run(oracle, queries, answers)
    assert tally.missing == 1
    assert tally.failed == 1


def test_duplicated_answer_counts_as_failed(oracle):
    query = make_query(0)
    tally = check_run(oracle, [query], {0: admitted(oracle, query, {10: 0, 11: 0})}, duplicates=1)
    assert tally.failed == 1


def test_answer_for_unknown_request_fails(oracle):
    query = make_query(0)
    answers = {0: admitted(oracle, query, {10: 0, 11: 0}), 7: admitted(oracle, query, {10: 0, 11: 0})}
    tally = check_run(oracle, [query], answers)
    assert any("unknown request" in e for e in tally.errors)


def test_not_ok_and_shed_count_as_failed(oracle):
    queries = [make_query(0), make_query(1)]
    answers = {0: {"ok": False, "error": "boom"}, 1: {"ok": True, "result": "shed"}}
    tally = check_run(oracle, queries, answers)
    assert (tally.not_ok, tally.shed, tally.failed) == (1, 1, 2)


def test_copy_beyond_k_fails(oracle):
    queries = [make_query(i) for i in range(3)]
    answers = {i: admitted(oracle, q, {10: i, 11: 0}) for i, q in enumerate(queries)}
    tally = check_run(oracle, queries, answers)
    assert tally.copies_max == 3
    assert any("exceed K=2" in e for e in tally.errors)


def test_k_is_checked_per_shard_and_global_excess_reported(oracle):
    queries = [make_query(i) for i in range(3)]
    answers = {i: admitted(oracle, q, {10: i, 11: 0}) for i, q in enumerate(queries)}
    # Two copies in shard {0, 1}, one in shard {2}: within K per shard.
    tally = check_run(oracle, queries, answers, shards=[[0, 1], [2]])
    assert tally.errors == []
    assert tally.copies_max == 3


def test_deadline_infeasible_rejection_is_confirmed(oracle):
    tight = make_query(0, deadline_s=0.01)
    loose = make_query(1)
    reject = {"ok": True, "result": "rejected", "reason": "deadline-infeasible"}
    tally = check_run(oracle, [tight, loose], {0: reject, 1: dict(reject)})
    assert tally.fast_rejected == 2
    assert len(tally.errors) == 1 and "query 1" in tally.errors[0]


def test_online_volume_and_bound(oracle):
    queries = [make_query(0), make_query(1, deadline_s=0.01)]
    good = check_online(oracle, queries, [[0, True, 6.0], [1, False, 6.0]], 6.0)
    assert good.errors == [] and good.admitted_gb == pytest.approx(6.0)
    wrong_sum = check_online(oracle, queries, [[0, True, 6.0], [1, False, 6.0]], 7.0)
    assert any("sum of outcomes" in e for e in wrong_sum.errors)
    # Query 1 cannot meet its deadline anywhere: admitting it breaks the bound.
    over = check_online(oracle, queries, [[0, True, 6.0], [1, True, 6.0]], 12.0)
    assert any("no node meets its deadline" in e for e in over.errors)
    assert any("deadline-feasible bound" in e for e in over.errors)


def test_online_missing_and_duplicate_outcomes(oracle):
    queries = [make_query(0), make_query(1)]
    tally = check_online(oracle, queries, [[0, True, 6.0], [0, True, 6.0]], 12.0)
    assert tally.missing == 1 and tally.duplicates == 1


def test_unreachable_home_is_infeasible():
    oracle = Oracle({0: 0.01}, {}, VOLUMES, max_replicas=1)
    assert math.isinf(oracle.latency(make_query(0), 10, 0))
    assert not oracle.deadline_feasible(make_query(0))


def test_conservation_needs_matching_counters_and_an_empty_cluster():
    from run import check_conservation  # noqa: PLC0415

    def gateway_status(admitted: int, inflight: int, ghz: float) -> dict:
        counters = {"submitted": 2, "admitted": admitted, "rejected": 1, "fast_rejected": 0, "shed": 0}
        return {"counters": counters, "inflight_queries": inflight, "inflight_ghz": ghz}

    def tally() -> Tally:
        return Tally(attempted=2, admitted=1, rejected=1)

    good = tally()
    check_conservation(gateway_status(1, 0, 0.0), good, sharded=False)
    assert good.errors == []
    miscounted = tally()
    check_conservation(gateway_status(0, 0, 0.0), miscounted, sharded=False)
    assert any("counter admitted" in e for e in miscounted.errors)
    leftover = tally()
    check_conservation(gateway_status(1, 1, 2.5), leftover, sharded=False)
    assert len(leftover.errors) == 2
