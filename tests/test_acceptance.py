"""Acceptance gate: one test per release criterion, one verdict line each.

The degree-law checks share experiment runs through a module cache, so
the slow sizes are computed once. Verdict lines print with capture
suspended, so the pass/fail record shows up in any pytest run.
"""

import json
import random
from collections import deque
from functools import lru_cache

import pytest

from oscl_sim.cli import main
from oscl_sim.names import parse_name
from oscl_sim.overlay import LinkDecision, Overlay
from oscl_sim.scenarios import NSCL_ID, SUBSCRIBER_ID, ScenarioConfig, run_scenario
from oscl_sim.scl import (
    M2mSystem,
    SclKind,
    create_application,
    create_container,
    create_content_instance,
    register_scl,
)
from oscl_sim.topology import (
    ExperimentConfig,
    bfs_bounded,
    predicted_degree,
    run_topology_experiment,
    seed_mean_spread,
)

SIZES = (32, 128, 512, 2048)
SEEDS = (0, 1, 2)


@pytest.fixture
def report(capsys):
    def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {num}] {verdict}: {label}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


@lru_cache(maxsize=None)
def _run(n: int, d: int, seed: int) -> tuple[float, bool]:
    """(final degree, saturated) of one experiment run."""
    stats = run_topology_experiment(ExperimentConfig(n_nodes=n, max_hops=d, seed=seed))
    return stats.final_degree, stats.saturated


def _mean_degree(n: int, d: int) -> float:
    return sum(_run(n, d, s)[0] for s in SEEDS) / len(SEEDS)


@pytest.mark.slow
def test_degree_scaling_law(report):
    details = []
    ok = True
    for d in (3, 5):
        degrees = [_mean_degree(n, d) for n in SIZES]
        spread = seed_mean_spread(
            (n, _run(n, d, s)[0] / predicted_degree(n, d)) for n in SIZES for s in SEEDS
        )
        monotone = all(b >= a for a, b in zip(degrees, degrees[1:]))
        saturated = sum(_run(n, d, s)[1] for n in SIZES for s in SEEDS)
        ok = ok and spread <= 2.0 and monotone
        details.append(
            f"d={d} spread={spread:.3f} monotone={monotone} "
            f"saturated={saturated}/{len(SIZES) * len(SEEDS)}"
        )
    report(1, "degree tracks (2n ln n)^(1/d) across sizes", ok, "; ".join(details))


@pytest.mark.slow
def test_hop_budget_monotonicity(report):
    degrees = [_mean_degree(512, d) for d in (3, 5, 7)]
    ok = degrees[0] > degrees[1] > degrees[2]
    report(
        2,
        "mean degree at n=512 falls as the hop budget grows",
        ok,
        "d=3,5,7 -> " + ", ".join(f"{deg:.3f}" for deg in degrees),
    )


def test_hub_offload(report):
    off = run_scenario(ScenarioConfig("usecase1", oscl_enabled=False, appends=5))
    on = run_scenario(ScenarioConfig("usecase1", oscl_enabled=True, appends=5))
    hub_off = off.system.counters.get(NSCL_ID, "notify", "relayed")
    hub_on = on.system.counters.get(NSCL_ID, "notify", "relayed")
    got = on.system.counters.get(SUBSCRIBER_ID, "data", "received")
    ok = hub_off == 5 and hub_on == 0 and got == 5
    report(
        3,
        "direct subscription removes all hub notify relaying",
        ok,
        f"hub relayed off={hub_off} on={hub_on}, subscriber data={got}",
    )


def test_multi_hop_p2p(report):
    r = run_scenario(ScenarioConfig("usecase2", appends=1))
    container = r.container_uri
    interest_hops = [
        (row.src, row.dst)
        for row in r.system.log
        if row.msg_type == "interest" and row.name == container
    ]
    data_hops = [
        (row.src, row.dst)
        for row in r.system.log
        if row.msg_type == "data" and row.name == container
    ]
    chain = [(SUBSCRIBER_ID, "Gscl3"), ("Gscl3", "Gscl2"), ("Gscl2", "Gscl1")]
    hub_quiet = all(
        r.system.counters.get(NSCL_ID, t, "relayed") == 0
        for t in ("subscribe", "notify", "data")
    )
    ok = (
        interest_hops == chain
        and data_hops == [(v, u) for u, v in reversed(chain)]
        and r.new_links == 0
        and hub_quiet
    )
    report(
        4,
        "subscription and notification walk the 3-hop gateway chain",
        ok,
        f"interest={len(interest_hops)} hops, data={len(data_hops)} hops, "
        f"new_links={r.new_links}, hub untouched={hub_quiet}",
    )


def test_interest_suppression(report):
    results = []
    ok = True
    for k in (2, 5, 10):
        system = M2mSystem()
        producer = system.add_scl(SclKind.GSCL, "Gscl1")
        relay = system.add_scl(SclKind.GSCL, "Relay1")
        consumers = [system.add_scl(SclKind.DSCL, f"Dscl{i+1}") for i in range(k)]
        create_application(producer, "meter_app")
        create_container(producer, "meter_app", "meter_data")
        create_content_instance(producer, "meter_app", "meter_data", "v0")
        overlay = Overlay(system, seed=k)
        for scl in (producer, relay, *consumers):
            overlay.add_node(scl)
        overlay.add_link(relay.node_id, producer.node_id)
        for c in consumers:
            overlay.add_link(c.node_id, relay.node_id)

        name = parse_name(
            "Gscl1/applications/meter_app/containers/meter_data/content_instances/0"
        )
        for c in consumers:
            overlay.begin_fetch(c.node_id, name, scope=2)
        overlay.run()

        upstream = sum(
            1
            for row in system.log
            if row.msg_type == "interest"
            and row.src == relay.node_id
            and row.dst == producer.node_id
        )
        served = sum(
            1 for c in consumers if len(overlay.answers(c.node_id, name)) == 1
        )
        ok = ok and upstream == 1 and served == k
        results.append(f"k={k}: upstream={upstream} served={served}")
    report(5, "one relay forwards a shared request upstream once", ok, "; ".join(results))


def test_relay_caching(report):
    results = []
    ok = True
    for relay_index in (1, 2):  # every intermediate node on the path
        system = M2mSystem()
        producer = system.add_scl(SclKind.GSCL, "Gscl1")
        r1 = system.add_scl(SclKind.GSCL, "Relay1")
        r2 = system.add_scl(SclKind.GSCL, "Relay2")
        consumer = system.add_scl(SclKind.DSCL, "Dscl1")
        create_application(producer, "meter_app")
        create_container(producer, "meter_app", "meter_data")
        create_content_instance(producer, "meter_app", "meter_data", "v0")
        overlay = Overlay(system, seed=0)
        for scl in (producer, r1, r2, consumer):
            overlay.add_node(scl)
        overlay.add_link(consumer.node_id, r1.node_id)
        overlay.add_link(r1.node_id, r2.node_id)
        overlay.add_link(r2.node_id, producer.node_id)

        name = parse_name(
            "Gscl1/applications/meter_app/containers/meter_data/content_instances/0"
        )
        first = overlay.fetch_resource(consumer.node_id, name, scope=3)
        relay_id = f"Relay{relay_index}"
        second = overlay.fetch_resource(relay_id, name, scope=3)
        producer_interests = system.counters.get(producer.node_id, "interest", "received")
        local = second is not None and second[1] == [relay_id]
        ok = ok and first is not None and local and producer_interests == 1
        results.append(f"{relay_id}: local={local} producer_interests={producer_interests}")
    report(6, "relay caches answer later consumers on the spot", ok, "; ".join(results))


def test_fallback_then_direct_link(report):
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, "Nscl")
    producer = system.add_scl(SclKind.GSCL, "Gscl1")
    consumer = system.add_scl(SclKind.DSCL, "Dscl1")
    register_scl(producer, nscl)
    register_scl(consumer, nscl)
    create_application(producer, "meter_app")
    overlay = Overlay(system, seed=0)
    for scl in (nscl, producer, consumer):
        overlay.add_node(scl)

    target = parse_name("Gscl1/applications/meter_app")
    first = overlay.discover(consumer.node_id, target, scope=3, nscl=nscl)
    decision = overlay.ensure_link(consumer.node_id, first)
    second = overlay.discover(consumer.node_id, target, scope=3, nscl=nscl)
    ok = (
        first.method == "centralized"
        and decision is LinkDecision.NEW_LINK
        and overlay.edge_count == 1
        and second.method == "distributed"
        and second.path == (consumer.node_id, producer.node_id)
    )
    report(
        7,
        "hub fallback provisions the edge that direct discovery then uses",
        ok,
        f"first={first.method}, edges={overlay.edge_count}, second={second.method}",
    )


def _all_pairs_distances(adj):
    """Independent oracle: plain queue BFS from every source."""
    n = len(adj)
    table = []
    for src in range(n):
        dist = [None] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table.append(dist)
    return table


def test_search_oracle_equivalence(report):
    rng = random.Random(8)
    mismatches = 0
    checked = 0
    for _ in range(100):
        n = rng.randrange(4, 65)
        p = rng.uniform(0.02, 0.3)
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u].add(v)
                    adj[v].add(u)
        oracle = _all_pairs_distances(adj)
        for u in range(n):
            for v in range(u, n):
                true_dist = oracle[u][v]
                for bound in range(1, 11):
                    want = true_dist if true_dist is not None and true_dist <= bound else None
                    if bfs_bounded(adj, u, v, bound) != want:
                        mismatches += 1
                    checked += 1
    report(
        8,
        "bounded search agrees with the all-pairs oracle",
        mismatches == 0,
        f"{checked} queries over 100 graphs, {mismatches} mismatches",
    )


def test_replay_determinism(tmp_path, capsys, report):
    commands = {
        "topology": ["topology", "--n", "16", "--d", "3", "--seed", "1"],
        "sweep": ["sweep", "--n", "8,16", "--d", "2", "--seeds", "2"],
        "scenario": ["scenario", "usecase2", "--appends", "2"],
    }
    results = []
    ok = True
    for label, argv in commands.items():
        first = tmp_path / label
        again = tmp_path / (label + "-replay")
        ran = main(argv + ["--out", str(first)]) == 0
        replayed = main(["replay", str(first / "manifest.json"), "--out", str(again)]) == 0
        outputs = json.loads((first / "manifest.json").read_text())["outputs"]
        identical = ran and replayed and all(
            (first / name).read_bytes() == (again / name).read_bytes()
            for name in outputs
        )
        ok = ok and identical
        results.append(f"{label}={'ok' if identical else 'DIFFERS'}")
    capsys.readouterr()
    report(9, "manifest replays rewrite every CSV byte for byte", ok, ", ".join(results))
