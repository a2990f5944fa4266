"""Golden replay of a flooded overlay.

One seeded run over a 48-node overlay built by the degree experiment:
discoveries (some falling back to the hub, some for names nobody
owns), content fetches that hit caches on the way, and a peer-to-peer
subscription fed by appends. Links mix delays, including zero-delay
ties that only the sending order orders, and one link loses packets,
so the loss draws interleave with the nonce draws.

The digest covers everything the run leaves behind: the message log,
the counters, the drop list, every operation's result, the final
clock and the forwarders' table sizes. Any change to the event order,
the counting or the random draw order changes it.
"""

import hashlib
import random

from oscl_sim.names import parse_name
from oscl_sim.overlay import LinkMetrics, Overlay
from oscl_sim.scl import (
    M2mSystem,
    SclKind,
    create_application,
    create_container,
    create_content_instance,
    register_scl,
)
from oscl_sim.topology import ExperimentConfig, run_topology_experiment

GOLDEN_SHA256 = "cd8944e154f69d9f472103f9e95d4395d52a63eb3cadd406df56591a82d67011"

N_NODES = 48
DELAYS_MS = (0.0, 0.0, 1.0, 2.5, 5.0)


def _flood_run():
    stats = run_topology_experiment(ExperimentConfig(n_nodes=N_NODES, max_hops=3, seed=0))
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, "Nscl")
    overlay = Overlay(system, seed=5)
    ids = [f"Gscl{i}" for i in range(N_NODES)]
    for i, node_id in enumerate(ids):
        gscl = system.add_scl(SclKind.GSCL, node_id)
        register_scl(gscl, nscl)
        create_application(gscl, f"app{i}")
        create_container(gscl, f"app{i}", "data")
        create_content_instance(gscl, f"app{i}", "data", f"v{i}")
        overlay.add_node(gscl)
    edges = [(u, v) for u, nbrs in enumerate(stats.adjacency) for v in sorted(nbrs) if u < v]
    for k, (u, v) in enumerate(edges):
        metrics = LinkMetrics(delay_ms=DELAYS_MS[k % len(DELAYS_MS)], loss=0.4 if k == 0 else 0.0)
        overlay.add_link(ids[u], ids[v], metrics)

    rng = random.Random(11)
    results = []
    for _ in range(150):
        origin = rng.randrange(N_NODES)
        target = rng.randrange(N_NODES + 2)  # the last two names have no owner
        name = parse_name(f"Gscl{target}/applications/app{target}")
        try:
            found = overlay.discover(ids[origin], name, rng.randrange(4), nscl)
        except Exception as exc:
            found = (type(exc).__name__, str(exc))
        results.append(("discover", found))
    for origin, target in ((3, 9), (4, 9), (3, 9), (20, 9), (7, 30)):
        name = parse_name(f"Gscl{target}/applications/app{target}/containers/data")
        name = f"{name}/content_instances/latest"
        results.append(("fetch", overlay.fetch_resource(ids[origin], name, 4)))

    container = parse_name("Gscl30/applications/app30/containers/data")
    overlay.p2p_subscribe("Gscl2", container, expected_notifications=3)
    producer = system.scl("Gscl30")
    hooks = [len(producer.applications["app30"]["data"].subscriptions)]
    for k in range(5):
        create_content_instance(producer, "app30", "data", f"reading{k}")
    hooks.append(len(producer.applications["app30"]["data"].subscriptions))
    path = tuple(overlay.answers("Gscl2", container)[0][1])  # the first notification's trail
    results.append(("subscribe", path, *hooks))
    results.append(("notifications", overlay.notifications("Gscl2", container)))

    log_rows = [
        (rec.time_ms, rec.src, rec.dst, rec.relayer, rec.msg_type, rec.name) for rec in system.log
    ]
    tables = [(s.node_id, len(s.ndn.pit), len(s.ndn.cs)) for s in system.scls.values()]
    return log_rows, system.counters.rows(), list(overlay.drops), results, system.clock_ms, tables


def test_flood_replay_matches_golden_digest():
    log_rows, counters, drops, results, clock_ms, tables = _flood_run()
    # the run reaches what it claims to: zero-delay ties, every drop
    # reason, hub fallback, cache hits and a full subscription budget
    times = [row[0] for row in log_rows]
    assert len(times) > len(set(times))
    reasons = {reason for _, reason, _ in drops}
    assert reasons == {"loop", "no-route", "loss", "aggregated", "unsolicited"}
    methods = {r[1].method for r in results if r[0] == "discover" and not isinstance(r[1], tuple)}
    assert methods == {"distributed", "centralized"}
    assert ["Gscl3"] in [r[1][1] for r in results if r[0] == "fetch" and r[1] is not None]
    assert len(results[-1][1]) == 3
    blob = repr((log_rows, counters, drops, results, clock_ms, tables)).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256
