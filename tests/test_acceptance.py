"""Acceptance gate: one test per release criterion, one verdict line each.

The degree-law checks share experiment runs through a module cache, so
the slow sizes are computed once. Verdict lines print with capture
suspended, so the pass/fail record shows up in any pytest run.
"""

import json
import math
import random
import statistics
from collections import deque
from functools import lru_cache

import pytest

from oscl_sim.cli import main
from oscl_sim.names import parse_name
from oscl_sim.ndn import InterestPacket
from oscl_sim.overlay import LinkMetrics, Overlay
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
    predicted_degree,
    run_topology_experiment,
    seed_mean_spread,
)

SIZES = (32, 128, 512, 2048)
SEEDS = (0, 1, 2)


def _begin_fetch(overlay, origin, name, scope):
    """Inject a fetch Interest without draining the event queue, so
    several consumers race for one name before ``overlay.run()``; the
    nonce is the overlay's next draw, as for any request."""
    overlay._inject(origin, InterestPacket(name, overlay.rng.getrandbits(62), scope))


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
    """Spread and monotonicity alone also pass neighbouring laws, so the
    fitted exponent b must lie nearer 1/d than 1/(d+1) or 1/(d-1)."""
    details = []
    ok = True
    for d in (3, 5):
        degrees = [_mean_degree(n, d) for n in SIZES]
        spread = seed_mean_spread(
            (n, _run(n, d, s)[0] / predicted_degree(n, d)) for n in SIZES for s in SEEDS
        )
        monotone = all(b >= a for a, b in zip(degrees, degrees[1:]))
        # least-squares slope of log(seed-mean degree) on log(2n ln n)
        slope = statistics.linear_regression(
            [math.log(2 * n * math.log(n)) for n in SIZES], [math.log(x) for x in degrees]
        ).slope
        tolerance = (1 / d - 1 / (d + 1)) / 2
        saturated = sum(_run(n, d, s)[1] for n in SIZES for s in SEEDS)
        ok = ok and spread <= 2.0 and monotone and abs(slope - 1 / d) < tolerance
        details.append(
            f"d={d} spread={spread:.3f} b={slope:.4f} vs 1/d={1 / d:.4f} tol={tolerance:.4f} "
            f"monotone={monotone} saturated={saturated}/{len(SIZES) * len(SEEDS)}"
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
            _begin_fetch(overlay, c.node_id, name, scope=2)
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


def _edge_count(system):
    # every forwarder has one face per link
    return sum(len(scl.ndn.faces) for scl in system.scls.values()) // 2


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
        and decision is True
        and _edge_count(system) == 1
        and second.method == "distributed"
        and second.path == (consumer.node_id, producer.node_id)
    )
    report(
        7,
        "hub fallback provisions the edge that direct discovery then uses",
        ok,
        f"first={first.method}, edges={_edge_count(system)}, second={second.method}",
    )


def _distances_from(adj, src):
    """Independent oracle: hop distances from ``src`` by plain queue BFS,
    None where unreachable."""
    dist = [None] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_search_oracle_equivalence(report):
    """The kernel the product runs decides every draw as plain BFS does:
    each configuration's draw stream is replayed against an all-pairs
    distance table that is dropped whenever a link is added. A row is
    filled on first use, so a dense run pays for the rows its draws read,
    not for n per link."""
    rng = random.Random(8)
    mismatches = draws = 0
    for _ in range(100):
        n, d = rng.randrange(4, 65), rng.randrange(1, 11)
        config = ExperimentConfig(
            n_nodes=n, max_hops=d, seed=rng.randrange(2**32), pair_count=rng.randrange(1, 3001)
        )
        stats = run_topology_experiment(config)
        stream = random.Random(config.seed)
        adj = [set() for _ in range(n)]
        table = {}  # source -> its row of the all-pairs table
        series, links = [], 0
        for i in range(config.pairs):
            u = stream.randrange(n)
            v = stream.randrange(n - 1)
            v += v >= u
            dist = table.get(u)
            if dist is None:
                dist = table[u] = _distances_from(adj, u)
            if dist[v] is None or dist[v] > d:
                adj[u].add(v)
                adj[v].add(u)
                table.clear()
                links += 1
            if (i + 1) % config.stride == 0 or i + 1 == config.pairs:
                series.append((i + 1, 2.0 * links / n))
        draws += config.pairs
        got = (stats.links_created, stats.degree_series, stats.adjacency)
        mismatches += got != (links, series, adj)
    report(
        8,
        "the degree kernel links exactly the pairs that all-pairs BFS leaves over budget",
        mismatches == 0,
        f"{draws} draws over 100 configurations, {mismatches} mismatches",
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


CHAIN_LOSS_POINTS = ((1, 0.2), (3, 0.1), (4, 0.2))  # (links h, loss p per link)
CHAIN_FETCHES = 3000
CHAIN_ALPHA = 0.001  # two-sided: a 99.9% interval


def _clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided 1 - alpha interval for a binomial share k / n
    (Clopper and Pearson, Biometrika 26, 1934): the p at which
    P(X >= k) and P(X <= k) each equal alpha / 2, found by bisection."""
    log_comb = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1)]

    def tails(p):
        lp, lq = math.log(p), math.log1p(-p)
        pmf = [math.exp(c + i * lp + (n - i) * lq) for i, c in enumerate(log_comb)]
        return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])  # P(X <= k), P(X >= k)

    def solve(side):
        # P(X >= k) rises with p, P(X <= k) falls
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = (lo + hi) / 2
            if (tails(mid)[side] < alpha / 2) == (side == 1):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    return (0.0 if k == 0 else solve(1)), (1.0 if k == n else solve(0))


def _chain_fetch_successes(hops: int, loss: float, fetches: int, seed: int) -> int:
    """Fetches of distinct instance names, each asked once from one end
    of a chain of ``hops`` links with loss ``loss`` each, answered from
    the producer at the other end: how many got an answer."""
    system = M2mSystem()
    ids = [f"Gscl{i}" for i in range(hops + 1)]  # the producer first
    scls = [system.add_scl(SclKind.GSCL, node_id) for node_id in ids]
    create_application(scls[0], "meter_app")
    container = create_container(scls[0], "meter_app", "meter_data")
    for i in range(fetches):
        create_content_instance(scls[0], "meter_app", "meter_data", f"v{i}")
    overlay = Overlay(system, seed=seed)
    for scl in scls:
        overlay.add_node(scl)
    for u, v in zip(ids, ids[1:]):
        overlay.add_link(u, v, LinkMetrics(loss=loss))
    return sum(
        overlay.fetch_resource(ids[-1], f"{container}/content_instances/{i}", hops)
        is not None
        for i in range(fetches)
    )


def test_lossy_chain_delivery_matches_its_closed_form(report):
    """A fetch over h lossy links succeeds when its Interest and then its
    Data each cross all h: with probability (1 - p)^(2h)."""
    results = []
    ok = True
    for seed, (hops, loss) in enumerate(CHAIN_LOSS_POINTS):
        k = _chain_fetch_successes(hops, loss, CHAIN_FETCHES, seed)
        lower, upper = _clopper_pearson(k, CHAIN_FETCHES, CHAIN_ALPHA)
        expected = (1 - loss) ** (2 * hops)
        ok = ok and lower <= expected <= upper
        results.append(
            f"h={hops} p={loss}: {k}/{CHAIN_FETCHES} in [{lower:.4f}, {upper:.4f}]"
            f" vs {expected:.4f}"
        )
    report(10, "fetch success on a lossy chain is (1-p)^(2h)", ok, "; ".join(results))


# Lossless floods of a name nobody owns, from origin n0 unless the case
# says otherwise; every link has the same 5 ms delay. Per node, derived
# by hand: (interest relayed, loop drops, no-route drops, arrivals); a
# node left out has all four at 0, and no node receives the Interest.
# The origin spends one hop per link, so a node k links away gets the
# Interest with scope - k hops left: it drops it as no-route at 0 left
# or with no face but the arrival one, and else relays it on every
# other face. The second copy to reach a node is a loop drop.
FLOOD_CASES = {
    # path n0 - n1 - n2 - n3
    "path": ([("n0", "n1"), ("n1", "n2"), ("n2", "n3")], "n0", {
        0: ({"n0": (0, 0, 1, 0)}, 0),
        1: ({"n1": (0, 0, 1, 1)}, 1),
        2: ({"n1": (1, 0, 0, 1), "n2": (0, 0, 1, 1)}, 2),
        3: ({"n1": (1, 0, 0, 1), "n2": (1, 0, 0, 1), "n3": (0, 0, 1, 1)}, 3),
        4: ({"n1": (1, 0, 0, 1), "n2": (1, 0, 0, 1), "n3": (0, 0, 1, 1)}, 3),  # n3: no face
    }),
    # star: centre c, leaves n0 (the origin), n1, n2
    "star": ([("c", "n0"), ("c", "n1"), ("c", "n2")], "n0", {
        0: ({"n0": (0, 0, 1, 0)}, 0),
        1: ({"c": (0, 0, 1, 1)}, 1),
        2: ({"c": (2, 0, 0, 1), "n1": (0, 0, 1, 1), "n2": (0, 0, 1, 1)}, 3),
        3: ({"c": (2, 0, 0, 1), "n1": (0, 0, 1, 1), "n2": (0, 0, 1, 1)}, 3),  # leaves: no face
    }),
    # cycle n0 - n1 - n2 - n3 - n0: copies meet at n2, and n2's relay
    # of the first one dies at n3, which has seen the Interest
    "cycle": ([("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n0")], "n0", {
        0: ({"n0": (0, 0, 1, 0)}, 0),
        1: ({"n1": (0, 0, 1, 1), "n3": (0, 0, 1, 1)}, 2),
        2: ({"n1": (1, 0, 0, 1), "n2": (0, 1, 1, 2), "n3": (1, 0, 0, 1)}, 4),
        3: ({"n1": (1, 0, 0, 1), "n2": (1, 1, 0, 2), "n3": (1, 1, 0, 2)}, 5),
        4: ({"n1": (1, 0, 0, 1), "n2": (1, 1, 0, 2), "n3": (1, 1, 0, 2)}, 5),
    }),
}
STAR_SPOKES = 4
STAR_LOSS = 0.5
STAR_FLOODS = 1000


def _overlay_of(edges, seed=0, metrics=None):
    system = M2mSystem()
    overlay = Overlay(system, seed=seed)
    for node_id in sorted({x for edge in edges for x in edge}):
        overlay.add_node(system.add_scl(SclKind.GSCL, node_id))
    for u, v in edges:
        overlay.add_link(u, v, metrics)
    return system, overlay


def _flood_counts(edges, origin, scope):
    """(per node: (relayed, loop, no-route, arrivals, received, dropped
    counts with no drop row, originated), link traversals) of one flood
    of an unowned name."""
    system, overlay = _overlay_of(edges)
    assert overlay.fetch_resource(origin, parse_name("Nobody/app"), scope) is None
    c = system.counters
    counts = {}
    for node in system.scls:
        reasons = [reason for at, reason, _ in overlay.drops if at == node]
        counts[node] = (
            c.get(node, "interest", "relayed"),
            reasons.count("loop"),
            reasons.count("no-route"),
            sum(1 for row in system.log if row.dst == node),
            c.get(node, "interest", "received"),
            c.get(node, "interest", "dropped") - len(reasons),
            c.get(node, "interest", "originated"),
        )
    return counts, len(system.log)


def _partial_reach_count(seed: int) -> int:
    """Floods of distinct names from a star's centre at scope 1, each
    spoke losing a copy with probability STAR_LOSS: how many reached
    some leaves but not all."""
    spokes = [("c", f"n{i}") for i in range(STAR_SPOKES)]
    system, overlay = _overlay_of(spokes, seed, LinkMetrics(loss=STAR_LOSS))
    partial = 0
    for i in range(STAR_FLOODS):
        before = len(system.log)
        overlay.fetch_resource("c", parse_name(f"Nobody/flood{i}"), 1)
        partial += 0 < len(system.log) - before < STAR_SPOKES
    return partial


def test_flood_counts_and_per_face_loss(report):
    """A flood's counts on lossless graphs match the hand-derived tables
    on both sides of each hop-limit boundary, and a loss draw is made
    per face: a flood from a star's centre reaches some but not all of
    its k leaves with probability 1 - p^k - (1 - p)^k, where a single
    draw per send would give 0."""
    mismatches = []
    checked = 0
    for graph, (edges, origin, scopes) in FLOOD_CASES.items():
        for scope, (table, traversals) in scopes.items():
            counts, links = _flood_counts(edges, origin, scope)
            expected = {
                node: table.get(node, (0, 0, 0, 0)) + (0, 0, int(node == origin))
                for node in counts
            }
            checked += 1
            if (counts, links) != (expected, traversals):
                mismatches.append(f"{graph} scope={scope}: {counts}, {links} traversals")
    share = 1 - STAR_LOSS**STAR_SPOKES - (1 - STAR_LOSS) ** STAR_SPOKES
    results = []
    ok = not mismatches
    for seed in range(3):
        k = _partial_reach_count(seed)
        lower, upper = _clopper_pearson(k, STAR_FLOODS, CHAIN_ALPHA)
        ok = ok and lower <= share <= upper
        results.append(f"seed {seed}: {k}/{STAR_FLOODS} in [{lower:.4f}, {upper:.4f}]")
    report(
        11,
        "lossless flood counts match by hand; per-face loss splits a star's flood",
        ok,
        f"{checked - len(mismatches)}/{checked} flood tables match"
        + "".join(f"; MISMATCH {m}" for m in mismatches)
        + f"; partial reach vs {share:.4f}: " + "; ".join(results),
    )
