import gc
import heapq
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscl_sim.names import InvalidName, parse_name
from oscl_sim.ndn import (
    APP_FACE,
    DEFAULT_FRESHNESS_MS,
    DEFAULT_PIT_LIFETIME_MS,
    Drop,
    InterestPacket,
    SendInterest,
    on_data,
    on_interest,
)
from oscl_sim.overlay import (
    DEFAULT_SUBSCRIBE_SCOPE,
    MAX_PATH_HOPS,
    PROBE_COUNT,
    BrokenPath,
    DuplicateLink,
    LinkMetrics,
    NoPath,
    Overlay,
    QosMetrics,
    UnknownNode,
)
from oscl_sim.scl import (
    M2mSystem,
    NotFound,
    SclKind,
    create_application,
    create_container,
    create_content_instance,
    register_scl,
)

APP_URI = "Gscl1/applications/meter_app"
CONTAINER_URI = "Gscl1/applications/meter_app/containers/meter_data"
INSTANCE_URI = CONTAINER_URI + "/content_instances/0"


def _begin_fetch(overlay, origin, name, scope):
    """Inject a fetch Interest without draining the event queue, so
    several consumers race for one name before ``overlay.run()``; the
    nonce is the overlay's next draw, as for any request."""
    overlay._inject(origin, InterestPacket(name, overlay.rng.getrandbits(62), scope))


def _hooks(producer):
    """The delivery hooks standing on the producer's container."""
    return producer.applications["meter_app"]["meter_data"].subscriptions


def _edge_count(system):
    # every forwarder has one face per link
    return sum(len(scl.ndn.faces) for scl in system.scls.values()) // 2


def _chain(n_relays=2, seed=0, instances=1):
    """Consumer -- relay* -- producer chain with one populated container.

    Returns (system, overlay, consumer_id, relay_ids, producer scl).
    """
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, "Nscl")
    producer = system.add_scl(SclKind.GSCL, "Gscl1")
    relays = [system.add_scl(SclKind.GSCL, f"Relay{i+1}") for i in range(n_relays)]
    consumer = system.add_scl(SclKind.DSCL, "Dscl1")
    for scl in (producer, *relays, consumer):
        register_scl(scl, nscl)
    create_application(producer, "meter_app")
    create_container(producer, "meter_app", "meter_data")
    for i in range(instances):
        create_content_instance(producer, "meter_app", "meter_data", f"v{i}")

    overlay = Overlay(system, seed=seed)
    for scl in (nscl, producer, *relays, consumer):
        overlay.add_node(scl)
    path = [consumer.node_id] + [r.node_id for r in relays] + [producer.node_id]
    for u, v in zip(path, path[1:]):
        overlay.add_link(u, v)
    return system, overlay, consumer.node_id, [r.node_id for r in relays], producer


# ===== links =====


def _unlinked(*ids):
    """Overlay over fresh gateway SCLs with the given ids and no links."""
    system = M2mSystem()
    overlay = Overlay(system, seed=0)
    for node_id in ids:
        overlay.add_node(system.add_scl(SclKind.GSCL, node_id))
    return system, overlay


def test_graph_rejects_self_and_duplicate_links():
    system, overlay = _unlinked("a", "b")
    overlay.add_link("a", "b")
    with pytest.raises(DuplicateLink):
        overlay.add_link("b", "a")
    with pytest.raises(ValueError):
        overlay.add_link("a", "a")
    with pytest.raises(UnknownNode):
        overlay.add_link("a", "ghost")
    a, b = system.scl("a").ndn, system.scl("b").ndn
    assert set(a.faces) == {"b"} and set(b.faces) == {"a"}


def test_add_node_rejects_the_application_face_id():
    # a neighbor would file its face toward this node as its own
    # application face, so the node would be linked but unreachable
    system, overlay = _unlinked("A")
    with pytest.raises(ValueError):
        overlay.add_node(system.add_scl(SclKind.GSCL, APP_FACE))


def test_add_node_rejects_an_scl_of_another_system():
    # its forwarder would take Interests that this system's SCLs cannot
    # answer, and the run would stop midway on a NotFound
    system, overlay = _unlinked("Gscl1", "Gscl2")
    for node_id in ("Gscl2", "Gscl3"):
        stranger = M2mSystem().add_scl(SclKind.GSCL, node_id)
        with pytest.raises(ValueError, match="not an SCL of this overlay's system"):
            overlay.add_node(stranger)
    with pytest.raises(UnknownNode):
        overlay.add_link("Gscl1", "Gscl3")
    overlay.add_link("Gscl1", "Gscl2")  # the rejected copy replaced nothing
    assert set(system.scl("Gscl2").ndn.faces) == {"Gscl1"}


# ===== distributed discovery =====


def test_discover_over_chain():
    _, overlay, consumer, relays, producer = _chain(n_relays=2)
    result = overlay.distributed_discover(consumer, parse_name(APP_URI), scope=3)
    assert result is not None
    assert result.method == "distributed"
    assert result.uri == APP_URI
    assert result.locator == producer.locator
    assert result.path == (consumer, *relays, producer.node_id)
    assert result.path_hops == 3


def test_discover_scope_limits_reach():
    _, overlay, consumer, _, _ = _chain(n_relays=2)
    assert overlay.distributed_discover(consumer, parse_name(APP_URI), scope=2) is None


def test_discover_own_resource_is_zero_hops():
    _, overlay, _, _, producer = _chain()
    result = overlay.distributed_discover(producer.node_id, parse_name(APP_URI), scope=3)
    assert result.path == (producer.node_id,)
    assert result.path_hops == 0


def test_discover_falls_back_to_hub_when_overlay_fails():
    system, overlay, consumer, _, _ = _chain(n_relays=2)
    result = overlay.discover(consumer, parse_name(APP_URI), scope=1)
    assert result.method == "centralized"
    assert system.counters.get("Nscl", "discover_query", "relayed") == 2


def test_origin_pending_entry_absorbs_a_wider_retry():
    """The defect as it stands: a failed discovery leaves a pending entry
    at its own origin, which absorbs a wider retry from that origin
    before it leaves the node, so the retry falls back to the hub too.
    ROADMAP item 2 must flip the second discovery's assertion to
    "distributed": the origin's own entry is a case its fix has to
    cover, not only the relays'."""
    system, overlay, consumer, _, _ = _chain(n_relays=2)
    name = parse_name(APP_URI)
    assert overlay.discover(consumer, name, scope=1).method == "centralized"
    assert name in system.scl(consumer).ndn.pit  # no Data will ever consume it
    assert overlay.discover(consumer, name, scope=3).method == "centralized"
    assert system.clock_ms == 29.0  # well inside the entry's 4 s lifetime
    _, fresh, fresh_consumer, _, _ = _chain(n_relays=2)
    assert fresh.discover(fresh_consumer, name, scope=3).method == "distributed"


@pytest.mark.parametrize("own", [False, True], ids=["remote", "own"])
def test_subscriber_discovering_its_container_falls_back_to_the_hub(own):
    # the notification cached under the container's name answers the
    # discovery's Interest from the subscriber's own store; its body
    # names no locator, so the overlay has no answer and the hub does
    system, overlay, consumer, _, producer = _chain(instances=0)
    node = producer.node_id if own else consumer
    container = parse_name(CONTAINER_URI)
    overlay.p2p_subscribe(node, container, expected_notifications=2)
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    assert [n["value"] for n in overlay.notifications(node, container)] == ["v0"]
    result = overlay.discover(node, container, scope=3)
    assert (result.method, result.uri, result.locator) == (
        "centralized", container, producer.locator,
    )
    assert system.counters.get("Nscl", "discover_query", "relayed") == 2


def test_discover_not_found_anywhere():
    _, overlay, consumer, _, _ = _chain()
    with pytest.raises(NotFound):
        overlay.discover(consumer, parse_name("Gscl9/applications/x"), scope=3)


# ===== fetch and caching =====


def test_fetch_instance_end_to_end():
    _, overlay, consumer, _, _ = _chain(n_relays=2)
    body, trail = overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    assert body["value"] == "v0"
    assert body["index"] == 0
    assert trail == ["Gscl1", "Relay2", "Relay1", "Dscl1"]


def test_second_fetch_served_by_consumer_cache():
    system, overlay, consumer, _, _ = _chain(n_relays=2)
    overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    interest_rows = [r for r in system.log if r.msg_type == "interest"]
    body, trail = overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    assert body["value"] == "v0"
    assert trail == [consumer]  # answered locally
    assert [r for r in system.log if r.msg_type == "interest"] == interest_rows
    assert system.counters.get("Gscl1", "data", "originated") == 1


def test_intermediate_cache_serves_other_consumers():
    # consumer's own store emptied, so the second request must leave it
    system, overlay, consumer, relays, producer = _chain(n_relays=2)
    overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    assert system.counters.get(producer.node_id, "interest", "received") == 1
    system.scl(consumer).ndn.cs.clear()
    body, trail = overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    assert body["value"] == "v0"
    assert trail == [relays[0], consumer]  # nearest relay's cache answered
    assert system.counters.get(producer.node_id, "interest", "received") == 1
    assert system.counters.get(producer.node_id, "data", "originated") == 1


@pytest.mark.parametrize("uri", [APP_URI, INSTANCE_URI])
def test_local_fetch_body_matches_remote_answer(uri):
    _, overlay, consumer, _, producer = _chain(n_relays=1)
    local, trail = overlay.fetch_resource(producer.node_id, parse_name(uri), scope=3)
    assert trail == [producer.node_id]
    remote, _ = overlay.fetch_resource(consumer, parse_name(uri), scope=3)
    assert local == remote
    assert local["locator"].node_id == producer.node_id


def test_fetch_missing_resource_returns_none():
    _, overlay, consumer, _, _ = _chain()
    missing = parse_name(CONTAINER_URI + "/content_instances/9")
    assert overlay.fetch_resource(consumer, missing, scope=3) is None


# ===== interest suppression =====


@pytest.mark.parametrize("k", [2, 3, 5])
def test_relay_suppresses_duplicate_interests(k):
    system = M2mSystem()
    producer = system.add_scl(SclKind.GSCL, "Gscl1")
    relay = system.add_scl(SclKind.GSCL, "Relay1")
    consumers = [system.add_scl(SclKind.DSCL, f"Dscl{i+1}") for i in range(k)]
    create_application(producer, "meter_app")
    create_container(producer, "meter_app", "meter_data")
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    overlay = Overlay(system, seed=1)
    for scl in (producer, relay, *consumers):
        overlay.add_node(scl)
    overlay.add_link(relay.node_id, producer.node_id)
    for c in consumers:
        overlay.add_link(c.node_id, relay.node_id)

    name = parse_name(INSTANCE_URI)
    for c in consumers:
        _begin_fetch(overlay, c.node_id, name, scope=2)
    overlay.run()

    upstream = [
        r
        for r in system.log
        if r.msg_type == "interest" and r.src == relay.node_id and r.dst == producer.node_id
    ]
    assert len(upstream) == 1
    assert system.counters.get(producer.node_id, "interest", "received") == 1
    for c in consumers:
        answers = overlay.answers(c.node_id, name)
        assert len(answers) == 1
        assert answers[0][0]["value"] == "v0"


def test_data_fan_out_reaches_faces_sorted_after_the_application():
    """Node ids that sort after APP_FACE put it first in a fan-out: the
    Data must still go on to every neighbor behind it."""
    system = M2mSystem()
    producer = system.add_scl(SclKind.GSCL, "Gscl1")
    zed1 = system.add_scl(SclKind.DSCL, "zed1")
    zed2 = system.add_scl(SclKind.DSCL, "zed2")
    create_application(producer, "meter_app")
    create_container(producer, "meter_app", "meter_data")
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    overlay = Overlay(system, seed=0)
    for scl in (producer, zed1, zed2):
        overlay.add_node(scl)
    overlay.add_link("Gscl1", "zed1")
    overlay.add_link("zed1", "zed2")
    assert sorted([APP_FACE, "zed2"]) == [APP_FACE, "zed2"]

    # zed2's Interest aggregates into zed1's own pending entry, so the
    # Data at zed1 fans out to (APP_FACE, "zed2")
    name = parse_name(INSTANCE_URI)
    _begin_fetch(overlay, "zed1", name, scope=2)
    _begin_fetch(overlay, "zed2", name, scope=2)
    overlay.run()

    for consumer, trail in (("zed1", ["Gscl1", "zed1"]), ("zed2", ["Gscl1", "zed1", "zed2"])):
        [(body, got_trail)] = overlay.answers(consumer, name)
        assert body["value"] == "v0" and got_trail == trail
    c = system.counters
    assert c.get("zed1", "data", "received") == c.get("zed2", "data", "received") == 1
    assert c.get("zed1", "data", "relayed") == 1
    assert c.total("data", "originated") == 1  # the producer's answer
    assert c.total("data", "received") == 2 and c.total("data", "dropped") == 0
    assert c.total("interest", "originated") == 2
    assert c.total("interest", "received") == 1  # the producer's
    assert sorted(overlay.drops) == [
        ("zed1", "aggregated", name),
        ("zed2", "aggregated", name),
    ]
    assert c.total(role="dropped") == len(overlay.drops)


# ===== event loop =====


def test_run_refuses_to_reenter_itself(monkeypatch):
    _, overlay, consumer, _, _ = _chain(n_relays=1)
    deliver = overlay._app_data

    def deliver_and_rerun(node_id, pkt, trail):
        deliver(node_id, pkt, trail)
        overlay.run()

    monkeypatch.setattr(overlay, "_app_data", deliver_and_rerun)
    with pytest.raises(RuntimeError, match="draining"):
        overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    monkeypatch.undo()
    overlay.run()  # the refusal leaves the loop callable again
    body, _ = overlay.fetch_resource(consumer, parse_name(APP_URI), scope=3)
    assert body["uri"] == APP_URI


# ===== qos monitoring =====


def test_qos_clean_path_metrics():
    system, overlay, consumer, relays, producer = _chain(n_relays=2)
    path = [consumer, *relays, producer.node_id]
    metrics = overlay.qos_monitor(path)
    assert metrics.loss_ratio == 0.0
    assert metrics.mean_delay_ms == pytest.approx(15.0)  # 3 links x 5 ms
    assert metrics.throughput == pytest.approx(100.0)
    assert [r.msg_type for r in system.log].count("probe") == PROBE_COUNT


def test_qos_throughput_is_bottleneck_capacity():
    system = M2mSystem()
    a = system.add_scl(SclKind.GSCL, "A")
    b = system.add_scl(SclKind.GSCL, "B")
    c = system.add_scl(SclKind.GSCL, "C")
    overlay = Overlay(system, seed=0)
    for scl in (a, b, c):
        overlay.add_node(scl)
    overlay.add_link("A", "B", LinkMetrics(capacity=50.0))
    overlay.add_link("B", "C", LinkMetrics(capacity=8.0))
    metrics = overlay.qos_monitor(["A", "B", "C"])
    assert metrics.throughput == pytest.approx(8.0)


def test_qos_total_loss_leaves_delay_undefined():
    system = M2mSystem()
    a = system.add_scl(SclKind.GSCL, "A")
    b = system.add_scl(SclKind.GSCL, "B")
    overlay = Overlay(system, seed=0)
    overlay.add_node(a)
    overlay.add_node(b)
    overlay.add_link("A", "B", LinkMetrics(loss=1.0))
    metrics = overlay.qos_monitor(["A", "B"])
    assert metrics.loss_ratio == 1.0
    assert metrics.mean_delay_ms is None


def test_qos_loss_matches_per_link_survival_product(monkeypatch):
    # survival through loss 0.1 then 0.2 is 0.9 * 0.8 = 0.72
    system = M2mSystem()
    a = system.add_scl(SclKind.GSCL, "A")
    b = system.add_scl(SclKind.GSCL, "B")
    c = system.add_scl(SclKind.GSCL, "C")
    overlay = Overlay(system, seed=42)
    for scl in (a, b, c):
        overlay.add_node(scl)
    overlay.add_link("A", "B", LinkMetrics(loss=0.1))
    overlay.add_link("B", "C", LinkMetrics(loss=0.2))
    monkeypatch.setattr("oscl_sim.overlay.PROBE_COUNT", 100_000)
    metrics = overlay.qos_monitor(["A", "B", "C"])
    assert metrics.loss_ratio == pytest.approx(0.28, abs=0.01)


def test_qos_broken_path_and_bad_args():
    _, overlay, consumer, _, producer = _chain(n_relays=1)
    with pytest.raises(BrokenPath):
        overlay.qos_monitor([consumer, producer.node_id])
    with pytest.raises(BrokenPath):
        overlay.qos_monitor([consumer, "Ghost"])
    with pytest.raises(BrokenPath):
        overlay.qos_monitor(["Ghost", consumer])
    with pytest.raises(BrokenPath):  # the application face is no link
        overlay.qos_monitor([consumer, APP_FACE])


def test_qos_probes_never_touch_counters():
    system, overlay, consumer, relays, producer = _chain(n_relays=2)
    overlay.qos_monitor([consumer, *relays, producer.node_id])
    assert system.counters.total(msg_type="probe") == 0
    assert sum(1 for r in system.log if r.msg_type == "probe") == PROBE_COUNT


# ===== ensure_link =====


def test_ensure_link_after_fallback_enables_distributed_discovery():
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

    first = overlay.discover(consumer.node_id, parse_name(APP_URI), scope=3)
    assert first.method == "centralized"
    decision = overlay.ensure_link(consumer.node_id, first)
    assert decision is True
    assert _edge_count(system) == 1
    # link_up is logged but not billed
    assert sum(1 for r in system.log if r.msg_type == "link_up") == 1
    assert system.counters.total(msg_type="link_up") == 0

    second = overlay.discover(consumer.node_id, parse_name(APP_URI), scope=3)
    assert second.method == "distributed"
    assert second.path == (consumer.node_id, producer.node_id)
    assert overlay.ensure_link(consumer.node_id, second) is False
    assert _edge_count(system) == 1


@pytest.mark.parametrize(
    "hops, decision",
    [(MAX_PATH_HOPS, False), (MAX_PATH_HOPS + 1, True)],
    ids=["3-hops-reused", "4-hops-new-link"],
)
def test_ensure_link_path_hop_boundary(hops, decision):
    system, overlay, consumer, _, _ = _chain(n_relays=hops - 1)
    result = overlay.distributed_discover(consumer, parse_name(APP_URI), scope=hops)
    assert result.path_hops == hops
    assert overlay.ensure_link(consumer, result) is decision
    assert _edge_count(system) == hops + decision


def test_ensure_link_triggered_by_bad_metrics():
    _, overlay, consumer, _, _ = _chain(n_relays=2)
    result = overlay.distributed_discover(consumer, parse_name(APP_URI), scope=3)
    bad = QosMetrics(loss_ratio=0.5, mean_delay_ms=10.0, throughput=100.0)
    assert overlay.ensure_link(consumer, result, bad) is True


def test_ensure_link_self_result_is_noop():
    _, overlay, _, _, producer = _chain()
    result = overlay.distributed_discover(producer.node_id, parse_name(APP_URI), scope=3)
    assert overlay.ensure_link(producer.node_id, result) is False


# ===== p2p subscription =====


def test_p2p_subscribe_delivers_future_instances():
    system, overlay, consumer, relays, producer = _chain(n_relays=2, instances=0)
    container = parse_name(CONTAINER_URI)
    overlay.p2p_subscribe(consumer, container, expected_notifications=3)
    assert len(_hooks(producer)) == 1
    for i in range(3):
        create_content_instance(producer, "meter_app", "meter_data", f"reading-{i}")
    path = [producer.node_id, *reversed(relays), consumer]
    assert [trail for _, trail in overlay.answers(consumer, container)] == [path] * 3
    got = overlay.notifications(consumer, container)
    assert [(g["value"], g["index"]) for g in got] == [
        ("reading-0", 0),
        ("reading-1", 1),
        ("reading-2", 2),
    ]
    # budget exhausted: one more append delivers nothing, and the hook goes
    create_content_instance(producer, "meter_app", "meter_data", "reading-3")
    assert len(overlay.notifications(consumer, container)) == 3
    assert _hooks(producer) == []
    assert system.counters.get(consumer, "data", "received") == 3
    assert system.counters.get("Nscl", "notify", "relayed") == 0


def test_p2p_subscription_stops_at_budget():
    _, overlay, consumer, _, producer = _chain(instances=0)
    container = parse_name(CONTAINER_URI)
    overlay.p2p_subscribe(consumer, container, expected_notifications=2)
    for i in range(4):
        create_content_instance(producer, "meter_app", "meter_data", f"v{i}")
    assert len(overlay.notifications(consumer, container)) == 2


def test_p2p_subscribe_without_route_raises():
    system = M2mSystem()
    producer = system.add_scl(SclKind.GSCL, "Gscl1")
    consumer = system.add_scl(SclKind.DSCL, "Dscl1")
    create_application(producer, "meter_app")
    create_container(producer, "meter_app", "meter_data")
    overlay = Overlay(system, seed=0)
    overlay.add_node(producer)
    overlay.add_node(consumer)
    with pytest.raises(NoPath):
        overlay.p2p_subscribe(consumer.node_id, parse_name(CONTAINER_URI), 1)


@pytest.mark.parametrize("op", ["fetch", "discover"])
def test_container_interest_is_answered_not_subscribed(op):
    _, overlay, consumer, _, producer = _chain(n_relays=1, instances=0)
    container = parse_name(CONTAINER_URI)
    if op == "fetch":
        body, _ = overlay.fetch_resource(consumer, container, scope=3)
        answer = (body["uri"], body["locator"])
    else:
        result = overlay.distributed_discover(consumer, container, scope=3)
        answer = (result.uri, result.locator)
    assert answer == (CONTAINER_URI, producer.locator)
    assert overlay._subs == {}
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    assert overlay.notifications(consumer, container) == []


def test_p2p_subscribe_own_container_is_local():
    system, overlay, _, _, producer = _chain(instances=0)
    container = parse_name(CONTAINER_URI)
    before = len(system.log)
    overlay.p2p_subscribe(producer.node_id, container, expected_notifications=1)
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    assert len(system.log) == before  # nothing crossed the wire
    assert overlay.notifications(producer.node_id, container)[0]["value"] == "v0"
    create_content_instance(producer, "meter_app", "meter_data", "v1")
    assert len(overlay.notifications(producer.node_id, container)) == 1
    assert _hooks(producer) == []


# ===== a node's own names: one path with its remote requests =====


def test_local_requests_are_counted_and_cached_at_the_node():
    system, overlay, _, _, producer = _chain(instances=1)
    node, container = producer.node_id, parse_name(CONTAINER_URI)
    before = len(system.log)
    body, trail = overlay.fetch_resource(node, parse_name(INSTANCE_URI), scope=3)
    assert (body["value"], trail) == ("v0", [node])
    overlay.p2p_subscribe(node, container, expected_notifications=1)
    create_content_instance(producer, "meter_app", "meter_data", "v1")
    assert [n["value"] for n in overlay.notifications(node, container)] == ["v1"]
    c = system.counters
    for kind in ("interest", "data"):
        assert c.get(node, kind, "originated") == c.get(node, kind, "received") == 2
    assert c.total("interest") + c.total("data") == 8
    assert len(system.log) == before  # nothing crossed a link
    # each Interest carried a fresh nonce, and each answer sits in the node's store
    assert len(producer.ndn.seen_nonces) == 2
    assert producer.ndn.cs.lookup(parse_name(INSTANCE_URI), system.clock_ms) is not None
    assert producer.ndn.cs.lookup(container, system.clock_ms) is not None


def test_local_subscription_lapses_with_its_pending_entry():
    system, overlay, _, _, producer = _chain(instances=0)
    node, container = producer.node_id, parse_name(CONTAINER_URI)
    overlay.p2p_subscribe(node, container, expected_notifications=2)
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    system.clock_ms += DEFAULT_PIT_LIFETIME_MS
    create_content_instance(producer, "meter_app", "meter_data", "v1")
    assert [n["value"] for n in overlay.notifications(node, container)] == ["v0"]
    # the lapsed entry was the subscription: nothing sent into it, no hook left
    assert list(overlay.drops) == []
    assert _hooks(producer) == []
    assert system.counters.get(node, "data", "originated") == 1


def test_renewed_subscription_delivers_each_reading_once():
    """A subscription renewed once the first one's pending entry has
    lapsed, and its notification has gone stale in the consumer's store,
    is the new entry alone: the old hook stands down rather than feed
    the new entry a second copy of every reading."""
    system, overlay, consumer, _, producer = _chain(n_relays=0, instances=0)
    container = parse_name(CONTAINER_URI)
    overlay.p2p_subscribe(consumer, container, 10)
    create_content_instance(producer, "meter_app", "meter_data", "v0")
    system.clock_ms += max(DEFAULT_PIT_LIFETIME_MS, DEFAULT_FRESHNESS_MS)
    overlay.p2p_subscribe(consumer, container, 10)
    for value in ("v1", "v2"):
        create_content_instance(producer, "meter_app", "meter_data", value)
    assert [n["index"] for n in overlay.notifications(consumer, container)] == [1, 2]
    assert len(_hooks(producer)) == 1
    assert system.counters.get(producer.node_id, "data", "originated") == 3


@pytest.mark.parametrize("origin", ["Gscl1", "Dscl1"], ids=["local", "remote"])
def test_negative_scope_raises_for_every_origin(origin):
    _, overlay, _, _, _ = _chain()
    with pytest.raises(ValueError):
        overlay.fetch_resource(origin, parse_name(INSTANCE_URI), scope=-1)


@pytest.mark.parametrize("origin", ["Gscl1", "Dscl1"], ids=["local", "remote"])
def test_unknown_name_under_a_known_prefix_gets_no_answer(origin):
    _, overlay, _, _, _ = _chain()
    assert overlay.fetch_resource(origin, parse_name(APP_URI + "_x"), scope=3) is None
    with pytest.raises(NoPath):
        overlay.p2p_subscribe(origin, parse_name(CONTAINER_URI + "_x"), 1)


@pytest.mark.parametrize("owner", ["Gscl7", "Gscl1"], ids=["local", "remote"])
def test_requests_from_an_scl_off_the_overlay_raise(owner):
    system, overlay, _, _, _ = _chain()
    stray = system.add_scl(SclKind.GSCL, "Gscl7")
    create_application(stray, "meter_app")
    create_container(stray, "meter_app", "meter_data")
    container = parse_name(f"{owner}/applications/meter_app/containers/meter_data")
    with pytest.raises(UnknownNode):
        overlay.fetch_resource(stray.node_id, container, scope=3)
    with pytest.raises(UnknownNode):
        overlay.p2p_subscribe(stray.node_id, container, 1)
    assert overlay._subs == {}


# ===== names from the caller =====


def _name_run(spell):
    """An overlay discovery, a fetch, a subscription, an append and a
    discovery only the hub answers, on a fresh chain, each name written
    by ``spell``; returns the results and everything the run leaves."""
    system, overlay, consumer, _, producer = _chain(instances=1)
    results = [
        overlay.discover(consumer, spell(APP_URI), scope=3),
        overlay.fetch_resource(consumer, spell(INSTANCE_URI), scope=3),
    ]
    overlay.p2p_subscribe(consumer, spell(CONTAINER_URI), 2)
    create_content_instance(producer, "meter_app", "meter_data", "v1")
    results.append(overlay.notifications(consumer, spell(CONTAINER_URI)))
    results.append(overlay.discover(consumer, spell("meter_app"), scope=3))
    return results, list(system.log.rows()), system.counters.rows(), list(overlay.drops)


def test_a_leading_slash_name_runs_as_its_canonical_text():
    canonical = _name_run(lambda uri: uri)
    assert _name_run(lambda uri: "/" + uri) == canonical
    found, fetched, notes, fallback = canonical[0]
    assert (found.method, found.uri) == ("distributed", APP_URI)
    assert fetched[0]["uri"] == INSTANCE_URI
    assert [note["value"] for note in notes] == ["v1"]
    assert (fallback.method, fallback.uri) == ("centralized", APP_URI)


@pytest.mark.parametrize("bad", ["a//b", "", "/", b"Gscl1/applications/meter_app"])
@pytest.mark.parametrize("op", ["discover", "fetch", "subscribe"])
def test_a_request_for_no_name_raises_invalid_name_and_sends_nothing(op, bad):
    system, overlay, consumer, _, _ = _chain()
    requests = {
        "discover": lambda: overlay.discover(consumer, bad, scope=3),
        "fetch": lambda: overlay.fetch_resource(consumer, bad, scope=3),
        "subscribe": lambda: overlay.p2p_subscribe(consumer, bad, 1),
    }
    before = len(system.log)
    with pytest.raises(InvalidName):
        requests[op]()
    assert len(system.log) == before


# ===== conservation =====


def test_overlay_counter_conservation_on_chain_flows():
    system, overlay, consumer, _, producer = _chain(n_relays=2, instances=1)
    overlay.distributed_discover(consumer, parse_name(APP_URI), scope=3)
    overlay.fetch_resource(consumer, parse_name(INSTANCE_URI), scope=3)
    overlay.p2p_subscribe(consumer, parse_name(CONTAINER_URI), 2)
    create_content_instance(producer, "meter_app", "meter_data", "v1")
    create_content_instance(producer, "meter_app", "meter_data", "v2")
    c = system.counters
    assert c.total(role="originated") == c.total(role="received") + c.total(role="dropped")


def test_relay_counts_every_link_face_lost_copies_included():
    # R floods O's Interest on to K over a clean link and to L1 and L2
    # over links that lose everything: three relayed copies, two of them
    # lost on the way, each lost copy one "loss" drop at R
    system, overlay = _unlinked("O", "R", "K", "L1", "L2")
    overlay.add_link("O", "R")
    for far, loss in (("L1", 1.0), ("K", 0.0), ("L2", 1.0)):
        overlay.add_link("R", far, LinkMetrics(loss=loss))
    name = parse_name("Nobody/applications/x")
    assert overlay.fetch_resource("O", name, scope=3) is None
    c = system.counters
    assert c.get("O", "interest", "originated") == 1
    assert c.get("O", "interest", "relayed") == 0
    assert c.get("R", "interest", "relayed") == 3
    assert c.get("R", "interest", "dropped") == 2
    assert list(overlay.drops) == [
        ("R", "loss", name),
        ("R", "loss", name),
        ("K", "no-route", name),  # K's only link leads back
    ]
    assert [(r.src, r.dst) for r in system.log] == [("O", "R"), ("R", "K")]


MAX_NODES = 7


@st.composite
def _random_overlay_runs(draw, delays=(0.0, 0.5, 1.0, 3.0), losses=(0.0, 0.0, 0.3, 1.0), race=True):
    """A random connected overlay (a random tree plus extra links) with
    link delays and losses drawn from ``delays`` and ``losses``, and a
    mix of operations on it: discover, fetch, subscribe and, if ``race``,
    fetches by several consumers drained together."""
    n = draw(st.integers(2, MAX_NODES))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    delay_ms, loss = st.sampled_from(delays), st.sampled_from(losses)
    links = [(u, v, draw(delay_ms), draw(loss)) for u, v in sorted(edges)]
    node = st.integers(0, n - 1)
    scope = st.integers(0, 4)
    ops = [
        st.tuples(st.just("discover"), node, st.integers(0, n), scope),  # index n: no owner
        st.tuples(st.just("fetch"), node, node, scope),
        st.tuples(st.just("subscribe"), node, node, st.integers(1, 3), st.integers(0, 4)),
    ]
    if race:
        consumers = st.lists(node, min_size=1, max_size=3, unique=True)
        ops.append(st.tuples(st.just("race"), consumers, node, scope))
    ops = draw(st.lists(st.one_of(ops), min_size=1, max_size=8))
    return n, links, ops, draw(st.integers(0, 2**16))


def _random_overlay(n, links, seed, cls=Overlay):
    """(system, overlay, nscl, ids) for a ``_random_overlay_runs`` draw:
    gateways N0..N{n-1}, each with one application, container and
    instance, all registered to an NSCL that sits on no overlay link."""
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, "Nscl")
    overlay = cls(system, seed=seed)
    ids = [f"N{i}" for i in range(n)]
    for i, node_id in enumerate(ids):
        scl = system.add_scl(SclKind.GSCL, node_id)
        register_scl(scl, nscl)
        create_application(scl, f"app{i}")
        create_container(scl, f"app{i}", "data")
        create_content_instance(scl, f"app{i}", "data", "v")
        overlay.add_node(scl)
    for u, v, delay_ms, loss in links:
        overlay.add_link(ids[u], ids[v], LinkMetrics(delay_ms=delay_ms, loss=loss))
    return system, overlay, nscl, ids


@given(_random_overlay_runs())
def test_counter_semantics_hold_on_random_overlays(run):
    """The module docstring's counter semantics, checked after every
    operation: every dropped count has its entry in ``overlay.drops``,
    the log's clock never runs backwards, and every Data a node's
    application received sits in its inbox, or was handed back by the
    discover/fetch/subscribe call that consumed it. Copies are conserved
    on links: a node sends a copy over a link as one arrival row in the
    log or one ``loss`` drop, and a node that originated nothing sent
    exactly the copies it counts as relayed (an origin sends more).
    """
    n, links, ops, seed = run
    system, overlay, nscl, ids = _random_overlay(n, links, seed)

    def app(t):
        return parse_name(f"N{t}/applications/app{t}")

    def container(t):
        return f"{app(t)}/containers/data"

    def instance(t):
        return f"{container(t)}/content_instances/latest"

    names = [f(t) for t in range(n + 1) for f in (app, container, instance)]
    consumed = Counter()  # Data rows handed back to callers, per node

    def received(node):
        return system.counters.get(node, "data", "received")

    def inbox(node):
        return sum(len(overlay.answers(node, name)) for name in names)

    def unaccounted(node):
        return received(node) - inbox(node) - consumed[node]

    def check(requester=None, answered=None):
        """``requester`` ran one request whose answers its call consumed;
        ``answered`` says whether the call returned an overlay answer."""
        for node in ids:
            if node != requester:
                assert unaccounted(node) == 0, node
        if requester is not None:
            gained = unaccounted(requester)
            assert gained >= 0
            if answered is not None:
                assert (gained > 0) == answered
            consumed[requester] += gained
        dropped = Counter()
        for node, _, role, count in system.counters.rows():
            if role == "dropped":
                dropped[node] += count
        assert dropped == Counter(node for node, _, _ in overlay.drops)
        times = [rec.time_ms for rec in system.log]
        assert times == sorted(times)
        sent = Counter(rec.src for rec in system.log if rec.msg_type in ("interest", "data"))
        sent.update(node for node, reason, _ in overlay.drops if reason == "loss")
        for node in ids:
            relayed, originated = (
                sum(system.counters.get(node, kind, role) for kind in ("interest", "data"))
                for role in ("relayed", "originated")
            )
            assert relayed <= sent[node], (node, relayed, sent[node])
            assert originated or relayed == sent[node], (node, relayed, sent[node])

    for op in ops:
        kind = op[0]
        if kind == "race":
            _, consumers, t, hops = op
            for c in consumers:
                _begin_fetch(overlay, ids[c], instance(t), hops)
            overlay.run()
            check()
            continue
        origin, t = ids[op[1]], op[2]
        name = {"discover": app, "fetch": instance, "subscribe": container}[kind](t)
        # the call first clears what the origin's inbox holds for the name
        consumed[origin] += len(overlay.answers(origin, name))
        if kind == "discover":
            try:
                result = overlay.discover(origin, name, op[3], nscl)
            except NotFound:
                result = None
            check(origin, result is not None and result.method == "distributed")
        elif kind == "fetch":
            result = overlay.fetch_resource(origin, name, op[3])
            check(origin, result is not None)
        else:
            _, _, _, expected, appends = op
            try:
                overlay.p2p_subscribe(origin, name, expected)
            except NoPath:
                pass
            check(origin)
            for k in range(appends):
                create_content_instance(system.scl(ids[t]), f"app{t}", "data", f"r{k}")
                check()


def _logged_requests(run):
    """Run a ``_random_overlay_runs`` draw; returns its system, the
    overlay's hop distances (node -> node -> hops, by BFS) and, per
    operation, the nodes that sent its Interests, their scope and the
    log rows the operation added, read as one slice."""
    n, links, ops, seed = run
    system, overlay, nscl, ids = _random_overlay(n, links, seed)
    neighbours = {node: set() for node in ids}
    for u, v, _, _ in links:
        neighbours[ids[u]].add(ids[v])
        neighbours[ids[v]].add(ids[u])
    hops = {}
    for source in ids:
        hops[source] = dist = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in neighbours[u] - dist.keys():
                    dist[w] = dist[u] + 1
                    reached.append(w)
            frontier = reached
    requests = []
    for op in ops:
        kind, t, before = op[0], op[2], len(system.log)
        app = f"N{t}/applications/app{t}"
        instance = f"{app}/containers/data/content_instances/latest"
        if kind == "race":
            _, consumers, _, scope = op
            for c in consumers:
                _begin_fetch(overlay, ids[c], instance, scope)
            overlay.run()
            origins = [ids[c] for c in consumers]
        else:
            origins = [ids[op[1]]]
            if kind == "discover":
                scope = op[3]
                try:
                    overlay.discover(origins[0], app, scope, nscl)
                except NotFound:
                    pass
            elif kind == "fetch":
                scope = op[3]
                overlay.fetch_resource(origins[0], instance, scope)
            else:
                scope = DEFAULT_SUBSCRIBE_SCOPE
                try:
                    overlay.p2p_subscribe(origins[0], f"{app}/containers/data", op[3])
                except NoPath:
                    pass
                for k in range(op[4]):
                    create_content_instance(system.scl(ids[t]), f"app{t}", "data", f"r{k}")
        requests.append((origins, scope, system.log[before:]))
    return system, hops, requests


@given(_random_overlay_runs())
def test_every_data_row_retraces_an_interest_row(run):
    """Flow balance: a Data copy crosses a link u -> v only after an
    Interest for its name crossed v -> u, read from the log alone; a
    flood's copies are stored as one grouped row and read back here one
    row per copy."""
    system, _, _ = _logged_requests(run)
    crossed = set()
    for rec in system.log:
        if rec.msg_type == "interest":
            crossed.add((rec.src, rec.dst, rec.name))
        elif rec.msg_type == "data":
            assert (rec.dst, rec.src, rec.name) in crossed, rec


@given(_random_overlay_runs())
def test_interests_stay_within_their_scope(run):
    """Scope: within the log slice of one operation, every node that an
    Interest row reaches is at most ``scope`` hops, by BFS, from one of
    the operation's origins."""
    _, hops, requests = _logged_requests(run)
    for origins, scope, rows in requests:
        for rec in rows:
            if rec.msg_type == "interest":
                assert min(hops[o].get(rec.dst, math.inf) for o in origins) <= scope, rec


# ===== event queue =====


class _PerCopyOverlay(Overlay):
    """Reference queue: one entry ``(u, v, packet, trail)`` per link
    copy, run as the event loop ran before a send's copies were grouped
    into one entry per due time. Everything else is the real Overlay."""

    def run(self):
        if self._running:
            raise RuntimeError("Overlay.run called while the event queue is draining")
        system, nodes = self.system, self._nodes
        record = system.counters.record
        self._running = True
        try:
            while self._times:
                at = heapq.heappop(self._times)
                if at > system.clock_ms:
                    system.clock_ms = at
                now = system.clock_ms
                for u, v, pkt, trail in self._events.pop(at):
                    if type(pkt) is InterestPacket:
                        kind, handler = "interest", on_interest
                    else:
                        kind, handler = "data", on_data
                    system.log.extend((now, u, v, "", kind, pkt.name))
                    emissions = handler(nodes[v], pkt, u, now)
                    if not emissions or type(emissions[0]) is Drop:
                        record(v, kind, "dropped")
                        reason = emissions[0].reason if emissions else "aggregated"
                        self.drops.extend((v, reason, pkt.name))
                    else:
                        self._handle(v, kind, pkt, trail + (v,), emissions)
        finally:
            self._running = False

    def _handle(self, at_node, kind, pkt, trail, emissions):
        record = self.system.counters.record
        if not emissions or type(emissions[0]) is Drop:
            record(at_node, kind, "dropped")
            reason = emissions[0].reason if emissions else "aggregated"
            self.drops.extend((at_node, reason, pkt.name))
            return
        send = emissions[0]
        out, faces = send.packet, send.faces
        if type(send) is SendInterest:
            out_kind = "interest"
        else:
            out_kind = "data"
            if kind == "interest":  # Content Store hit
                record(at_node, "interest", "received")
                record(at_node, "data", "originated")
                trail = (at_node,)
        if at_node != trail[0]:
            link_faces = len(faces) - (APP_FACE in faces)
            if link_faces:
                record(at_node, out_kind, "relayed", link_faces)
        links = self._nodes[at_node].faces
        for face in faces:
            if face == APP_FACE:
                record(at_node, out_kind, "received")
                if out_kind == "interest":
                    self._app_interest(at_node, out, trail)
                else:
                    self._app_data(at_node, out, trail)
                continue
            link = links[face]
            if link.loss > 0.0 and self.rng.random() < link.loss:
                record(at_node, out_kind, "dropped")
                self.drops.extend((at_node, "loss", out.name))
                continue
            at = self.system.clock_ms + link.delay_ms
            if at not in self._events:
                self._events[at] = []
                heapq.heappush(self._times, at)
            self._events[at].append((at_node, face, out, trail))


def _queue_state(overlay):
    system = overlay.system
    inbox = {key: [(p.payload, trail) for p, trail in rows] for key, rows in overlay._inbox.items()}
    return (list(system.log.rows()), list(system.counters.rows()), list(overlay.drops), inbox,
            system.clock_ms)


@given(_random_overlay_runs(delays=(0.0, 1.0, 5.0), losses=(0.0, 0.3), race=False))
def test_grouped_queue_matches_the_per_copy_queue(run):
    """One entry per send and due time replays, step for step, the queue
    that held one entry per copy: the same returns, log rows, counter
    rows, drops, inbox answers and clock after every discover, fetch and
    subscribe, on one seed."""
    n, links, ops, seed = run
    sides = [_random_overlay(n, links, seed, cls)[1:3] for cls in (Overlay, _PerCopyOverlay)]

    def apply(overlay, nscl, op):
        """What the operation returned or raised."""
        kind, origin, t = op[0], f"N{op[1]}", op[2]
        app = parse_name(f"N{t}/applications/app{t}")
        container = f"{app}/containers/data"
        instance = f"{container}/content_instances/latest"
        try:
            if kind == "discover":
                return overlay.discover(origin, app, op[3], nscl)
            if kind == "fetch":
                return overlay.fetch_resource(origin, instance, op[3])
            overlay.p2p_subscribe(origin, container, op[3])
        except (NotFound, NoPath) as exc:
            return type(exc).__name__
        for k in range(op[4]):
            create_content_instance(overlay.system.scl(f"N{t}"), f"app{t}", "data", f"r{k}")
        return overlay.notifications(origin, container)

    for op in ops:
        got, want = (apply(overlay, nscl, op) for overlay, nscl in sides)
        assert got == want, op
        assert _queue_state(sides[0][0]) == _queue_state(sides[1][0]), op


def test_a_request_files_one_nonce_key_per_hop_level():
    """Every forwarder at one hop of a flood sends the same packet, so
    the nonce sets of a 10-node mesh hold at most ``scope`` + 1 distinct
    key objects for one request, however many forwarders it reached."""
    system, overlay = _unlinked(*(f"N{i}" for i in range(10)))
    rng = random.Random(3)
    links = {frozenset((i, (i + 1) % 10)) for i in range(10)}  # a ring, then chords
    while len(links) < 20:
        links.add(frozenset(rng.sample(range(10), 2)))
    for u, v in sorted(sorted(link) for link in links):
        overlay.add_link(f"N{u}", f"N{v}")
    name, scope = parse_name("Nobody/applications/x"), 3
    assert overlay.fetch_resource("N0", name, scope) is None
    keys = [
        key for scl in system.scls.values() for key in scl.ndn.seen_nonces if key[0] == name
    ]
    assert len(keys) == 10  # the flood reached every forwarder once
    assert len({id(key) for key in keys}) <= scope + 1


# ===== memory =====


def test_flood_log_adds_nothing_the_collector_walks():
    """A flood's log rows are no GC-tracked objects: after 100 seeded
    discoveries on a 24-node mesh, the tracked objects left behind (the
    pending PIT entries, mostly) number about 0.37 per added log row.
    A log that kept one tracked record per row reads about 1.37."""
    rng = random.Random(7)
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, "Nscl")
    overlay = Overlay(system, seed=7)
    ids = [f"N{i}" for i in range(24)]
    for i, node_id in enumerate(ids):
        scl = system.add_scl(SclKind.GSCL, node_id)
        register_scl(scl, nscl)
        create_application(scl, f"app{i}")
        create_container(scl, f"app{i}", "data")
        overlay.add_node(scl)
    links = {frozenset((i, (i + 1) % 24)) for i in range(24)}  # a ring, then chords
    while len(links) < 72:
        links.add(frozenset(rng.sample(range(24), 2)))
    for u, v in sorted(sorted(link) for link in links):
        overlay.add_link(ids[u], ids[v])

    gc.collect()
    tracked, rows = len(gc.get_objects()), len(system.log)
    for _ in range(100):
        t = rng.randrange(24)
        overlay.discover(ids[rng.randrange(24)], parse_name(f"N{t}/applications/app{t}"), 4, nscl)
    gc.collect()
    added = len(system.log) - rows
    assert added > 2000  # a real flood
    assert len(gc.get_objects()) - tracked < 0.75 * added
