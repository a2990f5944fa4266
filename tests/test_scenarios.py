import pytest

from oscl_sim.names import parse_name
from oscl_sim.overlay import LinkDecision
from oscl_sim.scenarios import CONTAINER, NSCL_ID, SUBSCRIBER_ID, ScenarioConfig, run_scenario
from oscl_sim.scl import create_content_instance

ALL_VARIANTS = [
    ("usecase1", True),
    ("usecase1", False),
    ("usecase2", True),
    ("usecase2", False),
]


def _nscl_relayed(system, msg_type=None):
    return sum(
        count
        for node, mtype, role, count in system.counters.rows()
        if node == NSCL_ID and role == "relayed" and (msg_type is None or mtype == msg_type)
    )


def _edge_count(system):
    # every forwarder has one face per link
    return sum(len(scl.ndn.faces) for scl in system.scls.values()) // 2


# ===== single gateway =====


def test_usecase1_overlay_path():
    r = run_scenario(ScenarioConfig("usecase1", appends=4))
    assert r.discovery.method == "centralized"  # no links yet, hub answers
    assert r.qos is None
    assert r.link_decision is LinkDecision.NEW_LINK
    assert r.new_links == 1
    # budget spent: one more append delivers nothing, and the hook goes
    producer = r.system.scl("Gscl1")
    create_content_instance(producer, "meter_app", CONTAINER, "extra")
    assert producer.applications["meter_app"][CONTAINER].subscriptions == []

    got = r.overlay.answers(SUBSCRIBER_ID, parse_name(r.container_uri))
    assert [g["value"] for g, _ in got] == [f"reading-{i}" for i in range(4)]
    assert all(trail == ["Gscl1", SUBSCRIBER_ID] for _, trail in got)  # the new direct link
    # notifications ride the direct link, never the hub
    assert _nscl_relayed(r.system, "notify") == 0
    assert r.system.counters.get(SUBSCRIBER_ID, "data", "received") == 4


def test_usecase1_baseline_routes_through_hub():
    r = run_scenario(ScenarioConfig("usecase1", oscl_enabled=False, appends=4))
    assert r.discovery.method == "centralized"
    assert r.link_decision is None
    assert _edge_count(r.system) == 0
    assert _nscl_relayed(r.system, "notify") == 4
    assert r.system.counters.get(SUBSCRIBER_ID, "notify", "received") == 4
    assert r.system.counters.get("Gscl1", "notify", "originated") == 4


# ===== multi gateway chain =====


def test_usecase2_overlay_reuses_existing_chain():
    r = run_scenario(ScenarioConfig("usecase2", appends=5))
    assert r.discovery.method == "distributed"
    assert r.discovery.path == (SUBSCRIBER_ID, "Gscl3", "Gscl2", "Gscl1")
    assert r.discovery.path_hops == 3
    assert r.qos is not None
    assert r.qos.loss_ratio == 0.0
    assert r.qos.mean_delay_ms == pytest.approx(15.0)
    assert r.qos.throughput == pytest.approx(100.0)
    assert r.link_decision is LinkDecision.REUSED_PATH
    assert r.new_links == 0
    assert _edge_count(r.system) == 3

    got = r.overlay.notifications(SUBSCRIBER_ID, parse_name(r.container_uri))
    assert [g["index"] for g in got] == list(range(5))
    assert _nscl_relayed(r.system, "notify") == 0


def test_usecase2_baseline_routes_through_hub():
    r = run_scenario(ScenarioConfig("usecase2", oscl_enabled=False, appends=5))
    assert r.discovery.method == "centralized"
    assert _nscl_relayed(r.system, "notify") == 5
    assert r.system.counters.get(SUBSCRIBER_ID, "notify", "received") == 5


def test_usecase2_interest_walks_the_chain():
    r = run_scenario(ScenarioConfig("usecase2", appends=1))
    hops = [
        (row.src, row.dst)
        for row in r.system.log
        if row.msg_type == "interest" and row.name.endswith("meter_data")
    ]
    want = [(SUBSCRIBER_ID, "Gscl3"), ("Gscl3", "Gscl2"), ("Gscl2", "Gscl1")]
    assert hops[: len(want)] == want
    data_hops = [
        (row.src, row.dst)
        for row in r.system.log
        if row.msg_type == "data" and row.name.endswith("meter_data")
    ]
    assert data_hops[:3] == [(u, v) for v, u in reversed(want)]


# ===== hub offload =====


@pytest.mark.parametrize("scenario", ["usecase1", "usecase2"])
def test_overlay_never_adds_hub_relaying(scenario):
    on = run_scenario(ScenarioConfig(scenario, appends=5))
    off = run_scenario(ScenarioConfig(scenario, oscl_enabled=False, appends=5))
    msg_types = {
        mtype
        for r in (on, off)
        for node, mtype, role, _ in r.system.counters.rows()
        if node == NSCL_ID and role == "relayed"
    }
    for mtype in msg_types:
        assert _nscl_relayed(on.system, mtype) <= _nscl_relayed(off.system, mtype)
    assert _nscl_relayed(on.system, "notify") < _nscl_relayed(off.system, "notify")


@pytest.mark.parametrize("scenario,oscl", ALL_VARIANTS)
def test_counter_conservation(scenario, oscl):
    r = run_scenario(ScenarioConfig(scenario, oscl_enabled=oscl, appends=3))
    c = r.system.counters
    assert c.total(role="originated") == c.total(role="received") + c.total(role="dropped")


@pytest.mark.parametrize("scenario,oscl", ALL_VARIANTS)
def test_scenarios_are_deterministic(scenario, oscl):
    a = run_scenario(ScenarioConfig(scenario, oscl_enabled=oscl, appends=2, seed=7))
    b = run_scenario(ScenarioConfig(scenario, oscl_enabled=oscl, appends=2, seed=7))
    assert a.system.counters.rows() == b.system.counters.rows()
    assert [
        (x.time_ms, x.src, x.dst, x.relayer, x.msg_type, x.name) for x in a.system.log
    ] == [(x.time_ms, x.src, x.dst, x.relayer, x.msg_type, x.name) for x in b.system.log]


# ===== custom links =====


def test_usecase1_custom_direct_link_is_reused():
    config = ScenarioConfig(
        "usecase1", links=((SUBSCRIBER_ID, "Gscl1", 5.0, 0.0, 100.0),)
    )
    r = run_scenario(config)
    # a bare application name is an attribute search, which is the hub's
    # job either way; the existing link just spares a second edge
    assert r.discovery.method == "centralized"
    assert r.link_decision is LinkDecision.REUSED_PATH
    assert r.new_links == 0
    assert _edge_count(r.system) == 1
    got = r.overlay.notifications(SUBSCRIBER_ID, parse_name(r.container_uri))
    assert len(got) == 5
    assert _nscl_relayed(r.system, "notify") == 0


def test_usecase2_custom_links_replace_chain():
    # star through Gscl2 instead of the default three-hop chain
    config = ScenarioConfig(
        "usecase2",
        links=(
            (SUBSCRIBER_ID, "Gscl2", 2.0, 0.0, 10.0),
            ("Gscl2", "Gscl1", 2.0, 0.0, 10.0),
        ),
    )
    r = run_scenario(config)
    assert r.discovery.method == "distributed"
    assert r.discovery.path == (SUBSCRIBER_ID, "Gscl2", "Gscl1")
    assert r.qos.mean_delay_ms == pytest.approx(4.0)
    assert r.qos.throughput == pytest.approx(10.0)
    assert r.link_decision is LinkDecision.REUSED_PATH


# ===== configuration =====


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig("usecase3")
    with pytest.raises(ValueError):
        ScenarioConfig("usecase1", appends=0)
