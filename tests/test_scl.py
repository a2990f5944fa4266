import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscl_sim.cli import MESSAGES_HEADER
from oscl_sim.names import InvalidName, parse_name
from oscl_sim.scl import (
    AlreadyRegistered,
    DuplicateResource,
    EmptyContainer,
    M2mSystem,
    MessageCounters,
    MessageLog,
    MessageRecord,
    NotAnNscl,
    NotFound,
    NotRegistered,
    SclError,
    SclKind,
    centralized_discover,
    create_application,
    create_container,
    create_content_instance,
    register_scl,
    resolve_resource,
    subscribe_centralized,
)


def _system():
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, "Nscl")
    gscl = system.add_scl(SclKind.GSCL, "Gscl1")
    dscl = system.add_scl(SclKind.DSCL, "Dscl1")
    return system, nscl, gscl, dscl


def _populated():
    system, nscl, gscl, dscl = _system()
    register_scl(gscl, nscl)
    register_scl(dscl, nscl)
    create_application(gscl, "meter_app")
    create_container(gscl, "meter_app", "meter_data")
    return system, nscl, gscl, dscl


# ===== registration =====


def test_register_is_a_two_message_handshake():
    system, nscl, gscl, _ = _system()
    register_scl(gscl, nscl)
    assert gscl.registered
    assert nscl.registry == {"Gscl1": gscl}
    rows = [(r.src, r.dst, r.msg_type) for r in system.log]
    assert rows == [("Gscl1", "Nscl", "register"), ("Nscl", "Gscl1", "register")]
    assert system.clock_ms == 2.0


def test_register_twice_rejected():
    _, nscl, gscl, _ = _system()
    register_scl(gscl, nscl)
    with pytest.raises(AlreadyRegistered):
        register_scl(gscl, nscl)


def test_register_with_non_nscl_rejected():
    _, _, gscl, dscl = _system()
    with pytest.raises(NotAnNscl):
        register_scl(dscl, gscl)


def test_registration_stays_within_one_system():
    _, nscl, _, _ = _system()
    stranger = M2mSystem().add_scl(SclKind.GSCL, "Gscl9")
    with pytest.raises(SclError, match="different systems"):
        register_scl(stranger, nscl)
    assert nscl.registry == {} and not stranger.registered


def test_unknown_node_id_is_not_found():
    system, *_ = _system()
    with pytest.raises(NotFound, match="no SCL 'Gscl9'"):
        system.scl("Gscl9")


def test_single_nscl_per_system():
    system, *_ = _system()
    with pytest.raises(Exception):
        system.add_scl(SclKind.NSCL, "Nscl2")


def test_base_names_unique():
    system, *_ = _system()
    with pytest.raises(DuplicateResource):
        system.add_scl(SclKind.GSCL, "Gscl1")


@pytest.mark.parametrize("node_id", ["Gscl1/x", "/Gscl9"])
def test_node_id_is_one_name_component(node_id):
    """A node id is also the SCL's base name, so it is one component."""
    system = M2mSystem()
    with pytest.raises(InvalidName):
        system.add_scl(SclKind.GSCL, node_id)
    assert system.scls == {}


# ===== resource tree =====


def test_tree_create_and_read():
    _, _, gscl, _ = _populated()
    assert create_content_instance(gscl, "meter_app", "meter_data", "v0") == 0
    assert create_content_instance(gscl, "meter_app", "meter_data", "v1") == 1
    base = "Gscl1/applications/meter_app/containers/meter_data/content_instances"
    assert resolve_resource(gscl, parse_name(f"{base}/latest"))[1] == "v1"
    assert resolve_resource(gscl, parse_name(f"{base}/oldest"))[1] == "v0"
    assert resolve_resource(gscl, parse_name(f"{base}/1"))[1] == "v1"


def test_tree_latest_of_empty_container():
    _, _, gscl, _ = _populated()
    uri = "Gscl1/applications/meter_app/containers/meter_data/content_instances/latest"
    with pytest.raises(EmptyContainer):
        resolve_resource(gscl, parse_name(uri))[1]


def test_tree_missing_resources():
    _, _, gscl, _ = _populated()
    for uri in (
        "Gscl1/applications/nope",
        "Gscl1/applications/meter_app/containers/nope",
        "Gscl1/applications/meter_app/containers/meter_data/content_instances/5",
        "Gscl2/applications/meter_app",
        "Gscl1/bogus/meter_app",
        "Gscl1/applications/meter_app/bogus/meter_data",
        "Gscl1/applications/meter_app/containers/meter_data/bogus/0",
    ):
        with pytest.raises(NotFound):
            resolve_resource(gscl, parse_name(uri))
    for app, container in (("nope", "meter_data"), ("meter_app", "nope")):
        with pytest.raises(NotFound):
            create_content_instance(gscl, app, container, "v0")


@pytest.mark.parametrize(
    "selector", ["010", "00", "-0", "+10", "1_0", " 10", "10 ", "\u0661\u0660", "\uff11\uff10"]
)
def test_an_instance_has_one_name(selector):
    """Only the canonical decimal names an instance; int() would read
    each of these selectors as 10 or 0."""
    _, _, gscl, _ = _populated()
    for i in range(11):
        create_content_instance(gscl, "meter_app", "meter_data", f"v{i}")
    base = "Gscl1/applications/meter_app/containers/meter_data/content_instances"
    assert resolve_resource(gscl, parse_name(f"{base}/10")) == ("instance", "v10", 10)
    assert resolve_resource(gscl, parse_name(f"{base}/0")) == ("instance", "v0", 0)
    with pytest.raises(NotFound):
        resolve_resource(gscl, parse_name(f"{base}/{selector}"))


def test_tree_duplicates_rejected():
    _, _, gscl, _ = _populated()
    with pytest.raises(DuplicateResource):
        create_application(gscl, "meter_app")
    with pytest.raises(DuplicateResource):
        create_container(gscl, "meter_app", "meter_data")


@pytest.mark.parametrize("label", ["a/b", "/a", "", None])
def test_a_resource_label_is_one_name_component_or_nothing_is_stored(label):
    _, _, gscl, _ = _populated()
    with pytest.raises(InvalidName):
        create_application(gscl, label)
    with pytest.raises(InvalidName):
        create_container(gscl, "meter_app", label)
    assert list(gscl.applications) == ["meter_app"]
    assert list(gscl.applications["meter_app"]) == ["meter_data"]


def test_container_under_missing_application():
    _, _, gscl, _ = _populated()
    with pytest.raises(NotFound):
        create_container(gscl, "ghost_app", "c")


def test_resolve_shapes():
    _, _, gscl, _ = _populated()
    create_content_instance(gscl, "meter_app", "meter_data", "v0")
    assert resolve_resource(gscl, parse_name("Gscl1"))[0] == "scl"
    assert resolve_resource(gscl, parse_name("Gscl1/applications/meter_app"))[0] == "application"
    kind, payload, index = resolve_resource(
        gscl,
        parse_name(
            "Gscl1/applications/meter_app/containers/meter_data/content_instances/0"
        ),
    )
    assert (kind, payload, index) == ("instance", "v0", 0)


# ===== centralized discovery =====


def test_discover_by_application_name():
    system, nscl, gscl, dscl = _populated()
    result = centralized_discover(dscl, nscl, parse_name("meter_app"))
    assert result.uri == "Gscl1/applications/meter_app"
    assert result.locator == gscl.locator
    assert result.method == "centralized"
    assert result.path is None and result.path_hops is None


def test_discover_by_full_uri():
    _, nscl, gscl, dscl = _populated()
    uri = parse_name("Gscl1/applications/meter_app/containers/meter_data")
    result = centralized_discover(dscl, nscl, uri)
    assert result.uri == uri
    assert result.locator == gscl.locator


def test_discover_counts_two_relayed_exchanges():
    system, nscl, _, dscl = _populated()
    centralized_discover(dscl, nscl, parse_name("meter_app"))
    c = system.counters
    assert c.get("Nscl", "discover_query", "relayed") == 2
    assert c.get("Nscl", "discover_response", "relayed") == 2
    assert c.get("Dscl1", "discover_query", "originated") == 2
    assert c.get("Dscl1", "discover_response", "received") == 2
    # every relayed message is a single log row naming the relayer
    relayed = [r for r in system.log if r.relayer == "Nscl"]
    assert len(relayed) == 4


def test_discover_unknown_name():
    _, nscl, _, dscl = _populated()
    with pytest.raises(NotFound):
        centralized_discover(dscl, nscl, parse_name("ghost_app"))
    with pytest.raises(NotFound):
        centralized_discover(dscl, nscl, parse_name("Gscl1/applications/ghost"))


def test_discover_requires_registration():
    system, nscl, gscl, dscl = _system()
    register_scl(gscl, nscl)
    create_application(gscl, "meter_app")
    with pytest.raises(NotRegistered):
        centralized_discover(dscl, nscl, parse_name("meter_app"))


# ===== centralized subscription =====


def test_subscribe_then_appends_notify_through_hub():
    system, nscl, gscl, dscl = _populated()
    uri = parse_name("Gscl1/applications/meter_app/containers/meter_data")
    subscribe_centralized(dscl, nscl, uri)
    for i in range(3):
        create_content_instance(gscl, "meter_app", "meter_data", f"v{i}")
    assert len(gscl.applications["meter_app"]["meter_data"].subscriptions) == 1  # never lapses
    c = system.counters
    assert c.get("Nscl", "subscribe", "relayed") == 1
    assert c.get("Nscl", "notify", "relayed") == 3
    assert c.get("Dscl1", "notify", "received") == 3
    assert c.get("Gscl1", "notify", "originated") == 3
    notify_names = [r.name for r in system.log if r.msg_type == "notify"]
    assert notify_names[0].endswith("content_instances/0")
    assert notify_names[-1].endswith("content_instances/2")


def test_subscribe_target_must_be_container():
    _, nscl, _, dscl = _populated()
    with pytest.raises(NotFound):
        subscribe_centralized(dscl, nscl, parse_name("Gscl1/applications/meter_app"))


def test_append_without_subscribers_is_silent():
    system, _, gscl, _ = _populated()
    before = len(system.log)
    create_content_instance(gscl, "meter_app", "meter_data", "v0")
    assert len(system.log) == before


# ===== names from the caller =====


def _hub_name_run(spell):
    """A centralized discovery, a subscription and an append, each name
    written by ``spell``; returns the discovery and the message rows."""
    system, nscl, gscl, dscl = _populated()
    found = centralized_discover(dscl, nscl, spell("Gscl1/applications/meter_app"))
    subscribe_centralized(dscl, nscl, spell("Gscl1/applications/meter_app/containers/meter_data"))
    create_content_instance(gscl, "meter_app", "meter_data", "v0")
    return found, list(system.log.rows())


def test_hub_operations_take_a_leading_slash_name_as_its_canonical_text():
    canonical = _hub_name_run(lambda uri: uri)
    assert _hub_name_run(lambda uri: "/" + uri) == canonical
    assert canonical[0].uri == "Gscl1/applications/meter_app"
    instance = "Gscl1/applications/meter_app/containers/meter_data/content_instances/0"
    assert canonical[1][-1][4:] == ("notify", instance)


@pytest.mark.parametrize("bad", ["a//b", "", "/", b"meter_app"])
@pytest.mark.parametrize("op", [centralized_discover, subscribe_centralized])
def test_hub_operations_raise_invalid_name_and_send_nothing(op, bad):
    system, nscl, _, dscl = _populated()
    before = len(system.log)
    with pytest.raises(InvalidName):
        op(dscl, nscl, bad)
    assert len(system.log) == before


@pytest.mark.parametrize("op", [centralized_discover, subscribe_centralized])
def test_hub_operations_need_a_hub_and_a_registered_origin(op):
    system, nscl, gscl, dscl = _populated()
    stranger = system.add_scl(SclKind.DSCL, "Dscl2")
    uri = parse_name("Gscl1/applications/meter_app/containers/meter_data")
    before = len(system.log)
    with pytest.raises(NotAnNscl):
        op(dscl, gscl, uri)
    with pytest.raises(NotRegistered):
        op(stranger, nscl, uri)
    assert len(system.log) == before


# ===== accounting =====


def test_message_records_are_immutable_values():
    values = (3.0, "Gscl1", "Dscl1", "", "interest", "Gscl1/applications/app")
    record = MessageRecord(*values)
    # a literal pin: MESSAGES_HEADER is derived from these fields, so a
    # rename that would change the header of messages.csv fails here
    assert [f.name for f in dataclasses.fields(MessageRecord)] == [
        "time_ms", "src", "dst", "relayer", "msg_type", "name",
    ]
    for name in MESSAGES_HEADER:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "changed")
    assert record == MessageRecord(*values)
    assert record != values
    assert tuple(getattr(record, name) for name in MESSAGES_HEADER) == values


_LOG_ROW = st.tuples(
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.text(max_size=3),
    st.sampled_from(["", "Nscl"]),
    st.sampled_from(["interest", "data", "notify"]),
    st.text(max_size=5),
)
_LOG_ROWS = st.lists(_LOG_ROW, max_size=12)
_BOUND = st.none() | st.integers(-15, 15)


@given(_LOG_ROWS, _BOUND, _BOUND)
def test_message_log_reads_like_a_list_of_records(rows, start, stop):
    log = MessageLog()
    for row in rows:
        log.extend(row)
    records = [MessageRecord(*row) for row in rows]
    assert len(log) == len(records)
    assert list(log) == records
    for i in range(-len(records) - 2, len(records) + 2):
        if -len(records) <= i < len(records):
            assert log[i] == records[i]
        else:
            with pytest.raises(IndexError):
                log[i]
    assert log[start:stop] == records[start:stop]
    assert list(log.rows()) == [
        tuple(getattr(r, name) for name in MESSAGES_HEADER) for r in records
    ]


# one batch of writes, each a row or, with a list of destinations, one
# row per destination; then a slice to read
_LOG_DSTS = st.none() | st.lists(st.text(max_size=3), max_size=4)
_LOG_BATCH = st.tuples(
    st.lists(st.tuples(_LOG_ROW, _LOG_DSTS), max_size=6),
    _BOUND,
    _BOUND,
    st.none() | st.integers(-4, 4).filter(bool),
)


@given(st.lists(_LOG_BATCH, min_size=1, max_size=4))
def test_grouped_log_reads_like_the_per_copy_log(batches):
    """Rows added with ``extend_copies`` read back, by every kind of
    read, as the rows ``extend`` adds one copy at a time, mixed with
    rows added with ``extend``; every batch of writes is read on from
    the length before it, as the log's readers read it, and then whole,
    so the walk each read starts from the last is checked after every
    batch."""
    log, records = MessageLog(), []
    for writes, start, stop, step in batches:
        before = len(records)
        for row, dsts in writes:
            if dsts is None:
                log.extend(row)
                records.append(MessageRecord(*row))
                continue
            time_ms, src, _, relayer, msg_type, name = row
            log.extend_copies(time_ms, src, dsts, relayer, msg_type, name)
            records += [MessageRecord(time_ms, src, dst, relayer, msg_type, name) for dst in dsts]
        assert log[before:] == records[before:]
        assert log[start:stop:step] == records[start:stop:step]
        assert len(log) == len(records)
        assert list(log) == records
        assert list(log.rows()) == [
            tuple(getattr(r, name) for name in MESSAGES_HEADER) for r in records
        ]
        for i in range(-len(records) - 2, len(records) + 2):
            if -len(records) <= i < len(records):
                assert log[i] == records[i]
            else:
                with pytest.raises(IndexError):
                    log[i]


def test_clock_is_monotone_and_relay_costs_two_legs():
    system, nscl, gscl, dscl = _populated()
    t0 = system.clock_ms
    centralized_discover(dscl, nscl, parse_name("meter_app"))
    assert system.clock_ms == t0 + 8.0  # 4 relayed messages, 2 legs each
    times = [r.time_ms for r in system.log]
    assert times == sorted(times)


_COUNTER_NODES = ("Dscl1", "Gscl1", "Nscl")
_COUNTER_TYPES = ("interest", "data")
_COUNTER_ROLES = ("originated", "relayed", "received")
_COUNTER_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(_COUNTER_NODES),
        st.sampled_from(_COUNTER_TYPES),
        st.sampled_from(_COUNTER_ROLES),
        st.integers(0, 3),
    ),
    max_size=12,
)


@given(_COUNTER_RECORDS)
def test_counters_match_a_flat_tally(records):
    # a flat {(node, type, role): count} dict is the model; a tally
    # recorded with count 0 is a row, as it is in counters.csv
    counters, tally = MessageCounters(), {}
    for node, msg_type, role, count in records:
        counters.record(node, msg_type, role, count)
        tally[node, msg_type, role] = tally.get((node, msg_type, role), 0) + count
        expected_rows = sorted(key + (v,) for key, v in tally.items())
        assert counters.rows() == expected_rows
        for triple in itertools.product(_COUNTER_NODES, _COUNTER_TYPES, _COUNTER_ROLES):
            assert counters.get(*triple) == tally.get(triple, 0)
        assert counters.rows() == expected_rows  # reading an absent tally adds no row
        for msg_type, role in itertools.product((None,) + _COUNTER_TYPES, (None,) + _COUNTER_ROLES):
            assert counters.total(msg_type, role) == sum(
                v for (_, t, r), v in tally.items()
                if msg_type in (None, t) and role in (None, r)
            )


def test_control_plane_counter_conservation():
    system, nscl, gscl, dscl = _populated()
    uri = parse_name("Gscl1/applications/meter_app/containers/meter_data")
    centralized_discover(dscl, nscl, parse_name("meter_app"))
    subscribe_centralized(dscl, nscl, uri)
    create_content_instance(gscl, "meter_app", "meter_data", "v0")
    c = system.counters
    assert c.total(role="originated") == c.total(role="received") + c.total(role="dropped")
