import time
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscl_sim import ndn
from oscl_sim.names import parse_name
from oscl_sim.ndn import (
    APP_FACE,
    DEFAULT_FRESHNESS_MS,
    DEFAULT_PIT_LIFETIME_MS,
    ContentStore,
    DataPacket,
    Drop,
    InterestPacket,
    NdnNode,
    PitEntry,
    SendData,
    SendInterest,
    add_face,
    on_data,
    on_interest,
    pit_expire,
)

NAME = parse_name("Gscl1/applications/meter_app")
PRODUCER = parse_name("Gscl1")  # the prefix NAME lives under
ELSEWHERE = parse_name("Gscl9")  # a prefix that does not cover NAME


def _node(prefix=ELSEWHERE, faces=()):
    node = NdnNode(prefix)
    for face in faces:
        add_face(node, face, None)
    return node


def _interest(name=NAME, nonce=7, hop_limit=4, solicit=1):
    return InterestPacket(name, nonce, hop_limit, solicit_count=solicit)


def _data(name=NAME, payload=b"x"):
    return DataPacket(name, payload)


# ===== ContentStore =====


class ReferenceStore:
    """Independent LRU+freshness model: plain dict plus a recency list."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # name -> (packet, inserted)
        self.recency = []  # least recent first

    def insert(self, packet, now):
        if self.capacity == 0:
            return
        if packet.name in self.items:
            self.recency.remove(packet.name)
        self.items[packet.name] = (packet, now)
        self.recency.append(packet.name)
        while len(self.items) > self.capacity:
            victim = self.recency.pop(0)
            del self.items[victim]

    def lookup(self, name, now):
        if name not in self.items:
            return None
        packet, inserted = self.items[name]
        if inserted + DEFAULT_FRESHNESS_MS <= now:
            del self.items[name]
            self.recency.remove(name)
            return None
        self.recency.remove(name)
        self.recency.append(name)
        return packet


def test_cs_lru_eviction():
    cs = ContentStore()
    with mock.patch.object(ndn, "DEFAULT_CS_CAPACITY", 2):
        for i, text in enumerate(("a", "b", "c")):
            cs.insert(_data(parse_name(text), payload=b"v"), now=float(i))
        assert cs.lookup(parse_name("a"), 3.0) is None
        assert cs.lookup(parse_name("b"), 3.0) is not None
        assert cs.lookup(parse_name("c"), 3.0) is not None


def test_cs_lookup_refreshes_recency():
    cs = ContentStore()
    with mock.patch.object(ndn, "DEFAULT_CS_CAPACITY", 2):
        cs.insert(_data(parse_name("a")), 0.0)
        cs.insert(_data(parse_name("b")), 1.0)
        assert cs.lookup(parse_name("a"), 2.0) is not None
        cs.insert(_data(parse_name("c")), 3.0)  # should evict b, not a
        assert cs.lookup(parse_name("b"), 4.0) is None
        assert cs.lookup(parse_name("a"), 4.0) is not None


def test_cs_freshness_expiry():
    cs = ContentStore()
    with mock.patch.object(ndn, "DEFAULT_CS_CAPACITY", 4):
        cs.insert(_data(), 0.0)
        assert cs.lookup(NAME, DEFAULT_FRESHNESS_MS - 1.0) is not None
        assert cs.lookup(NAME, DEFAULT_FRESHNESS_MS) is None  # stale exactly at the boundary
        assert len(cs) == 0  # purged on encounter


def test_cs_capacity_zero_stores_nothing():
    cs = ContentStore()
    with mock.patch.object(ndn, "DEFAULT_CS_CAPACITY", 0):
        cs.insert(_data(), 0.0)
        assert len(cs) == 0
        assert cs.lookup(NAME, 0.0) is None


# time steps that land on, just short of and past the freshness boundary
_cs_steps = st.sampled_from(
    (0.0, 1.0, DEFAULT_FRESHNESS_MS / 4, DEFAULT_FRESHNESS_MS - 1.0, DEFAULT_FRESHNESS_MS)
)
_cs_ops = st.lists(
    st.tuples(st.sampled_from(("insert", "lookup")), st.integers(0, 9), _cs_steps),
    max_size=40,
)


@given(st.integers(0, 5), _cs_ops)
def test_cs_matches_reference_model(capacity, ops):
    cs = ContentStore()
    ref = ReferenceStore(capacity)
    now = 0.0
    with mock.patch.object(ndn, "DEFAULT_CS_CAPACITY", capacity):
        for kind, key, step in ops:
            now += step
            name = parse_name(f"n{key}")
            if kind == "insert":
                packet = _data(name, payload=f"{key}@{now}".encode())
                cs.insert(packet, now)
                ref.insert(packet, now)
            else:
                assert cs.lookup(name, now) == ref.lookup(name, now)
            assert len(cs) <= max(capacity, 0)


# ===== nonce set =====


def _nonces_after(capacity, nonces):
    """The nonce set of a forwarder after one Interest for NAME per nonce,
    each on its only face, so each dies for want of a route."""
    node = _node(faces=["peer"])
    with mock.patch.object(ndn, "DEFAULT_NONCE_CAPACITY", capacity):
        for nonce in nonces:
            on_interest(node, _interest(nonce=nonce), "peer", 0.0)
    return node.seen_nonces


def test_nonce_set_fifo_eviction():
    seen = _nonces_after(2, [0, 1, 2])
    assert list(seen) == [(NAME, 1), (NAME, 2)]


def test_nonce_set_duplicate_add_keeps_position():
    # the repeat of 0 is a looped copy: no refresh, so 0 is still oldest
    seen = _nonces_after(2, [0, 1, 0, 2])
    assert list(seen) == [(NAME, 1), (NAME, 2)]


def test_nonce_set_fifo_through_the_handler():
    node = _node(faces=["peer"])
    with mock.patch.object(ndn, "DEFAULT_NONCE_CAPACITY", 2):
        for nonce in (1, 2, 3):
            on_interest(node, _interest(name=parse_name(f"Gscl2/x{nonce}"), nonce=nonce), "peer", 0.0)
        # the first key was evicted: its repeat passes the loop check and, with
        # no other face to flood to, dies for want of a route instead
        repeat_first = on_interest(node, _interest(name=parse_name("Gscl2/x1"), nonce=1), "peer", 1.0)
        assert repeat_first == [Drop("no-route")]
        repeat_third = on_interest(node, _interest(name=parse_name("Gscl2/x3"), nonce=3), "peer", 1.0)
        assert repeat_third == [Drop("loop")]


@given(st.integers(1, 6), st.integers(1, 20))
def test_nonce_set_and_queue_hold_the_last_keys_in_arrival_order(capacity, extra):
    node = _node(faces=["peer"])
    keys = [(NAME, nonce) for nonce in range(capacity + extra)]
    with mock.patch.object(ndn, "DEFAULT_NONCE_CAPACITY", capacity):
        for nonce in range(capacity + extra):
            on_interest(node, _interest(nonce=nonce), "peer", 0.0)
        assert list(node.seen_nonces) == keys[-capacity:]
        assert list(node.nonce_queue) == keys[-capacity:]
        # an evicted key is a new Interest again: no route on its only face,
        # and filed as the newest key
        evicted = extra - 1
        assert on_interest(node, _interest(nonce=evicted), "peer", 1.0) == [Drop("no-route")]
        assert list(node.seen_nonces) == keys[extra + 1:] + [(NAME, evicted)]
        assert list(node.nonce_queue) == list(node.seen_nonces)


@pytest.mark.slow
def test_a_full_nonce_set_files_a_key_at_the_cost_of_a_filling_one():
    # Interests with no hop budget for a foreign name: each is filed in the
    # nonce set, then dropped for want of a route, with no PIT entry
    node = _node(faces=["peer"])
    fill, past = ndn.DEFAULT_NONCE_CAPACITY, 100_000

    def per_call(nonces):
        started = time.perf_counter()
        for nonce in nonces:
            on_interest(node, _interest(nonce=nonce, hop_limit=0), "peer", 0.0)
        return (time.perf_counter() - started) / len(nonces)

    filling = per_call(range(fill))
    full = per_call(range(fill, fill + past))
    assert not node.pit and len(node.seen_nonces) == fill
    assert full < 4 * filling, (filling, full)


# ===== on_interest =====


def test_interest_loop_dropped_before_cache():
    # a looped copy dies even when the cache could answer it
    node = _node(faces=["peer"])
    node.cs.insert(_data(), 0.0)
    first = on_interest(node, _interest(nonce=3), "peer", 0.0)
    assert first == [SendData(("peer",), node.cs.lookup(NAME, 0.0))]
    second = on_interest(node, _interest(nonce=3), "peer", 1.0)
    assert second == [Drop("loop")]


def test_interest_cache_hit_answers_arrival_face():
    node = _node(faces=["peer"])
    packet = _data()
    node.cs.insert(packet, 0.0)
    assert on_interest(node, _interest(), "peer", 1.0) == [SendData(("peer",), packet)]
    assert NAME not in node.pit  # no pending state for answered Interests


def test_interest_no_route_drop():
    node = _node(faces=["peer"])
    assert on_interest(node, _interest(), "peer", 0.0) == [Drop("no-route")]
    assert NAME not in node.pit


def test_interest_forwarded_decrements_hop_limit():
    node = _node(faces=["a", "b"])
    out = on_interest(node, _interest(hop_limit=4), "a", 0.0)
    assert out == [SendInterest(("b",), _interest(hop_limit=3))]
    assert node.pit[NAME].downstream == {"a"}


@pytest.mark.parametrize(
    "hop_limit, solicit, message",
    [(-1, 1, "hop_limit must be >= 0"), (4, 0, "solicit_count must be >= 1")],
    ids=["negative-hop-limit", "no-solicit-budget"],
)
def test_interest_refuses_a_negative_hop_limit_or_an_empty_budget(hop_limit, solicit, message):
    with pytest.raises(ValueError, match=message):
        _interest(hop_limit=hop_limit, solicit=solicit)


def test_interest_hop_budget_blocks_overlay_but_not_local_delivery():
    node = _node(faces=["a", "b"])
    assert on_interest(node, _interest(nonce=1, hop_limit=0), "a", 0.0) == [Drop("no-route")]
    # local producer delivery is free of hop budget
    local = _node(prefix=PRODUCER, faces=["a"])
    out = on_interest(local, _interest(nonce=2, hop_limit=0), "a", 0.0)
    assert out == [SendInterest((APP_FACE,), _interest(nonce=2, hop_limit=0))]


def test_interest_aggregated_into_live_entry():
    node = _node(faces=["a", "b", "up"])
    first = on_interest(node, _interest(nonce=1), "a", 0.0)
    # one hop-spent copy flooded to b and up
    assert first == [SendInterest(("b", "up"), _interest(nonce=1, hop_limit=3))]
    second = on_interest(node, _interest(nonce=2, solicit=5), "b", 1.0)
    assert second == []  # suppressed: only the first copy went upstream
    entry = node.pit[NAME]
    assert entry.downstream == {"a", "b"}
    assert entry.remaining == 5  # solicit budget grows to the max seen
    assert entry.expiry == 1.0 + DEFAULT_PIT_LIFETIME_MS


def test_interest_flood_copies_everywhere_but_arrival():
    node = _node(faces=["a", "b", "c"])
    out = on_interest(node, _interest(hop_limit=2), "a", 0.0)
    assert out == [SendInterest(("b", "c"), _interest(hop_limit=1))]


def test_flood_faces_follow_a_face_added_after_a_flood():
    """A flood goes out on the arrival face's kept tuple of faces, and a
    face added after that flood joins the next one from the same face."""
    node = _node(faces=["b", "a"])
    [first] = on_interest(node, _interest(hop_limit=2), "a", 0.0)
    assert first.faces == ("b",)
    add_face(node, "c", None)
    other = parse_name("Gscl1/applications/other_app")
    [second] = on_interest(node, _interest(name=other, nonce=8, hop_limit=2), "a", 0.0)
    assert second.faces == ("b", "c")
    third = parse_name("Gscl1/applications/third_app")
    [again] = on_interest(node, _interest(name=third, nonce=9, hop_limit=2), "a", 0.0)
    assert again.faces is second.faces  # kept, not rebuilt


def test_interest_flood_prefers_local_producer():
    node = _node(prefix=PRODUCER, faces=["a", "b"])
    out = on_interest(node, _interest(hop_limit=2), "a", 0.0)
    assert out == [SendInterest((APP_FACE,), _interest(hop_limit=2))]


def test_interest_pit_expiry_allows_refresh():
    node = _node(faces=["a", "up"])
    on_interest(node, _interest(nonce=1), "a", 0.0)
    lifetime = DEFAULT_PIT_LIFETIME_MS
    out = on_interest(node, _interest(nonce=2), "a", lifetime + 1.0)
    assert out == [SendInterest(("up",), _interest(nonce=2, hop_limit=3))]
    assert node.pit[NAME].downstream == {"a"}


_labels = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3)


@st.composite
def _forwarding_cases(draw):
    faces = draw(st.sets(st.sampled_from(["f0", "f1", "f2", "f3"]), min_size=1))
    return (
        draw(_labels),
        draw(_labels),
        faces,
        draw(st.sampled_from(sorted(faces))),
        draw(st.integers(0, 3)),
    )


@given(_forwarding_cases())
def test_forwarding_rule_answers_own_prefix_and_floods_the_rest(case):
    prefix_labels, name_labels, faces, in_face, hop_limit = case
    node = _node(prefix=parse_name("/".join(prefix_labels)), faces=sorted(faces))
    pkt = _interest(name=parse_name("/".join(name_labels)), hop_limit=hop_limit)
    out = on_interest(node, pkt, in_face, 0.0)
    others = sorted(faces - {in_face})
    if name_labels[: len(prefix_labels)] == prefix_labels:
        assert out == [SendInterest((APP_FACE,), pkt)]
    elif hop_limit > 0 and others:
        spent = _interest(name=pkt.name, hop_limit=hop_limit - 1)
        assert out == [SendInterest(tuple(others), spent)]
    else:
        assert out == [Drop("no-route")]


# ===== on_data =====


def test_data_fans_out_and_consumes_entry():
    node = _node(faces=["f1", "f2", "up"])
    on_interest(node, _interest(nonce=1), "f1", 0.0)
    on_interest(node, _interest(nonce=2), "f2", 0.0)
    packet = _data()
    out = on_data(node, packet, "up", 1.0)
    assert out == [SendData(("f1", "f2"), packet)]
    assert NAME not in node.pit
    assert node.cs.lookup(NAME, 1.0) == packet


def test_separately_parsed_copies_of_one_name_meet_in_every_table():
    # the Interest, the Data and the lookups each carry their own str object
    copies = ["/".join(NAME.split("/")) for _ in range(4)]
    assert len({id(name) for name in copies}) == 4
    node = _node(faces=["a", "up"])
    on_interest(node, _interest(name=copies[0], nonce=1), "a", 0.0)
    packet = _data(name=copies[1])
    assert on_data(node, packet, "up", 1.0) == [SendData(("a",), packet)]
    assert NAME not in node.pit
    assert node.cs.lookup(copies[2], 1.0) is packet
    answer = on_interest(node, _interest(name=copies[3], nonce=2), "a", 2.0)
    assert answer == [SendData(("a",), packet)]


def test_data_unsolicited_dropped_and_not_cached():
    node = _node(faces=["up"])
    out = on_data(node, _data(), "up", 0.0)
    assert out == [Drop("unsolicited")]
    assert node.cs.lookup(NAME, 0.0) is None


def test_data_not_reflected_to_arrival_face():
    node = _node(faces=["up"])
    on_interest(node, _interest(), APP_FACE, 0.0)
    # entry's only other downstream is the arrival face itself
    node.pit[NAME].downstream = {"up"}
    assert on_data(node, _data(), "up", 1.0) == []


def test_application_answer_goes_back_up_to_the_application():
    # a request for the node's own name: the application face is both
    # the Interest's arrival face and the Data's
    node = _node(prefix=PRODUCER, faces=["peer"])
    assert node.faces == {"peer": None}  # the application face is no link
    assert on_interest(node, _interest(), APP_FACE, 0.0) == [SendInterest((APP_FACE,), _interest())]
    node.pit[NAME].downstream.add("peer")  # a neighbor's copy aggregated
    assert on_data(node, _data(), APP_FACE, 1.0) == [SendData((APP_FACE, "peer"), _data())]
    assert NAME not in node.pit


def test_data_after_entry_expiry_is_unsolicited():
    node = _node(faces=["a", "up"])
    on_interest(node, _interest(), "a", 0.0)
    lifetime = DEFAULT_PIT_LIFETIME_MS
    assert on_data(node, _data(), "up", lifetime + 1.0) == [Drop("unsolicited")]


@pytest.mark.parametrize("solicit", [1, 2, 5, 10])
def test_data_solicit_budget_consumed_one_per_message(solicit):
    node = _node(faces=["a", "up"])
    on_interest(node, _interest(solicit=solicit), "a", 0.0)
    for i in range(solicit):
        assert NAME in node.pit
        packet = _data(payload=f"v{i}".encode())
        assert on_data(node, packet, "up", float(i)) == [SendData(("a",), packet)]
    assert NAME not in node.pit
    assert on_data(node, _data(), "up", float(solicit)) == [Drop("unsolicited")]


# ===== tables =====


def test_pit_expire_removes_only_dead_entries():
    node = _node(faces=["a", "up"])
    on_interest(node, _interest(nonce=1), "a", 0.0)
    other = parse_name("Gscl2/x")
    on_interest(node, _interest(name=other, nonce=2), "a", 100.0)
    lifetime = DEFAULT_PIT_LIFETIME_MS
    dead = pit_expire(node, lifetime + 1.0)
    assert dead == [NAME]
    assert other in node.pit and NAME not in node.pit


@given(st.integers(1, 10), st.integers(0, 64))
def test_nonce_capacity_respected(capacity, extra):
    node = _node(faces=["peer"])
    with mock.patch.object(ndn, "DEFAULT_NONCE_CAPACITY", capacity):
        for i in range(capacity + extra):
            on_interest(node, _interest(nonce=i), "peer", 0.0)
            assert len(node.seen_nonces) <= capacity


# ===== the handlers against a reference forwarder =====


class _ReferenceForwarder:
    """The handlers as written before their table probes became C-level:
    a nonce-set ``add``, a Content Store ``lookup``, a ``pending`` PIT
    read, a component-wise prefix test and filter-then-sort flood faces,
    over tables of its own."""

    def __init__(self, prefix, faces, nonce_capacity, cs_capacity):
        self.prefix, self.faces = prefix, faces
        self.nonces, self.nonce_capacity = OrderedDict(), nonce_capacity
        self.cs = ReferenceStore(cs_capacity)
        self.pit = {}

    def add(self, key):
        if key in self.nonces:
            return
        if len(self.nonces) >= self.nonce_capacity:
            self.nonces.popitem(last=False)
        self.nonces[key] = None

    def pending(self, text, now):
        entry = self.pit.get(text)
        if entry is not None and entry.expiry <= now:
            del self.pit[text]
            return None
        return entry

    def on_interest(self, pkt, in_face, now):
        text = pkt.name
        if (text, pkt.nonce) in self.nonces:
            return [Drop("loop")]
        self.add((text, pkt.nonce))
        cached = self.cs.lookup(pkt.name, now)
        if cached is not None:
            return [SendData((in_face,), cached)]
        entry = self.pending(text, now)
        if entry is not None:
            entry.downstream.add(in_face)
            entry.remaining = max(entry.remaining, pkt.solicit_count)
            entry.expiry = max(entry.expiry, now + DEFAULT_PIT_LIFETIME_MS)
            return []
        prefix_parts = self.prefix.split("/")
        if pkt.name.split("/")[: len(prefix_parts)] == prefix_parts:
            send = SendInterest((APP_FACE,), pkt)
        elif pkt.hop_limit <= 0:
            return [Drop("no-route")]
        else:
            faces = sorted([f for f in self.faces if f != in_face])
            if not faces:
                return [Drop("no-route")]
            spent = InterestPacket(pkt.name, pkt.nonce, pkt.hop_limit - 1, pkt.solicit_count)
            send = SendInterest(tuple(faces), spent)
        self.pit[text] = PitEntry({in_face}, pkt.solicit_count, now + DEFAULT_PIT_LIFETIME_MS)
        return [send]

    def on_data(self, pkt, in_face, now):
        text = pkt.name
        entry = self.pending(text, now)
        if entry is None:
            return [Drop("unsolicited")]
        faces = sorted(entry.downstream)
        if in_face != APP_FACE and in_face in entry.downstream:
            faces.remove(in_face)
        entry.remaining -= 1
        if entry.remaining <= 0:
            del self.pit[text]
        self.cs.insert(pkt, now)
        return [SendData(tuple(faces), pkt)] if faces else []


# labels that extend one another, so a bare character-prefix test errs;
# the node's prefix is "a"; a step crosses the PIT lifetime or the
# freshness boundary after a few draws
_ref_names = st.lists(st.sampled_from(["a", "ab", "b"]), min_size=1, max_size=2).map(
    lambda labels: parse_name("/".join(labels))
)
_ref_steps = st.sampled_from(
    (0.0, 1.0, DEFAULT_PIT_LIFETIME_MS - 1.0, DEFAULT_PIT_LIFETIME_MS, DEFAULT_FRESHNESS_MS)
)
_ref_arrivals = st.lists(
    st.tuples(
        st.booleans(),  # an Interest, or else a Data
        _ref_names,
        st.integers(0, 3),  # nonce
        st.integers(0, 2),  # hop limit
        st.integers(1, 2),  # solicit count
        st.sampled_from(["a", "b", "c", APP_FACE]),
        _ref_steps,
    ),
    max_size=30,
)


@given(st.sets(st.sampled_from(["a", "b", "c"])), _ref_arrivals)
def test_handlers_match_the_reference_forwarder(faces, arrivals):
    prefix = parse_name("a")
    node = _node(prefix=prefix, faces=sorted(faces))
    ref = _ReferenceForwarder(prefix, set(faces), nonce_capacity=2, cs_capacity=1)
    now = 0.0
    with (
        mock.patch.object(ndn, "DEFAULT_CS_CAPACITY", 1),
        mock.patch.object(ndn, "DEFAULT_NONCE_CAPACITY", 2),
    ):
        for i, (is_interest, name, nonce, hop_limit, solicit, in_face, step) in enumerate(arrivals):
            now += step
            if is_interest:
                pkt = _interest(name=name, nonce=nonce, hop_limit=hop_limit, solicit=solicit)
                assert on_interest(node, pkt, in_face, now) == ref.on_interest(pkt, in_face, now)
            else:
                pkt = _data(name=name, payload=f"{i}".encode())
                assert on_data(node, pkt, in_face, now) == ref.on_data(pkt, in_face, now)
            assert node.pit == ref.pit
            assert list(node.cs.items()) == [(n, ref.cs.items[n]) for n in ref.cs.recency]
            assert list(node.seen_nonces) == list(ref.nonces)
