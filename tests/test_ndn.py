import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscl_sim.names import parse_name
from oscl_sim.ndn import (
    APP_FACE,
    DEFAULT_PIT_LIFETIME_MS,
    BoundedNonceSet,
    ContentStore,
    DataPacket,
    Drop,
    InterestPacket,
    NdnNode,
    SendData,
    SendInterest,
    UnknownFace,
    on_data,
    on_interest,
    pit_expire,
)

NAME = parse_name("Gscl1/applications/meter_app")
PRODUCER = parse_name("Gscl1")  # the prefix NAME lives under
ELSEWHERE = parse_name("Gscl9")  # a prefix that does not cover NAME


def _node(node_id="n1", prefix=ELSEWHERE, faces=(), cs_capacity=64):
    node = NdnNode(node_id, prefix, cs=ContentStore(cs_capacity))
    for face in faces:
        node.faces[face] = None
    return node


def _interest(name=NAME, nonce=7, hop_limit=4, solicit=1):
    return InterestPacket(name, nonce, hop_limit, solicit_count=solicit)


def _data(name=NAME, payload=b"x", freshness=1000.0):
    return DataPacket(name, payload, freshness_ms=freshness)


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
        if inserted + packet.freshness_ms <= now:
            del self.items[name]
            self.recency.remove(name)
            return None
        self.recency.remove(name)
        self.recency.append(name)
        return packet


def test_cs_lru_eviction():
    cs = ContentStore(2)
    for i, text in enumerate(("a", "b", "c")):
        cs.insert(_data(parse_name(text), payload=b"v"), now=float(i))
    assert cs.lookup(parse_name("a"), 3.0) is None
    assert cs.lookup(parse_name("b"), 3.0) is not None
    assert cs.lookup(parse_name("c"), 3.0) is not None


def test_cs_lookup_refreshes_recency():
    cs = ContentStore(2)
    cs.insert(_data(parse_name("a")), 0.0)
    cs.insert(_data(parse_name("b")), 1.0)
    assert cs.lookup(parse_name("a"), 2.0) is not None
    cs.insert(_data(parse_name("c")), 3.0)  # should evict b, not a
    assert cs.lookup(parse_name("b"), 4.0) is None
    assert cs.lookup(parse_name("a"), 4.0) is not None


def test_cs_freshness_expiry():
    cs = ContentStore(4)
    cs.insert(_data(freshness=10.0), 0.0)
    assert cs.lookup(NAME, 5.0) is not None
    assert cs.lookup(NAME, 10.0) is None  # stale exactly at the boundary
    assert len(cs) == 0  # purged on encounter


def test_cs_capacity_zero_stores_nothing():
    cs = ContentStore(0)
    cs.insert(_data(), 0.0)
    assert len(cs) == 0
    assert cs.lookup(NAME, 0.0) is None


_cs_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 9), st.floats(1.0, 50.0)),
        st.tuples(st.just("lookup"), st.integers(0, 9)),
    ),
    max_size=40,
)


@given(st.integers(0, 5), _cs_ops)
def test_cs_matches_reference_model(capacity, ops):
    cs = ContentStore(capacity)
    ref = ReferenceStore(capacity)
    now = 0.0
    for op in ops:
        now += 1.0
        if op[0] == "insert":
            packet = _data(parse_name(f"n{op[1]}"), freshness=op[2])
            cs.insert(packet, now)
            ref.insert(packet, now)
        else:
            name = parse_name(f"n{op[1]}")
            assert cs.lookup(name, now) == ref.lookup(name, now)
        assert len(cs) <= max(capacity, 0)


# ===== nonce set =====


def test_nonce_set_fifo_eviction():
    seen = BoundedNonceSet(2)
    keys = [(NAME, i) for i in range(3)]
    for key in keys:
        seen.add(key)
    assert keys[0] not in seen
    assert keys[1] in seen and keys[2] in seen


def test_nonce_set_duplicate_add_keeps_position():
    seen = BoundedNonceSet(2)
    a, b, c = [(NAME, i) for i in range(3)]
    seen.add(a)
    seen.add(b)
    seen.add(a)  # no refresh: still oldest
    seen.add(c)
    assert a not in seen


# ===== on_interest =====


def test_interest_unknown_face_raises():
    node = _node()
    with pytest.raises(UnknownFace):
        on_interest(node, _interest(), "ghost", 0.0)


def test_interest_loop_dropped_before_cache():
    # a looped copy dies even when the cache could answer it
    node = _node(faces=["peer"])
    node.cs.insert(_data(), 0.0)
    first = on_interest(node, _interest(nonce=3), "peer", 0.0)
    assert first == [SendData("peer", node.cs.lookup(NAME, 0.0))]
    second = on_interest(node, _interest(nonce=3), "peer", 1.0)
    assert second == [Drop("loop")]


def test_interest_cache_hit_answers_arrival_face():
    node = _node(faces=["peer"])
    packet = _data()
    node.cs.insert(packet, 0.0)
    assert on_interest(node, _interest(), "peer", 1.0) == [SendData("peer", packet)]
    assert NAME not in node.pit  # no pending state for answered Interests


def test_interest_no_route_drop():
    node = _node(faces=["peer"])
    assert on_interest(node, _interest(), "peer", 0.0) == [Drop("no-route")]
    assert NAME not in node.pit


def test_interest_forwarded_decrements_hop_limit():
    node = _node(faces=["a", "b"])
    out = on_interest(node, _interest(hop_limit=4), "a", 0.0)
    assert out == [SendInterest("b", _interest(hop_limit=3))]
    assert node.pit[NAME].downstream == {("a", 7)}


def test_interest_hop_budget_blocks_overlay_but_not_local_delivery():
    node = _node(faces=["a", "b"])
    assert on_interest(node, _interest(nonce=1, hop_limit=0), "a", 0.0) == [Drop("no-route")]
    # local producer delivery is free of hop budget
    local = _node("n2", prefix=PRODUCER, faces=["a"])
    out = on_interest(local, _interest(nonce=2, hop_limit=0), "a", 0.0)
    assert out == [SendInterest(APP_FACE, _interest(nonce=2, hop_limit=0))]


def test_interest_aggregated_into_live_entry():
    node = _node(faces=["a", "b", "up"])
    first = on_interest(node, _interest(nonce=1), "a", 0.0)
    assert len(first) == 2  # flooded to b and up
    second = on_interest(node, _interest(nonce=2, solicit=5), "b", 1.0)
    assert second == []  # suppressed: only the first copy went upstream
    entry = node.pit[NAME]
    assert entry.downstream == {("a", 1), ("b", 2)}
    assert entry.remaining == 5  # solicit budget grows to the max seen
    assert entry.expiry == 1.0 + DEFAULT_PIT_LIFETIME_MS


def test_interest_flood_copies_everywhere_but_arrival():
    node = _node(faces=["a", "b", "c"])
    out = on_interest(node, _interest(hop_limit=2), "a", 0.0)
    assert out == [
        SendInterest("b", _interest(hop_limit=1)),
        SendInterest("c", _interest(hop_limit=1)),
    ]


def test_interest_flood_prefers_local_producer():
    node = _node(prefix=PRODUCER, faces=["a", "b"])
    out = on_interest(node, _interest(hop_limit=2), "a", 0.0)
    assert out == [SendInterest(APP_FACE, _interest(hop_limit=2))]


def test_interest_pit_expiry_allows_refresh():
    node = _node(faces=["a", "up"])
    on_interest(node, _interest(nonce=1), "a", 0.0)
    lifetime = DEFAULT_PIT_LIFETIME_MS
    out = on_interest(node, _interest(nonce=2), "a", lifetime + 1.0)
    assert out == [SendInterest("up", _interest(nonce=2, hop_limit=3))]
    assert node.pit[NAME].downstream == {("a", 2)}


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
        assert out == [SendInterest(APP_FACE, pkt)]
    elif hop_limit > 0 and others:
        spent = _interest(name=pkt.name, hop_limit=hop_limit - 1)
        assert out == [SendInterest(face, spent) for face in others]
    else:
        assert out == [Drop("no-route")]


# ===== on_data =====


def test_data_fans_out_and_consumes_entry():
    node = _node(faces=["f1", "f2", "up"])
    on_interest(node, _interest(nonce=1), "f1", 0.0)
    on_interest(node, _interest(nonce=2), "f2", 0.0)
    packet = _data()
    out = on_data(node, packet, "up", 1.0)
    assert out == [SendData("f1", packet), SendData("f2", packet)]
    assert NAME not in node.pit
    assert node.cs.lookup(NAME, 1.0) == packet


def test_data_unsolicited_dropped_and_not_cached():
    node = _node(faces=["up"])
    out = on_data(node, _data(), "up", 0.0)
    assert out == [Drop("unsolicited")]
    assert node.cs.lookup(NAME, 0.0) is None


def test_data_not_reflected_to_arrival_face():
    node = _node(faces=["up"])
    on_interest(node, _interest(), APP_FACE, 0.0)
    # entry's only other downstream is the arrival face itself
    node.pit[NAME].downstream = {("up", 9)}
    assert on_data(node, _data(), "up", 1.0) == []


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
        out = on_data(node, _data(payload=f"v{i}".encode()), "up", float(i))
        assert len(out) == 1
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
    seen = BoundedNonceSet(capacity)
    for i in range(capacity + extra):
        seen.add((NAME, i))
        assert len(seen) <= capacity
