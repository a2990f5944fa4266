"""Content-centric forwarding plane: Content Store, PIT, nonce set.

Each overlay node runs one forwarder. It answers names under its own
prefix and floods every other Interest, like multicast forwarding in
NFD. Handlers are pure with respect to the wire: they mutate node
state and return emission records; the harness decides what a "face"
physically is and what a send costs. A handler returns at most one
emission: one send names every face its packet goes out on, in sorted
order, and the handlers return shared Drop constants, so a dropped
copy costs no record of its own.

A node's faces are its links: ``NdnNode.faces`` maps each face id to
whatever the harness attaches to that link (the overlay attaches the
link's metrics), and nothing else records who is linked to whom. The
face toward a neighbor carries that neighbor's node id. APP_FACE, the
node-local application, is no link and so in no ``faces``. Hop limits
meter overlay hops only, so handing a packet up to the local
application neither checks nor spends budget.

Tables looked up by name (PIT, Content Store, nonce set) key by its text:
two names are equal exactly when their texts are, and a text hashes in C.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from .names import HierarchicalName, is_prefix

APP_FACE = "app"

DEFAULT_PIT_LIFETIME_MS = 4000.0
DEFAULT_FRESHNESS_MS = 10_000.0
DEFAULT_CS_CAPACITY = 64
DEFAULT_NONCE_CAPACITY = 1 << 16


# ===== packets =====


@dataclass(frozen=True)
class InterestPacket:
    name: HierarchicalName
    nonce: int
    hop_limit: int
    solicit_count: int = 1

    def __post_init__(self) -> None:
        if self.hop_limit < 0:
            raise ValueError("hop_limit must be >= 0")
        if self.solicit_count < 1:
            raise ValueError("solicit_count must be >= 1")


@dataclass(frozen=True)
class DataPacket:
    """A named answer. The payload is the answer itself, a dict no
    forwarder reads; it leaves the packet unhashable, and nothing hashes one."""

    name: HierarchicalName
    payload: Dict[str, Any]


# ===== emissions: what a handler asks the harness to do =====


@dataclass(frozen=True, slots=True)
class SendInterest:
    faces: Tuple[str, ...]
    packet: InterestPacket


@dataclass(frozen=True, slots=True)
class SendData:
    faces: Tuple[str, ...]
    packet: DataPacket


@dataclass(frozen=True)
class Drop:
    reason: str  # "loop" | "no-route" | "unsolicited"


# a dropped copy needs no object of its own: the handlers share these
_LOOP = Drop("loop")
_NO_ROUTE = Drop("no-route")
_UNSOLICITED = Drop("unsolicited")


Packet = Union[InterestPacket, DataPacket]
Emission = Union[SendInterest, SendData, Drop]


# ===== tables =====


@dataclass
class PitEntry:
    """Pending Interest, filed under its name: where answers must flow
    back to.

    ``downstream`` holds the faces the Interest arrived on, the first
    copy's and every aggregated one's; Data goes back out on each of
    them but the link it arrived on.
    ``remaining`` is how many further Data messages this entry will
    accept before it is consumed; a solicited stream keeps the entry
    alive across several Data arrivals. A peer-to-peer subscription is
    such an entry at its producer, so this is its only countdown.
    """

    downstream: Set[str]
    remaining: int
    expiry: float


class ContentStore:
    """LRU cache of Data packets with freshness-based expiry.

    An entry goes stale DEFAULT_FRESHNESS_MS after its insertion. Stale
    entries are purged lazily when a lookup or insert touches them, so
    the store never serves an expired item but also never needs a timer.
    """

    def __init__(self, capacity: int = DEFAULT_CS_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._items: "OrderedDict[str, Tuple[DataPacket, float]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def lookup(self, name: HierarchicalName, now: float) -> Optional[DataPacket]:
        key = name.text
        hit = self._items.get(key)
        if hit is None:
            return None
        packet, inserted_at = hit
        if inserted_at + DEFAULT_FRESHNESS_MS <= now:
            del self._items[key]
            return None
        self._items.move_to_end(key)  # refresh recency
        return packet

    def insert(self, packet: DataPacket, now: float) -> None:
        if self.capacity == 0:
            return
        key = packet.name.text
        if key in self._items:
            self._items.move_to_end(key)
        self._items[key] = (packet, now)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)  # evict least recent


class BoundedNonceSet(OrderedDict):
    """FIFO set of recently seen (name text, nonce) pairs for loop pruning.

    An OrderedDict with no overridden lookup, so ``in`` and ``len`` run
    at C level: the loop check on a forwarder's hot path makes no
    Python-level call. ``add`` evicts the oldest key once ``capacity``
    are held; re-adding a held key does not refresh it.
    """

    __slots__ = ("capacity",)  # in a slot: an instance dict per forwarder adds up

    def __init__(self, capacity: int = DEFAULT_NONCE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity

    def __repr__(self) -> str:
        return f"BoundedNonceSet(capacity={self.capacity}, held={len(self)})"

    def add(self, key: Tuple[str, int]) -> None:
        if key in self:
            return
        if len(self) >= self.capacity:
            self.popitem(last=False)
        self[key] = None


@dataclass
class NdnNode:
    """Forwarder state for one overlay node, built from its prefix; its
    application answers every name under ``prefix``."""

    prefix: HierarchicalName
    cs: ContentStore = field(default_factory=ContentStore)
    pit: Dict[str, PitEntry] = field(default_factory=dict)
    seen_nonces: BoundedNonceSet = field(default_factory=BoundedNonceSet)
    # neighbor id -> the harness's record of the link to it
    faces: Dict[str, Any] = field(default_factory=dict)


# ===== operations =====


def pit_expire(node: NdnNode, now: float) -> List[str]:
    """Drop every PIT entry whose lifetime has passed; returns their names' texts."""
    dead = [text for text, e in node.pit.items() if e.expiry <= now]
    for text in dead:
        del node.pit[text]
    return dead


def pending(node: NdnNode, text: str, now: float) -> Optional[PitEntry]:
    """The live PIT entry filed under ``text``, or None: an entry whose
    lifetime has passed is dropped here, so it never answers."""
    entry = node.pit.get(text)
    if entry is not None and entry.expiry <= now:
        del node.pit[text]
        return None
    return entry


def on_interest(
    node: NdnNode, pkt: InterestPacket, in_face: str, now: float
) -> List[Emission]:
    """Process an arriving Interest.

    Order matters: the nonce check runs before any table can answer, so
    a looped copy always dies regardless of cache state. Most flooded
    copies die there, so the check is one C-level lookup of (name text,
    nonce) with no Python-level call, and the copy's answer is the
    shared loop Drop. A Content Store hit answers on the arrival face
    without touching the PIT; a live PIT entry absorbs the Interest
    (only the first copy of a request is ever forwarded onward);
    otherwise a name under the node's prefix goes up to the
    application, any other is flooded, as one hop-spent copy, to every
    overlay face but the arrival one, and a PIT entry records the way
    back.
    """
    text = pkt.name.text
    key = (text, pkt.nonce)
    if key in node.seen_nonces:
        return [_LOOP]
    node.seen_nonces.add(key)

    cached = node.cs.lookup(pkt.name, now)
    if cached is not None:
        return [SendData((in_face,), cached)]

    entry = pending(node, text, now)
    if entry is not None:
        # aggregate: remember the extra consumer, do not re-forward
        entry.downstream.add(in_face)
        entry.remaining = max(entry.remaining, pkt.solicit_count)
        entry.expiry = max(entry.expiry, now + DEFAULT_PIT_LIFETIME_MS)
        return []

    if is_prefix(node.prefix, pkt.name):
        send = SendInterest((APP_FACE,), pkt)
    elif pkt.hop_limit <= 0:
        return [_NO_ROUTE]
    else:
        faces = sorted([f for f in node.faces if f != in_face])
        if not faces:
            return [_NO_ROUTE]
        # packets are frozen: one hop-spent copy serves every face
        spent = InterestPacket(pkt.name, pkt.nonce, pkt.hop_limit - 1, pkt.solicit_count)
        send = SendInterest(tuple(faces), spent)
    node.pit[text] = PitEntry(
        downstream={in_face},
        remaining=pkt.solicit_count,
        expiry=now + DEFAULT_PIT_LIFETIME_MS,
    )
    return [send]


def on_data(node: NdnNode, pkt: DataPacket, in_face: str, now: float) -> List[Emission]:
    """Process an arriving Data message.

    Unsolicited Data (no live PIT entry under the exact name) is
    dropped and never cached. A match sends the packet out on every
    downstream face but the link it arrived on, in sorted face order,
    caches it, and consumes one unit of the entry's solicit budget.
    """
    text = pkt.name.text
    entry = pending(node, text, now)
    if entry is None:
        return [_UNSOLICITED]

    faces = sorted(entry.downstream)
    if in_face != APP_FACE and in_face in entry.downstream:
        faces.remove(in_face)
    entry.remaining -= 1
    if entry.remaining <= 0:
        del node.pit[text]
    node.cs.insert(pkt, now)
    return [SendData(tuple(faces), pkt)] if faces else []
