"""Service capability layers and the centralized resource model.

An M2mSystem holds one network SCL plus any number of gateway and
device SCLs. Every SCL keeps its resources under its node id as
plain dicts, application name -> container name -> Container, and
embeds a forwarder for the overlay side.

Control-plane traffic here is synchronous and infrastructure-routed:
every message between two SCLs transits the network SCL, which is what
the overlay later lets endpoints avoid. A subscription is only a
delivery hook on its container, so the same append serves both: the
hook that subscribe_centralized installs relays a notify message
through the network SCL for as long as the container exists, and the
overlay's hook sends Data peer to peer for as long as the producer's
pending entry lives. A hook says whether it still stands; the append
drops one that does not.

Every message, here and on the overlay, reads back as one row of the
system's MessageLog. The log keeps its rows as flat fields in a
FlatRows, whose one list is the only object the garbage collector
tracks however many rows it holds, and builds a MessageRecord only when
a row is read; the copies of one overlay send that arrive together are
stored as one row and its destinations, and read back one row per copy.
An index or a slice is found by walking on from where the last read
began, so reads in sending order walk the log once.
The overlay keeps its dropped copies in a FlatRows too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import islice, starmap
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .names import InvalidName, parse_name
from .ndn import NdnNode

CONTROL_LEG_MS = 1.0  # one infrastructure hop, fixed

LATEST = "latest"
OLDEST = "oldest"

# message type tags used in logs and counters
MSG_REGISTER = "register"
MSG_DISCOVER_QUERY = "discover_query"
MSG_DISCOVER_RESPONSE = "discover_response"
MSG_SUBSCRIBE = "subscribe"
MSG_NOTIFY = "notify"
MSG_INTEREST = "interest"
MSG_DATA = "data"
MSG_PROBE = "probe"
MSG_LINK_UP = "link_up"

ROLE_ORIGINATED = "originated"
ROLE_RELAYED = "relayed"
ROLE_RECEIVED = "received"
ROLE_DROPPED = "dropped"


class SclError(Exception):
    pass


class AlreadyRegistered(SclError):
    pass


class NotAnNscl(SclError):
    pass


class NotRegistered(SclError):
    pass


class DuplicateResource(SclError):
    pass


class NotFound(SclError):
    pass


class EmptyContainer(NotFound):
    pass


class SclKind(Enum):
    NSCL = "nscl"
    GSCL = "gscl"
    DSCL = "dscl"


@dataclass(frozen=True)
class Locator:
    """Where one SCL is reached: its node id, also its overlay address."""

    node_id: str


@dataclass(frozen=True)
class DiscoveryResult:
    """Answer of a discovery: the resource's name, where it lives, and
    the overlay path the answer took, or None when the hub's registry
    answered."""

    uri: str
    locator: Locator
    path: Optional[Tuple[str, ...]] = None  # overlay node ids, origin first

    @property
    def method(self) -> str:
        return "centralized" if self.path is None else "distributed"

    @property
    def path_hops(self) -> Optional[int]:
        return None if self.path is None else len(self.path) - 1


# ===== resources =====


@dataclass
class Container:
    instances: List[str] = field(default_factory=list)
    # delivery hooks, hook(payload, index) -> whether the subscription stands
    subscriptions: List[Callable[[str, int], bool]] = field(default_factory=list)


@dataclass
class SclInstance:
    """One SCL. Its node id, one name component, is also the name its
    resources live under and its forwarder's prefix, its Locator, its key
    in the hub's registry and its neighbours' face id."""

    node_id: str
    kind: SclKind
    locator: Locator = field(init=False)
    system: M2mSystem = field(repr=False, compare=False)
    ndn: NdnNode = field(init=False)
    # application name -> container name -> container
    applications: Dict[str, Dict[str, Container]] = field(default_factory=dict)
    # NSCL only: node id -> registered SCL, insertion order = registration order
    registry: Dict[str, SclInstance] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _check_component(self.node_id)
        self.locator = Locator(self.node_id)
        # a node always answers for its own subtree
        self.ndn = NdnNode(self.node_id)

    @property
    def registered(self) -> bool:
        """True for the hub, and for an SCL in the hub's registry."""
        hub = self.system.nscl
        return hub is not None and (hub is self or hub.registry.get(self.node_id) is self)


# ===== accounting =====


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One line of the message log, in ``messages.csv`` column order."""

    time_ms: float
    src: str
    dst: str
    relayer: str  # "" when direct
    msg_type: str
    name: str


_STRIDE = len(MessageRecord.__slots__)  # fields per log row


class FlatRows:
    """Rows of ``width`` fields each, in the order they were added.

    One list holds every row's fields back to back, so a row of floats
    and strings is ``width`` list slots and no object the cyclic garbage
    collector tracks. The list itself is tracked, and a full collection
    walks its slots, so the store saves one tracked object per row but
    not the cost of its slots; the message log keeps a flood's copies
    in fewer of them (see MessageLog). A writer adds a row with
    ``extend(row)``, ``row`` being a sequence of ``width`` fields.
    ``len()`` counts rows; iteration and ``rows()`` give each one as a
    plain tuple.
    """

    __slots__ = ("_fields", "_width", "extend")

    def __init__(self, width: int) -> None:
        self._fields: list = []
        self._width = width
        self.extend = self._fields.extend

    def __len__(self) -> int:
        return len(self._fields) // self._width

    def __iter__(self) -> Iterator[Tuple]:
        return self.rows()

    def rows(self) -> Iterator[Tuple]:
        """Each row as a plain tuple, in the order the rows were added."""
        return zip(*[iter(self._fields)] * self._width)


class MessageLog(FlatRows):
    """The message log, one row per message, in sending order.

    A row holds the six ``MessageRecord`` fields, ``dst`` a str, added
    with ``extend((time_ms, src, dst, relayer, msg_type, name))``. The
    copies of one message to several destinations, added with
    ``extend_copies(time_ms, src, dsts, relayer, msg_type, name)``, are
    stored as one row whose ``dst`` field is the copy count, an int,
    and their destinations go to a flat side list: six slots per send
    plus one per copy, not six per copy, and no tracked object per row
    in either list. A seed-1 ``overlay-flood`` episode of the benchmark
    ends with 182,785 rows in 372,581 slots (3.1 MB), where one stored
    row per copy took 1,096,710 (8.7 MB); a full ``gc.collect()`` then
    took 15.0 ms against 18.2 ms (medians of five runs, 2-vCPU x86-64,
    CPython 3.11.7).
    Every read expands a stored row to one row per copy, in ``dsts``
    order, as if each copy had been added with ``extend``.

    ``len()`` counts the expanded rows. Iteration builds
    ``MessageRecord``s and ``rows()`` plain tuples; while no grouped row
    is stored both are a C-level walk of the flat list. An int index or
    a slice builds ``MessageRecord``s from the stored rows that hold
    them, walking the rows' ``dst`` fields on from where the last read
    began (from the first row if the key is before it), so reads in
    order, like one slice per discovery, walk each stored row about once.
    """

    __slots__ = ("_dsts", "_groups", "_mark")

    def __init__(self) -> None:
        super().__init__(_STRIDE)
        self._dsts: list = []  # every grouped row's destinations, in order
        self._groups = 0  # grouped rows stored
        # the stored row the last read began in: (its first row, its
        # index, side list position of its or the next group's destinations)
        self._mark = (0, 0, 0)

    def extend_copies(
        self, time_ms: float, src: str, dsts: Sequence[str], relayer: str, msg_type: str,
        name: str,
    ) -> None:
        """Add one row per destination in ``dsts``, all alike but for ``dst``."""
        self._fields.extend((time_ms, src, len(dsts), relayer, msg_type, name))
        self._dsts.extend(dsts)
        self._groups += 1

    def __len__(self) -> int:
        return len(self._fields) // _STRIDE - self._groups + len(self._dsts)

    def __iter__(self) -> Iterator[MessageRecord]:
        return starmap(MessageRecord, self.rows())

    def rows(self) -> Iterator[Tuple]:
        """Each row as a plain tuple, in ``messages.csv`` column order."""
        if not self._groups:
            return super().rows()
        return self._expand(self._fields, 0)

    def __getitem__(self, key):
        """A record for an int index, a list of records for a slice,
        with a list's rules for negative and out-of-range keys."""
        picked = range(len(self))[key]
        if isinstance(picked, int):
            return MessageRecord(*self._span(picked, picked + 1)[0])
        if not picked:
            return []
        if picked.step > 0:
            rows = self._span(picked.start, picked[-1] + 1)[:: picked.step]
        else:
            rows = self._span(picked[-1], picked.start + 1)[::-1][:: -picked.step]
        return list(starmap(MessageRecord, rows))

    def _expand(self, fields: Iterable, d: int) -> Iterator[Tuple]:
        """The rows of ``fields``, whole stored rows whose first grouped
        row's destinations start at ``d`` in the side list, one per copy."""
        dsts = self._dsts
        for row in zip(*[iter(fields)] * _STRIDE):
            k = row[2]
            if type(k) is int:
                time_ms, src, _, relayer, msg_type, name = row
                for dst in dsts[d : d + k]:
                    yield time_ms, src, dst, relayer, msg_type, name
                d += k
            else:
                yield row

    def _span(self, lo: int, hi: int) -> List[Tuple]:
        """Rows ``lo`` to ``hi - 1`` as plain tuples, 0 <= lo < hi <= len(self),
        walked from the stored row that holds the last read's first row,
        or from the start when ``lo`` is before it."""
        i, r, d = self._mark if lo >= self._mark[0] else (0, 0, 0)
        fields = self._fields
        while True:  # on to the stored row that holds row lo
            k = fields[r * _STRIDE + 2]
            grouped = type(k) is int
            n = k if grouped else 1
            if lo < i + n:
                break
            i, r, d = i + n, r + 1, d + (k if grouped else 0)
        self._mark = (i, r, d)
        tail = map(fields.__getitem__, range(r * _STRIDE, len(fields)))  # no copy
        return list(islice(self._expand(tail, d), lo - i, hi - i))


class MessageCounters:
    """Per-node, per-type, per-role message tallies.

    Kept as message type -> role -> node id -> count, nested dicts keyed
    by the strs the callers pass, so ``record``, called once per link
    traversal, is two str-keyed lookups and one update and builds no
    key tuple. A tally recorded with count 0 is still a row; ``get`` of
    an absent tally reads 0 and adds none. ``rows`` flattens the tallies
    to (node, type, role, count) and sorts them, the order of
    ``counters.csv``.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[str, Dict[str, int]]] = {}

    def record(self, node_id: str, msg_type: str, role: str, count: int = 1) -> None:
        """Add ``count`` messages to the tally of (node_id, msg_type, role)."""
        try:
            by_node = self._counts[msg_type][role]
        except KeyError:
            by_node = self._counts.setdefault(msg_type, {}).setdefault(role, {})
        by_node[node_id] = by_node.get(node_id, 0) + count

    def get(self, node_id: str, msg_type: str, role: str) -> int:
        return self._counts.get(msg_type, {}).get(role, {}).get(node_id, 0)

    def total(self, msg_type: Optional[str] = None, role: Optional[str] = None) -> int:
        return sum(
            sum(by_node.values())
            for t, by_role in self._counts.items()
            if msg_type is None or t == msg_type
            for r, by_node in by_role.items()
            if role is None or r == role
        )

    def rows(self) -> List[Tuple[str, str, str, int]]:
        return sorted(
            (n, t, r, v)
            for t, by_role in self._counts.items()
            for r, by_node in by_role.items()
            for n, v in by_node.items()
        )


class M2mSystem:
    """One deployment: the SCL population, a shared clock, and logs."""

    def __init__(self) -> None:
        self.clock_ms = 0.0
        self.scls: Dict[str, SclInstance] = {}
        self.nscl: Optional[SclInstance] = None
        self.log: MessageLog = MessageLog()
        self.counters = MessageCounters()

    def add_scl(self, kind: SclKind, node_id: str) -> SclInstance:
        """Add an SCL; its node id must be one name component (InvalidName)."""
        if node_id in self.scls:
            raise DuplicateResource(f"node id {node_id!r} taken")
        if kind is SclKind.NSCL and self.nscl is not None:
            raise SclError("system already has a network SCL")
        scl = SclInstance(node_id, kind, self)
        self.scls[node_id] = scl
        if kind is SclKind.NSCL:
            self.nscl = scl  # the hub registers with nobody
        return scl

    def scl(self, node_id: str) -> SclInstance:
        try:
            return self.scls[node_id]
        except KeyError:
            raise NotFound(f"no SCL {node_id!r}") from None

    def send(self, src: str, dst: str, relayer: str, msg_type: str, name: str) -> None:
        """One synchronous control-plane message: a direct leg when
        ``relayer`` is "", else two legs through it (normally the NSCL)."""
        self.clock_ms += 2 * CONTROL_LEG_MS if relayer else CONTROL_LEG_MS
        self.log.extend((self.clock_ms, src, dst, relayer, msg_type, name))
        self.counters.record(src, msg_type, ROLE_ORIGINATED)
        if relayer:
            self.counters.record(relayer, msg_type, ROLE_RELAYED)
        self.counters.record(dst, msg_type, ROLE_RECEIVED)


# ===== operations =====


def _check_component(part: str) -> None:
    """Raise InvalidName unless ``part`` is one name component."""
    parse_name(part)  # a non-str or empty part
    if "/" in part:
        raise InvalidName(f"{part!r} is not one name component")


def register_scl(scl: SclInstance, nscl: SclInstance) -> None:
    """Two-message registration handshake with the network SCL."""
    if nscl.kind is not SclKind.NSCL:
        raise NotAnNscl(f"{nscl.node_id} is a {nscl.kind.value}")
    if scl.registered:
        raise AlreadyRegistered(scl.node_id)
    system = _shared_system(scl, nscl)
    system.send(scl.node_id, nscl.node_id, "", MSG_REGISTER, scl.node_id)
    system.send(nscl.node_id, scl.node_id, "", MSG_REGISTER, scl.node_id)
    nscl.registry[scl.node_id] = scl


def _shared_system(*scls: SclInstance) -> M2mSystem:
    system = scls[0].system
    for other in scls[1:]:
        if other.system is not system:
            raise SclError("SCLs live in different systems")
    return system


def create_application(scl: SclInstance, app_name: str) -> str:
    """Local registration of an application resource; no wire traffic."""
    _check_component(app_name)
    if app_name in scl.applications:
        raise DuplicateResource(app_name)
    scl.applications[app_name] = {}
    return f"{scl.node_id}/applications/{app_name}"


def create_container(scl: SclInstance, app_name: str, container_name: str) -> str:
    containers = scl.applications.get(app_name)
    if containers is None:
        raise NotFound(f"application {app_name!r}")
    _check_component(container_name)
    if container_name in containers:
        raise DuplicateResource(container_name)
    containers[container_name] = Container()
    return f"{scl.node_id}/applications/{app_name}/containers/{container_name}"


def create_content_instance(
    scl: SclInstance, app_name: str, container_name: str, payload: str
) -> int:
    """Append one instance and hand it to every subscription.

    Each subscription's hook carries the instance to its subscriber, in
    subscribing order, and returns whether the subscription still
    stands; one that no longer does is dropped. Returns the new
    instance index.
    """
    container = _container(scl, app_name, container_name)
    container.instances.append(payload)
    index = len(container.instances) - 1
    container.subscriptions = [hook for hook in container.subscriptions if hook(payload, index)]
    return index


def _container(scl: SclInstance, app_name: str, container_name: str) -> Container:
    containers = scl.applications.get(app_name)
    if containers is None:
        raise NotFound(f"application {app_name!r}")
    container = containers.get(container_name)
    if container is None:
        raise NotFound(f"container {container_name!r}")
    return container


def resolve_resource(scl: SclInstance, name: str):
    """Walk ``name``, a canonical name text, through the SCL's resources.

    Returns ("scl", scl) for the SCL's own node id, ("application",
    containers) with the application's container dict, ("container",
    container), or ("instance", payload, index). An instance is named
    "latest", "oldest" or by its index in canonical ASCII decimal ("0",
    "1", "10", ...); any other spelling is NotFound.
    Raises NotFound when any step is missing, EmptyContainer when a
    virtual instance is asked of an empty container.
    """
    parts = name.split("/")
    if parts[0] != scl.node_id:
        raise NotFound(f"{name} is outside {scl.node_id}")
    rest = parts[1:]
    if not rest:
        return ("scl", scl)
    if rest[0] != "applications" or len(rest) < 2:
        raise NotFound(name)
    containers = scl.applications.get(rest[1])
    if containers is None:
        raise NotFound(name)
    if len(rest) == 2:
        return ("application", containers)
    if rest[2] != "containers" or len(rest) < 4:
        raise NotFound(name)
    container = containers.get(rest[3])
    if container is None:
        raise NotFound(name)
    if len(rest) == 4:
        return ("container", container)
    if rest[4] != "content_instances" or len(rest) != 6:
        raise NotFound(name)
    selector = rest[5]
    if selector in (LATEST, OLDEST):
        if not container.instances:
            raise EmptyContainer(name)
        index = len(container.instances) - 1 if selector == LATEST else 0
    else:
        # one name per instance: not "010", "+10", "1_0" or " 10",
        # which int() would all read as 10
        canonical = selector.isascii() and selector.isdigit() and (
            selector == "0" or selector[0] != "0"
        )
        if not canonical:
            raise NotFound(name)
        index = int(selector)
        if index >= len(container.instances):
            raise NotFound(name)
    return ("instance", container.instances[index], index)


def _resolve_query(nscl: SclInstance, query: str) -> Tuple[SclInstance, str]:
    """Find the registered SCL that can answer ``query``, a canonical
    name text, and the resource's full name.

    Accepts full resource paths (first component = a registered SCL's
    node id) and bare application names, which are expanded against each
    registered SCL in registration order.
    """
    head, sep, _ = query.partition("/")
    owner = nscl.registry.get(head)
    if owner is not None:
        resolve_resource(owner, query)  # raises NotFound if bogus
        return owner, query
    if not sep:
        for owner in nscl.registry.values():
            if head in owner.applications:
                return owner, f"{owner.node_id}/applications/{head}"
    raise NotFound(query)


def centralized_discover(origin: SclInstance, nscl: SclInstance, query: str) -> DiscoveryResult:
    """Resource discovery through the network SCL's registry.

    Two query/response exchanges, both relayed: one to locate the
    hosting SCL, one to confirm the resource itself. This is the
    fallback when no overlay answer arrives. Raises InvalidName when
    ``query`` is no name.
    """
    query = parse_name(query)
    if nscl.kind is not SclKind.NSCL:
        raise NotAnNscl(nscl.node_id)
    if not origin.registered:
        raise NotRegistered(origin.node_id)
    system = _shared_system(origin, nscl)
    owner, uri = _resolve_query(nscl, query)
    relayer = nscl.node_id
    system.send(origin.node_id, owner.node_id, relayer, MSG_DISCOVER_QUERY, query)
    system.send(owner.node_id, origin.node_id, relayer, MSG_DISCOVER_RESPONSE, owner.node_id)
    system.send(origin.node_id, owner.node_id, relayer, MSG_DISCOVER_QUERY, uri)
    system.send(owner.node_id, origin.node_id, relayer, MSG_DISCOVER_RESPONSE, uri)
    return DiscoveryResult(uri=uri, locator=owner.locator)


def subscribe_centralized(origin: SclInstance, nscl: SclInstance, target: str) -> None:
    """Register interest in a container; notifications will transit the
    network SCL on every future append, named by the instance's URI.
    Raises InvalidName when ``target`` is no name."""
    target = parse_name(target)
    if nscl.kind is not SclKind.NSCL:
        raise NotAnNscl(nscl.node_id)
    if not origin.registered:
        raise NotRegistered(origin.node_id)
    system = _shared_system(origin, nscl)
    owner, uri = _resolve_query(nscl, target)
    resolved = resolve_resource(owner, uri)
    if resolved[0] != "container":
        raise NotFound(f"{target} is not a container")
    hook = partial(_relay_notification, system, owner.node_id, origin.node_id, nscl.node_id, uri)
    resolved[1].subscriptions.append(hook)
    system.send(origin.node_id, owner.node_id, nscl.node_id, MSG_SUBSCRIBE, uri)


def _relay_notification(
    system: M2mSystem, owner: str, subscriber: str, hub: str,
    container_uri: str, payload: str, index: int,
) -> bool:
    """Hook of a hub subscription: one notify message through the hub,
    named by the instance's URI; a hub subscription never lapses."""
    system.send(owner, subscriber, hub, MSG_NOTIFY, f"{container_uri}/content_instances/{index}")
    return True
