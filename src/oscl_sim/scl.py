"""Service capability layers and the centralized resource model.

An M2mSystem holds one network SCL plus any number of gateway and
device SCLs. Every SCL owns a resource tree rooted at its base name
(applications -> containers -> content instances) and an embedded
forwarder for the overlay side.

Control-plane traffic here is synchronous and infrastructure-routed:
every message between two SCLs transits the network SCL, which is what
the overlay later lets endpoints avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from .names import HierarchicalName, parse_name
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
    """Network-layer address record for one SCL."""

    node_id: str
    host: str
    port: int

    def __post_init__(self) -> None:
        if not (1 <= self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")


@dataclass(frozen=True)
class DiscoveryResult:
    """Answer of a discovery: where the resource lives and how we learned."""

    uri: HierarchicalName
    locator: Locator
    method: str  # "distributed" | "centralized"
    path: Optional[Tuple[str, ...]] = None  # overlay node ids, origin first

    def __post_init__(self) -> None:
        if self.method not in ("distributed", "centralized"):
            raise ValueError(f"unknown method {self.method!r}")
        if (self.path is not None) != (self.method == "distributed"):
            raise ValueError("path must be present exactly for distributed results")

    @property
    def path_hops(self) -> Optional[int]:
        return None if self.path is None else len(self.path) - 1


@dataclass
class Subscription:
    """Standing request for future content instances of one container."""

    subscriber: Locator
    mode: str  # "centralized" | "p2p"
    delivery_path: Optional[Tuple[str, ...]] = None  # p2p only, producer first
    remaining: Optional[int] = None  # None = unbounded
    deliver: Optional[Callable[[str, int], None]] = None  # p2p hook

    def __post_init__(self) -> None:
        if self.mode not in ("centralized", "p2p"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.delivery_path is not None) != (self.mode == "p2p"):
            raise ValueError("delivery_path must be present exactly for p2p")

    @property
    def active(self) -> bool:
        return self.remaining != 0


# ===== resource tree =====


@dataclass
class Container:
    name: str
    instances: List[str] = field(default_factory=list)
    subscriptions: List[Subscription] = field(default_factory=list)


@dataclass
class Application:
    name: str
    containers: Dict[str, Container] = field(default_factory=dict)


@dataclass
class ResourceTree:
    applications: Dict[str, Application] = field(default_factory=dict)


@dataclass
class SclInstance:
    node_id: str
    kind: SclKind
    base_name: HierarchicalName
    locator: Locator
    tree: ResourceTree = field(default_factory=ResourceTree)
    ndn: NdnNode = field(init=False)
    registered: bool = False
    # NSCL only: base-name label -> locator, insertion order = registration order
    registry: Dict[str, Locator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a node always answers for its own subtree
        self.ndn = NdnNode(self.node_id, self.base_name)


# ===== accounting =====


@dataclass(frozen=True, slots=True)
class MessageRecord:
    time_ms: float
    src: str
    dst: str
    relayer: str  # "" when direct
    msg_type: str
    name: str


class MessageCounters:
    """Per-node, per-type, per-role message tallies."""

    def __init__(self) -> None:
        self._counts: Dict[Tuple[str, str, str], int] = {}

    def record(self, node_id: str, msg_type: str, role: str) -> None:
        key = (node_id, msg_type, role)
        self._counts[key] = self._counts.get(key, 0) + 1

    def get(self, node_id: str, msg_type: str, role: str) -> int:
        return self._counts.get((node_id, msg_type, role), 0)

    def total(self, msg_type: Optional[str] = None, role: Optional[str] = None) -> int:
        return sum(
            v
            for (_, t, r), v in self._counts.items()
            if (msg_type is None or t == msg_type) and (role is None or r == role)
        )

    def rows(self) -> List[Tuple[str, str, str, int]]:
        return [
            (n, t, r, v) for (n, t, r), v in sorted(self._counts.items())
        ]


class M2mSystem:
    """One deployment: the SCL population, a shared clock, and logs."""

    def __init__(self) -> None:
        self.clock_ms = 0.0
        self.scls: Dict[str, SclInstance] = {}
        self.nscl: Optional[SclInstance] = None
        self.log: List[MessageRecord] = []
        self.counters = MessageCounters()
        self._base_names: Dict[str, str] = {}  # base label -> node id

    def add_scl(
        self,
        kind: SclKind,
        node_id: str,
        host: str = "10.0.0.1",
        port: int = 4000,
    ) -> SclInstance:
        if node_id in self.scls:
            raise DuplicateResource(f"node id {node_id!r} taken")
        if kind is SclKind.NSCL and self.nscl is not None:
            raise SclError("system already has a network SCL")
        base = parse_name(node_id)
        label = base.components[0]
        if label in self._base_names:
            raise DuplicateResource(f"base name {label!r} taken")
        scl = SclInstance(node_id=node_id, kind=kind, base_name=base, locator=Locator(node_id, host, port))
        scl._system = self  # type: ignore[attr-defined]
        self.scls[node_id] = scl
        self._base_names[label] = node_id
        if kind is SclKind.NSCL:
            self.nscl = scl
            scl.registered = True  # the hub registers with nobody
        return scl

    def scl(self, node_id: str) -> SclInstance:
        try:
            return self.scls[node_id]
        except KeyError:
            raise NotFound(f"no SCL {node_id!r}") from None

    # --- synchronous control-plane message primitives ---

    def send_direct(self, src: str, dst: str, msg_type: str, name: str) -> None:
        self.clock_ms += CONTROL_LEG_MS
        self.log.append(MessageRecord(self.clock_ms, src, dst, "", msg_type, name))
        self.counters.record(src, msg_type, ROLE_ORIGINATED)
        self.counters.record(dst, msg_type, ROLE_RECEIVED)

    def send_relayed(self, src: str, dst: str, relayer: str, msg_type: str, name: str) -> None:
        """Two infrastructure legs through ``relayer`` (normally the NSCL)."""
        self.clock_ms += 2 * CONTROL_LEG_MS
        self.log.append(MessageRecord(self.clock_ms, src, dst, relayer, msg_type, name))
        self.counters.record(src, msg_type, ROLE_ORIGINATED)
        self.counters.record(relayer, msg_type, ROLE_RELAYED)
        self.counters.record(dst, msg_type, ROLE_RECEIVED)


# ===== operations =====


def register_scl(scl: SclInstance, nscl: SclInstance) -> None:
    """Two-message registration handshake with the network SCL."""
    if nscl.kind is not SclKind.NSCL:
        raise NotAnNscl(f"{nscl.node_id} is a {nscl.kind.value}")
    if scl.registered:
        raise AlreadyRegistered(scl.node_id)
    system = _shared_system(scl, nscl)
    system.send_direct(scl.node_id, nscl.node_id, MSG_REGISTER, str(scl.base_name))
    system.send_direct(nscl.node_id, scl.node_id, MSG_REGISTER, str(scl.base_name))
    nscl.registry[scl.base_name.components[0]] = scl.locator
    scl.registered = True


def _shared_system(*scls: SclInstance) -> M2mSystem:
    system = getattr(scls[0], "_system", None)
    if system is None:
        raise SclError("SCL not attached to a system")
    for other in scls[1:]:
        if getattr(other, "_system", None) is not system:
            raise SclError("SCLs live in different systems")
    return system


def create_application(scl: SclInstance, app_name: str) -> HierarchicalName:
    """Local registration of an application resource; no wire traffic."""
    if app_name in scl.tree.applications:
        raise DuplicateResource(app_name)
    scl.tree.applications[app_name] = Application(app_name)
    return scl.base_name.extend("applications", app_name)


def create_container(scl: SclInstance, app_name: str, container_name: str) -> HierarchicalName:
    app = scl.tree.applications.get(app_name)
    if app is None:
        raise NotFound(f"application {app_name!r}")
    if container_name in app.containers:
        raise DuplicateResource(container_name)
    app.containers[container_name] = Container(container_name)
    return scl.base_name.extend("applications", app_name, "containers", container_name)


def create_content_instance(
    scl: SclInstance, app_name: str, container_name: str, payload: str
) -> int:
    """Append one instance and fan out notifications to live subscribers.

    Centralized subscribers are notified through the network SCL;
    peer-to-peer subscribers through their overlay delivery hook. Each
    notification spends one unit of a bounded subscription, which goes
    inactive when none remain. Returns the new instance index.
    """
    container = _container(scl, app_name, container_name)
    container.instances.append(payload)
    index = len(container.instances) - 1
    for sub in list(container.subscriptions):
        if not sub.active:
            continue
        if sub.mode == "centralized":
            system = _shared_system(scl)
            if system.nscl is None:
                raise SclError("centralized notification needs a network SCL")
            instance_uri = scl.base_name.extend(
                "applications", app_name, "containers", container_name,
                "content_instances", str(index),
            )
            system.send_relayed(
                scl.node_id, sub.subscriber.node_id, system.nscl.node_id, MSG_NOTIFY, str(instance_uri)
            )
        else:
            assert sub.deliver is not None
            sub.deliver(payload, index)
        if sub.remaining is not None:
            sub.remaining -= 1
    return index


def _container(scl: SclInstance, app_name: str, container_name: str) -> Container:
    app = scl.tree.applications.get(app_name)
    if app is None:
        raise NotFound(f"application {app_name!r}")
    container = app.containers.get(container_name)
    if container is None:
        raise NotFound(f"container {container_name!r}")
    return container


def resolve_resource(scl: SclInstance, name: HierarchicalName):
    """Walk ``name`` through the SCL's tree.

    Returns ("scl", scl) for the bare base name, ("application", app),
    ("container", container), or ("instance", payload, index).
    Raises NotFound when any step is missing, EmptyContainer when a
    virtual instance is asked of an empty container.
    """
    base = scl.base_name.components
    parts = name.components
    if parts[: len(base)] != base:
        raise NotFound(f"{name} is outside {scl.base_name}")
    rest = parts[len(base):]
    if not rest:
        return ("scl", scl)
    if rest[0] != "applications" or len(rest) < 2:
        raise NotFound(str(name))
    app = scl.tree.applications.get(rest[1])
    if app is None:
        raise NotFound(str(name))
    if len(rest) == 2:
        return ("application", app)
    if rest[2] != "containers" or len(rest) < 4:
        raise NotFound(str(name))
    container = app.containers.get(rest[3])
    if container is None:
        raise NotFound(str(name))
    if len(rest) == 4:
        return ("container", container)
    if rest[4] != "content_instances" or len(rest) != 6:
        raise NotFound(str(name))
    selector = rest[5]
    if selector in (LATEST, OLDEST):
        if not container.instances:
            raise EmptyContainer(str(name))
        index = len(container.instances) - 1 if selector == LATEST else 0
    else:
        try:
            index = int(selector)
        except ValueError:
            raise NotFound(str(name)) from None
        if not (0 <= index < len(container.instances)):
            raise NotFound(str(name))
    return ("instance", container.instances[index], index)


def read_resource(scl: SclInstance, name: HierarchicalName) -> str:
    """Local read of a content instance (supports latest/oldest)."""
    kind, *rest = resolve_resource(scl, name)
    if kind != "instance":
        raise NotFound(f"{name} is not a content instance")
    return rest[0]


def _resolve_query(
    nscl: SclInstance, query: HierarchicalName
) -> Tuple[SclInstance, HierarchicalName]:
    """Find the registered SCL that can answer ``query``.

    Accepts full resource paths (first component = a registered base
    name) and bare application names, which are expanded against each
    registered SCL in registration order.
    """
    system = _shared_system(nscl)
    head = query.components[0]
    if head in nscl.registry:
        owner = system.scl(nscl.registry[head].node_id)
        resolve_resource(owner, query)  # raises NotFound if bogus
        return owner, query
    if len(query.components) == 1:
        for label in nscl.registry:
            owner = system.scl(nscl.registry[label].node_id)
            if head in owner.tree.applications:
                return owner, owner.base_name.extend("applications", head)
    raise NotFound(str(query))


def centralized_discover(
    origin: SclInstance, nscl: SclInstance, query: HierarchicalName
) -> DiscoveryResult:
    """Resource discovery through the network SCL's registry.

    Two query/response exchanges, both relayed: one to locate the
    hosting SCL, one to confirm the resource itself. This is the
    fallback when no overlay answer arrives.
    """
    if nscl.kind is not SclKind.NSCL:
        raise NotAnNscl(nscl.node_id)
    if not origin.registered:
        raise NotRegistered(origin.node_id)
    system = _shared_system(origin, nscl)
    owner, uri = _resolve_query(nscl, query)
    relayer = nscl.node_id
    system.send_relayed(origin.node_id, owner.node_id, relayer, MSG_DISCOVER_QUERY, str(query))
    system.send_relayed(owner.node_id, origin.node_id, relayer, MSG_DISCOVER_RESPONSE, str(owner.base_name))
    system.send_relayed(origin.node_id, owner.node_id, relayer, MSG_DISCOVER_QUERY, str(uri))
    system.send_relayed(owner.node_id, origin.node_id, relayer, MSG_DISCOVER_RESPONSE, str(uri))
    return DiscoveryResult(uri=uri, locator=owner.locator, method="centralized")


def subscribe_centralized(
    origin: SclInstance, nscl: SclInstance, target: HierarchicalName
) -> Subscription:
    """Register interest in a container; notifications will transit the
    network SCL on every future append."""
    if nscl.kind is not SclKind.NSCL:
        raise NotAnNscl(nscl.node_id)
    if not origin.registered:
        raise NotRegistered(origin.node_id)
    system = _shared_system(origin, nscl)
    owner, uri = _resolve_query(nscl, target)
    resolved = resolve_resource(owner, uri)
    if resolved[0] != "container":
        raise NotFound(f"{target} is not a container")
    container: Container = resolved[1]
    sub = Subscription(subscriber=origin.locator, mode="centralized")
    container.subscriptions.append(sub)
    system.send_relayed(origin.node_id, owner.node_id, nscl.node_id, MSG_SUBSCRIBE, str(uri))
    return sub
