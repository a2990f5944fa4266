"""End-to-end smart metering scenarios, with and without the overlay.

Two deployments are modeled, each one ScenarioSpec in SCENARIOS and
both driven by run_scenario. In the first, a monitoring device tracks
a meter application behind a single gateway; the baseline (overlay
off) routes every notification through the network SCL, while the
overlay variant discovers the producer, brings up one direct link and
subscribes peer to peer. In the second, the meter sits three gateway
domains away and the pre-seeded overlay chain is no longer than the
overlay's MAX_PATH_HOPS, so discovery succeeds without the hub and no
new link is needed. The link-admission policy lives in the overlay
module alone: discovery searches MAX_PATH_HOPS deep, and ensure_link
decides on the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .names import parse_name
from .overlay import MAX_PATH_HOPS, LinkMetrics, Overlay, QosMetrics
from .scl import (
    DiscoveryResult,
    M2mSystem,
    SclInstance,
    SclKind,
    centralized_discover,
    create_application,
    create_container,
    create_content_instance,
    register_scl,
    subscribe_centralized,
)

NSCL_ID = "Nscl"
SUBSCRIBER_ID = "Dscl1"
CONTAINER = "meter_data"


@dataclass(frozen=True)
class ScenarioSpec:
    """One metering deployment.

    NSCL_ID, the ``gateways`` and the subscriber SUBSCRIBER_ID register
    with the hub and join the overlay; ``producer`` hosts ``app`` with
    one CONTAINER. ``chain`` is the default overlay, a node path from
    the subscriber to the producer (empty: no links); custom links
    replace it. With the overlay on, discovery asks for the app's
    full URI when ``discover_by_uri`` is set and else for its bare
    name, which only the hub can expand; the baseline asks the hub by
    bare name.
    """

    gateways: Tuple[str, ...]
    producer: str
    app: str
    chain: Tuple[str, ...] = ()
    discover_by_uri: bool = False

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Every SCL of the deployment; all of them join the overlay."""
        return (NSCL_ID, *self.gateways, SUBSCRIBER_ID)


SCENARIOS = {
    # meter behind one gateway; the monitor knows nothing yet
    "usecase1": ScenarioSpec(gateways=("Gscl1",), producer="Gscl1", app="meter_app"),
    # meter three gateway domains away over an existing overlay chain
    "usecase2": ScenarioSpec(
        gateways=("Gscl1", "Gscl2", "Gscl3"),
        producer="Gscl1",
        app="electricity_meter",
        chain=(SUBSCRIBER_ID, "Gscl3", "Gscl2", "Gscl1"),
        discover_by_uri=True,
    ),
}

SCENARIO_NAMES = tuple(SCENARIOS)

# custom-topology escape hatch: (u, v, delay_ms, loss, capacity)
LinkSpec = Tuple[str, str, float, float, float]


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    oscl_enabled: bool = True
    appends: int = 5
    seed: int = 0
    links: Optional[Tuple[LinkSpec, ...]] = None  # None = the spec's chain

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.appends < 1:
            raise ValueError("appends must be >= 1")


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    system: M2mSystem
    overlay: Overlay
    subscriber: SclInstance
    container_uri: str
    discovery: DiscoveryResult
    qos: Optional[QosMetrics] = None
    new_links: int = 0  # overlay links the run added; ensure_link adds at most one


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build the configured deployment, subscribe, then append readings."""
    spec = SCENARIOS[config.scenario]
    system = M2mSystem()
    nscl = system.add_scl(SclKind.NSCL, NSCL_ID)
    gateways = [system.add_scl(SclKind.GSCL, node_id) for node_id in spec.gateways]
    dscl = system.add_scl(SclKind.DSCL, SUBSCRIBER_ID)
    for scl in (*gateways, dscl):
        register_scl(scl, nscl)

    producer = system.scl(spec.producer)
    app_uri = create_application(producer, spec.app)
    container_uri = create_container(producer, spec.app, CONTAINER)
    create_application(dscl, "monitor_app")  # local registration only

    overlay = Overlay(system, seed=config.seed)
    for scl in (nscl, *gateways, dscl):
        overlay.add_node(scl)
    if config.links is None:
        for u, v in zip(spec.chain, spec.chain[1:]):
            overlay.add_link(u, v)
    else:
        for u, v, delay_ms, loss, capacity in config.links:
            overlay.add_link(u, v, LinkMetrics(delay_ms, loss, capacity))

    bare_app = parse_name(spec.app)
    qos, new_links = None, 0
    if config.oscl_enabled:
        query = app_uri if spec.discover_by_uri else bare_app
        discovery = overlay.discover(dscl.node_id, query, scope=MAX_PATH_HOPS, nscl=nscl)
        if discovery.path_hops not in (None, 0):
            qos = overlay.qos_monitor(discovery.path)
        new_links = int(overlay.ensure_link(dscl.node_id, discovery, qos))
        overlay.p2p_subscribe(dscl.node_id, container_uri, expected_notifications=config.appends)
    else:
        discovery = centralized_discover(dscl, nscl, bare_app)
        subscribe_centralized(dscl, nscl, container_uri)

    for i in range(config.appends):
        create_content_instance(producer, spec.app, CONTAINER, f"reading-{i}")
    return ScenarioResult(config, system, overlay, dscl, container_uri, discovery, qos, new_links)
