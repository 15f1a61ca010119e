"""Real-transport service layer: the coordinator as an asyncio TCP server.

Everything below :mod:`repro.engine` treats the network as an in-process
simulation: messages are Python objects handed across a metered
:class:`~repro.comm.network.Network`.  This package stands the coordinator
up as an actual server and the sites as independent client *processes*, so
a cluster estimate runs over real localhost (or LAN) sockets:

* :mod:`repro.service.messages` — the service's small message schema
  (hello/assign, round open, metered message push/echo, task fan-out,
  query/answer, error) over the length-prefixed framing of
  :mod:`repro.comm.framing`; payloads travel in the byte-exact wire codec
  of :mod:`repro.comm.wire` (arrays and bundles) with a pickle fallback
  for composite protocol payloads.
* :mod:`repro.service.transport` — :class:`~repro.service.transport
  .RemoteNetwork` and :class:`~repro.service.transport.RemoteTreeNetwork`
  (the in-process star and depth-<=2 tree, whose every message also ships
  its encoded payload over a TCP connection through one shared socket
  carrier that counts **observed** wire bytes per edge per round) and
  :class:`~repro.service.transport.RemoteRuntime` (a
  :class:`~repro.engine.runtime.Runtime` that fans per-site tasks out to
  the site processes).
* :mod:`repro.service.server` — the asyncio coordinator server.
* :mod:`repro.service.client` — the site-agent process loop and the
  client-side query proxy (:func:`repro.service.client.connect`).
* :mod:`repro.service.cli` — the ``repro-serve`` / ``repro-site``
  console entry points.
* :mod:`repro.service.tenancy` — the multi-tenant
  :class:`~repro.service.tenancy.SessionManager`: N independent streaming
  sessions multiplexed over one shared runtime with per-tenant quotas and
  billing-grade cost reports.
* :mod:`repro.service.metrics` — a dependency-free Prometheus
  text-exposition registry, scrapeable from the coordinator's port with a
  plain ``GET /metrics``.

The contract the test suite pins (``tests/service/``): a k-site cluster
over real sockets produces **bit-identical estimates and bit/round meters**
to the in-process serial runtime, and the observed socket bytes satisfy
``observed_bytes * 8 == wire-metered bits`` on every link and tree edge
and in every round — exactly, with
the streamed session's delta uploads additionally matching the in-process
simulated meter byte for byte (streaming bits *are* encoded bytes).
"""

from repro.service.client import AggregatorAgent, SiteAgent, connect, local_cluster
from repro.service.metrics import MetricsRegistry, parse_metrics_text
from repro.service.server import CoordinatorServer
from repro.service.tenancy import (
    PriceSchedule,
    QuotaExceededError,
    SessionManager,
    TenantCostReport,
    TenantQuota,
)
from repro.service.transport import (
    RemoteNetwork,
    RemoteRuntime,
    RemoteTreeNetwork,
    SocketTransport,
)

__all__ = [
    "AggregatorAgent",
    "CoordinatorServer",
    "MetricsRegistry",
    "PriceSchedule",
    "QuotaExceededError",
    "RemoteNetwork",
    "RemoteRuntime",
    "RemoteTreeNetwork",
    "SessionManager",
    "SiteAgent",
    "SocketTransport",
    "TenantCostReport",
    "TenantQuota",
    "connect",
    "local_cluster",
    "parse_metrics_text",
]
