"""Connection management: an ``rdma_cm``-flavoured listener/connector.

The fabric registry knows which duplex path joins any two devices; the
connection manager runs a small handshake over that path (address/route
resolution plus the REQ/REP/RTU exchange, ~1.5 RTT) and leaves both QPs
attached and ready to use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, Tuple

from repro.sim.events import Event
from repro.sim.resources import Store
from repro.verbs.errors import VerbsError
from repro.verbs.qp import QueuePair, connect_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import DuplexPath
    from repro.sim.engine import Engine
    from repro.verbs.device import Device

__all__ = ["RdmaFabric", "ConnectionManager", "ConnectRequest", "Listener"]


class RdmaFabric:
    """Registry of duplex paths between device pairs."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._paths: Dict[Tuple[int, int], "DuplexPath"] = {}

    def wire(self, dev_a: "Device", dev_b: "Device", duplex: "DuplexPath") -> None:
        """Declare that ``duplex.forward`` runs from ``dev_a`` to ``dev_b``."""
        self._paths[(dev_a.guid, dev_b.guid)] = duplex
        self._paths[(dev_b.guid, dev_a.guid)] = duplex.reversed()

    def path_between(self, src: "Device", dst: "Device") -> "DuplexPath":
        """The duplex path from ``src``'s point of view."""
        try:
            return self._paths[(src.guid, dst.guid)]
        except KeyError:
            raise VerbsError(
                f"no fabric path between {src!r} and {dst!r}"
            ) from None


@dataclass
class ConnectRequest:
    """An inbound connection request awaiting accept."""

    source: "Device"
    port: int
    private_data: Any
    _reply: Event = field(repr=False, default=None)  # type: ignore[assignment]

    def accept(self, qp: QueuePair) -> None:
        """Accept with the server-side QP to pair with the initiator's."""
        self._reply.succeed(qp)


class Listener:
    """A passive endpoint accepting connections on (device, port)."""

    def __init__(self, cm: "ConnectionManager", device: "Device", port: int) -> None:
        self.cm = cm
        self.device = device
        self.port = port
        self._backlog = Store(device.engine)

    def get_request(self) -> Event:
        """Event resolving to the next :class:`ConnectRequest`."""
        return self._backlog.get()


class ConnectionManager:
    """Pairs QPs across the fabric with a simulated CM handshake."""

    def __init__(self, fabric: RdmaFabric) -> None:
        self.fabric = fabric
        self.engine = fabric.engine
        self._listeners: Dict[Tuple[int, int], Listener] = {}

    # -- passive side ---------------------------------------------------------
    def listen(self, device: "Device", port: int) -> Listener:
        key = (device.guid, port)
        if key in self._listeners:
            raise VerbsError(f"port {port} already bound on {device!r}")
        listener = Listener(self, device, port)
        self._listeners[key] = listener
        return listener

    # -- active side -------------------------------------------------------------
    def connect(
        self,
        qp: QueuePair,
        remote: "Device",
        port: int,
        private_data: Any = None,
    ):
        """Process event: connect ``qp`` to a listener on ``remote``.

        Resolves to the remote QP once both ends are RTS.  Fails if no
        listener is bound, or with the request's reply event.
        """

        def _connect() -> Generator:
            duplex = self.fabric.path_between(qp.device, remote)
            listener = self._listeners.get((remote.guid, port))
            if listener is None:
                raise VerbsError(f"connection refused: no listener on port {port}")
            # REQ travels to the server...
            yield from duplex.forward.deliver_latency()
            reply = Event(self.engine)
            request = ConnectRequest(qp.device, port, private_data, reply)
            yield listener._backlog.put(request)
            # ...server accepts (REP back), then RTU forward.
            server_qp: QueuePair = yield reply
            yield from duplex.backward.deliver_latency()
            connect_pair(qp, server_qp, duplex)
            yield from duplex.forward.deliver_latency()
            return server_qp

        return self.engine.process(_connect())
