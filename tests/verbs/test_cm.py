"""Connection manager: listen, connect, accept, reject."""

import pytest

from repro.verbs import VerbsError
from repro.verbs.qp import QpState
from tests.conftest import make_fabric


def _mk_qp(dev):
    pd = dev.alloc_pd()
    return dev.create_qp(pd, dev.create_cq(), dev.create_cq())


def test_connect_accept_pairs_qps():
    f = make_fabric(rtt=2e-3)
    listener = f.cm.listen(f.dev_b, 7000)
    client_qp = _mk_qp(f.dev_a)

    def server(env):
        request = yield listener.get_request()
        assert request.private_data == "hello"
        server_qp = _mk_qp(f.dev_b)
        request.accept(server_qp)
        return server_qp

    sproc = f.engine.process(server(f.engine))
    connect = f.cm.connect(client_qp, f.dev_b, 7000, private_data="hello")
    f.engine.run()
    assert connect.ok
    server_qp = sproc.value
    assert connect.value is server_qp
    assert client_qp.state is QpState.RTS
    assert server_qp.state is QpState.RTS
    assert client_qp.peer is server_qp
    # Handshake costs on the order of 1.5 RTT.
    assert f.engine.now >= 1.5 * 2e-3 * 0.9


def test_connect_no_listener_fails():
    f = make_fabric()
    qp = _mk_qp(f.dev_a)
    connect = f.cm.connect(qp, f.dev_b, 9999)
    caught = []

    def watcher(env):
        try:
            yield connect
        except VerbsError as exc:
            caught.append(str(exc))

    f.engine.process(watcher(f.engine))
    f.engine.run()
    assert caught and "refused" in caught[0]


def test_reject_propagates():
    f = make_fabric()
    listener = f.cm.listen(f.dev_b, 7000)
    qp = _mk_qp(f.dev_a)

    def server(env):
        request = yield listener.get_request()
        # A failed reply is what the initiator's connect waits on.
        request._reply.fail(VerbsError("connection rejected: full"))

    f.engine.process(server(f.engine))
    connect = f.cm.connect(qp, f.dev_b, 7000)
    caught = []

    def watcher(env):
        try:
            yield connect
        except VerbsError as exc:
            caught.append(str(exc))

    f.engine.process(watcher(f.engine))
    f.engine.run()
    assert caught and "rejected" in caught[0]


def test_duplicate_listen_rejected():
    f = make_fabric()
    f.cm.listen(f.dev_b, 7000)
    with pytest.raises(VerbsError):
        f.cm.listen(f.dev_b, 7000)


def test_listener_close_unbinds():
    """A listener binds its (device, port) pair, not the port alone."""
    f = make_fabric()
    f.cm.listen(f.dev_b, 7000)
    f.cm.listen(f.dev_a, 7000)  # the same port on the other device is free
    with pytest.raises(VerbsError):
        f.cm.listen(f.dev_a, 7000)


def test_unwired_devices_have_no_path():
    f = make_fabric()
    from repro.verbs import Device

    lonely = Device(f.a.nic)
    with pytest.raises(VerbsError):
        f.fabric.path_between(lonely, f.dev_b)
