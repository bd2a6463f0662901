"""Object lifetime of closed connections under the paused cyclic GC.

``Environment.run`` disables the cyclic collector for the whole run
(DESIGN.md §7), so a closed connection that still sits in a reference
cycle stays in memory until the run ends.  Fleet-scale runtimes
(``ephemeral_connections=True``) must therefore leave nothing cyclic
behind a close: the connection, its stacks, its pump and its stages are
freed by refcounting the moment the last outside reference goes.  The
detach that guarantees this must also leave late events harmless — a
retransmit timer, a deferred pump release or a datagram that reaches a
closed connection is dropped, never raised.
"""

import gc

import pytest

from repro.apps.rpc import EchoServer
from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core.chunnel import ChunnelStage
from repro.core.connection import Connection, _Pump
from repro.core.dag import wrap
from repro.core.failover import FailoverConfig
from repro.core.policy import PriorityFirstPolicy
from repro.core.stack import ChunnelStack
from repro.discovery import DiscoveryService
from repro.discovery.client import RemoteDiscoveryClient
from repro.obs import MetricsRegistry, set_current_registry
from repro.sim import Address, Network, SmartNic

CONNECT = dict(timeout=2e-3, retries=80)
IDLE_CLOSE = 1e-3
PORT = 7600
SERVER = Address("srv", PORT)
LIFECYCLE_TYPES = (Connection, ChunnelStack, _Pump, ChunnelStage)
#: Cyclic objects a test world may strand in total.  Per-connection or
#: per-DAG-build cycles (a recursive closure, say) cost thousands here.
MAX_CYCLIC = 100


def dag():
    return wrap(Serialize() >> Reliable())


def build_world(cache_size=0, ephemeral=True, idle_close=IDLE_CLOSE, failover=None):
    """Echo server on a SmartNIC host (one ReliableToe record) and one
    client (``failover`` configures its liveness watcher); returns
    (net, discovery, toe_record, server, client_rt)."""
    net = Network()
    net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4))
    net.add_host("cl")
    net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", "cl", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    discovery = DiscoveryService(net.hosts["dsc"])
    toe_record = discovery.register(ReliableToe.meta, location="srv")

    def runtime(name, **kwargs):
        host = net.hosts[name]
        rt = Runtime(
            host,
            discovery=RemoteDiscoveryClient(host, discovery.address),
            negotiation_cache_size=cache_size,
            ephemeral_connections=ephemeral,
            **kwargs,
        )
        rt.register_chunnel(SerializeFallback)
        rt.register_chunnel(ReliableFallback)
        return rt

    server = EchoServer(
        runtime("srv", policy=PriorityFirstPolicy()),
        port=PORT,
        dag=dag(),
        idle_close=idle_close,
    )
    return net, discovery, toe_record, server, runtime("cl", failover=failover)


def drive(net, generator, until=30.0):
    """Run ``generator`` to completion as a sim process; return its value."""
    env = net.env
    proc = env.process(generator)
    env.run(until=env.any_of([proc, env.timeout(until)]))
    assert proc.processed, "scenario did not finish"
    if not proc.ok:
        raise proc.value
    return proc.value


def echo_once(client_rt, index):
    """Generator: connect, echo one payload, close; True on a good echo."""
    env = client_rt.env
    endpoint = client_rt.new(f"life{index}", dag())
    conn = yield from endpoint.connect(SERVER, **CONNECT)
    payload = index.to_bytes(4, "big") + bytes(60)
    conn.send(payload, size=len(payload))
    reply = conn.recv()
    yield env.any_of([reply, env.timeout(0.05)])
    conn.close()
    return reply.triggered and reply.value.payload == payload


@pytest.fixture
def saved_garbage():
    """Cyclic GC off with DEBUG_SAVEALL; yields a collector that returns
    how many objects it found unreachable and which lifecycle types among
    them.  Earlier worlds are collected
    first — the process-global registry still points at the last one, so
    it is replaced before collecting — and only what the test itself
    leaves behind is counted."""
    set_current_registry(MetricsRegistry())
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def leaked():
        total = gc.collect()
        found = sorted(
            {type(obj).__name__ for obj in gc.garbage if isinstance(obj, LIFECYCLE_TYPES)}
        )
        gc.garbage.clear()
        return total, found

    try:
        yield leaked
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


class TestClosedConnectionsAreAcyclic:
    CYCLES = 200

    @staticmethod
    def assert_acyclic(saved_garbage):
        total, lifecycle = saved_garbage()
        assert lifecycle == []
        assert total <= MAX_CYCLIC

    def storm(self, net, server, client_rt):
        env = net.env

        def scenario():
            ok = 0
            for index in range(self.CYCLES):
                ok += yield from echo_once(client_rt, index)
            # Two reaper sweeps close the server side of the last echo.
            yield env.timeout(3 * IDLE_CLOSE)
            server.close()
            return ok

        return drive(net, scenario())

    def test_full_negotiation_path(self, saved_garbage):
        net, _discovery, _record, server, client_rt = build_world(cache_size=0)
        assert self.storm(net, server, client_rt) == self.CYCLES
        assert client_rt.negcache.hits == 0
        assert server.idle_closed == self.CYCLES
        assert server.listener.connections == []
        self.assert_acyclic(saved_garbage)

    def test_resume_path(self, saved_garbage):
        net, _discovery, _record, server, client_rt = build_world(cache_size=8)
        assert self.storm(net, server, client_rt) == self.CYCLES
        # The first connect negotiates; every later one resumes in 1 RTT.
        assert client_rt.negcache.hits == self.CYCLES - 1
        assert server.idle_closed == self.CYCLES
        self.assert_acyclic(saved_garbage)

    def test_live_transition_retires_an_epoch(self, saved_garbage):
        # A slower reaper: the transition must not look like an idle client.
        idle_close = 0.02
        net, discovery, toe_record, server, client_rt = build_world(
            idle_close=idle_close
        )
        server_rt = server.runtime
        env = net.env

        def reliable_impl(conn):
            return type(conn.impls[conn.dag.find("reliable")[0]])

        def scenario():
            endpoint = client_rt.new("transit", dag())
            conn = yield from endpoint.connect(SERVER, **CONNECT)
            before = yield from self._echo(conn, b"before the transition")
            (server_conn,) = server.listener.connections
            impls = [reliable_impl(server_conn)]
            discovery.revoke(toe_record.record_id)
            outcome = yield server_rt.reconfig.request_transition(
                server_conn, reason="revoked"
            )
            # Let the old epoch's stack retire after its grace period.
            yield env.timeout(3 * server_rt.reconfig.retire_grace)
            impls.append(reliable_impl(server_conn))
            epochs = sorted(server_conn._stacks)
            after = yield from self._echo(conn, b"after the transition")
            conn.close()
            yield env.timeout(3 * idle_close)
            server.close()
            return outcome, impls, epochs, before and after

        outcome, impls, epochs, echoed = drive(net, scenario())
        assert outcome == "committed"
        assert impls == [ReliableToe, ReliableFallback]
        assert epochs == [1]
        assert echoed
        assert server.idle_closed == 1
        self.assert_acyclic(saved_garbage)

    def test_rolled_back_transition_drops_its_stack(self, saved_garbage):
        # The client's data socket drops the in-band TRANSITION, so it is
        # never acked: the server aborts the epoch and drops the stack it
        # prepared.
        idle_close = 0.05
        net, _discovery, toe_record, server, client_rt = build_world(
            idle_close=idle_close
        )
        server_rt = server.runtime
        env = net.env

        def scenario():
            endpoint = client_rt.new("refuse", dag())
            conn = yield from endpoint.connect(SERVER, **CONNECT)
            (server_conn,) = server.listener.connections
            conn.socket.dropping = True
            outcome = yield server_rt.reconfig.request_transition(
                server_conn,
                reason="test",
                exclude={(ReliableToe.meta.name, toe_record.record_id)},
            )
            conn.socket.dropping = False
            epochs = sorted(server_conn._stacks)
            echoed = yield from self._echo(conn, b"after the rollback")
            conn.close()
            yield env.timeout(3 * idle_close)
            server.close()
            return outcome, epochs, echoed

        outcome, epochs, echoed = drive(net, scenario())
        assert outcome == "rolled-back"
        assert server_rt.reconfig.transitions_rolled_back == 1
        assert epochs == [0]
        assert echoed
        self.assert_acyclic(saved_garbage)

    @staticmethod
    def _echo(conn, payload):
        conn.send(payload)
        reply = conn.recv()
        yield conn.env.any_of([reply, conn.env.timeout(0.05)])
        return reply.triggered and reply.value.payload == payload


class TestEngineStateDroppedAtClose:
    @pytest.mark.parametrize("ephemeral", [True, False])
    def test_close_drops_reconfig_and_failover_state(self, ephemeral):
        net, discovery, toe_record, server, client_rt = build_world(
            ephemeral=ephemeral, idle_close=None, failover=FailoverConfig()
        )
        server_rt = server.runtime

        def scenario():
            endpoint = client_rt.new("tables", dag())
            conn = yield from endpoint.connect(SERVER, **CONNECT)
            (server_conn,) = server.listener.connections
            discovery.revoke(toe_record.record_id)
            outcome = yield server_rt.reconfig.request_transition(
                server_conn, reason="revoked"
            )
            return conn, server_conn, outcome

        conn, server_conn, outcome = drive(net, scenario())
        assert outcome == "committed" and conn.epoch == 1
        tables = [
            (server_rt.reconfig._states, server_conn),
            (client_rt.reconfig._states, conn),
            (client_rt.failover._states, conn),
        ]
        assert all(c.conn_id in table for table, c in tables)
        watcher = client_rt.failover._states[conn.conn_id].process
        conn.close()
        server_conn.close()
        assert not any(c.conn_id in table for table, c in tables)
        # The closed connection's watcher returns at its next wakeup.
        net.env.run(until=net.env.now + 0.01)
        assert not watcher.is_alive


class TestUseAfterClose:
    def connect(self, net, client_rt):
        def scenario():
            endpoint = client_rt.new("late", dag())
            return (yield from endpoint.connect(SERVER, **CONNECT))

        return drive(net, scenario())

    @pytest.mark.parametrize("ephemeral", [True, False])
    def test_retransmit_timer_after_close_is_dropped(self, ephemeral):
        net, _discovery, _record, server, client_rt = build_world(ephemeral=ephemeral)
        conn = self.connect(net, client_rt)
        (stage,) = [s for s in conn.stack.stages if hasattr(s, "retransmissions")]
        # No acks come back, so the first retransmit check is armed.
        net.hosts["srv"].nic.fail()
        conn.send(b"never acked")
        assert stage._timers
        conn.close()
        net.env.run(until=net.env.now + 50 * stage.timeout)
        assert stage.retransmissions == 0

    def test_deferred_pump_release_after_close_is_dropped(self):
        net, _discovery, _record, server, client_rt = build_world()
        conn = self.connect(net, client_rt)
        pump = conn._pump
        conn.send(b"echo me", size=64)
        env = net.env
        # Step until the echo's receive charge defers its delivery.
        for _ in range(10_000):
            if pump._held:
                break
            env.step()
        assert pump._held, "the receive charge never deferred a delivery"
        received = conn.messages_received
        conn.close()
        env.run(until=env.now + 1e-3)
        assert conn.messages_received == received
        assert len(conn.inbox) == 0
        assert pump.conn is None and pump.socket is None

    def test_datagram_for_closed_connection_is_dropped(self):
        net, _discovery, _record, server, client_rt = build_world()
        conn = self.connect(net, client_rt)
        socket = conn.socket
        conn.send(b"reply arrives after close", size=64)
        conn.close()
        net.env.run(until=net.env.now + 1e-3)
        assert server.requests_served == 1  # the echo was sent back ...
        assert socket.received == 0  # ... and dropped at the closed socket
        assert conn.messages_received == 0


class TestNonEphemeralCloseIsUntouched:
    def test_stacks_stay_readable_after_close(self):
        net, _discovery, _record, server, client_rt = build_world(
            ephemeral=False, idle_close=None
        )

        def scenario():
            ok = yield from echo_once(client_rt, 0)
            return ok

        assert drive(net, scenario())
        (server_conn,) = server.listener.connections
        key = f"conn.{server_conn.conn_id}.server.stack_retransmissions"
        before = net.obs.snapshot()[key]
        server_conn.close()
        assert net.obs.snapshot()[key] == before
        assert server_conn.stack.connection is server_conn
        assert server_conn.stack.stages
