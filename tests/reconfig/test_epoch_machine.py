"""Property test of the epoch-transition primitive under random interleavings.

A ``hypothesis`` state machine drives one failover-enabled client
connection through random sequences of server transitions (arg retunes
and offload toggles), client-requested transitions, rollbacks (refused by
the client, or timed out because the TRANSITION never arrives),
duplicate and late control messages, and migrations off crashed servers.
Every server host has a SmartNIC and a discovery-registered ``ReliableToe``
record, so transitions and migrations move real leases.

After every settled step it checks:

* both ends agree on the binding (per-node spec args and chosen offer) and
  on its epoch (a standby numbers its binding with the migration epoch);
* each end holds exactly one stack, and every superseded stack is cut off;
* each connection's prepared epochs strictly increase (none is reused);
* every implementation no longer bound is torn down exactly once, and a
  bound one never;
* each host's NIC-slot leases match the server connections bound to its
  ``ReliableToe`` record, and no release failed;
* every message sent reached a server, none twice, and each server saw
  the client's ids in send order.
"""

import warnings
from collections import Counter

from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core import messages as msgs
from repro.core.dag import wrap
from repro.core.policy import PriorityFirstPolicy
from repro.core.resources import NIC_SLOTS
from repro.discovery import DiscoveryService
from repro.discovery.client import RemoteDiscoveryClient
from repro.errors import DegradedEstablishmentWarning, NoImplementationError
from repro.sim import Network, SmartNic

from ..core.test_failover import LIVENESS, RecordingServer, dag

SERVERS = 3
TIMEOUTS = (400e-6, 450e-6, 500e-6)
#: Ack tuning for the servers' engines: a lost TRANSITION rolls back in
#: ~0.6 ms, well inside the client's suspicion window (5 silent probes).
ACK_TIMEOUT, ACK_RETRIES = 200e-6, 2
SEND_GAP = 100e-6


class TrackingCatalog:
    """A runtime's catalog, counting each instantiated impl's teardowns;
    ``refuse`` makes every instantiation fail (a peer that cannot bind)."""

    def __init__(self, inner, created):
        self._inner = inner
        self._created = created
        self.refuse = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def instantiate(self, chunnel_type, impl_name, spec, location=None):
        if self.refuse:
            raise NoImplementationError(f"refusing {impl_name!r}")
        impl = self._inner.instantiate(chunnel_type, impl_name, spec, location)
        teardowns = Counter()
        original = impl.teardown

        def teardown(ctx):
            teardowns["n"] += 1
            return original(ctx)

        impl.teardown = teardown
        self._created.append((impl, teardowns))
        return impl


def binding(conn):
    return [
        (
            conn.dag.nodes[node_id].type_name,
            conn.dag.nodes[node_id].args,
            conn.choice[node_id].meta.name,
            conn.choice[node_id].record_id,
        )
        for node_id in conn.dag.topological_order()
    ]


def reliable_offer(conn):
    (node_id,) = conn.dag.find("reliable")
    return conn.choice[node_id]


class EpochMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        net = self.net = Network()
        self.env = net.env
        hosts = [f"srv{index}" for index in range(SERVERS)]
        for name in hosts:
            net.add_host(name, nic=SmartNic(net.env, name=f"{name}.nic"))
        net.add_host("cl")
        net.add_host("dsc")
        net.add_switch("tor")
        for name in (*hosts, "cl", "dsc"):
            net.add_link(name, "tor", latency=5e-6)
        self.discovery = DiscoveryService(net.hosts["dsc"])
        self.records = {
            name: self.discovery.register(ReliableToe.meta, location=name)
            for name in hosts
        }
        self.created: list = []
        self.runtimes = []

        def runtime(name, **kwargs):
            host = net.hosts[name]
            rt = Runtime(
                host,
                discovery=RemoteDiscoveryClient(host, self.discovery.address),
                negotiation_cache_size=8,
                **kwargs,
            )
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
            rt.catalog = TrackingCatalog(rt.catalog, self.created)
            self.runtimes.append(rt)
            return rt

        self.recorders = {}
        for name in hosts:
            server_rt = runtime(name, policy=PriorityFirstPolicy())
            server_rt.reconfig.ack_timeout = ACK_TIMEOUT
            server_rt.reconfig.ack_retries = ACK_RETRIES
            self.recorders[name] = RecordingServer(server_rt)
        self.client_rt = runtime("cl", failover=LIVENESS)
        self.sent: list[bytes] = []
        #: id(conn) -> epochs prepared on it, in order.
        self.prepared: dict[int, list[int]] = {}
        #: (conn, stack) for every stack a tracked connection built.
        self.stacks: list = []
        self.tracked: set[int] = set()
        self.crashed: set[str] = set()

        def connect():
            yield self.env.timeout(1e-3)  # let the servers register "flow"
            endpoint = self.client_rt.new("machine", dag())
            return (yield from endpoint.connect("flow", deadline=10e-3))

        proc = self.env.process(connect())
        self.env.run(until=self.env.any_of([proc, self.env.timeout(0.1)]))
        assert proc.processed and proc.ok
        self.conn = proc.value
        self.track(self.conn)
        #: The epoch of the client's last migration.
        self.migration_epoch = 0
        self.settle()

    # -- plumbing ---------------------------------------------------------
    @property
    def server_host(self):
        return self.conn.peer.host

    @property
    def server_conn(self):
        conn = self.recorders[self.server_host].listener.connections[-1]
        self.track(conn)
        return conn

    def track(self, conn):
        if id(conn) in self.tracked:
            return
        self.tracked.add(id(conn))
        self.prepared[id(conn)] = []
        self.stacks.append((conn, conn.stack))
        prepare = conn.prepare_transition

        def prepare_transition(epoch, stages):
            self.prepared[id(conn)].append(epoch)
            stack = prepare(epoch, stages)
            self.stacks.append((conn, stack))
            return stack

        conn.prepare_transition = prepare_transition

    def sender(self, count):
        for _ in range(count):
            payload = f"id-{len(self.sent):04d}".encode()
            self.sent.append(payload)
            self.conn.send(payload, size=64)
            yield self.env.timeout(SEND_GAP)

    def run(self, event, sends=0, limit=0.1):
        """Send ``sends`` messages while waiting for ``event``; returns
        its value."""
        env = self.env
        if sends:
            env.process(self.sender(sends))
        env.run(until=env.any_of([event, env.timeout(limit)]))
        assert event.triggered, "step did not finish"
        return event.value

    def delivered(self):
        return set().union(*(r.seen for r in self.recorders.values()))

    def settle(self):
        """Run until every sent message reached a server, then past the
        retire grace of any superseded epoch."""
        env = self.env
        deadline = env.now + 0.1
        while not set(self.sent) <= self.delivered() and env.now < deadline:
            env.run(until=env.now + 1e-3)
        env.run(until=env.now + 3 * self.client_rt.reconfig.retire_grace)

    def transition(self, **kwargs):
        server = self.server_conn
        rt = server.runtime
        return rt.reconfig.request_transition(server, reason="machine", **kwargs)

    def retune_target(self):
        (node_id,) = self.server_conn.dag.find("reliable")
        current = self.server_conn.dag.nodes[node_id].args["timeout"]
        timeout = next(t for t in TIMEOUTS if t != current)
        return wrap(Serialize() >> Reliable(timeout=timeout, max_retries=200))

    # -- steps -------------------------------------------------------------
    @rule(timeout=st.sampled_from(TIMEOUTS), sends=st.integers(0, 8))
    def server_retunes(self, timeout, sends):
        target = wrap(Serialize() >> Reliable(timeout=timeout, max_retries=200))
        outcome = self.run(self.transition(target_dag=target), sends)
        assert outcome in ("committed", "noop")
        self.settle()

    @rule(sends=st.integers(0, 8))
    def server_toggles_offload(self, sends):
        offer = reliable_offer(self.server_conn)
        exclude = {(offer.meta.name, offer.record_id)} if offer.record_id else ()
        outcome = self.run(self.transition(exclude=exclude), sends)
        assert outcome in ("committed", "noop")
        self.settle()

    @rule(sends=st.integers(0, 8))
    def client_requests(self, sends):
        # Committed only if the server's re-decision changes something
        # (it upgrades back to the offload after a toggle); a "no change"
        # verdict sends nothing back.
        self.client_rt.reconfig.request_transition(self.conn, reason="client")
        self.run(self.env.timeout(2e-3), sends)
        self.settle()

    @rule(by_timeout=st.booleans(), sends=st.integers(0, 8))
    def rolled_back(self, by_timeout, sends):
        before = binding(self.conn)
        if by_timeout:
            self.conn.socket.dropping = True
        else:
            self.client_rt.catalog.refuse = True
        try:
            outcome = self.run(self.transition(target_dag=self.retune_target()))
        finally:
            self.conn.socket.dropping = False
            self.client_rt.catalog.refuse = False
        assert outcome == "rolled-back"
        assert binding(self.conn) == binding(self.server_conn) == before
        self.run(self.env.timeout(1e-3), sends)
        self.settle()

    @rule(sends=st.integers(0, 8))
    def duplicate_and_late_control(self, sends):
        server, conn = self.server_conn, self.conn
        # Re-announce the client's current and previous epochs (its ack
        # cache or the stale-epoch check answers both without effect), ack
        # an epoch the server is not waiting for, and repeat the MIGRATE
        # that brought the client here.
        for epoch in {conn.epoch, max(conn.epoch - 1, 0)}:
            server.send_ctl(
                msgs.Transition(
                    conn_id=server.conn_id,
                    epoch=epoch,
                    dag=server.dag,
                    choice=server.choice,
                    reason="duplicate",
                ),
                dst=conn.local_address,
            )
        conn.send_ctl(
            msgs.TransitionAck(conn_id=conn.conn_id, epoch=conn.epoch, ok=True)
        )
        if conn.migrations:
            conn.send_ctl(
                msgs.Migrate(
                    conn_id=conn.conn_id,
                    epoch=self.migration_epoch,
                    client_entity=self.client_rt.entity.name,
                )
            )
        self.run(self.env.timeout(1e-3), sends)
        self.settle()

    @precondition(lambda self: len(self.crashed) < SERVERS - 1)
    @rule(sends=st.integers(0, 30))
    def migration(self, sends):
        migrations = self.conn.migrations
        host = self.server_host
        self.crashed.add(host)
        self.net.hosts[host].down = True
        env = self.env
        if sends:
            env.process(self.sender(sends))
        deadline = env.now + 0.1
        while self.conn.migrations == migrations and env.now < deadline:
            env.run(until=env.now + 1e-3)
        assert self.conn.migrations == migrations + 1
        assert self.server_host not in self.crashed
        self.migration_epoch = self.conn.epoch
        self.settle()

    # -- invariants ----------------------------------------------------------
    @invariant()
    def ends_agree(self):
        conn, server = self.conn, self.server_conn
        assert binding(conn) == binding(server)
        assert server.epoch == conn.epoch

    @invariant()
    def one_current_stack(self):
        for conn in (self.conn, self.server_conn):
            assert list(conn._stacks) == [conn.epoch]
            assert conn._stacks[conn.epoch] is conn.stack
        for conn, stack in self.stacks:
            if stack is not conn.stack:
                assert stack.connection is None and stack.stages == []

    @invariant()
    def epochs_never_reused(self):
        for epochs in self.prepared.values():
            assert all(a < b for a, b in zip(epochs, epochs[1:]))
        assert self.conn.next_epoch > self.conn.epoch
        assert self.server_conn.next_epoch > self.conn.epoch

    @invariant()
    def replaced_impls_torn_down_once(self):
        bound = {
            id(impl)
            for recorder in self.recorders.values()
            for conn in recorder.listener.connections
            for impl in conn.impls.values()
        } | {id(impl) for impl in self.conn.impls.values()}
        for impl, teardowns in self.created:
            assert teardowns["n"] == (0 if id(impl) in bound else 1)

    @invariant()
    def leases_balance(self):
        for host, record in self.records.items():
            holders = sum(
                1
                for conn in self.recorders[host].listener.connections
                if reliable_offer(conn).record_id == record.record_id
            )
            in_use = self.discovery.device_in_use(host)
            assert in_use[NIC_SLOTS] == holders
        assert all(rt.release_failures == 0 for rt in self.runtimes)

    @invariant()
    def delivery_exactly_once_in_order(self):
        assert self.delivered() == set(self.sent)
        for recorder in self.recorders.values():
            assert all(count == 1 for count in recorder.seen.values())
            assert recorder.arrived == sorted(recorder.arrived)


TestEpochMachine = EpochMachine.TestCase
#: No shrink phase: every step runs a simulated world, so shrinking a
#: failure takes many minutes, and the unshrunk report is at most ten
#: steps long anyway.
TestEpochMachine.settings = settings(
    max_examples=40,
    stateful_step_count=10,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


def test_standby_transition_right_after_migration_delivers_exactly_once():
    # Found by the machine: the standby's establishment stack kept
    # replying unstamped through its first transition, so the client
    # routed those acks to its newly adopted stack.  One message was then
    # delivered twice and a later one swallowed as a duplicate.
    machine = EpochMachine()
    machine.migration(sends=0)
    machine.server_retunes(timeout=450e-6, sends=3)
    machine.client_requests(sends=1)
    machine.delivery_exactly_once_in_order()
    machine.ends_agree()
    machine.one_current_stack()
