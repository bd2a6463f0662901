"""Epoch numbering across transitions and migrations (PROTOCOL.md §5.1).

A connection allocates epochs from one counter, and an epoch adopted from
the peer — by TRANSITION or by MIGRATE — advances it.  These tests run
the two mixed sequences on the two-server failover world:

* the client adopts the server's epoch 1, then migrates: the migration
  must take a fresh number, and the adopted epoch's stack must retire;
* the client migrates to the standby, which then transitions: the
  standby must announce a number above the migration epoch, so the
  client adopts it instead of acking a "stale" epoch and keeping its old
  binding.
"""

from repro.chunnels import Reliable, Serialize
from repro.core.dag import wrap
from repro.sim import ChaosController

from ..core.test_failover import build_world, dag, drive, union_counts

#: An arg-only transition: the reliability node rebuilds with a new
#: timeout, every implementation choice stays the same.
RETUNED = dict(timeout=450e-6, max_retries=200)


def retuned():
    return wrap(Serialize() >> Reliable(**RETUNED))


def reliable_args(conn):
    (node_id,) = conn.dag.find("reliable")
    spec = conn.dag.nodes[node_id]
    return spec.args["timeout"], spec.args["max_retries"]


def send_steadily(env, conn, sent, count, gap=200e-6):
    """Send ``count`` messages whose ids sort in send order."""
    for _ in range(count):
        payload = f"id-{len(sent):04d}".encode()
        sent.append(payload)
        conn.send(payload, size=64)
        yield env.timeout(gap)


def test_adopted_transition_then_migration_takes_a_fresh_epoch():
    net, recorders, client_rt = build_world(servers=2)
    env = net.env
    chaos = ChaosController(net, seed=7)
    sent: list[bytes] = []
    seen = {}

    def driver():
        yield env.timeout(1e-3)
        conn = yield from client_rt.new("mixed", dag()).connect(
            "flow", deadline=10e-3
        )
        yield from send_steadily(env, conn, sent, 5)
        server_rt = recorders[0].runtime
        server_conn = recorders[0].listener.connections[-1]
        outcome = yield server_rt.reconfig.request_transition(
            server_conn, reason="retune", target_dag=retuned()
        )
        seen["outcome"] = outcome
        seen["adopted_epoch"] = conn.epoch
        seen["adopted_stack"] = conn.stack
        chaos.crash_host("srv0", at=env.now + 1e-3)
        yield from send_steadily(env, conn, sent, 60)
        # Outlast the retire grace of the migration's superseded epoch.
        yield env.timeout(3 * client_rt.reconfig.retire_grace)
        return conn

    conn = drive(net, driver(), until=120e-3)
    assert seen["outcome"] == "committed"
    assert seen["adopted_epoch"] == 1
    assert conn.migrations == 1
    assert conn.epoch > 1
    # The adopted epoch's stack was superseded by the migration and then
    # retired; only the migration epoch's stack is left.
    assert sorted(conn._stacks) == [conn.epoch]
    assert seen["adopted_stack"].connection is None
    union, duplicates = union_counts(recorders)
    assert union == set(sent)
    assert duplicates == 0


def test_migration_then_standby_transition_is_adopted():
    net, recorders, client_rt = build_world(servers=2)
    env = net.env
    chaos = ChaosController(net, seed=7)
    sent: list[bytes] = []
    seen = {}

    def driver():
        yield env.timeout(1e-3)
        conn = yield from client_rt.new("mixed", dag()).connect(
            "flow", deadline=10e-3
        )
        chaos.crash_host("srv0", at=env.now + 1e-3)
        yield from send_steadily(env, conn, sent, 60)
        seen["migration_epoch"] = conn.epoch
        standby_rt = recorders[1].runtime
        standby_conn = recorders[1].listener.connections[-1]
        outcome = yield standby_rt.reconfig.request_transition(
            standby_conn, reason="retune", target_dag=retuned()
        )
        seen["outcome"] = outcome
        seen["standby_epoch"] = standby_conn.epoch
        seen["standby_args"] = reliable_args(standby_conn)
        yield from send_steadily(env, conn, sent, 20)
        return conn

    conn = drive(net, driver(), until=120e-3)
    assert conn.migrations == 1
    assert seen["outcome"] == "committed"
    # The standby announced a number above the migration epoch, and the
    # client adopted it: both ends run the retuned reliability node.
    assert seen["standby_epoch"] > seen["migration_epoch"]
    assert conn.epoch == seen["standby_epoch"]
    assert seen["standby_args"] == (RETUNED["timeout"], RETUNED["max_retries"])
    assert reliable_args(conn) == seen["standby_args"]
    union, duplicates = union_counts(recorders)
    assert union == set(sent)
    assert duplicates == 0
    standby_ids = [p for p in recorders[1].arrived if p in set(sent)]
    assert standby_ids == sorted(standby_ids)
