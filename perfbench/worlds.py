"""The four benchmark workloads, built through the library's public API.

Each workload is a function ``play_<name>(seed, size, watch, setup_only)``
that builds its simulated world(s) from ``repro.sim.Network``, ``repro.core.Runtime``,
discovery and ``repro.apps``, drives one seeded round of operations, checks
every reply, and returns a :class:`Round`.  A round is a pure function of
``(seed, size)`` in virtual time: two rounds with the same arguments give
the same virtual latencies, counts and ``digest``.  Host time is charged to
``watch.setup`` (building a world and reaching converged discovery) or to
``watch.run`` (the timed operations); ``setup_only`` stops after set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import struct
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.apps import EchoServer, KvServer
from repro.apps.kvstore import KV_SHARD_FN, kv_request
from repro.chunnels import (
    KvCache,
    KvCacheHostPath,
    KvCacheSwitch,
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
    ShardClientFallback,
    ShardServerFallback,
    ShardXdp,
)
from repro.chunnels.serialize import get_codec
from repro.core import Runtime
from repro.core.dag import wrap
from repro.core.policy import PriorityFirstPolicy
from repro.discovery import (
    DiscoveryService,
    DiscoveryShardTier,
    ShardRouter,
    ShardedDiscoveryClient,
)
from repro.errors import DegradedEstablishmentWarning, NegotiationError
from repro.sim import Address, CostModel, FaultPlan, Network, SmartNic
from repro.sim.eventloop import Environment, Interrupt
from repro.workloads import PoissonArrivals, ScrambledZipfianChooser, UniformChooser

US = 1e6


# --------------------------------------------------------------------------
# Round bookkeeping
# --------------------------------------------------------------------------
class Stopwatch:
    """Host seconds split into set-up and timed-operation phases."""

    def __init__(self) -> None:
        self.setup = 0.0
        self.run = 0.0

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            setattr(self, name, getattr(self, name) + elapsed)


@dataclass
class Round:
    """Everything one round measured; all but host time is virtual."""

    attempted: int = 0
    failed: int = 0
    #: Operation latencies counted in ``op_p50_us``/``op_p99_us``.
    op_us: list = field(default_factory=list)
    #: Establishment latencies (discovery + negotiation + reserve).
    connect_us: list = field(default_factory=list)
    #: ``kv-shard`` only: placement -> highest ladder rate meeting the limit.
    capacity_kqps: dict = field(default_factory=dict)
    #: ``kv-shard`` only: (placement, kqps) -> op p99 (µs) at that step.
    ladder_p99_us: dict = field(default_factory=dict)
    #: World counters summed over the round's worlds (see ``world_counts``).
    counts: dict = field(default_factory=dict)
    #: Simulator events dispatched during the round.
    events: int = 0
    #: Establishments that came up fallback-only (discovery timed out);
    #: they still served traffic, which the checks verified.
    degraded: int = 0
    #: First few failed checks, for the report.
    problems: list = field(default_factory=list)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256, repr=False)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(what)

    def seal_world(
        self, net: Network, extra: dict | None = None, retired: tuple = ()
    ) -> None:
        """Fold one finished world into the digest and the counters.
        ``retired`` are switch programs the round uninstalled; their
        stations count with the installed programs'."""
        snap = net.obs.snapshot()
        self._digest.update(snap.to_json().encode())
        for name, value in world_counts(net, snap, extra or {}, retired).items():
            self.counts[name] = self.counts.get(name, 0) + value

    def virtual(self) -> dict:
        """The virtual-time outcome two same-seed rounds must share."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "degraded": self.degraded,
            "op_us": self.op_us,
            "connect_us": self.connect_us,
            "capacity_kqps": self.capacity_kqps,
            "ladder_p99_us": {f"{p}@{k}": v for (p, k), v in self.ladder_p99_us.items()},
            "counts": self.counts,
            "events": self.events,
        }

    @property
    def digest(self) -> str:
        """sha256 of every world's canonical registry export, followed by
        the round's virtual-time results (the registry holds counts only)."""
        digest = self._digest.copy()
        digest.update(json.dumps(self.virtual(), sort_keys=True).encode())
        return digest.hexdigest()


def world_counts(net: Network, snap, extra: dict, retired: tuple = ()) -> dict:
    """Per-layer counters read from outside: the registry and stations."""
    served = wait = 0.0
    for host in net.hosts.values():
        stations = [host.nic.rx_station, host.xdp_station]
        if getattr(host.nic, "compute", None) is not None:
            stations.append(host.nic.compute)
        for station in stations:
            served += station.jobs_served
            wait += station.total_wait
    programs = {id(p): p for p in retired}
    for switch in net.switches.values():
        programs.update((id(p), p) for p in switch.programs)
    for program in programs.values():
        station = getattr(program, "station", None)
        if station is not None:
            served += station.jobs_served
            wait += station.total_wait
    counts = {
        "datagrams": snap.get("net.delivered"),
        "drops": snap.sum("net.dropped."),
        "station_served": served,
        "station_wait_s": wait,
        "conn_msgs": snap.sum("conn.", ".messages_sent")
        + snap.sum("conn.", ".messages_received"),
        "conn_sent": snap.sum("conn.", ".messages_sent"),
        "stack_retx": snap.sum("conn.", ".stack_retransmissions"),
        "negotiation_rtts": snap.sum("rpc.negotiation.", ".round_trips"),
        "discovery_rtts": snap.sum("rpc.discovery.", ".round_trips"),
        "control_retx": snap.sum("rpc.", ".retransmits_total"),
        "negcache_hits": snap.sum("negcache.", ".hits"),
        "negcache_misses": snap.sum("negcache.", ".misses"),
        "negcache_fallbacks": snap.sum("negcache.", ".fallbacks"),
        "router_failovers": snap.get("router.failovers"),
        "rsm_gaps": snap.sum("rsm.", ".gaps_total"),
        "reconfig_commits": snap.sum("reconfig.", ".transitions_committed"),
        "reconfig_aborts": snap.sum("reconfig.", ".transitions_failed")
        + snap.sum("reconfig.", ".transitions_rolled_back"),
    }
    counts.update(extra)
    return counts


def converge(net: Network, runtime: Runtime, step: float = 20e-6, limit: float = 0.1):
    """Run the world until ``runtime``'s listeners are up.

    A listener's first act is a discovery round trip (its offer refresh),
    so the world has converged once the server runtime's discovery client
    has completed one.
    """
    env = net.env
    while runtime.discovery.round_trips < 1:
        if env.now > limit:
            raise RuntimeError("world did not converge")
        env.run(until=env.now + step)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# KV reference ledger: every reply is checked against the benchmark's view
# --------------------------------------------------------------------------
class KvLedger:
    """Per-key write history for keys with one writer each.

    Every PUT writes a unique value ``<key>#<seq>``; the preload is seq -1.
    A GET may return any write that was sent before its reply and was not
    overwritten for certain: value ``j`` is stale when some later write
    ``k`` was sent after ``j`` was acknowledged and was itself acknowledged
    before the GET was sent (the linearizable-register condition; writes
    concurrent with each other may land in either order).  Every request
    must be answered exactly once with status ``ok``.
    """

    def __init__(self, keys: list, value_size: int):
        self.value_size = value_size
        self.sends = {key: [] for key in keys}
        self.acks: dict = {key: {} for key in keys}
        self.pending: dict = {}

    def value(self, key: str, seq: int) -> bytes:
        return f"{key}#{seq}".encode().ljust(self.value_size, b".")

    def preload(self) -> dict:
        return {key: self.value(key, -1) for key in self.sends}

    def request(self, rpc_id: int, op: str, key: str, now: float) -> dict:
        if op == "put":
            seq = len(self.sends[key])
            self.sends[key].append(now)
            self.pending[rpc_id] = ("put", key, seq, now)
            return kv_request("put", key, self.value(key, seq))
        self.pending[rpc_id] = ("get", key, None, now)
        return kv_request("get", key)

    def _fresh(self, key: str, seq: int, get_sent: float) -> bool:
        sends, acks = self.sends[key], self.acks[key]
        if not -1 <= seq < len(sends):
            return False
        acked_at = acks.get(seq, float("inf")) if seq >= 0 else float("-inf")
        return not any(
            sends[k] > acked_at and acks.get(k, float("inf")) < get_sent
            for k in range(seq + 1, len(sends))
        )

    def reply(self, rnd: Round, rpc_id, payload: dict, now: float):
        """Check one reply; returns its latency in µs, or None if wrong."""
        entry = self.pending.pop(rpc_id, None)
        if entry is None:
            rnd.fail(f"duplicate or unknown reply {rpc_id!r}")
            return None
        op, key, seq, sent_at = entry
        if payload.get("status") != "ok":
            rnd.fail(f"{op} {key} status {payload.get('status')!r}")
            return None
        if op == "put":
            self.acks[key][seq] = now
        else:
            got_key, _, got_seq = (
                bytes(payload["value"]).rstrip(b".").decode().partition("#")
            )
            if got_key != key or not self._fresh(key, int(got_seq), sent_at):
                rnd.fail(f"get {key} sent at {sent_at} returned {got_key}#{got_seq}")
                return None
        return (now - sent_at) * US

    def lost(self, rnd: Round) -> None:
        if self.pending:
            rnd.fail(f"{len(self.pending)} requests never answered", len(self.pending))
            self.pending.clear()


def host_cost(seed: int, index: int, **overrides) -> CostModel:
    """A host's stack costs with seeded ±5% jitter.

    Without jitter every unqueued operation takes the same virtual time, so
    a median would not depend on the seed at all; the jitter draws come
    from the benchmark seed and keep every round reproducible.
    """
    return CostModel(jitter=0.05, jitter_seed=seed * 1_000_003 + index, **overrides)


def _kv_preload(server: KvServer, values: dict) -> None:
    """Populate the shard stores directly (the load phase is not timed)."""
    codec = get_codec("kv")
    for key, value in values.items():
        encoded = codec.encode(kv_request("put", key, b""))
        index = KV_SHARD_FN.bucket(encoded, {}, len(server.workers))
        server.workers[index].store[key] = value


def _kv_stream(env, rnd, conn, ledger, schedule, drain):
    """Open-loop generator: send each op at its due time, check replies.

    ``schedule`` is a list of ``(due_time, rpc_id, op, key)``; the return
    value is the list of verified latencies (µs) from due time to reply.
    """
    latencies: list = []
    total = len(schedule)
    done = env.event()

    def receiver():
        seen = 0
        while seen < total:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            seen += 1
            latency = ledger.reply(rnd, msg.headers.get("rpc_id"), msg.payload, env.now)
            if latency is not None:
                latencies.append(latency)
        done.succeed(None)

    rx = env.process(receiver(), name="bench.kv-rx")
    for due, rpc_id, op, key in schedule:
        if due > env.now:
            yield env.timeout(due - env.now)
        conn.send(ledger.request(rpc_id, op, key, env.now), headers={"rpc_id": rpc_id})
    yield env.any_of([done, env.timeout(drain)])
    if rx.is_alive:
        rx.interrupt("drain timeout")
    return latencies


def _schedule(rng_seed, rate, count, start, keys, chooser, write_fraction, base_id):
    arrivals = PoissonArrivals(rate, seed=rng_seed)
    op_rng = random.Random(rng_seed + 1)
    at = start
    out = []
    for index in range(count):
        at += arrivals.next_gap()
        op = "put" if op_rng.random() < write_fraction else "get"
        out.append((at, base_id + index, op, keys[chooser.next_index()]))
    return out


# --------------------------------------------------------------------------
# kv-shard: the Fig. 5 world, four placements, an offered-rate ladder
# --------------------------------------------------------------------------
PLACEMENTS = ("client_push", "server_accel", "mixed", "server_fallback")


@dataclass
class KvShardSize:
    #: Offered rates (kqps) crossing every placement's knee.
    ladder_kqps: tuple = (50, 100, 150, 300, 500, 600, 700, 800, 900)
    #: The op-latency rate: below every knee.
    reference_kqps: int = 50
    requests_per_step: int = 500
    #: Capacity limit on a ladder step's op p99 (µs); see README.
    p99_limit_us: float = 200.0
    record_count: int = 300
    value_size: int = 100
    write_fraction: float = 0.5  # YCSB workload A
    drain: float = 0.1

    @classmethod
    def tiny(cls) -> "KvShardSize":
        return cls(ladder_kqps=(50, 800), requests_per_step=60)


def _kv_shard_world(placement: str, seed: int):
    net = Network()
    server_host = net.add_host("srv", cost=host_cost(seed, 0, xdp_per_packet=2.0e-6))
    client_hosts = [net.add_host(f"cl{i}", cost=host_cost(seed, i)) for i in (1, 2)]
    net.add_host("dsc", cost=host_cost(seed, 3))
    net.add_switch("tor")
    for name in ("srv", "cl1", "cl2", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    discovery = DiscoveryService(net.hosts["dsc"])
    server_rt = Runtime(server_host, discovery=discovery.address)
    server_rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(ShardServerFallback)
    push = {
        "client_push": (True, True),
        "server_accel": (False, False),
        "mixed": (True, False),
        "server_fallback": (False, False),
    }[placement]
    client_rts = []
    for host, register_push in zip(client_hosts, push):
        runtime = Runtime(host, discovery=discovery.address)
        runtime.register_chunnel(SerializeFallback)
        if register_push:
            runtime.register_chunnel(ShardClientFallback)
        client_rts.append(runtime)
    if placement in ("server_accel", "mixed"):
        discovery.register(ShardXdp.meta, location="srv")
    server = KvServer(
        server_rt,
        port=7100,
        shards=3,
        worker_service_time=4.0e-6,
        shard_server_cost=8.0e-6,
    )
    return net, server, client_rts


def play_kv_shard(
    seed: int, size: KvShardSize, watch: Stopwatch, setup_only: bool = False
) -> Round:
    rnd = Round()
    events_before = Environment.dispatched_total
    keys = [f"k{i:05d}" for i in range(size.record_count)]
    # Client i owns the keys with index parity i: one writer per key, and
    # each client checks its replies against its own ledger.
    owned = [keys[0::2], keys[1::2]]
    for p_index, placement in enumerate(PLACEMENTS):
        with watch.phase("setup"):
            net, server, client_rts = _kv_shard_world(placement, seed)
            ledgers = [KvLedger(mine, size.value_size) for mine in owned]
            for ledger in ledgers:
                _kv_preload(server, ledger.preload())
            converge(net, server.runtime)
        if setup_only:
            continue
        env = net.env
        step_latencies: dict = {}

        def client(index, runtime):
            endpoint = runtime.new(f"kv-client-{index}")
            began = env.now
            conn = yield from endpoint.connect(Address("srv", 7100))
            rnd.connect_us.append((env.now - began) * US)
            for s_index, kqps in enumerate(size.ladder_kqps):
                stream_seed = seed * 7919 + p_index * 1009 + s_index * 31 + index
                schedule = _schedule(
                    stream_seed,
                    kqps * 1000 / 2,
                    size.requests_per_step,
                    env.now,
                    owned[index],
                    UniformChooser(len(owned[index]), seed=stream_seed + 2),
                    size.write_fraction,
                    (s_index * 2 + index) * 1_000_000,
                )
                rnd.attempted += len(schedule)
                ledger = ledgers[index]
                lat = yield from _kv_stream(env, rnd, conn, ledger, schedule, size.drain)
                step_latencies.setdefault(kqps, []).extend(lat)
                ledger.lost(rnd)
                # Both clients start the next step together.
                arrived[s_index] += 1
                if arrived[s_index] == 2:
                    barrier[s_index].succeed(None)
                yield barrier[s_index]

        barrier = [env.event() for _ in size.ladder_kqps]
        arrived = [0] * len(size.ladder_kqps)
        with watch.phase("run"):
            procs = [env.process(client(i, rt)) for i, rt in enumerate(client_rts)]
            env.run(until=env.all_of(procs))
        complete = size.requests_per_step * 2
        capacity = 0
        meets = True
        for kqps in size.ladder_kqps:
            lat = step_latencies.get(kqps, [])
            p99 = percentile(lat, 99) if lat else float("inf")
            rnd.ladder_p99_us[(placement, kqps)] = p99
            meets = meets and len(lat) == complete and p99 <= size.p99_limit_us
            if meets:
                capacity = kqps
        rnd.capacity_kqps[placement] = capacity
        rnd.op_us.extend(step_latencies.get(size.reference_kqps, []))
        rnd.seal_world(net)
    rnd.events = Environment.dispatched_total - events_before
    return rnd


# --------------------------------------------------------------------------
# echo-lossy: long-lived serialize >> reliable echo over the chaos fault mix
# --------------------------------------------------------------------------
@dataclass
class EchoLossySize:
    client_hosts: int = 4
    conns_per_host: int = 4
    requests_per_conn: int = 750
    payload_size: int = 64
    #: The chaos fault mix on every link, at 3% loss (corruption is a
    #: quarter of loss, as in the chaos experiment).  See README.md for
    #: why 3% and not the chaos sweep's 5%.
    drop_rate: float = 0.03
    duplicate_rate: float = 0.02
    reorder_rate: float = 0.05
    corrupt_rate: float = 0.0075
    reliable_timeout: float = 150e-6
    reliable_max_retries: int = 12
    negotiation_timeout: float = 2e-3
    negotiation_retries: int = 80
    #: A reply slower than this (virtual s) counts the rest of the
    #: connection's requests as failed.
    reply_timeout: float = 0.05

    @classmethod
    def tiny(cls) -> "EchoLossySize":
        return cls(client_hosts=2, conns_per_host=2, requests_per_conn=15)


def _echo_dag(size: EchoLossySize):
    return wrap(
        Serialize()
        >> Reliable(timeout=size.reliable_timeout, max_retries=size.reliable_max_retries)
    )


def _closed_loop(env, rnd, conn, tag: bytes, count: int, size, timeout):
    """Closed-loop echo: each tagged payload must come back exactly once,
    in order, before the next is sent.  Yields latencies (µs)."""
    latencies: list = []
    for seq in range(count):
        payload = (tag + seq.to_bytes(4, "big")).ljust(size, b"\0")
        sent_at = env.now
        conn.send(payload, size=len(payload))
        reply = conn.recv()
        yield env.any_of([reply, env.timeout(timeout)])
        if not reply.triggered:
            rnd.fail(f"{tag!r} #{seq}: no reply", count - seq)
            break
        if reply.value.payload != payload:
            rnd.fail(f"{tag!r} #{seq}: wrong or out-of-order echo", count - seq)
            break
        latencies.append((env.now - sent_at) * US)
    return latencies


def play_echo_lossy(
    seed: int, size: EchoLossySize, watch: Stopwatch, setup_only: bool = False
) -> Round:
    rnd = Round()
    events_before = Environment.dispatched_total
    with watch.phase("setup"):
        net = Network()
        server_host = net.add_host(
            "srv",
            cost=host_cost(seed, 0),
            nic=SmartNic(net.env, name="srv.nic", offload_slots=4),
        )
        client_names = [f"cl{i}" for i in range(size.client_hosts)]
        for index, name in enumerate(client_names):
            net.add_host(name, cost=host_cost(seed, index + 1))
        net.add_host("dsc", cost=host_cost(seed, size.client_hosts + 1))
        net.add_switch("tor")
        for name in ["srv", *client_names, "dsc"]:
            net.add_link(name, "tor", latency=5e-6)
        net.attach_faults_everywhere(
            FaultPlan(
                drop_rate=size.drop_rate,
                duplicate_rate=size.duplicate_rate,
                reorder_rate=size.reorder_rate,
                corrupt_rate=size.corrupt_rate,
                seed=seed,
            )
        )
        discovery = DiscoveryService(net.hosts["dsc"])
        # A contended NIC offload: every establishment reserves it, so the
        # reserve path runs under loss too.
        discovery.register(ReliableToe.meta, location="srv")

        def runtime(host, **kwargs):
            rt = Runtime(host, discovery=discovery.address, **kwargs)
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
            return rt

        server_rt = runtime(server_host, policy=PriorityFirstPolicy())
        EchoServer(server_rt, port=7400, dag=_echo_dag(size))
        client_rts = [runtime(net.hosts[name]) for name in client_names]
        converge(net, server_rt)
    if setup_only:
        return rnd
    env = net.env

    def client(host_index, conn_index, rt):
        count = size.requests_per_conn
        rnd.attempted += count
        endpoint = rt.new(f"echo-{conn_index}", _echo_dag(size))
        began = env.now
        try:
            conn = yield from endpoint.connect(
                Address("srv", 7400),
                timeout=size.negotiation_timeout,
                retries=size.negotiation_retries,
            )
        except NegotiationError as err:
            rnd.fail(f"connect failed: {err}", count)
            return
        rnd.connect_us.append((env.now - began) * US)
        rnd.degraded += conn.degraded
        tag = struct.pack(">HH", host_index, conn_index)
        lat = yield from _closed_loop(
            env, rnd, conn, tag, count, size.payload_size, size.reply_timeout
        )
        rnd.op_us.extend(lat)
        conn.close()

    with watch.phase("run"), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        procs = [
            env.process(client(h, c, rt))
            for h, rt in enumerate(client_rts)
            for c in range(size.conns_per_host)
        ]
        env.run(until=env.all_of(procs))
    # Per-connection completion order interleaves across clients; sort so
    # the latency list is independent of it.
    rnd.op_us.sort()
    rnd.seal_world(net)
    rnd.events = Environment.dispatched_total - events_before
    return rnd


# --------------------------------------------------------------------------
# connect-storm: the fleet world, open-loop establishments, a primary crash
# --------------------------------------------------------------------------
@dataclass
class ConnectStormSize:
    shards: int = 2
    replicas_per_shard: int = 3
    racks: int = 4
    clients_per_rack: int = 8
    servers: int = 8
    #: Servers carrying a SmartNIC with a registered TOE record.
    smartnic_indices: tuple = (1, 5)
    establishments: int = 2500
    #: Poisson establishments per virtual second; README.md says why 500.
    arrival_rate: float = 500.0
    zipf_theta: float = 0.99
    cache_size: int = 128
    crash_at_fraction: float = 0.4
    payload_size: int = 64
    negotiation_timeout: float = 2e-3
    negotiation_retries: int = 80
    discovery_timeout: float = 1e-3
    discovery_retries: int = 6
    monitor_interval: float = 2e-3
    probe_timeout: float = 4e-3
    miss_threshold: int = 3
    idle_close: float = 20e-3
    settle: float = 30e-3
    reply_timeout: float = 0.05

    @classmethod
    def tiny(cls) -> "ConnectStormSize":
        return cls(establishments=60, clients_per_rack=2)


def _fleet_dag():
    return wrap(Serialize() >> Reliable())


def play_connect_storm(
    seed: int, size: ConnectStormSize, watch: Stopwatch, setup_only: bool = False
) -> Round:
    rnd = Round()
    events_before = Environment.dispatched_total
    with watch.phase("setup"):
        net = Network()
        costs = itertools.count()
        net.add_switch("spine")
        net.add_switch("ctl")
        net.add_link("ctl", "spine", latency=10e-6)
        shard_hosts = []
        for shard_id in range(size.shards):
            hosts = []
            for index in range(size.replicas_per_shard):
                name = f"disc-s{shard_id}r{index}"
                net.add_host(name, cost=host_cost(seed, next(costs)))
                net.add_link(name, "ctl", latency=5e-6)
                hosts.append(name)
            shard_hosts.append(hosts)
        net.add_host("rtr", cost=host_cost(seed, next(costs)))
        net.add_link("rtr", "ctl", latency=5e-6)
        per_rack = size.servers // size.racks
        nic_indices = set(size.smartnic_indices)
        client_names, server_names = [], []
        for rack in range(size.racks):
            switch = f"rack{rack:03d}"
            net.add_switch(switch)
            net.add_link(switch, "spine", latency=10e-6)
            for client in range(size.clients_per_rack):
                name = f"cl{rack:03d}x{client:03d}"
                net.add_host(name, cost=host_cost(seed, next(costs)))
                net.add_link(name, switch, latency=5e-6)
                client_names.append(name)
            for slot in range(per_rack):
                index = rack * per_rack + slot
                name = f"sv{index:03d}"
                nic = (
                    SmartNic(net.env, name=f"{name}.nic", offload_slots=8)
                    if index in nic_indices
                    else None
                )
                net.add_host(name, cost=host_cost(seed, next(costs)), nic=nic)
                net.add_link(name, switch, latency=5e-6)
                server_names.append(name)
        tier = DiscoveryShardTier(net, shard_hosts)
        router = ShardRouter(net.entity("rtr"), tier.map, probe_timeout=size.probe_timeout)
        for index in sorted(nic_indices):
            tier.seed_record(ReliableToe.meta, location=server_names[index])

        def runtime(name, **kwargs):
            host = net.hosts[name]
            client = ShardedDiscoveryClient(
                host,
                router.address,
                timeout=size.discovery_timeout,
                retries=size.discovery_retries,
            )
            rt = Runtime(
                host,
                discovery=client,
                negotiation_cache_size=size.cache_size,
                ephemeral_connections=True,
                **kwargs,
            )
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
            return rt

        servers = [
            EchoServer(
                runtime(name, policy=PriorityFirstPolicy()),
                port=7500,
                dag=_fleet_dag(),
                service_name=f"svc-{index:03d}",
                name=f"echo-{name}",
                idle_close=size.idle_close,
            )
            for index, name in enumerate(server_names)
        ]
        client_rts = [runtime(name) for name in client_names]
        env = net.env
        router.start_monitor(size.monitor_interval, size.miss_threshold)

        def discovery_converged():
            # Every service name must resolve before the storm starts.
            prober = client_rts[0].discovery
            for index in range(size.servers):
                while True:
                    result = yield from prober.query([], service_name=f"svc-{index:03d}")
                    if result.instances:
                        break
                    yield env.timeout(1e-3)

        env.run(until=env.process(discovery_converged()))
    if setup_only:
        return rnd

    arrivals = PoissonArrivals(size.arrival_rate, seed=seed)
    chooser = ScrambledZipfianChooser(size.servers, theta=size.zipf_theta, seed=seed + 1)
    crash_shard = tier.map.shard_for_type(ReliableToe.meta.chunnel_type)
    crash_index = int(size.establishments * size.crash_at_fraction)
    payload_base = bytes(size.payload_size - 4)
    results: dict = {}

    def session(index, rt, service, due):
        endpoint = rt.new(f"fl{index}", _fleet_dag())
        try:
            conn = yield from endpoint.connect(
                service,
                timeout=size.negotiation_timeout,
                retries=size.negotiation_retries,
            )
        except NegotiationError as err:
            results[index] = ("failed", str(err))
            return
        connect_us = (env.now - due) * US
        rnd.degraded += conn.degraded
        payload = index.to_bytes(4, "big") + payload_base
        conn.send(payload, size=len(payload))
        reply = conn.recv()
        yield env.any_of([reply, env.timeout(size.reply_timeout)])
        if not reply.triggered or reply.value.payload != payload:
            results[index] = ("bad echo", connect_us)
        else:
            results[index] = ("ok", connect_us, (env.now - due) * US)
        conn.close()

    def storm():
        sessions = []
        at = env.now
        for index in range(size.establishments):
            at += arrivals.next_gap()
            yield env.timeout(at - env.now)
            if index == crash_index:
                tier.crash_primary(crash_shard)
            sessions.append(
                env.process(
                    session(
                        index,
                        client_rts[index % len(client_rts)],
                        f"svc-{chooser.next_index():03d}",
                        at,
                    )
                )
            )
        yield env.all_of(sessions)
        yield env.timeout(size.settle)
        router.stop()
        tier.close()
        for server in servers:
            server.close()

    with watch.phase("run"), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        env.run(until=env.process(storm()))
    rnd.attempted = size.establishments
    for index in range(size.establishments):
        outcome = results.get(index, ("lost",))
        if outcome[0] != "failed" and outcome[0] != "lost":
            rnd.connect_us.append(outcome[1])
        if outcome[0] == "ok":
            rnd.op_us.append(outcome[2])
        else:
            rnd.fail(f"establishment {index}: {outcome[0]} {outcome[1:]}")
    snap = net.obs.snapshot()
    audits = [
        value
        for name, value in snap.items()
        if name.startswith("discovery.") and name.endswith("audit_ok")
    ]
    if not audits or not all(audits):
        rnd.fail("discovery lease audit failed")
    if snap.get("router.failovers") < 1:
        rnd.fail("shard primary crash was never failed over")
    rnd.seal_world(net)
    rnd.events = Environment.dispatched_total - events_before
    return rnd


# --------------------------------------------------------------------------
# kv-cache-rw: Zipf KV through the ToR read cache, with a switch fail/recover
# --------------------------------------------------------------------------
@dataclass
class KvCacheRwSize:
    record_count: int = 96
    cache_capacity: int = 16
    value_size: int = 48
    shards: int = 3
    worker_service_time: float = 6.0e-6
    cache_write_cost: float = 24.0e-6
    near_latency: float = 5e-6
    server_latency: float = 10e-6
    #: One fixed open-loop rate for both phases (ops per virtual second).
    rate: float = 25_000.0
    #: (operations, write fraction, Zipf theta): read-heavy, then write-heavy.
    phases: tuple = ((8000, 0.1, 0.99), (8000, 0.5, 0.9))
    #: Switch fail and recover instants as fractions of the schedule.
    fail_at: float = 0.35
    recover_at: float = 0.6
    drain: float = 0.1

    @classmethod
    def tiny(cls) -> "KvCacheRwSize":
        return cls(phases=((60, 0.05, 0.99), (60, 0.5, 0.9)))


def play_kv_cache_rw(
    seed: int, size: KvCacheRwSize, watch: Stopwatch, setup_only: bool = False
) -> Round:
    rnd = Round()
    events_before = Environment.dispatched_total
    keys = [f"k{i:04d}" for i in range(size.record_count)]
    with watch.phase("setup"):
        net = Network()
        for index, name in enumerate(("cl", "srv", "dsc")):
            net.add_host(name, cost=host_cost(seed, index))
        net.add_switch("tor")
        net.add_link("cl", "tor", latency=size.near_latency)
        net.add_link("dsc", "tor", latency=size.near_latency)
        net.add_link("srv", "tor", latency=size.server_latency)
        discovery = DiscoveryService(net.hosts["dsc"])
        server_rt = Runtime(net.entity("srv"), discovery=discovery.address)
        server_rt.register_chunnel(SerializeFallback)
        server_rt.register_chunnel(KvCacheHostPath)
        client_rt = Runtime(net.entity("cl"), discovery=discovery.address)
        client_rt.register_chunnel(SerializeFallback)
        client_rt.register_chunnel(ShardClientFallback)
        discovery.register(KvCacheSwitch.meta, location="tor")
        workers = [Address("srv", 7101 + i) for i in range(size.shards)]
        server = KvServer(
            server_rt,
            port=7100,
            shards=size.shards,
            worker_service_time=size.worker_service_time,
            extra_dag=wrap(
                KvCache(
                    choices=workers,
                    capacity=size.cache_capacity,
                    write_cost=size.cache_write_cost,
                )
            ),
            auto_reconfig=True,
        )
        ledger = KvLedger(keys, size.value_size)
        _kv_preload(server, ledger.preload())
        converge(net, server_rt)
    if setup_only:
        return rnd
    env = net.env
    total = sum(count for count, _, _ in size.phases)
    span = total / size.rate
    tor = net.switches["tor"]
    # The failure tears the cache's programs down and the recovery installs
    # fresh ones, so the first generation is kept for the counts.
    retired = []

    def client():
        endpoint = client_rt.new("kv-client")
        began = env.now
        conn = yield from endpoint.connect(Address("srv", 7100))
        rnd.connect_us.append((env.now - began) * US)
        env.process(switch_chaos(), name="bench.switch-chaos")
        schedule = []
        for p_index, (count, write_fraction, theta) in enumerate(size.phases):
            stream_seed = seed * 7919 + p_index * 31
            schedule += _schedule(
                stream_seed,
                size.rate,
                count,
                schedule[-1][0] if schedule else env.now,
                keys,
                ScrambledZipfianChooser(len(keys), theta=theta, seed=stream_seed + 2),
                write_fraction,
                p_index * 1_000_000,
            )
        rnd.attempted += len(schedule)
        rnd.op_us.extend((yield from _kv_stream(env, rnd, conn, ledger, schedule, size.drain)))
        ledger.lost(rnd)

    def switch_chaos():
        yield env.timeout(size.fail_at * span)
        retired.extend(tor.programs)
        tor.fail("benchmark maintenance")
        yield env.timeout((size.recover_at - size.fail_at) * span)
        tor.recover("benchmark maintenance done")

    with watch.phase("run"):
        env.run(until=env.process(client()))
    if server_rt.reconfig.transitions_committed < 2:
        rnd.fail("switch fail and recover did not each drive a live transition")
    states = {
        id(p.state): p.state for p in (*retired, *tor.programs) if p.name.endswith("/read")
    }.values()
    if len(states) < 2:
        rnd.fail("the ToR cache was not reinstalled after the recovery")
    rnd.seal_world(
        net,
        {
            "offload_hits": sum(state.hits for state in states),
            "offload_gets": sum(state.hits + state.misses for state in states),
            "offload_writes": sum(state.writes for state in states),
        },
        retired,
    )
    rnd.events = Environment.dispatched_total - events_before
    return rnd
