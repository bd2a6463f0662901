#!/usr/bin/env python3
"""Benchmark for the Bertha reproduction: one workload per invocation.

    python3 perfbench/run.py --workload kv-shard --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics from untraced rounds; ``--trace 1`` runs a separate round under
cProfile and reports the per-layer metrics.  Every metric is printed with
its unit and sample count; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per-layer metrics from the traced round: name -> unit.
PER_LAYER = {
    "sim.eventloop.self_s": "s",
    "sim.eventloop.events": "count",
    "sim.eventloop.events_per_op": "count",
    "sim.self_s": "s",
    "sim.datagrams": "count",
    "sim.drops": "count",
    "sim.station.served": "count",
    "sim.station.wait_us": "us",
    "core.connection.self_s": "s",
    "core.connection.msgs": "count",
    "core.connection.ns_per_msg": "ns",
    "chunnels.self_s": "s",
    "chunnels.reliable.retx_ratio": "ratio",
    "chunnels.offload.hit_ratio": "ratio",
    "chunnels.offload.writes": "count",
    "core.wire.self_s": "s",
    "core.wire.msgs": "count",
    "core.wire.ns_per_msg": "ns",
    "core.control.self_s": "s",
    "core.control.rtts_per_connect": "count",
    "core.control.retransmits": "count",
    "core.negcache.hit_ratio": "ratio",
    "core.negcache.fallbacks": "count",
    "discovery.self_s": "s",
    "discovery.round_trips": "count",
    "discovery.router.failovers": "count",
    "discovery.rsm.gaps": "count",
    "discovery.degraded": "count",
    "reconfig.self_s": "s",
    "reconfig.transitions": "count",
    "reconfig.aborts": "count",
    "obs.self_s": "s",
    "apps.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}

#: A percentile is reported only with at least 10 samples beyond it.
MIN_SAMPLES = {50: 20, 99: 1000}
#: Set-up takes milliseconds, so ``setup_s`` is the median of readings,
#: each the mean over as many set-up-only builds as fill ``SETUP_READING_S``
#: host seconds: this many before the first round and one after each round.
SETUP_READINGS = 4
SETUP_READING_S = 0.25
#: Timed rounds repeat while another fits in --seconds, and at least this often.
MIN_ROUNDS = 2
#: Reference-loop iterations per second on the nominal host that
#: ``host_ops_per_s`` is scaled to (see README.md, "Steadiness").
NOMINAL_REFERENCE_RATE = 4.0e6


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 0, 1

    def step(self, x: int) -> int:
        self.a, self.b = self.b, (self.a + x) & 0xFFFF
        return self.b


def reference_rate(iterations: int = 400_000) -> float:
    """Iterations per second of a fixed interpreter-bound loop (method
    calls, attribute and dict updates, no allocation growth).  It uses no
    repository code, so it measures only how fast the host runs Python."""
    pair, table = _Pair(), {}
    start = time.perf_counter()
    for i in range(iterations):
        key = pair.step(i) & 255
        table[key] = table.get(key, 0) + 1
    return iterations / (time.perf_counter() - start)


def _workloads(worlds) -> dict:
    return {
        "kv-shard": (worlds.play_kv_shard, worlds.KvShardSize),
        "echo-lossy": (worlds.play_echo_lossy, worlds.EchoLossySize),
        "connect-storm": (worlds.play_connect_storm, worlds.ConnectStormSize),
        "kv-cache-rw": (worlds.play_kv_cache_rw, worlds.KvCacheRwSize),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Report:
    """Collects metric lines and check failures for one invocation."""

    def __init__(self, seed: int, min_samples: dict = MIN_SAMPLES):
        self.seed = seed
        self.min_samples = min_samples
        self.lines: list = []
        self.problems: list = []
        self.metrics: dict = {}

    def metric(self, name: str, value, unit: str, samples: str, export=True) -> None:
        shown = "-" if value is None else f"{value:.6g}"
        self.lines.append(f"  {name:<32} {shown:>14} {unit:<6} {samples}")
        if export:
            self.metrics[name] = {"value": value, "unit": unit}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def latency(self, name: str, values: list, q: int, export=True) -> None:
        from worlds import percentile

        need = self.min_samples[q]
        if len(values) >= need:
            self.metric(name, percentile(values, q), "us", f"n={len(values)}", export)
        else:
            self.metric(name, None, "us", f"n={len(values)} (needs >= {need})", False)
            self.check(not export, f"{name}: {len(values)} samples, needs {need}")


def _check_rounds(report: Report, rounds: list) -> None:
    """Output checks, plus same-seed rounds agreeing in virtual time."""
    first = rounds[0]
    report.check(first.failed == 0, f"{first.failed} failed ops: {first.problems}")
    report.check(
        all(rnd.digest == first.digest for rnd in rounds), "same-seed rounds diverged"
    )


def _virtual_metrics(report: Report, rnd, export: bool) -> None:
    """Virtual-time metrics, identical for every round of one seed."""
    report.metric(
        "op_fail_ratio",
        _ratio(rnd.failed, rnd.attempted),
        "ratio",
        f"{rnd.failed}/{rnd.attempted} ops",
        export=False,
    )
    report.latency("op_p50_us", rnd.op_us, 50, export)
    report.latency("op_p99_us", rnd.op_us, 99, export)
    report.metric(
        "degraded_establishments",
        rnd.degraded,
        "count",
        f"of {len(rnd.connect_us)} establishments",
        export=False,
    )
    report.latency("connect_p50_us", rnd.connect_us, 50, export=False)
    report.latency("connect_p99_us", rnd.connect_us, 99, export=False)
    if rnd.capacity_kqps:
        for placement, kqps in rnd.capacity_kqps.items():
            ladder = {k: v for (p, k), v in rnd.ladder_p99_us.items() if p == placement}
            report.metric(
                f"capacity_kqps.{placement}", kqps, "kqps", f"{len(ladder)} ladder steps", False
            )
            report.lines.append(
                "    p99 us by kqps: "
                + " ".join(f"{k}:{v:.0f}" for k, v in sorted(ladder.items()))
            )
    else:
        report.lines.append(f"  {'capacity_kqps.*':<32} {'-':>14} {'kqps':<6} kv-shard only")
    report.lines.append(f"  sim_digest {rnd.digest}")


def setup_reading(seed: int, play, size, reading_s: float) -> tuple:
    """One set-up reading at the nominal host speed (the reference loop
    timed before and after it), and the same reading as measured."""
    from worlds import Stopwatch

    gc.collect()
    before = reference_rate()
    watch = Stopwatch()
    builds = 0
    while builds == 0 or watch.setup < reading_s:
        play(seed, size, watch, setup_only=True)
        builds += 1
    raw = watch.setup / builds
    return raw * (before + reference_rate()) / 2 / NOMINAL_REFERENCE_RATE, raw


def untraced(
    report: Report, play, size, seconds: float, setup_reading_s: float = SETUP_READING_S
) -> tuple:
    from worlds import Stopwatch

    # The first build in a process is slower (cold interpreter caches).
    play(report.seed, size, Stopwatch(), setup_only=True)
    started = time.perf_counter()
    # Set-up readings are spread over the run: the host's speed drifts,
    # so readings taken together would all land in one phase of it.
    setups = [
        setup_reading(report.seed, play, size, setup_reading_s)
        for _ in range(SETUP_READINGS)
    ]
    rounds, raw, scaled = [], [], []
    longest = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started + longest <= seconds:
        gc.collect()
        watch = Stopwatch()
        began = time.perf_counter()
        speed = reference_rate()
        rnd = play(report.seed, size, watch)
        speed = (speed + reference_rate()) / 2 / NOMINAL_REFERENCE_RATE
        setups.append(setup_reading(report.seed, play, size, setup_reading_s))
        longest = max(longest, time.perf_counter() - began)
        rounds.append(rnd)
        raw.append(rnd.attempted / watch.run)
        scaled.append(raw[-1] / speed)
    _check_rounds(report, rounds)
    ops = sum(rnd.attempted for rnd in rounds)
    # The host's speed drifts by tens of percent over tens of seconds, and
    # a fixed Python loop timed around each reading tracks it; set-up times
    # and round rates are scaled to the nominal host speed (README.md,
    # "Steadiness").
    report.metric(
        "setup_s",
        statistics.median(scaled_setup for scaled_setup, _ in setups),
        "s",
        f"median of {len(setups)} readings at nominal host speed; "
        f"measured {' '.join(f'{r * 1e3:.2f}' for _, r in setups)} ms",
    )
    report.metric(
        "host_ops_per_s",
        statistics.median(scaled),
        "1/s",
        f"median of {len(rounds)} rounds, {ops} ops, at nominal host speed; "
        f"measured {' '.join(f'{r:.0f}' for r in raw)}",
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.metric("peak_rss_mb", rss_mb, "MB", "1 process")
    _virtual_metrics(report, rounds[0], export=True)
    return ops, sum(rnd.failed for rnd in rounds)


def traced(report: Report, play, size) -> tuple:
    import layers
    from worlds import Stopwatch

    rounds, walls = [], []
    for profiled in (False, False, True):
        gc.collect()
        profile = cProfile.Profile() if profiled else None
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        rounds.append(play(report.seed, size, Stopwatch()))
        if profile is not None:
            profile.disable()
        walls.append(time.perf_counter() - start)
    _check_rounds(report, rounds)
    rnd, untraced_wall, traced_wall = rounds[-1], walls[1], walls[2]
    stats = pstats.Stats(profile)
    selfs = layers.attribute(stats)
    counts = rnd.counts
    ops = rnd.attempted
    wire_msgs = layers.call_count(
        stats, "repro/core/wire.py", ("encode", "encode_sized", "decode")
    )
    connects = len(rnd.connect_us)
    values = {
        "sim.eventloop.events": rnd.events,
        "sim.eventloop.events_per_op": _ratio(rnd.events, ops),
        "sim.datagrams": counts["datagrams"],
        "sim.drops": counts["drops"],
        "sim.station.served": counts["station_served"],
        "sim.station.wait_us": _ratio(counts["station_wait_s"], counts["station_served"])
        * 1e6,
        "core.connection.msgs": counts["conn_msgs"],
        "core.connection.ns_per_msg": _ratio(selfs["core.connection"], counts["conn_msgs"])
        * 1e9,
        "chunnels.reliable.retx_ratio": _ratio(counts["stack_retx"], counts["conn_sent"]),
        "chunnels.offload.hit_ratio": _ratio(
            counts.get("offload_hits", 0), counts.get("offload_gets", 0)
        ),
        "chunnels.offload.writes": counts.get("offload_writes", 0),
        "core.wire.msgs": wire_msgs,
        "core.wire.ns_per_msg": _ratio(selfs["core.wire"], wire_msgs) * 1e9,
        "core.control.rtts_per_connect": _ratio(
            counts["negotiation_rtts"] + counts["discovery_rtts"], connects
        ),
        "core.control.retransmits": counts["control_retx"],
        "core.negcache.hit_ratio": _ratio(
            counts["negcache_hits"], counts["negcache_hits"] + counts["negcache_misses"]
        ),
        "core.negcache.fallbacks": counts["negcache_fallbacks"],
        "discovery.round_trips": counts["discovery_rtts"],
        "discovery.router.failovers": counts["router_failovers"],
        "discovery.rsm.gaps": counts["rsm_gaps"],
        "discovery.degraded": rnd.degraded,
        "reconfig.transitions": counts["reconfig_commits"],
        "reconfig.aborts": counts["reconfig_aborts"],
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.attributed_ratio": sum(selfs[layer] for layer in layers.LAYERS)
        / traced_wall,
    }
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = selfs[layer]
    for name, unit in PER_LAYER.items():
        report.metric(name, values[name], unit, "traced round")
    report.lines.append(
        f"  (benchmark self {selfs[layers.BENCH]:.3f} s, unattributed "
        f"{selfs[layers.UNATTRIBUTED]:.3f} s, traced wall {traced_wall:.3f} s, "
        f"untraced wall {untraced_wall:.3f} s)"
    )
    _virtual_metrics(report, rnd, export=False)
    return sum(r.attempted for r in rounds), sum(r.failed for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import worlds

    workloads = _workloads(worlds)
    if args.workload not in workloads:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
            file=sys.stderr,
        )
        return 2
    play, size_cls = workloads[args.workload]
    report = Report(args.seed)
    if args.trace:
        attempted, failed = traced(report, play, size_cls())
    else:
        attempted, failed = untraced(report, play, size_cls(), args.seconds)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode})")
    print("\n".join(report.lines))
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not report.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
