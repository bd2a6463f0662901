"""The module-to-layer map and cProfile self-time attribution.

Every function in ``src/repro`` belongs to one layer by its module (see
``layer_of``).  A function outside the map — a C builtin, a standard-library
function, or a ``repro`` module the map leaves out (``errors.py``,
``metrics.py``, package ``__init__`` files) — does its work for whoever
called it, so its self time is charged to its callers' layers in
proportion to the per-caller self time cProfile recorded.  The benchmark's
own code is a terminal owner that belongs to no layer; time that
ends there, or at a caller-less root, is unattributed.
"""

from __future__ import annotations

import os
import pstats

LAYERS = (
    "sim.eventloop",
    "sim",
    "core.connection",
    "chunnels",
    "core.wire",
    "core.control",
    "discovery",
    "reconfig",
    "obs",
    "apps",
)

_CONNECTION = {"connection.py", "stack.py", "chunnel.py"}
_WIRE = {"wire.py", "messages.py"}
_CONTROL = {
    "negotiation.py",
    "establish.py",
    "runtime.py",
    "rpc.py",
    "negcache.py",
    "policy.py",
    "dag.py",
    "scheduler.py",
    "registry.py",
    "resources.py",
    "scope.py",
    "optimizer.py",
}

BENCH = "bench"
UNATTRIBUTED = "unattributed"
_PASS = None  # charged through callers

_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str):
    """The layer owning ``filename``; ``_PASS`` for code charged to callers."""
    path = filename.replace("\\", "/")
    if os.path.abspath(filename).startswith(_HERE + os.sep):
        return BENCH
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return _PASS
    package, _, module = path[at + len(marker):].rpartition("/")
    if package == "sim":
        return "sim.eventloop" if module == "eventloop.py" else "sim"
    if package == "core":
        if module in _CONNECTION:
            return "core.connection"
        if module in _WIRE:
            return "core.wire"
        if module in _CONTROL:
            return "core.control"
        if module == "failover.py":
            return "reconfig"
        return _PASS
    if package == "chunnels":
        return "chunnels"
    if package == "discovery" or (package == "apps" and module == "rsm.py"):
        return "discovery"
    if package == "reconfig":
        return "reconfig"
    if package == "obs":
        return "obs"
    if package in ("apps", "workloads") and module != "__init__.py":
        return "apps"
    return _PASS


def attribute(stats: pstats.Stats) -> dict:
    """Self seconds per layer (plus ``bench`` and ``unattributed``)."""
    # func -> (cc, nc, tt, ct, callers); callers: caller -> (nc, cc, tt, ct)
    table = stats.stats
    owner = {func: layer_of(func[0]) for func in table}
    memo: dict = {}

    def share(func, depth=0) -> dict:
        """Where ``func``'s work ends up: layer -> fraction."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}
        if func in memo:
            return memo[func]
        if depth > 50 or func not in table:
            return {UNATTRIBUTED: 1.0}
        memo[func] = {UNATTRIBUTED: 1.0}  # cycle guard
        callers = table[func][4]
        weights = {caller: edge[3] for caller, edge in callers.items()}
        total = sum(weights.values())
        if not total:
            weights = {caller: edge[0] for caller, edge in callers.items()}
            total = sum(weights.values())
        out: dict = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for layer, frac in share(caller, depth + 1).items():
                out[layer] = out.get(layer, 0.0) + frac * weight / total
        memo[func] = out or {UNATTRIBUTED: 1.0}
        return memo[func]

    selfs = {layer: 0.0 for layer in (*LAYERS, BENCH, UNATTRIBUTED)}
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        if not tt:
            continue
        if owner[func] is not None:
            selfs[owner[func]] += tt
            continue
        # Split this function's self time over its callers by the self
        # time each call edge recorded, then follow each caller's owner.
        edge_tt = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(edge_tt.values())
        if not total:
            for layer, frac in share(func).items():
                selfs[layer] += tt * frac
            continue
        for caller, part in edge_tt.items():
            for layer, frac in share(caller).items():
                selfs[layer] += tt * (part / total) * frac
    return selfs


def call_count(stats: pstats.Stats, module_suffix: str, names: tuple) -> int:
    """Outermost calls of the named functions defined in ``module_suffix``
    (recursive calls of a function already on the stack do not count)."""
    suffix = module_suffix.replace("\\", "/")
    return sum(
        cc
        for (filename, _line, name), (cc, *_rest) in stats.stats.items()
        if name in names and filename.replace("\\", "/").endswith(suffix)
    )
