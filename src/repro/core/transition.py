"""One epoch transition: swap a live connection's binding in place.

The server's transition, the peer's adoption of an announced
``TRANSITION`` (PROTOCOL.md §5) and a client's migration to a standby
(§9.3) all run the sequence of :class:`EpochSwap`: build the changed
nodes, :meth:`~EpochSwap.prepare` the new epoch's stack beside the live
one, :meth:`~EpochSwap.commit` or :meth:`~EpochSwap.abort`, then
:meth:`~EpochSwap.settle` — tear down what was replaced and retire the
old epoch.  The decision, the exchange with the peer, ack caching and
the lease-release policy stay with the caller (DESIGN.md §3.2b).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from ..errors import BerthaError
from .chunnel import ChunnelImpl, Offer
from .connection import Connection
from .dag import ChunnelDag
from .establish import build_binding, teardown_nodes
from .stack import ChunnelStack, SetupContext

__all__ = ["EpochSwap", "Replaced", "adopted_binding", "changed_nodes", "same_offer"]


def same_offer(a: Optional[Offer], b: Optional[Offer]) -> bool:
    return (
        a is not None
        and b is not None
        and a.meta.name == b.meta.name
        and a.record_id == b.record_id
        and a.location == b.location
    )


def changed_nodes(
    conn: Connection,
    dag: ChunnelDag,
    choice: dict[int, Offer],
    merged: Optional[set[int]],
) -> set[int]:
    """The nodes a swap of ``conn`` to ``(dag, choice)`` rebuilds.

    ``merged`` is the arg-changed set when ``dag`` came from
    :meth:`ChunnelDag.merge_arg_updates` (it keeps the live spec objects);
    any other DAG that is not the live one rebuilds every node.
    """
    order = dag.topological_order()
    if dag is not conn.dag and merged is None:
        return set(order)
    return {
        node_id
        for node_id in order
        if not same_offer(conn.choice.get(node_id), choice.get(node_id))
    } | (merged or set())


def adopted_binding(
    conn: Connection, announced: ChunnelDag, choice: dict[int, Offer]
) -> tuple[ChunnelDag, set[int]]:
    """The DAG to run for a binding the peer announced, and its rebuild set.

    Same structure ⇒ keep our spec objects for unchanged nodes so node
    identities (and the setup contexts keyed on them) survive, adopting
    the announced args only where they differ.  A same-shape DAG that
    won't merge (relabeled node ids) keeps ours wholesale; a different
    shape is a full rebuild from the announcement.
    """
    merged: Optional[set[int]] = None
    merge = ChunnelDag.merge_arg_updates(conn.dag, announced)
    if merge is not None:
        dag, merged = merge
    elif announced.canonical_shape() == conn.dag.canonical_shape():
        dag = conn.dag
    else:
        dag = announced
    return dag, changed_nodes(conn, dag, choice, merged)


class Replaced(NamedTuple):
    """A node's implementation that a committed binding replaced."""

    node_id: int
    impl: ChunnelImpl
    context: Optional[SetupContext]
    offer: Optional[Offer]


class EpochSwap:
    """The binding swap of one epoch on a live connection.

    Construction builds the ``changed`` nodes, each with a private copy of
    the connection's params (a :class:`BerthaError` there leaves nothing
    behind); unchanged nodes carry their impls, contexts and live stages.
    """

    def __init__(
        self,
        conn: Connection,
        epoch: int,
        dag: ChunnelDag,
        choice: dict[int, Offer],
        changed: set[int],
        server_entity: str,
        reservations: Sequence[tuple[str, str]],
    ):
        self.conn = conn
        self.epoch = epoch
        self.dag = dag
        self.choice = choice
        self.changed = changed
        self.old_epoch = conn.epoch
        self._replaced: list[Replaced] = []
        self.impls, self.contexts, self.stage_map = build_binding(
            conn.runtime,
            role=conn.role,
            conn_id=conn.conn_id,
            dag=dag,
            choice=choice,
            client_entity=conn.client_entity,
            server_entity=server_entity,
            params=conn.params,
            reservations=reservations,
            changed=changed,
            reuse=conn,
            fresh_params=True,
        )

    def prepare(self) -> ChunnelStack:
        """Start the epoch's stack (not yet current) and run the rebuilt
        nodes' ``after_establish`` hooks, so device programs go live while
        the old stack still serves.  A :class:`BerthaError` aborts."""
        order = self.dag.topological_order()
        try:
            stack = self.conn.prepare_transition(
                self.epoch,
                [self.stage_map[n] for n in order if self.stage_map[n] is not None],
            )
            for node_id in sorted(self.changed):
                self.impls[node_id].after_establish(self.contexts[node_id], self.conn)
        except BerthaError:
            self.abort()
            raise
        return stack

    def abort(self) -> None:
        """Roll back: drop the prepared stack, tear the rebuilt nodes down."""
        self.conn.abort_transition(self.epoch)
        teardown_nodes(self.impls, self.contexts, self.changed)

    def commit(self) -> int:
        """Make the epoch current; returns the epoch it superseded."""
        conn = self.conn
        self._replaced = [
            Replaced(
                node_id,
                conn.impls[node_id],
                conn._context_for(node_id),
                conn.choice.get(node_id),
            )
            for node_id in sorted(self.changed)
            if node_id in conn.impls
        ]
        order = self.dag.topological_order()
        self.old_epoch = conn.commit_transition(
            self.epoch,
            dag=self.dag,
            impls=self.impls,
            choice=self.choice,
            contexts=[self.contexts[n] for n in order if self.contexts[n] is not None],
            stage_map=self.stage_map,
        )
        return self.old_epoch

    def settle(self, grace: float) -> Iterator[Replaced]:
        """After a commit: tear down each replaced implementation in node
        order, yielding it so the caller can release its leases before the
        next teardown; once exhausted, retire the old epoch after
        ``grace``."""
        for old in self._replaced:
            if old.context is not None:
                old.impl.teardown(old.context)
            yield old
        self.conn.retire_epoch(self.old_epoch, grace=grace)
