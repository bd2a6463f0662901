"""One wire codec per type for Chunnel specs and DAGs.

``ChunnelSpec.to_wire``/``spec_from_wire`` and ``ChunnelDag.to_wire``/
``from_wire`` are the registered ``chunnel_spec``/``chunnel_dag`` adapters,
not parallel encoders.  The golden digests and sizes below were taken from
the encodings that negotiation messages produced while the DAG codec still
existed twice; negotiation sizes drive simulated timings, so any drift in
the encoding would move every same-seed baseline.
"""

import hashlib

import pytest

from repro.chunnels import Reliable, Serialize, Shard
from repro.core import (
    ChunnelDag,
    ChunnelSpec,
    ImplMeta,
    Offer as ImplOffer,
    ResourceVector,
    Scope,
    register_spec,
    wrap,
)
from repro.core import messages as msgs
from repro.core.chunnel import spec_from_wire
from repro.core.wire import WireError, decode, encode, encode_sized, message_size
from repro.errors import DagError
from repro.sim import Address


@register_spec
class _Branch(ChunnelSpec):
    type_name = "codec_test_branch"

    def __init__(self, branches, label=""):
        super().__init__(branches=branches, label=label)


def _offer():
    return ImplOffer(
        meta=ImplMeta(
            chunnel_type="reliable",
            name="sw",
            priority=10,
            resources=ResourceVector(),
        ),
        origin="client",
        location="srv",
        record_id="rec-1",
    )


def _values():
    """A DAG with scoped, argument-bearing and nested (branching) specs,
    alone and inside the two message kinds that carry DAGs."""
    dag = wrap(
        Serialize()
        >> Reliable().scoped(Scope.HOST)
        >> _Branch(
            [Shard(choices=[Address("w", 1), Address("w", 2)]), Reliable()],
            label="b",
        )
    )
    node = dag.topological_order()[0]
    return {
        "dag": dag,
        "spec": dag.nodes[node],
        "offer": msgs.Offer(
            conn_id="c1",
            dag=dag,
            offers={"reliable": [_offer()]},
            client_entity="cl",
        ),
        "transition": msgs.Transition(
            conn_id="c1", epoch=2, dag=dag, choice={node: _offer()}, reason="policy"
        ),
    }


#: sha256 (first 32 hex digits) of ``repr(encode(value))`` and the
#: ``encode_sized`` size, recorded from the two-codec implementation.
GOLDEN = {
    "dag": ("8752faa26afa7f57047a9c16f4b69436", 1303),
    "spec": ("f81bf363e555984a2fea69aae864d355", 91),
    "offer": ("71dc1fef2141dd405be6857dc3a1144e", 1695),
    "transition": ("4dedb9183f054cfdd70e2fd370126dd1", 1678),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoding_and_size_are_byte_identical(name):
    value = _values()[name]
    encoded = encode(value)
    sized, size = encode_sized(value)
    assert sized == encoded
    digest = hashlib.sha256(repr(encoded).encode()).hexdigest()[:32]
    assert (digest, size) == GOLDEN[name]
    assert size == message_size(encoded)


def test_to_wire_is_the_registered_adapter():
    values = _values()
    dag, spec = values["dag"], values["spec"]
    assert dag.to_wire() == encode(dag)
    assert spec.to_wire() == encode(spec)
    # The DAG a message carries is encoded exactly as to_wire encodes it.
    assert encode(values["offer"])["dag"] == dag.to_wire()


def test_round_trips():
    dag = _values()["dag"]
    for decoded in (ChunnelDag.from_wire(dag.to_wire()), decode(encode(dag))):
        assert decoded.canonical_shape() == dag.canonical_shape()
        assert encode(decoded) == encode(dag)
    spec = dag.nodes[1]
    decoded_spec = spec_from_wire(spec.to_wire())
    assert decoded_spec.scope_requirement is Scope.HOST
    assert encode(decoded_spec) == encode(spec)


def test_decoders_reject_the_wrong_type():
    spec_wire = Reliable().to_wire()
    with pytest.raises(DagError):
        ChunnelDag.from_wire(spec_wire)
    with pytest.raises(WireError):
        spec_from_wire(wrap(Serialize()).to_wire())
    bad = wrap(Serialize()).to_wire()
    bad["nodes"][0]["spec"] = 5
    with pytest.raises(WireError):
        decode(bad)
