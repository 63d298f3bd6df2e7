"""Unit tests for the stable JSON codec of decompositions."""

from __future__ import annotations

import json

import pytest

from repro import Hypergraph, hypertree_width
from repro.core.codec import (
    DECOMPOSITION_FORMAT,
    class_for_kind,
    decomposition_from_dict,
    decomposition_from_json,
    decomposition_to_dict,
    decomposition_to_json,
    kind_of,
)
from repro.decomp import (
    GeneralizedHypertreeDecomposition,
    HypertreeDecomposition,
    validate_hd,
)
from repro.exceptions import DecompositionError, ParseError
from repro.hypergraph import generators


@pytest.fixture
def triangle():
    return Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})


def test_decomposition_roundtrip_preserves_everything(triangle):
    width, hd = hypertree_width(triangle)
    restored = decomposition_from_json(triangle, decomposition_to_json(hd))
    assert type(restored) is type(hd)
    assert restored.width == hd.width == width
    assert len(restored) == len(hd)
    validate_hd(restored)


def test_encoding_is_byte_stable(triangle):
    _, hd = hypertree_width(triangle)
    text = decomposition_to_json(hd)
    # Encoding the decoded object again must reproduce the exact bytes —
    # the catalog relies on this for row comparison and deduplication.
    assert decomposition_to_json(decomposition_from_json(triangle, text)) == text
    assert json.loads(text)["format"] == DECOMPOSITION_FORMAT


def test_roundtrip_on_larger_instances():
    for hypergraph in (generators.cycle(10), generators.grid(3, 3)):
        width, hd = hypertree_width(hypergraph)
        restored = decomposition_from_json(hypergraph, decomposition_to_json(hd))
        assert restored.width == width
        validate_hd(restored)


def test_kind_tags_roundtrip():
    assert class_for_kind(kind_of(HypertreeDecomposition)) is HypertreeDecomposition
    assert (
        class_for_kind(kind_of(GeneralizedHypertreeDecomposition))
        is GeneralizedHypertreeDecomposition
    )
    with pytest.raises(ParseError):
        class_for_kind("no-such-kind")
    with pytest.raises(ParseError):
        kind_of(dict)


def test_malformed_payloads_raise_parse_error(triangle):
    _, hd = hypertree_width(triangle)
    good = decomposition_to_dict(hd)

    with pytest.raises(ParseError):
        decomposition_from_json(triangle, "not json {")
    with pytest.raises(ParseError):
        decomposition_from_dict(triangle, {"format": "wrong/0", "kind": "hd"})
    with pytest.raises(ParseError):
        decomposition_from_dict(triangle, {**good, "kind": "no-such-kind"})
    with pytest.raises(ParseError):
        decomposition_from_dict(triangle, {**good, "root": "not a node"})

    missing = dict(good)
    del missing["root"]
    with pytest.raises(ParseError):
        decomposition_from_dict(triangle, missing)

    bad_bag = json.loads(decomposition_to_json(hd))
    bad_bag["root"]["bag"] = [1, 2, 3]
    with pytest.raises(ParseError):
        decomposition_from_dict(triangle, bad_bag)


def test_payload_cannot_smuggle_foreign_structure(triangle):
    # A payload referencing edges/vertices the host does not have must be
    # rejected by the class constructor at decode time.
    _, hd = hypertree_width(triangle)
    tampered = json.loads(decomposition_to_json(hd))
    tampered["root"]["cover"] = ["no-such-edge"]
    with pytest.raises(DecompositionError):
        decomposition_from_dict(triangle, tampered)
