"""The explored search tree, pinned per algorithm.

Every row is ``(success, labels_tried, recursive_calls, max_recursion_depth,
cache_hits, splitter_memo_hits, enum_domination_skips, sha256 of the
certificate JSON)`` of one raw search; the table was generated at PR 19's
commit and is committed as is.  A refactor of ``decomp/`` or ``core/`` that
claims "same explored tree" passes this file unchanged; one that changes the
tree on purpose regenerates the table and says so.  The ``hybrid`` rows were
regenerated when the hybrid started running det-k-decomp on its root within
a label budget: a find inside the budget is det-k's own row, and the
clique refutation spends the budget and is log-k's first balanced split.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.codec import decomposition_to_json
from repro.hypergraph import generators
from repro.pipeline import registry

INSTANCES = {
    "cycle12": lambda: generators.cycle(12),
    "grid33": lambda: generators.grid(3, 3),
    "clique5": lambda: generators.clique(5),
    "cc14": lambda: generators.with_chords(generators.cycle(14), 2, seed=3),
    "cc20": lambda: generators.with_chords(generators.cycle(20), 3, seed=5),
}

#: "<algorithm>:<instance>:<k>" -> the row described in the module docstring.
#: Five algorithms x six cases, less ``logk-basic`` on cc20: 29 rows.
EXPECTED = {
    "logk:cycle12:2": (True, 117, 10, 5, 0, 63, 31, "5c520441bcad50e4ccd682350deb8251222baad7f8b9e778e3c7219bb67bd77b"),
    "logk:grid33:2": (True, 283, 7, 4, 0, 223, 19, "8f26cb2710b54f3810841aa1611ac128bff4cd36cc3b1bba6ed54c3be8e8b924"),
    "logk:grid33:3": (True, 569, 7, 4, 0, 497, 19, "8f26cb2710b54f3810841aa1611ac128bff4cd36cc3b1bba6ed54c3be8e8b924"),
    "logk:clique5:2": (False, 5405, 16, 2, 10, 5320, 0, None),
    "logk:cc14:2": (True, 305, 14, 5, 0, 167, 81, "c83f7eaea1b846e04e195a118f680adf037590aaca8a501a837a7899c5425b90"),
    "logk:cc20:2": (True, 307, 20, 6, 0, 159, 178, "37d546ad051c9a98bc45e83a7a6a00ef448cbf9441022ea76a947528ed019f63"),
    "detk:cycle12:2": (True, 6, 7, 7, 0, 0, 20, "3623a8f6780194d9caee9b7f2503ee618e227b03d958ceea28a7aa86b423dab4"),
    "detk:grid33:2": (True, 6, 7, 7, 0, 0, 18, "c5d3fa3a1e0503885b5f12ecc6c410b5ec1ae9c2ef28379c54deb73e10161cb8"),
    "detk:grid33:3": (True, 6, 7, 7, 0, 0, 18, "c5d3fa3a1e0503885b5f12ecc6c410b5ec1ae9c2ef28379c54deb73e10161cb8"),
    "detk:clique5:2": (False, 295, 296, 4, 270, 190, 0, None),
    "detk:cc14:2": (True, 8, 9, 9, 0, 0, 39, "72e87ceae62202644c5ebc86e5f936b7d1ee46fd5f6694cf65e3234c7cb809ce"),
    "detk:cc20:2": (True, 12, 12, 12, 0, 0, 100, "3c622aeca52e834d6e804186a6c94d21bd8fe30fb35369aa40ac55c809c41f26"),
    "hybrid:cycle12:2": (True, 6, 7, 7, 0, 0, 20, "3623a8f6780194d9caee9b7f2503ee618e227b03d958ceea28a7aa86b423dab4"),
    "hybrid:grid33:2": (True, 6, 7, 7, 0, 0, 18, "c5d3fa3a1e0503885b5f12ecc6c410b5ec1ae9c2ef28379c54deb73e10161cb8"),
    "hybrid:grid33:3": (True, 6, 7, 7, 0, 0, 18, "c5d3fa3a1e0503885b5f12ecc6c410b5ec1ae9c2ef28379c54deb73e10161cb8"),
    "hybrid:clique5:2": (False, 76, 42, 4, 26, 50, 0, None),
    "hybrid:cc14:2": (True, 8, 9, 9, 0, 0, 39, "72e87ceae62202644c5ebc86e5f936b7d1ee46fd5f6694cf65e3234c7cb809ce"),
    "hybrid:cc20:2": (True, 12, 12, 12, 0, 0, 100, "3c622aeca52e834d6e804186a6c94d21bd8fe30fb35369aa40ac55c809c41f26"),
    "logk-basic:cycle12:2": (True, 292, 14, 5, 0, 31, 0, "cb49d6b47df882de1c45c6459837376d468ec630e0060bdf91969c90d0381f45"),
    "logk-basic:grid33:2": (True, 282, 10, 4, 0, 34, 0, "8ff610c87fc27264c9cd50fc99f030779a19b0a41f25a965e5a40c96acfdd35f"),
    "logk-basic:grid33:3": (True, 201, 8, 3, 0, 20, 0, "3e624b776fa686c0b8403811b3fd39022d545113998f5d2c565c67f79f81a4fd"),
    "logk-basic:clique5:2": (False, 164505, 685, 2, 0, 26430, 0, None),
    "logk-basic:cc14:2": (True, 3640, 20, 5, 0, 231, 0, "d71994cb51e2bd9c98868779f4818dea9ac483633eb869b044cdf715923f44f8"),
    "ghd:cycle12:2": (True, 27, 9, 6, 0, 0, 0, "4ad151f49f3703d65abf3ecf6958f85c000e7032c504ad71f6ff4ac92e9f3f4d"),
    "ghd:grid33:2": (True, 26, 6, 4, 0, 0, 0, "18e743296682bd5d6a48f9fdc0cf4a4c2434f922264dd8471a726f8158ea0797"),
    "ghd:grid33:3": (True, 26, 6, 4, 0, 0, 0, "18e743296682bd5d6a48f9fdc0cf4a4c2434f922264dd8471a726f8158ea0797"),
    "ghd:clique5:2": (False, 100, 16, 2, 0, 0, 0, None),
    "ghd:cc14:2": (True, 63, 11, 7, 0, 0, 0, "ddc526a90a18c1178a7449d4e6188b48eeb25a8b0a6d7460dcebeac58006ebcb"),
    "ghd:cc20:2": (True, 66, 17, 8, 0, 0, 0, "8b44aa5d1773efc6d5de7b364cb36508fae6dc447d08743d4066152be565a822"),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_search_explores_the_pinned_tree(case):
    algorithm, instance, k = case.split(":")
    result = registry.build(algorithm, timeout=60).decompose_raw(INSTANCES[instance](), int(k))
    stats = result.statistics
    digest = None
    if result.success:
        digest = hashlib.sha256(decomposition_to_json(result.decomposition).encode()).hexdigest()
    assert (
        result.success,
        stats.labels_tried,
        stats.recursive_calls,
        stats.max_recursion_depth,
        stats.cache_hits,
        stats.splitter_memo_hits,
        stats.enum_domination_skips,
        digest,
    ) == EXPECTED[case]



def test_hybrid_finds_are_det_ks_rows():
    """Every pinned hybrid find is decided inside the label budget: det-k's tree."""
    finds = [case for case, row in EXPECTED.items() if case.startswith("hybrid:") and row[0]]
    assert len(finds) == 5
    for case in finds:
        assert EXPECTED[case] == EXPECTED[case.replace("hybrid:", "detk:", 1)], case
