"""The corpora's manifest: each corpus's size and a SHA-256 of its items, in
order, as the builders the corpora replaced made them.  A corpus may grow,
but none of its items may change or go."""

import hashlib
import json

import pytest

from wmst import WmstInstance
from wmst.io import dumps_instance

import corpus

MANIFEST = {  # corpus call: (size, SHA-256 of its items' SHA-256s)
    "triangle()": (1, "7cce834168253a42b70b5433befbd64dd7d88490e83c14c4315d8ce3a7134c62"),
    "pendant()": (1, "da43ef2b3811fe127a644d2b18e50ab1b8933eae902d214241c27631e657da29"),
    "wide_coprime(4, 50)": (1, "dd42d57955613561cb7c286c2f1a668c67a6f2c48fd1a6cb4e3af3fd30ae9e3e"),
    "edge_cases()": (2, "c6e9278ed77a044c001acf8db6eade2d7b035908a1c0754558684f6ed730d430"),
    "large_denominator()": (2, "2967d09c9136d61b6c37bb894061c44d5df08a17613b00652ef7ae8e090993e3"),
    "fuzz_instances()": (2500, "a328aca3738e7966d5b1be93db07d7716b48fc9ecdba2ae99bb55ec5c35832ca"),
    "fuzz_pairs()": (10**4, "0f3b0380128f51f251d8e654c621f02151822c0f777ce181b8bb442a601dac7b"),
    "exact_families()": (21, "b950cbbfae5c0af2abd315f9f57331a869d4426a8b41fccd650a8e3fd72c723c"),
    "families()": (44, "943319f8cce5a534629a137e2bc010d831ce48b989f0e00b5cf5ccf0b1376470"),
    "small_exact()": (500, "e5a7dc417d9f78a0046ad5fc8d974bb5a8ecf475ba3b5cd26e1a2977c1082585"),
    "differential()": (479, "af0fa46e3fc4a6996454d9b1356b635e39df999d40d25e3e80f87c0f08473439"),
    "deep()": (3, "858cb66d1439ef37382dc92cd042a01f9e0dff39fda72d94cf8e8a614a87bbe8"),
    "dealt()": (127, "427c1bde71d2199e9219427ac5b1e3f4f49fc97d27e6b580a409563b81692aa7"),
    "tie_heavy()": (164, "93c8bf4265561579bff7740d23e7e956ae9c04485639e8a99629e809aa56b980"),
    "dealt_pairs()": (11682, "a900a442e69750395c9bdca94f199d2dc8cdd605f5825fff5914dfb4ba4f8ecf"),
    "undo()": (90, "86efc4f7d0a4b288363291fe979a9301c96cca3e0d4780d0075e6b25b0170666"),
    "checker_fuzz()": (300, "dffdcbcfe2c6b68a27af6daaa085aec42cdc9f61b696346ba57a4882e7eff34d"),
    "spread(F(1, 2))": (200, "ad326aed3d0ceb31fbb0c05953652b4a757b0cac1137308f543aa60fb6ea062d"),
    "spread(F(1))": (200, "839892a6d5f47b2dab6e4ae8397ebe1a0484ec055acd48d3b67e6bbd4db79cf9"),
    "spread(F(2))": (200, "cac995a598c056004abdb9934005d46d6e4e8dea6e880409d64e38be433b2cd4"),
    "eta_oracle()": (10**4, "9dc9ccd73caeee94598fc425f0038ac330d6d5862fdb74f89c373c634bd54286"),
    "mst_oracle()": (1000, "08a580e910f5ccebdebb864ba85f2e8d56467d2c210c18bb6e90b701b694f99d"),
    "tree_pairs(64)": (1600, "001f2c319e673af0c424ad57c4592ec979f2762c82729f0a4fdece862d9286b8"),
    "tree_pairs(100)": (1600, "40bc7209544b51ab2a86d260f3a8345d6e2761908d539885f9c8c37fbb48203f"),
}


def _text(item) -> str:
    """An instance's file text, then a pair's order ids; or a pair of trees'
    edges, then each tree's ids."""
    if isinstance(item, WmstInstance):
        return dumps_instance(item)
    first, second = item
    if isinstance(first, WmstInstance):
        return dumps_instance(first) + json.dumps(second)
    edges = [[edge.u, edge.v] for edge in first.graph.edges]
    return json.dumps([edges, sorted(first.edge_ids), sorted(second.edge_ids)])


@pytest.mark.parametrize("call", MANIFEST)
def test_each_corpus_keeps_its_size_and_items(call):
    items = eval(call, vars(corpus))  # a call in the corpus module, such as "spread(F(1))"
    items = [items] if isinstance(items, WmstInstance) else items
    digests = b"".join(hashlib.sha256(_text(item).encode()).digest() for item in items)
    assert (len(items), hashlib.sha256(digests).hexdigest()) == MANIFEST[call]

