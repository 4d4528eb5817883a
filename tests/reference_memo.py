"""The exact ``gftp`` memo as it was before it left out the inert tree edges.

Kept as the slow reference the contested-edge memo is compared against.  It
deals every live edge, those ``conftest.dead_edges`` does not name, inert
tree edges included, and keys each state on the unseen live edges and the
player's tree, as the tuple of its parent-edge array.  The sum is over the
``L!`` orders of the ``L`` live edges.
"""

from __future__ import annotations

import math
from fractions import Fraction

from wmst import GreedyFollowPredictions, WmstInstance

from conftest import dead_edges


def expectation(instance: WmstInstance) -> Fraction:
    """``gftp``'s expected cost over all orders, by the live-edge memo."""
    prepared = instance.prepared
    player = GreedyFollowPredictions()
    dead = set(dead_edges(prepared))
    live = [eid for eid in range(instance.m) if eid not in dead]
    player._start(prepared)
    edges = prepared.graph.edges
    scaled = prepared.actual_scaled
    dealt = [(1 << i, eid, edges[eid], scaled[eid]) for i, eid in enumerate(live)]
    factorials = [math.factorial(k) for k in range(len(live))]
    memo: dict = {}

    def completions(unseen: int):
        if not unseen:
            return 0
        later = factorials[unseen.bit_count() - 1]
        saved = player._saved()
        total = 0
        for bit, eid, edge, weight in dealt:
            if not unseen & bit:
                continue
            decision = player.reveal(edge, weight)
            if decision.accepted:
                total += weight * later
            key = (unseen ^ bit, tuple(player._parent_edge))
            rest = memo.get(key)
            if rest is None:
                rest = memo[key] = completions(unseen ^ bit)
            player._undo(eid, decision, saved)
            total += rest
        return total

    total = completions((1 << len(live)) - 1)
    return Fraction(total, math.factorial(len(live)) * prepared.scale)
