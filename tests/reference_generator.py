"""``random_instance`` as it drew before it called ``getrandbits`` inline.

Kept as the reference the production generator is compared against: one
``randrange(den)`` call per candidate pair, and ``randint`` calls per weight,
each grid numerator made a new Fraction.  The parameter checks are the
production ones (``adversaries._random_parameters``).
"""

from __future__ import annotations

import random
from fractions import Fraction

from wmst.adversaries import WEIGHT_GRID, _connected, _random_parameters
from wmst.exceptions import BadParameter
from wmst.graphs import Graph, WmstInstance


def random_instance(n: int, edge_prob, noise_scale, seed: int) -> WmstInstance:
    num, den, half_span, attempts = _random_parameters(n, edge_prob, noise_scale, seed)
    rng = random.Random(seed)
    for _ in range(attempts):
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.randrange(den) < num
        ]
        if len(pairs) >= n - 1 and _connected(n, pairs):
            break
    else:
        raise BadParameter("edge_prob too small to produce a connected graph")
    graph = Graph.from_pairs(n, pairs)
    actual = []
    predicted = []
    for _ in range(graph.m):
        a = rng.randint(1, WEIGHT_GRID)
        b = a + rng.randint(-half_span, half_span) if half_span else a
        actual.append(Fraction(a, WEIGHT_GRID))
        predicted.append(Fraction(max(b, 1), WEIGHT_GRID))
    return WmstInstance(graph, tuple(predicted), tuple(actual))
