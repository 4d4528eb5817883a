"""The package's invariants, one function per property.

``wmst selftest`` and the test suite run the same checks on cases of their
choosing.  A check raises :class:`InvariantViolation` naming the first case
that fails; none uses ``assert``, so they also run under ``python -O``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

from .adversaries import gen_ftp_lb
from .engine import ALGORITHMS, ArrivalOrder, ftp, run, run_cost
from .exceptions import InvariantViolation, WmstError
from .graphs import (
    SpanningTree,
    WmstInstance,
    brute_force_mst,
    exchange_witness,
    mst,
    tree_cost,
    validate_instance,
)
from .io import dumps_instance
from .metrics import error_report, eta
from .randomorder import harmonic_bound

# 693147/1000000 < ln 2, so staying under this rational implies staying
# under 1 + ln 2.
HARMONIC_LIMIT = 1 + Fraction(693_147, 1_000_000)

# A run to check: an instance and the order of its edge ids.
Run = tuple[WmstInstance, Sequence[int]]


def mst_matches_oracle(instances: Iterable[WmstInstance]) -> None:
    """Kruskal's tree under the true weights costs what the brute-force oracle finds."""
    for case, inst in enumerate(instances):
        cost = tree_cost(mst(inst.graph, inst.actual), inst.actual)
        oracle, _ = brute_force_mst(inst.graph, inst.actual)
        if cost != oracle:
            raise InvariantViolation(f"case {case}: Kruskal costs {cost}, the oracle {oracle}")


def exchange_witnesses_pair_cycles(
    tree_pairs: Iterable[tuple[SpanningTree, SpanningTree]],
) -> None:
    """For each ``(t1, t2)`` and edge ``e1`` of ``t1 - t2``, the witness ``e2`` lies
    in ``t2 - t1`` and each of the two edges is on the cycle the other closes.
    """
    for case, (t1, t2) in enumerate(tree_pairs):
        for eid in sorted(t1.edge_ids - t2.edge_ids):
            e1 = t1.graph.edges[eid]
            e2 = exchange_witness(t1, t2, e1)
            if not (
                e2.id in t2
                and e2.id not in t1
                and e1.id in t1.path_ids(e2.u, e2.v)
                and e2.id in t2.path_ids(e1.u, e1.v)
            ):
                raise InvariantViolation(
                    f"case {case}: witness {e2.id} for edge {eid} does not pair the cycles"
                )


def cost_bounds(cases: Iterable[Run]) -> None:
    """Both players pay at most OPT + 2*eta, and ``gftp`` at most pred-OPT + eta."""
    for case, (inst, ids) in enumerate(cases):
        err = eta(inst)
        bound = tree_cost(mst(inst.graph, inst.actual), inst.actual) + 2 * err
        budget = tree_cost(mst(inst.graph, inst.predicted), inst.predicted) + err
        costs = {name: run_cost(factory(), inst, ids) for name, factory in ALGORITHMS.items()}
        for name, cost in costs.items():
            if cost > bound:
                raise InvariantViolation(
                    f"case {case}: {name} pays {cost}, above OPT + 2*eta = {bound}"
                )
        if costs["gftp"] > budget:
            raise InvariantViolation(
                f"case {case}: gftp pays {costs['gftp']}, above pred-OPT + eta = {budget}"
            )


def checked_runs_agree(cases: Iterable[Run]) -> None:
    """Both players pass checked mode, at the cost that ``run_cost`` computes."""
    for case, (inst, ids) in enumerate(cases):
        order = ArrivalOrder(tuple(ids))
        for name, factory in ALGORITHMS.items():
            try:
                cost = run(factory(), inst, order, checked=True).cost
            except WmstError as exc:
                raise InvariantViolation(f"case {case}: checked {name} run: {exc}") from exc
            fast = run_cost(factory(), inst, ids)
            if cost != fast:
                raise InvariantViolation(
                    f"case {case}: checked {name} run costs {cost}, run_cost {fast}"
                )


def hub_spoke_identity(grid: Iterable[tuple[int | Fraction, int]]) -> None:
    """``gen_ftp_lb(k, l)`` has epsilon k, eta (l+1)k and ``ftp`` ratio 1 + (2 - 2/(l+1))k."""
    for k, l in grid:
        inst, natural, _ = gen_ftp_lb(k, l)
        report = error_report(inst)
        ratio = run_cost(ftp(), inst, natural.edge_ids) / report.opt_actual
        closed = 1 + (2 - Fraction(2, l + 1)) * k
        if (report.epsilon, report.eta, ratio) != (k, (l + 1) * k, closed):
            raise InvariantViolation(
                f"k={k}, l={l}: epsilon {report.epsilon}, eta {report.eta} and ratio "
                f"{ratio}, not {k}, {(l + 1) * k} and {closed}"
            )


def harmonic_growth(checkpoints: Iterable[int]) -> Fraction:
    """Walk ``harmonic_bound`` from n = 2 to the last checkpoint and return it.

    Each step adds 1/(2n) + 1/(2n-1) - 1/n = 1/(2n(2n-1)) and stays below
    ``HARMONIC_LIMIT``; at each checkpoint the walk equals ``harmonic_bound``.
    """
    checkpoints = set(checkpoints)
    value = harmonic_bound(2)
    if value != Fraction(3, 2):
        raise InvariantViolation(f"harmonic_bound(2) is {value}, not 3/2")
    for n in range(2, max(checkpoints)):
        step = Fraction(1, 2 * n) + Fraction(1, 2 * n - 1) - Fraction(1, n)
        following = value + step
        if step != Fraction(1, 2 * n * (2 * n - 1)) or not value < following < HARMONIC_LIMIT:
            raise InvariantViolation(f"n={n + 1}: step {step} to {following}")
        if n + 1 in checkpoints and following != harmonic_bound(n + 1):
            raise InvariantViolation(f"n={n + 1}: walked to {following}, not harmonic_bound")
        value = following
    return value


def instances_round_trip(instances: Iterable[WmstInstance]) -> None:
    """Each instance, dumped, parsed and validated, is equal and dumps the same."""
    for case, inst in enumerate(instances):
        text = dumps_instance(inst)
        again = validate_instance(json.loads(text))
        if again != inst or dumps_instance(again) != text:
            raise InvariantViolation(f"case {case}: instance does not round-trip byte-identically")
