"""Random-order experiments.

Estimates the expected cost of an online player over uniformly random
arrival orders, either by Monte Carlo sampling or, for instances of at most
``EXACT_EDGE_LIMIT`` edges, exactly.  ``ftp`` accepts exactly its predicted
tree, so it costs the same in every order: each of its trials, and its exact
expectation, is the cost of one game, and it draws no order.  The exact
expectation of ``gftp`` is a memoised recursion over the states orders pass
through: the rest of a uniform order is uniform over the unseen edges.  Any
other player, a subclass of either included, plays every order.  Reports
compare the measured ratio against three reference curves in the
normalized error: ``1 + e``, ``1 + (1 + ln 2) e`` and ``1 + 2e``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise, permutations
from typing import Callable

from .engine import FollowPredictions, GreedyFollowPredictions, OnlineAlgorithm, _play, run_cost
from .exceptions import BadParameter, NotSpanning, TooLarge
from .graphs import PreparedInstance, WmstInstance

AlgFactory = Callable[[], OnlineAlgorithm]

# 9! = 362880 permutations is the most exact enumeration will chew through.
EXACT_EDGE_LIMIT = 9

LN2 = math.log(2.0)

# Reveals (trials * m) that pay for a forked worker.  Timed on 2 CPUs, two
# workers lost to one on some instances below about 20,000 reveals; from 50,000
# they won on every instance tried (m = 3, 41 and 352), by 1.3x to 2x.
REVEALS_PER_WORKER = 50_000


@dataclass(frozen=True)
class RoEstimate:
    """Cost statistics of one player under uniformly random orders."""

    mean_cost: float | Fraction
    std_error: float
    trials: int
    opt: Fraction
    eta: Fraction
    epsilon: Fraction
    ratio: float | Fraction
    bound_1e: float
    bound_ln2: float
    bound_2e: float


@dataclass(frozen=True)
class RatioReport:
    """An estimate judged against the reference curves.

    ``exceeds_ln2_bound`` flags a measured swap-player ratio sitting more
    than three standard errors above ``1 + (1 + ln 2) e``; the other curves
    are informational.
    """

    algorithm: str
    estimate: RoEstimate
    exceeds_ln2_bound: bool


def estimate(
    instance: WmstInstance,
    mean: float | Fraction,
    trials: int,
    std_error: float = 0.0,
) -> RoEstimate:
    """The estimate of a mean cost over ``trials`` orders of ``instance``.

    Computes the optimum, the error and its normalization, the ratio and
    the three reference curves.  A ``Fraction`` mean, such as an exact
    expectation or the cost of one order, gives an exact ratio.
    """
    return _estimate(PreparedInstance.of(instance), mean, trials, std_error)


def _estimate(
    prepared: PreparedInstance, mean: float | Fraction, trials: int, std_error: float
) -> RoEstimate:
    opt = prepared.opt
    err = prepared.eta
    epsilon = err / opt
    eps = float(epsilon)
    return RoEstimate(
        mean_cost=mean,
        std_error=std_error,
        trials=trials,
        opt=opt,
        eta=err,
        epsilon=epsilon,
        ratio=mean / opt,
        bound_1e=1.0 + eps,
        bound_ln2=1.0 + (1.0 + LN2) * eps,
        bound_2e=1.0 + 2.0 * eps,
    )


def _cost_sums(
    factory: AlgFactory, prepared: PreparedInstance, orders, trials: int
) -> tuple[int, int, int]:
    """``d`` and the sums of ``d * cost`` and of its square over ``trials`` trials, as ints.

    Each trial calls ``factory`` once, and trial ``t`` plays the ``t``-th
    order of the iterator ``orders``.  Orders are drawn lazily: a trial that
    plays no order draws none, and the next trial that plays one first draws
    and skips the orders left behind, so a call in which no trial plays an
    order draws nothing.

    Every trial starts its player from the one ``prepared``, and ``_play``
    returns the cost as an int on ``d = prepared.scale``.  Past
    ``SCALE_BITS`` the weights stay Fractions; each cost is then put on
    ``d``, the lcm of the true weights' denominators alone, which is no
    longer than the input.

    ``ftp`` accepts exactly its predicted tree in every order, so an ``ftp``
    trial plays no order: it costs what one game on the edges in id order
    costs, played once per call, with that game's ``NotSpanning`` faults.
    ``gftp`` is dealt only the edges it can still decide: the edges its
    ``_rejected`` names, asked when the type of player changes, are rejected
    in every order without a change of state, so leaving them out of each
    order changes no decision and no cost.  Any other player, a subclass of
    either included, gets every order whole.
    """
    actual = prepared.actual
    fractions = prepared.actual_scaled is actual  # the preparation kept the Fractions
    d = _cost_scale(prepared)
    total = total_sq = 0
    kind = dealt = fixed = None
    skipped = 0  # the trials since the last order drawn, none of which played one
    for _ in range(trials):
        alg = factory()
        if type(alg) is FollowPredictions:
            if fixed is None:
                fixed = _play(alg, prepared, actual, range(prepared.graph.m))[1]
            cost = fixed
            skipped += 1
        else:
            if type(alg) is not kind:
                kind, dealt = type(alg), _dealt(alg, prepared)
            order = next(islice(orders, skipped, None))
            skipped = 0
            if dealt is not None:
                order = [eid for eid in order if dealt[eid]]
            cost = _play(alg, prepared, actual, order)[1]
        if fractions:
            cost = cost.numerator * (d // cost.denominator)
        total += cost
        total_sq += cost * cost
    return d, total, total_sq


def _dealt(alg: OnlineAlgorithm, prepared: PreparedInstance) -> bytearray | None:
    """1 for each edge ``alg`` can still decide, or None to deal every edge."""
    rejected = alg._rejected(prepared) if type(alg) is GreedyFollowPredictions else ()
    if not rejected:
        return None
    dealt = bytearray(b"\x01") * prepared.graph.m
    for eid in rejected:
        dealt[eid] = 0
    return dealt


def _cost_scale(prepared: PreparedInstance) -> int:
    """The ``d`` of ``_cost_sums``, which ``_completion_sum`` shares."""
    if prepared.actual_scaled is prepared.actual:  # the preparation kept the Fractions
        return math.lcm(*(w.denominator for w in prepared.actual))
    return prepared.scale


def _shuffles(m: int, seed: int):
    """The one order stream: in-place shuffles of one id list by ``Random(seed)``.

    Each shuffle is ``Random.shuffle``'s Fisher-Yates, inlined: from the top
    down, position ``i`` swaps with ``j``, drawn as ``getrandbits(k)`` for
    the bit length ``k`` of ``i + 1`` and drawn again while above ``i``.
    These are the draws ``Random(seed).shuffle`` makes, so the stream is the
    one repeated ``Random(seed).shuffle`` calls give; what is saved is the
    method call and the bit length that ``shuffle`` pays per position.
    """
    getrandbits = random.Random(seed).getrandbits
    ids = list(range(m))
    steps = [(i, (i + 1).bit_length()) for i in range(m - 1, 0, -1)]
    while True:
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ids[i], ids[j] = ids[j], ids[i]
        yield ids


def _mc_chunk(job: tuple, start: int, stop: int) -> tuple[int, int, int]:
    factory, prepared, seed = job
    # the shuffles before trial ``start`` are drawn unplayed, once a trial plays one
    orders = islice(_shuffles(prepared.graph.m, seed), start, None)
    return _cost_sums(factory, prepared, orders, stop - start)


# A forked worker's (factory, preparation, seed), set by the pool's initializer,
# whose arguments the worker inherits through the fork without pickling.
_forked_job: tuple | None = None


def _inherit(job: tuple) -> None:
    global _forked_job
    _forked_job = job


def _forked_chunk(bounds: tuple[int, int]) -> tuple[int, int, int]:
    return _mc_chunk(_forked_job, *bounds)


def mc_estimate(
    alg_factory: AlgFactory,
    instance: WmstInstance,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> RoEstimate:
    """Monte Carlo estimate over uniform arrival orders.

    Trial ``t`` runs a fresh algorithm instance on the ``t``-th Fisher-Yates
    shuffle of one seeded stream (``_shuffles``); ``seed`` must be
    non-negative, since ``Random(-s)`` seeds like ``Random(s)``.  The
    instance is prepared once per estimate: every trial copies its player's
    start state from one ``PreparedInstance`` and adds up integer weights on
    its scale, and the optimum and the error come from the same preparation.
    An ``ftp`` trial plays no shuffle and draws none: its cost is that of
    one game, the same in every order.  ``gftp`` is dealt each shuffle
    without the edges it rejects in every order (``_cost_sums``), which
    leaves every cost as it is.  Run costs are summed exactly.  The
    workers, forked processes, take contiguous runs of trials from that
    stream, so their number sets the speed, never the estimate.  With
    ``workers=None`` there is one per ``REVEALS_PER_WORKER`` reveals
    (``trials * m``), at least one; the factory is not called before the
    workers start, so this holds for ``ftp`` too.  Any count is capped at
    ``trials`` and at the CPUs this process may use, and is 1 where
    ``fork`` is unavailable.  Only chunk bounds are pickled: the workers
    inherit the factory, which may be a lambda, and the preparation through
    the fork.  A trial count above ``sys.maxsize``, past what a stream can
    be sliced to, is refused.
    """
    if trials < 1:
        raise BadParameter(f"need at least one trial, got {trials}")
    if trials > sys.maxsize:
        raise BadParameter(f"at most {sys.maxsize} trials, got {trials}")
    if seed < 0:
        raise BadParameter(f"seed must be non-negative, got {seed}")
    if workers is None:
        workers = trials * instance.m // REVEALS_PER_WORKER
    elif workers < 1:
        raise BadParameter(f"worker count must be positive, got {workers}")
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    # the CPUs this process may run on, which can be fewer than the host has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(workers, trials, cpus or 1))
    prepared = PreparedInstance.of(instance)
    job = (alg_factory, prepared, seed)
    if workers == 1:
        chunks = [_mc_chunk(job, 0, trials)]
    else:
        bounds = list(pairwise(trials * w // workers for w in range(workers + 1)))
        with multiprocessing.get_context("fork").Pool(workers, _inherit, (job,)) as pool:
            chunks = pool.map(_forked_chunk, bounds)
    d = chunks[0][0]
    total = sum(c[1] for c in chunks)
    total_sq = sum(c[2] for c in chunks)
    # the sample variance, whose numerator is 0 for a single trial
    variance = Fraction(trials * total_sq - total * total, trials * max(trials - 1, 1) * d * d)
    mean = float(Fraction(total, trials * d))
    return _estimate(prepared, mean, trials, math.sqrt(variance / trials))


def exact_expectation(alg_factory: AlgFactory, instance: WmstInstance) -> Fraction:
    """Exact expected cost over all arrival orders.

    ``ftp`` costs the same in every order, so its expectation is the cost of
    one game on the edges in id order, with that game's ``NotSpanning``
    faults.  ``gftp`` plays through the memoised recursion of
    ``_completion_sum``.  Any other player, their subclasses too, plays all
    ``m!`` orders.  Every player starts from one ``PreparedInstance``, and
    the costs of many orders are added up as integers on the scale
    ``_cost_sums`` uses.  An instance of more than ``EXACT_EDGE_LIMIT``
    edges is refused for every player.
    """
    m = instance.m
    if m > EXACT_EDGE_LIMIT:
        raise TooLarge(f"{m} edges means {m}! orders; the limit is {EXACT_EDGE_LIMIT}")
    alg = alg_factory()
    if type(alg) is FollowPredictions:
        return run_cost(alg, instance, range(m))
    prepared = PreparedInstance.of(instance)
    if type(alg) is GreedyFollowPredictions:
        alg._start(prepared)
        d, total = _completion_sum(alg, prepared)
    else:
        orders = permutations(range(m))
        d, total, _ = _cost_sums(alg_factory, prepared, orders, math.factorial(m))
    return Fraction(total, math.factorial(m) * d)


def _completion_sum(alg: OnlineAlgorithm, prepared: PreparedInstance) -> tuple[int, int]:
    """``d`` and the sum of ``d * cost`` over all orders, for a started ``gftp``.

    Once a set of edges is unseen, every order of them is equally likely,
    so the orders are walked as a tree of states, each held once.  A state
    is the unseen and the accepted edges and the player's ``_key``.  With
    ``k`` edges unseen, its sum ``S`` over the ``k!`` orders of the rest is,
    over each unseen ``e`` revealed next, the weight of ``e`` if accepted
    times ``(k-1)!``, plus ``S`` of the state that follows.  Each reveal
    goes to a ``_branch`` of the player, with the scaled weights ``_play``
    would show it, and faults as in ``_play``: ``NotSpanning`` at an accept
    that closes a cycle and at the end with fewer than ``n - 1`` accepts.
    """
    graph = prepared.graph
    n, m, edges = graph.n, graph.m, graph.edges
    d = _cost_scale(prepared)
    summed = [w.numerator * (d // w.denominator) for w in prepared.actual]
    shown = prepared.actual_scaled  # as ``_play`` shows a built-in player
    factorials = [math.factorial(k) for k in range(m)]
    memo: dict = {}

    def completions(player, unseen: int, accepted: int, component: list[int]) -> int:
        """``S`` of this state; ``component`` labels the accepted forest's trees."""
        if not unseen:
            if accepted.bit_count() != n - 1:
                raise NotSpanning(
                    f"accepted {accepted.bit_count()} edges, a spanning tree needs {n - 1}"
                )
            return 0
        later = factorials[unseen.bit_count() - 1]  # orders of the edges after the next
        total = 0
        for eid in range(m):
            bit = 1 << eid
            if not unseen & bit:
                continue
            child = player._branch()
            edge = edges[eid]
            after, joined = accepted, component
            if child.reveal(edge, shown[eid]).accepted:
                a, b = component[edge.u], component[edge.v]
                if a == b:
                    raise NotSpanning("accepted edges contain a cycle")
                total += summed[eid] * later
                after |= bit
                joined = [a if c == b else c for c in component]
            key = (unseen ^ bit, after, child._key())
            rest = memo.get(key)
            if rest is None:
                rest = memo[key] = completions(child, unseen ^ bit, after, joined)
            total += rest
        return total

    total = completions(alg, (1 << m) - 1, 0, list(range(n)))
    # the closure refers to itself; unlinked, it and the memo are freed now,
    # not left to the cyclic garbage collector
    del completions
    return d, total


def harmonic_bound(n: int) -> Fraction:
    """Exact value of ``1 + sum_{d=n}^{2n-2} 1/d``.

    This partial harmonic sum governs the expected number of doubly-charged
    accept events over a random order; it increases in ``n`` and stays
    below ``1 + ln 2``.
    """
    if n < 2:
        raise BadParameter(f"defined for n >= 2, got {n}")
    return 1 + sum((Fraction(1, d) for d in range(n, 2 * n - 1)), Fraction(0))


def ratio_report(estimate: RoEstimate, algorithm: str = "gftp") -> RatioReport:
    """Judge an estimate against the reference curves.

    Only swap-based players ("gftp") are held to the ``1 + (1 + ln 2) e``
    curve; a prediction-follower may legitimately sit above it.  An exact
    ratio is compared as a float, like the curve.
    """
    flagged = False
    if algorithm == "gftp":
        slack = 3.0 * estimate.std_error / float(estimate.opt)
        flagged = float(estimate.ratio) > estimate.bound_ln2 + slack
    return RatioReport(algorithm=algorithm, estimate=estimate, exceeds_ln2_bound=flagged)
