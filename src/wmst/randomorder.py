"""Random-order experiments.

Estimates the expected cost of an online player over uniformly random
arrival orders, by Monte Carlo sampling or exactly.  Each estimate makes
one player first, and its type decides how the estimate is played: ``ftp``
accepts exactly its predicted tree, so its estimate is the cost of one
game.  ``gftp`` is dealt only its contested edges, the live edges off its
predicted tree and the tree edges on their paths that it might evict, from
the state its other edges leave, both built once per preparation: a tree
edge predicting below every contested true weight is never evicted, so it
is not dealt.  It plays them on its predicted tree with the inert tree
edges contracted, so a trial's start and climbs pass over none of them.  A
Monte Carlo trial shuffles and plays only the contested edges: an order's
cost depends only on their relative order, which a uniform order of all
the edges leaves uniform.  Its exact expectation is a memoised recursion
over the states their orders pass through, refused past
``EXACT_CONTESTED_LIMIT`` of them whatever the edge count.  Any other
player, a subclass of either included, plays every order whole, and its
exact expectation is refused past ``EXACT_EDGE_LIMIT`` edges.  Reports
compare the measured ratio against three reference curves in the
normalized error: ``1 + e``, ``1 + (1 + ln 2) e`` and ``1 + 2e``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise, permutations
from typing import Callable

from .engine import (
    FollowPredictions,
    GreedyFollowPredictions,
    OnlineAlgorithm,
    _Deal,
    _play,
    _shuffles,
)
from .exceptions import BadParameter, TooLarge
from .graphs import PreparedInstance, WmstInstance

# The player type is named as a string: typing caches each subscript it
# evaluates, and a key that held the class would keep this module's package
# alive past a re-import.
AlgFactory = Callable[[], "OnlineAlgorithm"]

# 9! = 362880 permutations is the most exact enumeration will chew through.
EXACT_EDGE_LIMIT = 9

# The most contested edges (``_contested``) the exact gftp memo walks,
# whatever the edge count.  At 15, the slowest of 36 random instances
# measured on a shared 2-CPU Xeon (random_instance(n, p, q, s) for n = 8-30,
# p = 1/5, 1/3, 1/2, q = 1/4, 1, 3, s < 40) took 3.9-4.3 s and 64 MB
# (random_instance(30, 1/5, 3, 4), m = 83), and gen_ro_lb(2, 1/2, 7) 1.1 s
# and 30 MB.
EXACT_CONTESTED_LIMIT = 15

LN2 = math.log(2.0)

# Reveals dealt (trials * edges dealt per trial: gftp's contested edges, every
# edge to any other player) that pay for a forked worker.  On a shared 2-CPU
# Xeon (Python 3.11), gftp on random_instance(60, 1/5, 1/4, s), s = 2, 3, 8,
# 10 (39-55 dealt edges, played on the contracted tree): nine alternating
# repeats, each side timed over repeated calls for at least 0.5 s, serial
# time over two workers' time, medians by instance: 0.80-0.98x at 25,000
# dealt reveals, 1.05-1.16x at 50,000 and 1.18-1.39x at 100,000.
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
    prepared = instance.prepared
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
    factory: AlgFactory,
    kind: type,
    prepared: PreparedInstance,
    orders,
    trials: int,
    deal: _Deal | None,
) -> tuple[int, int | Fraction, int | Fraction]:
    """``d`` and the sums of ``d * cost`` and of its square over ``trials`` trials.

    Trial ``t`` makes a player with ``factory``, refused unless of type
    ``kind``, and plays the ``t``-th order of the iterator ``orders``: of
    every edge through ``_play``, or with a ``deal`` (an exact ``gftp``) of
    its contested ones, from the state its inert ones leave, through the
    player's fused loop ``_play_deal``.  Every trial starts its player from
    the one ``prepared``, and either loop returns the cost on
    ``d = prepared.scale``: an int, or past ``SCALE_BITS`` a Fraction on
    scale 1.  Fraction costs are added as
    numerators over the lcm of the cost denominators seen so far, and their
    squares over its square, so each addition is an int one; the two sums
    are reduced to Fractions once, at the end.
    """
    actual = prepared.actual
    total = total_sq = 0
    lcm = 1  # the denominator of the sums, and its square that of the squares
    for edges in islice(orders, trials):
        alg = factory()
        if type(alg) is not kind:
            raise BadParameter(
                f"the factory must make one type of player, made "
                f"{kind.__name__} and {type(alg).__name__}"
            )
        if deal is None:
            cost = _play(alg, prepared, actual, edges)[1]
        else:
            cost = alg._play_deal(prepared, deal, edges)
        if type(cost) is Fraction:
            den = cost.denominator
            grow = den // math.gcd(lcm, den)
            if grow > 1:
                lcm *= grow
                total *= grow
                total_sq *= grow * grow
            cost = cost.numerator * (lcm // den)
        total += cost
        total_sq += cost * cost
    if lcm > 1:
        total, total_sq = Fraction(total, lcm), Fraction(total_sq, lcm * lcm)
    return prepared.scale, total, total_sq


def _one_game(alg: OnlineAlgorithm, prepared: PreparedInstance) -> Fraction | None:
    """The cost of one game of ``alg`` in id order if it is exactly ``ftp``, else None.

    ``ftp`` accepts exactly its predicted tree, so it costs the same in every
    order; the game raises the ``NotSpanning`` faults a run of it would.
    """
    if type(alg) is not FollowPredictions:
        return None
    cost = _play(alg, prepared, prepared.actual, prepared.graph.edges)[1]
    return Fraction(cost, prepared.scale)


def _mc_chunk(job: tuple, start: int, stop: int) -> tuple[int, int, int]:
    factory, kind, prepared, deal, seed = job
    edges = prepared.graph.edges if deal is None else deal.edges
    # the shuffles before trial ``start`` are drawn unplayed
    orders = islice(_shuffles(edges, seed), start, None)
    return _cost_sums(factory, kind, prepared, orders, stop - start, deal)


# A forked worker's (factory, kind, preparation, deal, seed), set by the
# pool's initializer, whose arguments the worker inherits through the fork
# without pickling.
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

    One player is made first, and its type decides how every trial is
    played; a trial whose player is of another type is refused.  ``ftp``'s
    estimate is the cost of one game (``_one_game``), with no trial played.
    Trial ``t`` of any other player runs a fresh player on the ``t``-th
    Fisher-Yates shuffle of one seeded stream (``_shuffles``); ``seed`` must
    be non-negative, since ``Random(-s)`` seeds like ``Random(s)``.  For
    ``gftp`` itself the stream shuffles only its contested edges, in id
    order at the start, and a trial plays its shuffle from the state the
    inert edges leave, both kept with the preparation (``_Deal``), in one
    fused loop (``GreedyFollowPredictions._play_deal``) on the predicted
    tree with the inert edges contracted, so a trial starts in O(L' + n')
    for its ``L'`` contested edges and ``n'`` components, whatever ``m``.
    It costs what any order of all the edges that orders the contested ones
    so would cost (``GreedyFollowPredictions._contested``), and the relative order of
    the contested edges in a uniform order of all ``m`` is uniform, so the
    trials sample the cost of a uniform order.  Any other player, a subclass
    of ``gftp`` too, is dealt a shuffle of every edge, in id order at the
    start.  Every trial starts from
    ``instance.prepared``, built by the first estimate, run or error measure
    on the instance and kept with it, which also gives the optimum and the
    error, and run costs are summed exactly.  The workers, forked
    processes, take contiguous runs of trials from that stream, so their
    number sets the speed, never the estimate.  With ``workers=None`` there
    is one per ``REVEALS_PER_WORKER`` reveals dealt, at least one.  Any
    count is capped at ``trials`` and at the CPUs this process may use, and
    is 1 where ``fork`` is unavailable.  Only chunk bounds are pickled: the workers
    inherit the factory, which may be a lambda, and the rest of the job
    through the fork.  A trial count above ``sys.maxsize``, past what a
    stream can be sliced to, is refused.
    """
    if trials < 1:
        raise BadParameter(f"need at least one trial, got {trials}")
    if trials > sys.maxsize:
        raise BadParameter(f"at most {sys.maxsize} trials, got {trials}")
    if seed < 0:
        raise BadParameter(f"seed must be non-negative, got {seed}")
    if workers is not None and workers < 1:
        raise BadParameter(f"worker count must be positive, got {workers}")
    prepared = instance.prepared
    alg = alg_factory()
    cost = _one_game(alg, prepared)
    if cost is not None:
        return estimate(instance, float(cost), trials)
    deal = alg._deal(prepared) if type(alg) is GreedyFollowPredictions else None
    if workers is None:
        reveals = prepared.graph.m if deal is None else len(deal.contested)  # per trial
        workers = trials * reveals // REVEALS_PER_WORKER
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    # the CPUs this process may run on, which can be fewer than the host has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(workers, trials, cpus or 1))
    job = (alg_factory, type(alg), prepared, deal, seed)
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
    return estimate(instance, mean, trials, math.sqrt(variance / trials))


def exact_expectation(alg_factory: AlgFactory, instance: WmstInstance) -> Fraction:
    """Exact expected cost over all arrival orders.

    One player is made, and its type decides how: ``ftp``'s expectation is
    the cost of one game (``_one_game``), ``gftp`` plays through the
    memoised recursion of ``_completion_sum`` over the ``L'!`` orders of its
    ``L'`` contested edges, from the state its inert edges leave (``_Deal``),
    and any other player, their subclasses too, plays all ``m!`` orders
    through ``_cost_sums``.  Leaving out the other edges changes no value:
    the dead off-tree edges are rejected in every order, the inert
    tree edges, on no live edge's path or predicting below every contested
    true weight, are never evicted and so accepted in every order, and
    neither changes another decision
    (``GreedyFollowPredictions._contested``), so an order's cost depends
    only on the relative order of the contested edges, and a uniform order
    of all ``m`` edges orders them uniformly.  ``gftp`` is refused past
    ``EXACT_CONTESTED_LIMIT`` contested edges and ``ftp`` never, whatever
    ``m``; every other player past ``EXACT_EDGE_LIMIT`` edges.  The games
    are played from ``instance.prepared``, which :func:`estimate` then
    reads for the row's optimum and error without building another.
    """
    prepared = instance.prepared
    m = instance.m
    alg = alg_factory()
    if type(alg) is GreedyFollowPredictions:
        deal = alg._deal(prepared)
        width = len(deal.contested)
        if width > EXACT_CONTESTED_LIMIT:
            raise TooLarge(
                f"{width} contested edges means {width}! orders; "
                f"the limit for gftp is {EXACT_CONTESTED_LIMIT}"
            )
        alg._start(prepared, deal)
        d, total = _completion_sum(alg, prepared, deal)
        return Fraction(total, math.factorial(width) * d)
    cost = _one_game(alg, prepared)
    if cost is not None:
        return cost
    if m > EXACT_EDGE_LIMIT:
        raise TooLarge(f"{m} edges means {m}! orders; the limit is {EXACT_EDGE_LIMIT}")
    orders = permutations(prepared.graph.edges)
    d, total, _ = _cost_sums(alg_factory, type(alg), prepared, orders, math.factorial(m), None)
    return Fraction(total, math.factorial(m) * d)


def _completion_sum(
    player: GreedyFollowPredictions, prepared: PreparedInstance, deal: _Deal
) -> tuple[int, int | Fraction]:
    """``d`` and the sum of ``d * cost`` over the orders of the contested edges.

    ``player`` is a ``gftp`` started from ``deal``, as if every inert edge
    had arrived and been accepted: a legal start, since no decision depends
    on when they arrive (``GreedyFollowPredictions._contested``).  It plays
    on the deal's contracted tree, where the inert edges are contracted and
    each contested edge is named by its position.  The inert weight is
    added once per order.  The ``L'`` contested edges are walked
    as a tree of states, each held once, since once a set of
    edges is unseen every order of them is equally likely.  A state is one
    int, the unseen contested edges shifted above the working tree's
    contested edges, each a mask whose bit ``p`` is the edge at position
    ``p``: a dead off-tree edge never joins the tree and an inert one
    never leaves it, so the mask names the tree, which with the unseen edges
    fixes every later decision.  With ``k`` edges unseen, a state's sum
    ``S`` over the ``k!`` orders of the rest is, over each unseen ``e``
    revealed next, the weight of ``e`` if accepted times ``(k-1)!``, plus
    ``S`` of the state that follows.  Each reveal is made in place, with the
    scaled weights ``_play`` would show, and taken back by ``_undo`` once
    that state is summed, so the player is handed back as it started.  The
    sum is on ``d = prepared.scale``.
    """
    width = len(deal.edges)
    # the scaled weights ``_play`` would show a built-in player and sum
    dealt = [(1 << edge.id, edge, weight) for edge, weight in zip(deal.edges, deal.weights)]
    factorials = [math.factorial(k) for k in range(width)]
    memo: dict[int, int | Fraction] = {}

    def completions(unseen: int, tree: int) -> int:
        """``S`` of the state with the contested edges ``unseen`` and the working ``tree``."""
        if not unseen:
            return 0
        later = factorials[unseen.bit_count() - 1]  # orders of the edges after the next
        saved = player._saved()
        total = 0
        for bit, edge, weight in dealt:
            if not unseen & bit:
                continue
            decision = player.reveal(edge, weight)
            after = tree
            if decision.accepted:
                total += weight * later
                if decision.swapped_out is not None:
                    after ^= bit | 1 << decision.swapped_out
            rest_unseen = unseen ^ bit
            key = rest_unseen << width | after
            rest = memo.get(key)
            if rest is None:
                rest = memo[key] = completions(rest_unseen, after)
            player._undo(edge.id, decision, saved)
            total += rest
        return total

    total = completions((1 << width) - 1, sum(1 << p for p in deal.tree))
    # the closure refers to itself; unlinked, it and the memo are freed now,
    # not left to the cyclic garbage collector
    del completions
    return prepared.scale, total + deal.inert_weight * math.factorial(width)


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
