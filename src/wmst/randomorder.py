"""Random-order experiments.

Estimates the expected cost of an online player over uniformly random
arrival orders, either by Monte Carlo sampling or, for instances of at most
``EXACT_EDGE_LIMIT`` edges, exactly.  Each estimate makes one player first,
and its type decides how the estimate is played: ``ftp`` accepts exactly its
predicted tree, so its estimate is the cost of one game; ``gftp`` is dealt
only the edges it can still decide, in its trials and in its exact
expectation, a memoised recursion over the states the orders of those edges
pass through; any other player, a subclass of either included, plays every
order whole.  Reports compare the measured ratio against three reference
curves in the normalized error: ``1 + e``, ``1 + (1 + ln 2) e`` and
``1 + 2e``.
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

from .engine import FollowPredictions, GreedyFollowPredictions, OnlineAlgorithm, _play
from .exceptions import BadParameter, TooLarge
from .graphs import PreparedInstance, WmstInstance

# The player type is named as a string: typing caches each subscript it
# evaluates, and a key that held the class would keep this module's package
# alive past a re-import.
AlgFactory = Callable[[], "OnlineAlgorithm"]

# 9! = 362880 permutations is the most exact enumeration will chew through.
EXACT_EDGE_LIMIT = 9

LN2 = math.log(2.0)

# Reveals dealt (trials * edges per trial) that pay for a forked worker.  On 2
# CPUs, gftp on four random_instance(60, 1/5, 1/4, s) won with two workers at
# 100,000 dealt reveals on three (1.3x-1.5x, 0.7x-0.9x on one), from 150,000 on all.
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
    factory: AlgFactory, kind: type, prepared: PreparedInstance, orders, trials: int, dealt
) -> tuple[int, int | Fraction, int | Fraction]:
    """``d`` and the sums of ``d * cost`` and of its square over ``trials`` trials.

    Trial ``t`` makes a player with ``factory``, refused unless of type
    ``kind``, and plays the ``t``-th order of the iterator ``orders`` without
    the edges ``dealt`` marks 0 (``_dealt``).  Every trial starts its player
    from the one ``prepared``, and ``_play`` returns the cost on
    ``d = prepared.scale``: an int, or past ``SCALE_BITS`` a Fraction on
    scale 1.  Fraction costs are added as numerators over the lcm of the cost
    denominators seen so far, and their squares over its square, so each
    addition is an int one; the two sums are reduced to Fractions once, at
    the end.
    """
    actual = prepared.actual
    total = total_sq = 0
    lcm = 1  # the denominator of the sums, and its square that of the squares
    for order in islice(orders, trials):
        alg = factory()
        if type(alg) is not kind:
            raise BadParameter(
                f"the factory must make one type of player, made "
                f"{kind.__name__} and {type(alg).__name__}"
            )
        if dealt is not None:
            order = [eid for eid in order if dealt[eid]]
        cost = _play(alg, prepared, actual, order)[1]
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
    cost = _play(alg, prepared, prepared.actual, range(prepared.graph.m))[1]
    return Fraction(cost, prepared.scale)


def _dealt(alg: OnlineAlgorithm, prepared: PreparedInstance) -> bytearray | None:
    """1 for each edge ``alg`` can still decide, or None to deal every edge.

    ``gftp`` rejects the edges its ``_rejected`` names, those above their
    cycle bottleneck in the predicted tree, in every order without a change
    of state, so dealing orders without them changes no decision and no cost.
    """
    rejected = alg._rejected(prepared) if type(alg) is GreedyFollowPredictions else ()
    if not rejected:
        return None
    dealt = bytearray(b"\x01") * prepared.graph.m
    for eid in rejected:
        dealt[eid] = 0
    return dealt


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
    factory, kind, prepared, dealt, seed = job
    # the shuffles before trial ``start`` are drawn unplayed
    orders = islice(_shuffles(prepared.graph.m, seed), start, None)
    return _cost_sums(factory, kind, prepared, orders, stop - start, dealt)


# A forked worker's (factory, kind, preparation, dealt edges, seed), set by the
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
    Fisher-Yates shuffle of one seeded stream (``_shuffles``), without the
    edges ``_dealt`` leaves out; ``seed`` must be non-negative, since
    ``Random(-s)`` seeds like ``Random(s)``.  Every trial starts from one
    ``PreparedInstance``, which also gives the optimum and the error, and run
    costs are summed exactly.  The workers, forked processes, take contiguous
    runs of trials from that stream, so their number sets the speed, never
    the estimate.  With ``workers=None`` there is one per
    ``REVEALS_PER_WORKER`` reveals dealt, at least one.  Any count is capped
    at ``trials`` and at the CPUs this process may use, and is 1 where
    ``fork`` is unavailable.  Only chunk bounds are pickled: the workers
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
    prepared = PreparedInstance.of(instance)
    alg = alg_factory()
    cost = _one_game(alg, prepared)
    if cost is not None:
        return _estimate(prepared, float(cost), trials, 0.0)
    dealt = _dealt(alg, prepared)
    if workers is None:
        reveals = prepared.graph.m if dealt is None else dealt.count(1)  # per trial
        workers = trials * reveals // REVEALS_PER_WORKER
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    # the CPUs this process may run on, which can be fewer than the host has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(workers, trials, cpus or 1))
    job = (alg_factory, type(alg), prepared, dealt, seed)
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

    One player is made, and its type decides how: ``ftp``'s expectation is
    the cost of one game (``_one_game``), ``gftp`` plays through the
    memoised recursion of ``_completion_sum`` over the ``L!`` orders of the
    ``L`` edges ``_dealt`` leaves, and any other player, their subclasses
    too, plays all ``m!`` orders through ``_cost_sums``.  Leaving out the
    edges ``gftp`` rejects in every order changes no value: an order's cost
    depends only on the relative order of the live edges, and a uniform
    order of all ``m`` edges orders them uniformly.  An instance of more
    than ``EXACT_EDGE_LIMIT`` edges is refused for every player, and
    ``wmst ro --exact`` still reports ``m!`` trials.
    """
    m = instance.m
    if m > EXACT_EDGE_LIMIT:
        raise TooLarge(f"{m} edges means {m}! orders; the limit is {EXACT_EDGE_LIMIT}")
    alg = alg_factory()
    prepared = PreparedInstance.of(instance)
    cost = _one_game(alg, prepared)
    if cost is not None:
        return cost
    if type(alg) is GreedyFollowPredictions:
        dealt = _dealt(alg, prepared)
        live = [eid for eid in range(m) if dealt is None or dealt[eid]]
        alg._start(prepared)
        d, total = _completion_sum(alg, prepared, live)
        return Fraction(total, math.factorial(len(live)) * d)
    orders = permutations(range(m))
    d, total, _ = _cost_sums(alg_factory, type(alg), prepared, orders, math.factorial(m), None)
    return Fraction(total, math.factorial(m) * d)


def _completion_sum(
    player: GreedyFollowPredictions, prepared: PreparedInstance, live: list[int]
) -> tuple[int, int | Fraction]:
    """``d`` and the sum of ``d * cost`` over the orders of ``live``, for a started ``gftp``.

    ``live`` holds the edges ``_dealt`` leaves, ``L`` of them; the others are
    rejected in every order without a change of state, so they are never
    dealt, and the sum is over the ``L!`` orders of the live edges.  Once a
    set of edges is unseen, every order of them is equally likely, so the
    orders are walked as a tree of states, each held once.  A state is the
    unseen live edges, as a mask whose bit ``i`` is the edge ``live[i]``, and
    the player's ``_key``, its tree, which also fixes what it has accepted
    (the tree's revealed edges), so it never faults.  With ``k`` edges
    unseen, a state's sum ``S`` over the ``k!`` orders of the rest is, over
    each unseen ``e`` revealed next, the weight of ``e`` if accepted times
    ``(k-1)!``, plus ``S`` of the state that follows.  Each reveal is made in
    place, with the scaled weights ``_play`` would show, and taken back by
    ``_undo`` once that state is summed.  The sum is on ``d = prepared.scale``.
    """
    edges = prepared.graph.edges
    scaled = prepared.actual_scaled  # as ``_play`` shows a built-in player and sums
    dealt = [(1 << i, eid, edges[eid], scaled[eid]) for i, eid in enumerate(live)]
    factorials = [math.factorial(k) for k in range(len(live))]
    memo: dict = {}

    def completions(unseen: int) -> int:
        """``S`` of the state with the live edges ``unseen`` and the player's tree."""
        if not unseen:
            return 0
        later = factorials[unseen.bit_count() - 1]  # orders of the edges after the next
        saved = player._saved()
        total = 0
        for bit, eid, edge, weight in dealt:
            if not unseen & bit:
                continue
            decision = player.reveal(edge, weight)
            if decision.accepted:
                total += weight * later
            key = (unseen ^ bit, player._key())
            rest = memo.get(key)
            if rest is None:
                rest = memo[key] = completions(unseen ^ bit)
            player._undo(eid, decision, saved)
            total += rest
        return total

    total = completions((1 << len(live)) - 1)
    # the closure refers to itself; unlinked, it and the memo are freed now,
    # not left to the cyclic garbage collector
    del completions
    return prepared.scale, total


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
