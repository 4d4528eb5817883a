"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints
one summary line; run with ``pytest tests/test_acceptance.py -v -s``.
Everything asserted here is exact rational arithmetic unless a Monte Carlo
tolerance is explicitly stated.
"""

import random as pyrandom
import time
from fractions import Fraction
from itertools import permutations

from wmst import (
    ArrivalOrder,
    brute_force_mst,
    error_report,
    eta,
    exact_expectation,
    ftp,
    gen_eta2_game,
    gen_ftp_lb,
    gen_general_lb_game,
    gen_ro_lb,
    gftp,
    mc_estimate,
    mst,
    run,
    run_cost,
    tree_cost,
)
from wmst import checks

from conftest import RejectFirstThenGreedy
import corpus

F = Fraction

FTP_GRID = [(k, l) for k in (2, 3, 5, 10) for l in (1, 2, 4, 8, 16)]


def _report(num: int, label: str) -> None:
    print(f"[{num:02d}] {label}: PASS")


def test_01_hub_spoke_exact_ratio_identity():
    started = time.perf_counter()
    checks.hub_spoke_identity(FTP_GRID)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "prediction-follower ratio identity on the full grid")


def test_02_defeating_order_pins_swapper():
    for k, l in FTP_GRID:
        inst, natural, defeating = gen_ftp_lb(k, l)
        follower = run_cost(ftp(), inst, natural.edge_ids)
        swapper = run_cost(gftp(), inst, defeating.edge_ids)
        assert swapper == follower
    _report(2, "tree-first order forces identical swapper cost")


def test_03_adaptive_game_gap_and_error():
    started = time.perf_counter()
    for k in (2, 3, 5):
        for stars in (1, 2, 4):
            for factory in (ftp, gftp):
                game = gen_general_lb_game(k, stars, factory())
                inst = game.instance
                opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
                gap = game.trace.cost - opt
                assert gap >= stars * (2 * k - 1)
                assert gap == stars * (2 * k - 1)
                assert eta(inst) == (2 * k + stars - 1) * k
                if inst.m <= 24:
                    checks.mst_matches_oracle([inst])
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(3, "adaptive path-star game gap and error values")


def test_04_min_max_gap_measure_is_blind():
    previous = F(0)
    k = 2
    while k <= 1024:
        accept_game = gen_eta2_game(k, 10 * k, ftp())
        rep = error_report(accept_game.instance)
        ratio = accept_game.trace.cost / rep.opt_actual
        assert ratio == F(k + 1, 2)
        assert rep.eta2 == 0
        assert ratio > previous
        previous = ratio

        reject_game = gen_eta2_game(k, 10 * k, RejectFirstThenGreedy())
        rep = error_report(reject_game.instance)
        assert reject_game.trace.cost / rep.opt_actual == F(10 * k + 1, k + 1)
        assert rep.eta2 == k - 1
        k *= 2
    _report(4, "min/max-gap measure stays blind while ratios diverge")


def test_05_exact_random_order_separation():
    inst = gen_ro_lb(2, F(1, 2), 1)
    opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
    swapper_mean = exact_expectation(gftp, inst)
    follower_cost = run_cost(ftp(), inst, range(inst.m))
    assert swapper_mean == F(7, 2)
    assert follower_cost == F(11, 2)
    assert swapper_mean / opt == F(7, 3)
    assert follower_cost / opt == F(11, 3)
    assert F(7, 3) < F(11, 3)
    _report(5, "exact expectation separates the two players")


def test_06_monte_carlo_separation():
    started = time.perf_counter()
    inst = gen_ro_lb(4, F(1, 2), 20)
    est = mc_estimate(gftp, inst, trials=100_000, seed=20_260_810)
    expected = 20.5 + 80.0  # opt + spokes * k
    assert abs(est.mean_cost - expected) <= 3 * est.std_error
    ratio_stderr = est.std_error / float(est.opt)
    assert est.bound_2e - est.ratio >= 10 * ratio_stderr
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(6, "Monte Carlo mean and ratio separation at 1e5 trials")


def test_07_expected_cost_within_ln2_budget():
    # ln 2 is replaced by the safe over-approximation 0.6932 so the bound
    # stays a rational
    factor = 1 + F(6_932, 10_000)
    for inst in corpus.small_exact():
        opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
        mean = exact_expectation(gftp, inst)
        assert mean <= opt + factor * eta(inst)
    _report(7, "exact expectations stay within the ln2 budget (500 instances)")


def test_08_cost_bounds_on_fuzzed_pairs():
    checks.cost_bounds(corpus.fuzz_pairs())
    _report(8, "cost bounds hold on 10^4 fuzzed (instance, order) pairs")


def test_09_error_measure_monotone_and_lipschitz():
    # 10^4 correction steps, 20 from each of the first 500 instances: chains
    # of corrections never increase the error
    for seed, inst in enumerate(corpus.eta_oracle()[:500]):
        rng = pyrandom.Random(seed + 1)
        current = inst
        for _ in range(20):
            before = eta(current)
            predicted = list(current.predicted)
            for eid in range(current.m):
                if rng.random() < 0.4:
                    predicted[eid] = current.actual[eid]
            current = current.with_predictions(predicted)
            assert eta(current) <= before

    # 10^4 fuzzed instances: the error dominates the optimum gap, with both
    # optima from the exhaustive oracle
    for inst in corpus.eta_oracle():
        opt_pred, _ = brute_force_mst(inst.graph, inst.predicted)
        opt_act, _ = brute_force_mst(inst.graph, inst.actual)
        assert abs(opt_pred - opt_act) <= eta(inst)
    _report(9, "error measure is monotone and dominates the optimum gap")


def test_10_harmonic_bound_growth_and_limit():
    checkpoints = set(range(2, 65)) | {100, 128, 256, 1000, 1024, 4096, 8192, 10_000}
    value = checks.harmonic_growth(checkpoints)
    assert value > F(16_925, 10_000)
    _report(10, "harmonic budget grows strictly and stays below 1+ln2")


def test_11_oracle_equivalence_and_exchange_checks():
    checks.mst_matches_oracle(corpus.mst_oracle())
    checks.exchange_witnesses_pair_cycles(corpus.tree_pairs(64))
    _report(11, "oracle equivalence and exchange-witness cycle checks")


def test_12_checked_mode_fuzz_campaign():
    # the criterion-8 campaign again, with the runtime invariant checks on;
    # any violation raises InvariantViolation and fails the test
    checks.checked_runs_agree(corpus.fuzz_pairs())

    # exhaustive micro-campaign on the random-order family
    inst = gen_ro_lb(2, F(1, 2), 1)
    for order in permutations(range(inst.m)):
        run(gftp(), inst, ArrivalOrder(order), checked=True)
    _report(12, "checked-mode invariants hold across the full fuzz campaign")
