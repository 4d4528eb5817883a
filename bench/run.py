"""Benchmark of the wmst workbench.

Run from the root of a checkout::

    python3 bench/run.py --workload mc-hubspoke --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout and driven in
this one process through its public API (``cli.main`` is called in-process).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, taken in a separate run that
records spans around this file's calls into each layer.  The lines before
it give the environment, every metric with its sample count, the failed
ratio, and every failed check.  The exit code is 0 only if every check
passed.

Workloads (the reasons are in BENCHMARK.json, the layer map in
layer_map.json):

``mc-hubspoke``  ``mc_estimate`` for gftp, then ftp, on gen_ro_lb(4, 1/2, 20).
``mc-random``    the same on eight random_instance(60, 1/5, 1/4, s), m near 352.
``exact-enum``   ``exact_expectation`` for gftp and ftp on an m=7 and an m=8 instance.
``replay``       ``cli.main`` gen and run commands over files in a work dir.

Each workload repeats a fixed cycle of calls until ``--seconds`` have passed
and at least a few cycles are complete.  An *op* is one gftp-then-ftp pass
over the instances (mc-*), one exact round (exact-enum) or one command
(replay); only replay has more than one op per cycle.  End-to-end
times are scaled to a reference machine speed (see ``speed.py``); per-layer
times are plain wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io as textio
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs
from speed import Meter, Sample
from tracing import Tracer, nearest_rank, quantile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("mc-hubspoke", "mc-random", "exact-enum", "replay")

# (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("gftp_trials_per_s", "1/s", "higher"),
    ("ftp_trials_per_s", "1/s", "higher"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (metric, span name, unit, self time?) of the per-layer call timings.  A
# self time is a span minus its child spans: the decomposed calls that this
# file makes again, one by one, after the call they re-enact.
TIMED_LAYERS = (
    ("graphs.validate_instance_ms", "graphs.validate_instance", "ms", False),
    ("graphs.mst_ms", "graphs.mst", "ms", False),
    ("metrics.eta_ms", "metrics.eta", "ms", False),
    ("metrics.error_report_ms", "metrics.error_report", "ms", False),
    ("engine.initialize_ms", "engine.initialize", "ms", False),
    ("engine.reveal_tree_us", "engine.reveal_tree", "us", False),
    ("engine.reveal_nontree_us", "engine.reveal_nontree", "us", False),
    ("engine.run_cost_ms", "engine.run_cost", "ms", False),
    ("engine.run_ms", "engine.run", "ms", False),
    ("engine.run_checked_ms", "engine.run_checked", "ms", False),
    ("randomorder.mc_self_ms", "randomorder.mc_estimate", "ms", True),
    ("randomorder.exact_gftp_ms", "randomorder.exact_gftp", "ms", False),
    ("randomorder.exact_ftp_ms", "randomorder.exact_ftp", "ms", False),
    ("adversaries.game_ms", "adversaries.game", "ms", False),
    ("adversaries.random_instance_ms", "adversaries.random_instance", "ms", False),
    ("io.load_instance_ms", "io.load_instance", "ms", False),
    ("io.save_trace_ms", "io.save_trace", "ms", False),
    ("cli.main_self_ms", "cli.main", "ms", True),
)

# Counts of the traced run's fixed layer pass; they repeat exactly per seed.
COUNTS = (
    ("engine.reveals", "count"),
    ("engine.cycle_queries", "count"),
    ("engine.swaps", "count"),
    ("engine.swap_ratio", "ratio"),
    ("engine.cycle_len_mean", "edges"),
    ("randomorder.trials", "count"),
    ("randomorder.orders_enumerated", "count"),
    ("io.bytes_written", "bytes"),
)

PARALLEL = (
    ("randomorder.mc_parallel_efficiency", "ratio"),
    ("randomorder.worker_invariant", "bool"),
)

OVERHEAD_OF = ("setup_s", "gftp_trials_per_s", "ftp_trials_per_s", "ops_per_s",
               "op_p50_ms", "op_p95_ms")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in BENCHMARK.json order."""
    out = []
    for name, _, unit, _ in TIMED_LAYERS:
        out += [(f"{name}.p50", unit), (f"{name}.p99", unit), (f"{name}.n", "count")]
    out += list(COUNTS) + list(PARALLEL)
    units = {name: unit for name, unit, _ in END_TO_END}
    out += [(f"trace_overhead.{name}", units[name]) for name in OVERHEAD_OF]
    return out


@dataclass(frozen=True)
class Sizes:
    """Work per call and per run; ``TINY`` is for the smoke test."""

    setups: int  # at least this many set-ups, and more until setup_seconds
    setup_seconds: float
    min_cycles: int
    batches: dict  # workload -> (gftp trials, ftp trials) per mc_estimate call
    repeats: int  # calls per single-call layer in the layer pass
    drive_orders: int
    mc_calls: int
    mc_trials: int
    cli_runs: int
    checked_runs: int
    parallel_trials: int


FULL = Sizes(
    setups=5, setup_seconds=1.5, min_cycles=3,
    batches={"mc-hubspoke": (50, 125), "mc-random": (8, 20)},
    repeats=20, drive_orders=8, mc_calls=5, mc_trials=20, cli_runs=5,
    checked_runs=3, parallel_trials=48,
)
TINY = Sizes(
    setups=2, setup_seconds=0.0, min_cycles=1,
    batches={"mc-hubspoke": (40, 40), "mc-random": (4, 2)},
    repeats=3, drive_orders=2, mc_calls=2, mc_trials=4, cli_runs=2,
    checked_runs=1, parallel_trials=30,
)


# ---------------------------------------------------------------- set-up


def import_wmst():
    """Import (or re-import) ``wmst`` from this checkout's ``src``.

    Refuses a ``wmst`` found anywhere else, so the benchmark never measures
    an installed copy.
    """
    if not (SRC / "wmst" / "__init__.py").is_file():
        raise SystemExit(f"error: no wmst package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "wmst" or n.startswith("wmst.")]:
        del sys.modules[name]
    wmst = importlib.import_module("wmst")
    importlib.import_module("wmst.cli")
    importlib.import_module("wmst.io")
    if Path(wmst.__file__).resolve().parent != SRC / "wmst":
        raise SystemExit(f"error: imported wmst from {wmst.__file__}, not {SRC}")
    return wmst


@dataclass
class Case:
    """One instance with the reference values its outputs are checked against."""

    key: str
    instance: object
    opt: Fraction
    eta: Fraction
    pred_opt: Fraction
    ftp_cost: Fraction

    @property
    def cost_bounds(self) -> tuple[Fraction, Fraction]:
        """Every online cost lies in ``[OPT, min(OPT + 2 eta, predOPT + eta)]``."""
        return self.opt, min(self.opt + 2 * self.eta, self.pred_opt + self.eta)


def make_case(wmst, key: str, instance) -> Case:
    report = wmst.error_report(instance)
    ftp_cost = wmst.run_cost(wmst.ftp(), instance, range(instance.m))
    return Case(key, instance, report.opt_actual, report.eta, report.opt_predicted, ftp_cost)


def build_cases(wmst, workload: str, seed: int, tiny: bool) -> list[Case]:
    """The workload's instances; the first is its main instance."""
    if workload.startswith("mc-"):
        return [make_case(wmst, k, inst) for k, inst in inputs.mc_instances(wmst, workload, seed)]
    if workload == "exact-enum":
        cases = [make_case(wmst, k, inst) for k, inst in inputs.exact_instances(wmst, tiny)]
        return cases[::-1]  # the m=8 instance is the main one
    rs1, rs2 = inputs.replay_params(seed)["random_seeds"]
    r1 = wmst.random_instance(30, Fraction(1, 4), Fraction(1, 4), rs1)
    r2 = wmst.random_instance(20, Fraction(1, 3), Fraction(1, 2), rs2)
    return [make_case(wmst, "r1", r1), make_case(wmst, "r2", r2)]


def set_up(workload: str, seed: int, sizes: Sizes, tiny: bool, meter: Meter,
           tracer: Tracer | None = None):
    """Import the package and build the inputs, several times.

    Returns the last import, its cases, and a sample per set-up.
    """

    def once():
        wmst = import_wmst()
        return wmst, build_cases(wmst, workload, seed, tiny)

    samples = []
    start = time.perf_counter()
    while len(samples) < sizes.setups or (
        time.perf_counter() - start < sizes.setup_seconds and len(samples) < 25
    ):
        with span(tracer, "bench.setup"):
            (wmst, cases), sample = meter.time(once)
        gc.collect()  # free the replaced modules now, not at a time that moves peak RSS
        samples.append(sample)
    return wmst, cases, samples


def span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ------------------------------------------------------------- checking


class Checks:
    """Counts operations attempted and failed, and keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(message)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Tally:
    """Pooled gftp trials of several ``mc_estimate`` calls on one instance."""

    trials: int = 0
    total: float = 0.0

    def add(self, est) -> None:
        self.trials += est.trials
        self.total += est.mean_cost * est.trials


def check_mc_mean(checks: Checks, tally: Tally, ref: dict, label: str) -> None:
    """A gftp mean lies within 4 standard errors of the recorded reference.

    The standard error uses the reference's spread of single trials, which
    is known far better than a short run's own, so the gate holds its
    meaning for runs of a few trials too.
    """
    if tally.trials == 0:
        return
    mean = tally.total / tally.trials
    trial_var = ref["std_error"] ** 2 * ref["trials"]
    se = math.sqrt(trial_var / tally.trials + ref["std_error"] ** 2)
    z = abs(mean - ref["mean"]) / se
    checks.check(
        z <= 4.0,
        f"{label}: gftp mean {mean} over {tally.trials} trials is {z:.2f} standard "
        f"errors from the reference {ref['mean']}",
    )


def check_estimate(checks: Checks, est, case: Case, alg: str, trials: int) -> None:
    exact = est.opt == case.opt and est.eta == case.eta and est.trials == trials
    checks.check(exact, f"{case.key} {alg}: estimate fields differ from the instance")
    if alg == "ftp":
        checks.check(
            est.mean_cost == float(case.ftp_cost) and est.std_error == 0.0,
            f"{case.key} ftp: mean {est.mean_cost} +- {est.std_error}, "
            f"expected exactly {float(case.ftp_cost)}",
        )


def check_cost(checks: Checks, case: Case, cost: Fraction, label: str) -> None:
    lo, hi = case.cost_bounds
    checks.check(lo <= cost <= hi, f"{case.key} {label}: cost {cost} outside [{lo}, {hi}]")


# ------------------------------------------------------------ workloads


@dataclass
class Call:
    """One timed call of a cycle: the player it plays, and how many games."""

    alg: str | None
    trials: int
    sample: Sample


@dataclass
class Cycle:
    ops: list[list[Sample]] = field(default_factory=list)  # the calls of each op
    calls: list[Call] = field(default_factory=list)


class Workload:
    """A fixed cycle of calls, repeated; subclasses define one cycle."""

    def __init__(self, wmst, cases, seed, sizes, checks, reference, work: Path,
                 meter: Meter):
        self.meter = meter
        self.wmst = wmst
        self.cases = cases
        self.seed = seed
        self.sizes = sizes
        self.checks = checks
        self.reference = reference
        self.work = work
        self.cycles_run = 0

    def cycle(self, tracer: Tracer | None) -> Cycle:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, after the last cycle."""

    def measure(self, seconds: float, min_cycles: int, tracer: Tracer | None = None):
        cycles = []
        start = time.perf_counter()
        while len(cycles) < min_cycles or time.perf_counter() - start < seconds:
            cycles.append(self.cycle(tracer))
            self.cycles_run += 1
        return cycles


def timed(meter: Meter, tracer, fn, *args, **kwargs):
    """Call ``fn``; return its result and time sample, in a span when tracing."""
    with span(tracer, "bench.call"):
        return meter.time(fn, *args, **kwargs)


class MonteCarlo(Workload):
    """``mc_estimate`` for gftp, then ftp, on each instance; one op is the pass.

    A pass over all instances, not one pair, is the op: the slowest of the
    eight mc-random pairs would make ``op_p95_ms`` follow machine noise.
    """

    def __init__(self, name, *args):
        super().__init__(*args)
        self.batch = self.sizes.batches[name]
        self.tallies = {case.key: Tally() for case in self.cases}
        self.stream = random.Random(self.seed)

    def cycle(self, tracer):
        wmst = self.wmst
        out = Cycle()
        with span(tracer, "bench.op"):
            for case in self.cases:
                for alg, factory, trials in (("gftp", wmst.gftp, self.batch[0]),
                                             ("ftp", wmst.ftp, self.batch[1])):
                    seed = self.stream.getrandbits(63)
                    est, sample = timed(self.meter, tracer, wmst.mc_estimate, factory,
                                        case.instance, trials, seed, workers=1)
                    out.calls.append(Call(alg, trials, sample))
                    check_estimate(self.checks, est, case, alg, trials)
                    if alg == "gftp":
                        self.tallies[case.key].add(est)
        out.ops.append([c.sample for c in out.calls])
        return out

    def finish(self):
        for key, tally in self.tallies.items():
            check_mc_mean(self.checks, tally, self.reference["mc"][key], key)


class ExactEnum(Workload):
    """``exact_expectation`` for gftp then ftp on both instances; one op is the round."""

    def cycle(self, tracer):
        wmst = self.wmst
        out = Cycle()
        with span(tracer, "bench.op"):
            for alg, factory in (("gftp", wmst.gftp), ("ftp", wmst.ftp)):
                for case in self.cases[::-1]:
                    value, sample = timed(self.meter, tracer, wmst.exact_expectation,
                                          factory, case.instance)
                    out.calls.append(Call(alg, math.factorial(case.instance.m), sample))
                    expected = Fraction(self.reference["exact"][case.key][alg])
                    self.checks.check(value == expected,
                                      f"{case.key} {alg}: exact {value}, expected {expected}")
        out.ops.append([c.sample for c in out.calls])
        return out


@dataclass
class CommandResult:
    exit_code: int
    stderr: str
    fields: dict
    files: dict
    sample: Sample | None
    alg: str | None


def command_alg(argv: list[str]) -> str | None:
    """The player a command plays, if any: ``run <alg>`` or a game's ``--alg``."""
    if argv[0] == "run":
        return argv[1]
    if argv[1] in ("general-lb", "eta2"):
        return argv[argv.index("--alg") + 1]
    return None


def parse_fields(stdout: str) -> dict:
    """The ``key = value`` lines of a command's output, without ``# config:``."""
    fields = {}
    for line in stdout.splitlines():
        if " = " in line and not line.startswith("#"):
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


def snapshot(path: Path) -> dict:
    return {entry.name: entry.stat().st_mtime_ns for entry in os.scandir(path)}


def replay_cycle(wmst, work: Path, commands, meter: Meter | None = None,
                 tracer: Tracer | None = None):
    """Run one list of commands through ``cli.main`` inside ``work``.

    Returns, per command, its exit code, output fields, the SHA-256 of every
    file it wrote, and its time sample (``None`` without a meter).
    """
    main = wmst.cli.main
    results = []
    home = os.getcwd()
    os.chdir(work)
    try:
        for argv in commands:
            before = snapshot(work)
            out, err = textio.StringIO(), textio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if meter is None:
                    code, sample = main(argv), None
                else:
                    code, sample = timed(meter, tracer, main, argv)
            after = snapshot(work)
            files = {
                name: hashlib.sha256((work / name).read_bytes()).hexdigest()
                for name in sorted(after)
                if before.get(name) != after[name]
            }
            results.append(CommandResult(code, err.getvalue(), parse_fields(out.getvalue()),
                                         files, sample, command_alg(argv)))
    finally:
        os.chdir(home)
    return results


class Replay(Workload):
    """Every gen/run command once; one op is one command."""

    def __init__(self, *args):
        super().__init__(*args)
        self.commands = inputs.replay_commands(self.seed)
        self.expected = self.reference["replay"][str(inputs.replay_params(self.seed)["class"])]

    def cycle(self, tracer):
        out = Cycle()
        with span(tracer, "bench.op"):
            results = replay_cycle(self.wmst, self.work, self.commands, self.meter, tracer)
        for argv, got, want in zip(self.commands, results, self.expected):
            label = " ".join(argv)
            self.checks.check(got.exit_code == 0 == want["exit"],
                              f"{label}: exit code {got.exit_code} {got.stderr.strip()}")
            self.checks.check(got.files == want["files"],
                              f"{label}: wrote {sorted(got.files)} differing from the record")
            self.checks.check(got.fields == want["fields"],
                              f"{label}: output fields {got.fields} differ from the record")
            out.calls.append(Call(got.alg, 1 if got.alg else 0, got.sample))
            out.ops.append([got.sample])
        return out


def make_workload(name, wmst, cases, seed, sizes, checks, reference, work, meter):
    args = (wmst, cases, seed, sizes, checks, reference, work, meter)
    if name.startswith("mc-"):
        return MonteCarlo(name, *args)
    if name == "exact-enum":
        return ExactEnum(*args)
    return Replay(*args)


# -------------------------------------------------------------- metrics


def end_to_end(cycles: list[Cycle], setups: list[Sample],
               meter: Meter) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``(value, sample count)``.

    Times are scaled to the reference speed (see ``speed``).  Rates are
    medians over cycles of games (or ops) per second of the time spent in
    them.  ``op_p50_ms`` is the median of every op of the run.
    ``op_p95_ms`` is the median over cycles of the nearest-rank 95th
    percentile within a cycle.  Replay's cycle holds 15 commands, so that is
    the latency of its slowest command, the checked run, which a hiccup of
    the shared machine does not move as it moves the 95th percentile of all
    ops.  With one op per cycle, as on the other workloads, it is the median
    op.
    """
    scaled = meter.scaled

    def rate(alg):
        per_cycle = []
        for c in cycles:
            calls = [x for x in c.calls if x.alg == alg]
            if calls:
                seconds = sum(scaled(x.sample) for x in calls)
                per_cycle.append(sum(x.trials for x in calls) / seconds)
        return statistics.median(per_cycle), len(per_cycle)

    latencies = [[sum(scaled(s) for s in op) for op in c.ops] for c in cycles]
    ops = [op for cycle in latencies for op in cycle]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(scaled(s) for s in setups), len(setups)),
        "gftp_trials_per_s": rate("gftp"),
        "ftp_trials_per_s": rate("ftp"),
        "ops_per_s": (statistics.median(len(c) / sum(c) for c in latencies), len(latencies)),
        "op_p50_ms": (quantile(ops, 0.5) * 1e3, len(ops)),
        "op_p95_ms": (statistics.median(nearest_rank(c, 0.95) for c in latencies) * 1e3,
                      len(ops)),
        "peak_rss_mb": (rss_kb / 1024, 1),
    }


# ---------------------------------------------------- traced layer pass


class LayerPass:
    """Fixed work on every layer, each call in its own span.

    The main instance of the workload feeds the graph, metrics, engine, io
    and cli layers.  Layers the workload cannot feed use fixed companions
    from the other workloads: exact enumeration uses gen_ro_lb(2, 1/2, 3),
    the checked runs, games and random_instance calls use the replay
    generators, and the workers=2 row uses the mc-random instance.
    """

    def __init__(self, wmst, tracer, checks, sizes, seed, reference, work):
        self.wmst = wmst
        self.t = tracer
        self.checks = checks
        self.sizes = sizes
        self.seed = seed
        self.reference = reference
        self.work = work
        self.counts = Counter()
        self.cycle_len_total = 0
        self.parallel: dict[str, float] = {}

    def orders(self, m: int, count: int, salt: int) -> list[list[int]]:
        rng = random.Random(self.seed * 1_000_003 + salt)
        out = []
        for _ in range(count):
            ids = list(range(m))
            rng.shuffle(ids)
            out.append(ids)
        return out

    def repeat(self, name: str, fn, *args):
        for _ in range(self.sizes.repeats):
            with self.t.span(name):
                result = fn(*args)
        return result

    def run(self, case: Case, tiny: bool) -> None:
        wmst, sizes = self.wmst, self.sizes
        inst = case.instance
        payload = wmst.io.instance_to_payload(inst)
        self.repeat("graphs.validate_instance", wmst.validate_instance, payload)
        self.repeat("graphs.mst", wmst.mst, inst.graph, inst.predicted)
        self.repeat("metrics.eta", wmst.eta, inst)
        self.repeat("metrics.error_report", wmst.error_report, inst)
        self.drive(case, self.orders(inst.m, sizes.drive_orders, 1))
        self.mc_decomposed(case)
        self.cli_decomposed(case)
        self.companions(tiny)

    def drive(self, case: Case, orders) -> None:
        """gftp through ``initialize``/``reveal``, one span per call."""
        wmst, t = self.wmst, self.t
        graph, actual = case.instance.graph, case.instance.actual
        edges = graph.edges
        clock = time.perf_counter_ns
        for order in orders:
            alg = wmst.gftp()
            with t.span("bench.drive") as parent:
                start = clock()
                alg.initialize(graph, case.instance.predicted)
                t.record("engine.initialize", start, clock(), parent)
                seen = set()
                cost = Fraction(0)
                for eid in order:
                    tree = alg.working_tree_ids()
                    edge = edges[eid]
                    in_tree = eid in tree
                    if not in_tree and not tree <= seen:
                        self.counts["engine.cycle_queries"] += 1
                        cycle = wmst.tree_cycle(wmst.SpanningTree(graph, tree), edge)
                        self.cycle_len_total += len(cycle)
                    start = clock()
                    decision = alg.reveal(edge, actual[eid])
                    end = clock()
                    t.record("engine.reveal_tree" if in_tree else "engine.reveal_nontree",
                             start, end, parent)
                    seen.add(eid)
                    self.counts["engine.reveals"] += 1
                    if decision.accepted:
                        cost += actual[eid]
                    if decision.swapped_out is not None:
                        self.counts["engine.swaps"] += 1
            check_cost(self.checks, case, cost, "driven gftp")

    def mc_decomposed(self, case: Case) -> None:
        """``mc_estimate``, then its trials again as single ``run_cost`` calls.

        The second pass replays the seeded shuffles of a one-worker
        estimate, so ``mc_estimate`` minus the ``run_cost`` spans is the
        estimator's own time: shuffles, fresh players, float sums, and the
        per-call instance statistics.
        """
        wmst, t, sizes = self.wmst, self.t, self.sizes
        inst = case.instance
        for i in range(sizes.mc_calls):
            seed = self.seed * 1_000_003 + 100 + i
            with t.span("randomorder.mc_estimate") as parent:
                est = wmst.mc_estimate(wmst.gftp, inst, sizes.mc_trials, seed, workers=1)
            check_estimate(self.checks, est, case, "gftp", sizes.mc_trials)
            rng = random.Random(seed)
            ids = list(range(inst.m))
            for _ in range(sizes.mc_trials):
                rng.shuffle(ids)
                with t.span("engine.run_cost", parent=parent):
                    cost = wmst.run_cost(wmst.gftp(), inst, ids)
                check_cost(self.checks, case, cost, "gftp trial")
            self.counts["randomorder.trials"] += sizes.mc_trials

    def cli_decomposed(self, case: Case) -> None:
        """``wmst run gftp`` in-process, then the same work as direct calls."""
        wmst, t = self.wmst, self.t
        path = self.work / f"layer-{case.key.replace('/', '_')}.json"
        wmst.io.save_instance(case.instance, path)
        self.repeat("io.load_instance", wmst.io.load_instance, path)
        for i in range(self.sizes.cli_runs):
            order_seed = self.seed * 1_000_003 + 200 + i
            trace_path = self.work / f"layer-trace-{i}.txt"
            argv = ["run", "gftp", str(path), "--order", f"seed:{order_seed}",
                    "--trace-out", str(trace_path)]
            with contextlib.redirect_stdout(textio.StringIO()):
                with t.span("cli.main") as parent:
                    code = wmst.cli.main(argv)
            self.checks.check(code == 0, f"{' '.join(argv)}: exit code {code}")
            expected = trace_path.read_bytes()
            with t.span("io.load_instance", parent=parent):
                inst = wmst.io.load_instance(path)
            order = wmst.ArrivalOrder.shuffled(inst.m, order_seed)
            with t.span("engine.run", parent=parent):
                trace = wmst.run(wmst.gftp(), inst, order)
            with t.span("metrics.error_report", parent=parent):
                wmst.error_report(inst)
            with t.span("io.save_trace", parent=parent):
                wmst.io.save_trace(trace, trace_path)
            written = trace_path.read_bytes()
            self.checks.check(written == expected,
                              f"{case.key}: direct run trace differs from cli run trace")
            check_cost(self.checks, case, trace.cost, "run gftp")
            self.counts["io.bytes_written"] += len(written)

    def companions(self, tiny: bool) -> None:
        wmst, t, sizes = self.wmst, self.t, self.sizes
        params = inputs.replay_params(self.seed)
        rs1 = params["random_seeds"][0]
        self.repeat("adversaries.random_instance", wmst.random_instance,
                    30, Fraction(1, 4), Fraction(1, 4), rs1)
        checked = make_case(wmst, "r1", wmst.random_instance(30, Fraction(1, 4),
                                                             Fraction(1, 4), rs1))
        for ids in self.orders(checked.instance.m, sizes.checked_runs, 2):
            with t.span("engine.run_checked"):
                trace = wmst.run(wmst.gftp(), checked.instance, wmst.ArrivalOrder(ids),
                                 checked=True)
            check_cost(self.checks, checked, trace.cost, "checked run gftp")
        gk, gl = params["general_lb"]
        for _ in range(sizes.repeats):
            with t.span("adversaries.game"):
                game = wmst.gen_general_lb_game(gk, gl, wmst.gftp())
        replayed = wmst.run(wmst.gftp(), game.instance, game.order)
        self.checks.check(replayed.to_text() == game.trace.to_text(),
                          "general-lb game trace does not replay")
        key, inst = inputs.exact_instances(wmst, tiny)[0]
        for alg, factory in (("gftp", wmst.gftp), ("ftp", wmst.ftp)):
            with t.span(f"randomorder.exact_{alg}"):
                value = wmst.exact_expectation(factory, inst)
            expected = Fraction(self.reference["exact"][key][alg])
            self.checks.check(value == expected, f"{key} {alg}: exact {value} != {expected}")
            self.counts["randomorder.orders_enumerated"] += math.factorial(inst.m)
        self.parallel_row()

    def parallel_row(self) -> None:
        """gftp on the mc-random instance at workers=1 and workers=2."""
        wmst, sizes = self.wmst, self.sizes
        case = make_case(wmst, *inputs.mc_instances(wmst, "mc-random", self.seed)[0])
        seed = self.seed * 1_000_003 + 300
        seconds, means = {}, {}
        for workers in (1, 2):
            start = time.perf_counter()
            est = wmst.mc_estimate(wmst.gftp, case.instance, sizes.parallel_trials, seed,
                                   workers=workers)
            seconds[workers] = time.perf_counter() - start
            means[workers] = est.mean_cost
            check_estimate(self.checks, est, case, "gftp", sizes.parallel_trials)
            tally = Tally()
            tally.add(est)
            check_mc_mean(self.checks, tally, self.reference["mc"][case.key],
                          f"{case.key} workers={workers}")
        self.parallel["randomorder.mc_parallel_efficiency"] = seconds[1] / (2 * seconds[2])
        # Reported, not checked: today the estimate depends on the worker count.
        self.parallel["randomorder.worker_invariant"] = float(means[1] == means[2])

    def metrics(self) -> dict[str, tuple[float, int]]:
        out = {}
        scale = {"ms": 1e-6, "us": 1e-3}
        for name, span_name, unit, use_self in TIMED_LAYERS:
            ns = self.t.self_times(span_name) if use_self else self.t.durations(span_name)
            values = [v * scale[unit] for v in ns]
            n = len(values)
            out[f"{name}.p50"] = (quantile(values, 0.5), n)
            out[f"{name}.p99"] = (quantile(values, 0.99), n)
            out[f"{name}.n"] = (float(n), n)
        queries = self.counts["engine.cycle_queries"]
        for name, _ in COUNTS:
            out[name] = (float(self.counts[name]), 1)
        out["engine.swap_ratio"] = (self.counts["engine.swaps"] / queries if queries else 0.0, 1)
        out["engine.cycle_len_mean"] = (self.cycle_len_total / queries if queries else 0.0, 1)
        for name, value in self.parallel.items():
            out[name] = (value, 1)
        return out


# ------------------------------------------------------------------ main


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the wmst workbench.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and counts, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sizes = TINY if args.tiny else FULL
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny, "python": sys.version.split()[0],
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg_start": loadavg(), "commit": git_commit()}
    reference = load_reference()
    checks = Checks()
    tracer = Tracer() if args.trace else None
    meter = Meter()

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)
        with meter:
            if args.trace:
                # Set up untraced, then traced; the traced import is the one
                # used from here on, because workers unpickle from the
                # current modules.
                _, _, setups = set_up(args.workload, args.seed, sizes, args.tiny, meter)
                wmst, cases, traced_setups = set_up(args.workload, args.seed, sizes,
                                                   args.tiny, meter, tracer)
            else:
                wmst, cases, setups = set_up(args.workload, args.seed, sizes, args.tiny,
                                             meter)
            env["wmst"] = wmst.__version__
            workload = make_workload(args.workload, wmst, cases, args.seed, sizes, checks,
                                     reference, work, meter)
            if args.trace:
                half = args.seconds / 2
                plain_cycles = workload.measure(half, 1)
                traced_cycles = workload.measure(half, 1, tracer)
            else:
                cycles = workload.measure(args.seconds, sizes.min_cycles)
        workload.finish()
        if args.trace:
            plain = end_to_end(plain_cycles, setups, meter)
            traced = end_to_end(traced_cycles, traced_setups, meter)
            layers = LayerPass(wmst, tracer, checks, sizes, args.seed, reference, work)
            layers.run(cases[0], args.tiny)
            results = layers.metrics()
            for name in OVERHEAD_OF:
                results[f"trace_overhead.{name}"] = (traced[name][0] - plain[name][0],
                                                     traced[name][1])
            units = dict(per_layer_metrics())
        else:
            results = end_to_end(cycles, setups, meter)
            units = {name: unit for name, unit, _ in END_TO_END}

    env["loadavg_end"] = loadavg()
    env["cycles"] = workload.cycles_run
    print("# env: " + json.dumps(env, sort_keys=True))
    for name, (value, n) in results.items():
        print(f"# {name} = {value!r} {units[name]} (n={n})")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"# failed_ratio = {ratio!r} ({checks.failed} of {checks.attempted})")
    for message in checks.messages:
        print(f"# FAILED: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in results.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
