"""Command-line workbench.

Subcommands: ``gen`` (emit instance families), ``run`` (replay one order),
``ro`` (random-order estimates), ``sweep`` (CSV tables over parameter
grids), ``selftest`` (quick invariant suites).  Every output embeds the
parameters and seeds needed to reproduce it; exit code 0 means all
requested validations passed.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from . import adversaries, io, metrics, randomorder
from .engine import ALGORITHMS, ArrivalOrder, run
from .exceptions import TooLarge, WmstError
from .graphs import mst
from .rationals import MAX_DIGITS, format_fraction, parse_fraction

CSV_COLUMNS = (
    "instance_id,algorithm,trials,seed,mean,stderr,opt,eta,epsilon,ratio,"
    "bound_1e,bound_ln2,bound_2e"
)


def _dec(x: float) -> str:
    return f"{x:.12g}"


def _frac_dec(value: Fraction) -> str:
    return f"{format_fraction(value)} ({_dec(float(value))})"


def _alg_factory(name: str):
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise WmstError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")


def _print_error_report(instance) -> None:
    report = metrics.error_report(instance)
    print(f"eta1 = {_frac_dec(report.eta1)}")
    print(f"eta2 = {_frac_dec(report.eta2)}")
    print(f"eta = {_frac_dec(report.eta)}")
    print(f"opt_actual = {_frac_dec(report.opt_actual)}")
    print(f"opt_predicted = {_frac_dec(report.opt_predicted)}")
    print(f"epsilon = {_frac_dec(report.epsilon)}")


def _integer_k(family: str, k: Fraction) -> int:
    """The game families take an integer k; fail early with a clear message."""
    if k.denominator != 1:
        raise WmstError(f"family {family} needs an integer k, got {k}")
    return int(k)


def _config(fields: str) -> str:
    """The ``# config:`` comment line, with CR and LF in values written as ``\\r`` and ``\\n``.

    A path or a parameter may hold a line break; left as it is, it would end
    the comment and put the rest of the line above a CSV header.
    """
    return "# config: " + fields.replace("\r", "\\r").replace("\n", "\\n")


def _sidecar(out: Path, tag: str) -> Path:
    stem = out.name[: -len(out.suffix)] if out.suffix else out.name
    return out.with_name(f"{stem}.{tag}")


class Family(NamedTuple):
    """A family's parameter names, in label order, and its builder.

    ``build(**params)`` returns the instance, the game if the family is one,
    and the sidecar files ``gen`` writes as ``(tag, label, write(path))``.
    """

    params: tuple[str, ...]
    build: Callable


def _ftp_lb(k, l):
    instance, _, defeating = adversaries.gen_ftp_lb(k, l)
    return instance, None, [
        ("defeat-order.json", "defeating order", partial(io.save_order, defeating))
    ]


def _game(game: adversaries.AdversarialGame):
    return game.instance, game, [
        ("order.json", "game order", partial(io.save_order, game.order)),
        ("trace.txt", "game trace", partial(io.save_trace, game.trace)),
    ]


FAMILIES = {
    "ftp-lb": Family(("k", "l"), _ftp_lb),
    "ro-lb": Family(
        ("k", "delta", "l"), lambda k, delta, l: (adversaries.gen_ro_lb(k, delta, l), None, [])
    ),
    "general-lb": Family(
        ("k", "l", "alg"),
        lambda k, l, alg: _game(adversaries.gen_general_lb_game(k, l, _alg_factory(alg)())),
    ),
    "eta2": Family(
        ("k", "big_k", "alg"),
        lambda k, big_k, alg: _game(adversaries.gen_eta2_game(k, big_k, _alg_factory(alg)())),
    ),
    "random": Family(
        ("n", "edge_prob", "noise", "seed"),
        lambda n, edge_prob, noise, seed: (
            adversaries.random_instance(n, edge_prob, noise, seed), None, []
        ),
    ),
}
SWEEP_FAMILIES = [name for name in FAMILIES if name != "random"]


def _family_params(family: str, values: dict) -> dict:
    """The family's parameters, in label order, taken from ``values``.

    The games, the families played against an ``alg``, take an integer
    ``k``; an unset ``big_k`` is ``10 * k``.
    """
    params = {name: values[name] for name in FAMILIES[family].params}
    if "alg" in params:
        params["k"] = _integer_k(family, params["k"])
    if "big_k" in params and params["big_k"] is None:
        params["big_k"] = 10 * params["k"]
    return params


def cmd_gen(args) -> int:
    out = Path(args.out if args.out else f"{args.family}.json")
    params = _family_params(args.family, vars(args))
    instance, _, sidecars = FAMILIES[args.family].build(**params)
    extras: list[tuple[Path, str]] = []
    for tag, label, write in sidecars:
        path = _sidecar(out, tag)
        write(path)
        extras.append((path, label))
    io.save_instance(instance, out)
    config = " ".join(f"{name.replace('_', '-')}={value}" for name, value in params.items())
    print(_config(f"gen {args.family} {config} out={out}"))
    print(f"wrote instance to {out}")
    for path, label in extras:
        print(f"wrote {label} to {path}")
    _print_error_report(instance)
    return 0


def _resolve_order(selector: str, m: int) -> ArrivalOrder:
    if selector == "id":
        return ArrivalOrder.identity(m)
    if selector.startswith("seed:"):
        try:
            seed = int(selector[len("seed:"):])
        except ValueError:
            raise WmstError(f"order seed must be an integer, got {selector!r}") from None
        return ArrivalOrder.shuffled(m, seed)
    if selector.startswith("given:"):
        return io.load_order(selector[len("given:"):])
    raise WmstError(
        f"order must be 'id', 'seed:<u64>' or 'given:<file>', got {selector!r}"
    )


def cmd_run(args) -> int:
    instance = io.load_instance(args.instance)
    order = _resolve_order(args.order, instance.m)
    alg = _alg_factory(args.alg)()
    trace = run(alg, instance, order, checked=args.checked)
    report = metrics.error_report(instance)  # shares the run's ``instance.prepared``
    ratio = trace.cost / report.opt_actual
    bound_holds = trace.cost <= report.opt_actual + 2 * report.eta
    # every line is formatted, and the trace written, before any is printed:
    # a value too large to write out or a failed write leaves no partial report
    lines = [
        _config(
            f"run alg={args.alg} instance={args.instance} "
            f"order={args.order} checked={args.checked}"
        ),
        f"cost = {_frac_dec(trace.cost)}",
        f"opt = {_frac_dec(report.opt_actual)}",
        f"eta = {_frac_dec(report.eta)}",
        f"epsilon = {_frac_dec(report.epsilon)}",
        f"ratio = {_frac_dec(ratio)}",
        f"cost <= opt + 2*eta: {'yes' if bound_holds else 'NO'}",
    ]
    if args.trace_out:
        io.save_trace(trace, args.trace_out)
        lines.append(f"wrote trace to {args.trace_out}")
    print("\n".join(lines))
    return 0 if bound_holds else 1


def _csv_field(text: str) -> str:
    """``text`` as an RFC 4180 field, quoted only if it holds ``,``, ``"``, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(instance_id: str, algorithm: str, seed: int, est) -> str:
    def number(x) -> str:
        return format_fraction(x) if isinstance(x, Fraction) else _dec(x)

    return ",".join(
        [
            _csv_field(instance_id),
            algorithm,
            str(est.trials),
            str(seed),
            number(est.mean_cost),
            number(est.std_error),
            format_fraction(est.opt),
            format_fraction(est.eta),
            format_fraction(est.epsilon),
            number(est.ratio),
            _dec(est.bound_1e),
            _dec(est.bound_ln2),
            _dec(est.bound_2e),
        ]
    )


def _emit_csv(lines: list[str], out: str | None, comments: list[str]) -> None:
    body = "\n".join([CSV_COLUMNS, *lines]) + "\n"
    if out:
        Path(out).write_text(body, encoding="utf-8")
        body = f"wrote {len(lines)} row(s) to {out}\n"
    for comment in comments:
        print(comment)
    print(body, end="")


def cmd_ro(args) -> int:
    instance = io.load_instance(args.instance)
    factory = _alg_factory(args.alg)
    if args.exact:
        # the trials column holds m!, which must fit what Python writes out
        if math.lgamma(instance.m + 1) >= MAX_DIGITS * math.log(10):
            raise TooLarge(
                f"{instance.m} edges: the trials column would hold {instance.m}!, "
                f"more than {MAX_DIGITS} digits"
            )
        value = randomorder.exact_expectation(factory, instance)
        est = randomorder.estimate(instance, value, math.factorial(instance.m))
        seed = 0
        comments = [
            _config(f"ro alg={args.alg} instance={args.instance} exact"),
            f"# exact mean = {format_fraction(value)}",
        ]
    else:
        est = randomorder.mc_estimate(factory, instance, args.trials, args.seed)
        seed = args.seed
        comments = [
            _config(f"ro alg={args.alg} instance={args.instance} "
                    f"trials={args.trials} seed={args.seed}")
        ]
    instance_id = args.id or Path(args.instance).name
    _emit_csv([_csv_row(instance_id, args.alg, seed, est)], args.out, comments)
    flagged = randomorder.ratio_report(est, args.alg).exceeds_ln2_bound
    if flagged:
        print("FLAG: measured ratio exceeds 1+(1+ln2)*epsilon beyond 3 std errors")
    return 1 if flagged else 0


def _parse_grid(text: str, kind) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise WmstError(f"bad parameter grid {text!r}") from None
    if not values:
        raise WmstError("empty parameter grid")
    return values


def cmd_sweep(args) -> int:
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    if not algs:
        raise WmstError("empty algorithm list")
    for name in algs:
        _alg_factory(name)
    grid = {
        "k": _parse_grid(args.k, parse_fraction),
        "l": _parse_grid(args.l, int),
        "delta": [args.delta],
        "big_k": [None],
        "alg": algs,
    }
    # one row per value of the family's own parameters, times the players
    family = FAMILIES[args.family]
    axes = family.params if "alg" in family.params else (*family.params, "alg")
    points = [dict(zip(axes, values)) for values in product(*(grid[a] for a in axes))]
    jobs = [(point["alg"], _family_params(args.family, point)) for point in points]
    results = [_sweep_row(args, index, alg_name, params)
               for index, (alg_name, params) in enumerate(jobs)]
    comments = [
        _config(f"sweep family={args.family} k={args.k} l={args.l} delta={args.delta} "
                f"algs={args.algs} trials={args.trials} seed={args.seed}")
    ]
    _emit_csv([row for row, _ in results], args.out, comments)
    return 1 if any(flagged for _, flagged in results) else 0


def _sweep_row(args, index: int, alg_name: str, params: dict) -> tuple[str, bool]:
    """Sweep job ``index``'s CSV row, and whether its estimate is flagged.

    The job's instance, with its preparation, and its game are freed on
    return, before the next job builds its family.
    """
    instance, game, _ = FAMILIES[args.family].build(**params)
    labels = ";".join(
        f"{'bigK' if name == 'big_k' else name}={value}"
        for name, value in params.items()
    )
    instance_id = f"{args.family}({labels})"
    if game is None:
        seed = args.seed + index
        est = randomorder.mc_estimate(_alg_factory(alg_name), instance, args.trials, seed)
        flagged = randomorder.ratio_report(est, alg_name).exceeds_ln2_bound
    else:  # one adversarial order: its exact cost, never flagged
        seed, flagged = 0, False
        est = randomorder.estimate(instance, game.trace.cost, 1)
    return _csv_row(instance_id, alg_name, seed, est), flagged


def _random_instances(count: int, base: int, sizes: int, prob: Fraction, noise: Fraction):
    """Random instances for seeds ``0..count-1``, with ``base + seed % sizes`` vertices."""
    for seed in range(count):
        yield adversaries.random_instance(base + seed % sizes, prob, noise, seed)


def _selftests() -> list[tuple[str, Callable[[], object]]]:
    """The selftest's ``(name, check)`` rows; only they import the check library."""
    from . import checks

    def online() -> None:
        instances = _random_instances(200, 4, 4, Fraction(3, 5), Fraction(1, 2))
        cases = [
            (inst, ArrivalOrder.shuffled(inst.m, seed).edge_ids)
            for seed, inst in enumerate(instances)
        ]
        checks.cost_bounds(cases)
        checks.checked_runs_agree(cases)

    return [
        ("mst matches brute-force oracle", lambda: checks.mst_matches_oracle(
            _random_instances(200, 3, 5, Fraction(3, 5), Fraction(1, 4))
        )),
        ("exchange witness pairs cycles", lambda: checks.exchange_witnesses_pair_cycles(
            (mst(inst.graph, inst.actual), mst(inst.graph, inst.predicted))
            for inst in _random_instances(30, 3, 4, Fraction(7, 10), Fraction(1, 2))
        )),
        ("online cost bounds and checked invariants", online),
        ("hub-spoke ratio identity", partial(checks.hub_spoke_identity, [(2, 1), (3, 3), (5, 4)])),
        ("instance files round-trip byte-identically", lambda: checks.instances_round_trip(
            [adversaries.random_instance(6, Fraction(1, 2), Fraction(1, 4), 7)]
        )),
        ("harmonic bound values and growth", partial(checks.harmonic_growth, range(3, 200))),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftests():
        try:
            check()
        except WmstError as exc:
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok - {name}")
    print(f"selftest: {'all good' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("family", choices=list(FAMILIES))
    gen.add_argument("--k", type=parse_fraction, default=Fraction(2))
    gen.add_argument("--l", type=int, default=1, help="spoke or star count")
    gen.add_argument("--delta", type=parse_fraction, default=Fraction(1, 2))
    gen.add_argument("--big-k", dest="big_k", type=int, default=None)
    gen.add_argument("--alg", choices=sorted(ALGORITHMS), default="ftp")
    gen.add_argument("--n", type=int, default=6)
    gen.add_argument("--edge-prob", type=parse_fraction, default=Fraction(1, 2))
    gen.add_argument("--noise", type=parse_fraction, default=Fraction(1, 4))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)


def _run_arguments(runp: argparse.ArgumentParser) -> None:
    runp.add_argument("alg", choices=sorted(ALGORITHMS))
    runp.add_argument("instance")
    runp.add_argument("--order", default="id", help="id | seed:<u64> | given:<file>")
    runp.add_argument("--checked", action="store_true")
    runp.add_argument("--trace-out", default=None)


def _ro_arguments(ro: argparse.ArgumentParser) -> None:
    ro.add_argument("alg", choices=sorted(ALGORITHMS))
    ro.add_argument("instance")
    ro.add_argument("--trials", type=int, default=10_000)
    ro.add_argument("--seed", type=int, default=0)
    ro.add_argument("--exact", action="store_true")
    ro.add_argument("--id", default=None, help="instance id for the CSV row")
    ro.add_argument("--out", default=None)


def _sweep_arguments(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("family", choices=SWEEP_FAMILIES)
    sweep.add_argument("--k", required=True, help="comma list, e.g. 2,3,4")
    sweep.add_argument("--l", required=True, help="comma list, e.g. 1,2,4")
    sweep.add_argument("--delta", type=parse_fraction, default=Fraction(1, 2))
    sweep.add_argument("--algs", default="ftp,gftp")
    sweep.add_argument("--trials", type=int, default=10_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default=None)


class Command(NamedTuple):
    """A subcommand's help line, the function that adds its arguments, and its handler."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


COMMANDS = {
    "gen": Command("generate an instance family", _gen_arguments, cmd_gen),
    "run": Command("replay one arrival order", _run_arguments, cmd_run),
    "ro": Command("random-order cost estimate", _ro_arguments, cmd_ro),
    "sweep": Command("CSV table over a parameter grid", _sweep_arguments, cmd_sweep),
    "selftest": Command("run the quick invariant suites", lambda parser: None, cmd_selftest),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``wmst`` parser, with only ``command``'s sub-parser when it names one.

    Any other ``command`` (None, an option, a misspelling) registers every
    sub-parser, so help and ``invalid choice`` errors read as they always
    have.  The one-command parser lists every name in its usage line through
    ``metavar``, which keeps that line, and so every usage error, unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="wmst",
        description="Online minimum spanning trees with weight predictions.",
    )
    if command in COMMANDS:
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        COMMANDS[name].add_arguments(sub.add_parser(name, help=COMMANDS[name].help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a bad rational flag raises here
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        return COMMANDS[args.command].handler(args)
    except (WmstError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
