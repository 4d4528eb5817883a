"""Command-line workflows, file round-trips, CSV schema."""

import argparse
import ast
import contextlib
import csv
import hashlib
import io as stdio
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wmst import (
    Graph,
    InstanceError,
    WmstError,
    WmstInstance,
    checks,
    cli,
    ftp,
    random_instance,
    randomorder,
    run_cost,
    validate_instance,
)
from wmst.adversaries import FAMILY_EDGE_LIMIT
from wmst.cli import CSV_COLUMNS, main
from wmst.io import load_instance, load_order, save_instance
from wmst.rationals import format_fraction

F = Fraction


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_prints_error_report(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, text = run_cli(capsys, "gen", "ftp-lb", "--k", "3", "--l", "3", "--out", str(out))
    assert code == 0
    assert "eta = 12/1 (12)" in text
    assert "epsilon = 3/1 (3)" in text
    assert out.exists()
    assert (tmp_path / "fam.defeat-order.json").exists()


def test_gen_random_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _ = run_cli(
            capsys, "gen", "random", "--n", "6", "--seed", "7", "--out", str(out)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_instance_round_trip_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "ro-lb", "--k", "2", "--delta", "1/2", "--l", "1",
            "--out", str(path))
    original = path.read_bytes()
    save_instance(load_instance(path), path)
    assert path.read_bytes() == original


def test_gen_ro_lb_prints_fractional_opt(tmp_path, capsys):
    out = tmp_path / "ro.json"
    code, text = run_cli(
        capsys, "gen", "ro-lb", "--k", "2", "--delta", "1/2", "--l", "1",
        "--out", str(out),
    )
    assert code == 0
    assert "opt_actual = 3/2 (1.5)" in text


def test_run_reports_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run_cli(capsys, "gen", "ftp-lb", "--k", "3", "--l", "3", "--out", str(out))
    trace_path = tmp_path / "trace.txt"
    code, text = run_cli(
        capsys, "run", "ftp", str(out), "--trace-out", str(trace_path)
    )
    assert code == 0
    assert "cost = 22/1 (22)" in text
    assert "ratio = 11/2 (5.5)" in text
    assert "cost <= opt + 2*eta: yes" in text
    assert trace_path.read_text().count("\n") == 7  # one line per edge


def test_unwritable_trace_path_exits_two_before_any_output(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    inst.write_text(json.dumps(_triangle_payload()))
    code = main(["run", "ftp", str(inst), "--trace-out", str(tmp_path / "nodir" / "t.txt")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "No such file or directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["tri.json"]


def test_run_with_given_defeating_order(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run_cli(capsys, "gen", "ftp-lb", "--k", "3", "--l", "3", "--out", str(out))
    order_path = tmp_path / "fam.defeat-order.json"
    load_order(order_path)  # parses
    code, text = run_cli(
        capsys, "run", "gftp", str(out), "--order", f"given:{order_path}", "--checked"
    )
    assert code == 0
    assert "cost = 22/1 (22)" in text


def test_run_with_seed_order(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run_cli(capsys, "gen", "ro-lb", "--k", "2", "--delta", "1/2", "--l", "2",
            "--out", str(out))
    code_a, text_a = run_cli(capsys, "run", "gftp", str(out), "--order", "seed:5")
    code_b, text_b = run_cli(capsys, "run", "gftp", str(out), "--order", "seed:5")
    assert code_a == code_b == 0
    assert text_a == text_b


def _parse_csv(text: str) -> list[dict]:
    data = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(stdio.StringIO("\n".join(data))))


def test_ro_exact_row(tmp_path, capsys):
    out = tmp_path / "ro.json"
    run_cli(capsys, "gen", "ro-lb", "--k", "2", "--delta", "1/2", "--l", "1",
            "--out", str(out))
    code, text = run_cli(capsys, "ro", "gftp", str(out), "--exact")
    assert code == 0
    assert "# exact mean = 7/2" in text
    rows = _parse_csv(text)
    assert len(rows) == 1
    row = rows[0]
    assert row["mean"] == "7/2"
    assert row["ratio"] == "7/3"
    assert row["opt"] == "3/2"
    assert row["trials"] == "6"


def test_ro_monte_carlo_row_and_zero_stderr_for_follower(tmp_path, capsys):
    out = tmp_path / "ro.json"
    run_cli(capsys, "gen", "ro-lb", "--k", "2", "--delta", "1/2", "--l", "2",
            "--out", str(out))
    code, text = run_cli(
        capsys, "ro", "ftp", str(out), "--trials", "300", "--seed", "1"
    )
    assert code == 0
    row = _parse_csv(text)[0]
    assert row["stderr"] == "0"
    assert float(row["mean"]) == 10.5  # delta + 2*(2k+1)


@pytest.mark.parametrize("name, instance_id", [("my,ro.json", None), ("ro.json", "a\nb"),
                                               ("ro.json", 'say "hi",\r\nbye')])
def test_ro_row_quotes_an_instance_id_that_needs_it(tmp_path, capsys, name, instance_id):
    path = tmp_path / name
    path.write_text(json.dumps(_triangle_payload()))
    id_flag = ["--id", instance_id] if instance_id else []
    code, text = run_cli(capsys, "ro", "ftp", str(path), "--trials", "10", *id_flag)
    assert code == 0
    header, row = csv.reader(stdio.StringIO(text.split("\n", 1)[1], newline=""))
    assert header == CSV_COLUMNS.split(",")
    assert len(row) == 13 and row[0] == (instance_id or name)


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("argv", [["ro", "ftp", "{path}", "--trials", "10"],
                                  ["ro", "gftp", "{path}", "--exact"],
                                  ["sweep", "ro-lb", "--k", "2", "--l", "1", "--trials", "5",
                                   "--algs", "ftp,{brk}gftp"]], ids=lambda a: " ".join(a[:2]))
def test_config_line_escapes_line_breaks(tmp_path, capsys, brk, argv):
    path = tmp_path / f"x{brk}y.json"
    path.write_text(json.dumps(_triangle_payload()))
    code, text = run_cli(capsys, *(arg.format(path=path, brk=brk) for arg in argv))
    assert code == 0
    lines = text.splitlines()  # breaks at CR as well as LF
    header = lines.index(CSV_COLUMNS)
    assert header > 0 and all(line.startswith("#") for line in lines[:header])


def test_sweep_closed_form_rows(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys,
        "sweep", "ftp-lb", "--k", "2,3,4", "--l", "1,2,4,8",
        "--algs", "ftp", "--trials", "50", "--seed", "3",
        "--out", str(csv_path),
    )
    assert code == 0
    rows = _parse_csv(csv_path.read_text())
    assert len(rows) == 12
    assert list(rows[0].keys()) == CSV_COLUMNS.split(",")
    ks = [2, 3, 4]
    ls = [1, 2, 4, 8]
    for row, (k, l) in zip(rows, [(k, l) for k in ks for l in ls]):
        eps = F(row["epsilon"])
        assert eps == k
        closed = 1 + (2 - F(2, l + 1)) * eps
        assert abs(float(row["ratio"]) - float(closed)) < 1e-9
        assert row["stderr"] == "0"


def test_sweep_shows_separation(tmp_path, capsys):
    csv_path = tmp_path / "sep.csv"
    code, _ = run_cli(
        capsys,
        "sweep", "ro-lb", "--k", "3", "--l", "2,5", "--delta", "1/2",
        "--algs", "ftp,gftp", "--trials", "2000", "--seed", "0",
        "--out", str(csv_path),
    )
    assert code == 0
    rows = _parse_csv(csv_path.read_text())
    by_key = {(r["instance_id"], r["algorithm"]): float(r["mean"]) for r in rows}
    for instance_id in {r["instance_id"] for r in rows}:
        assert by_key[(instance_id, "gftp")] < by_key[(instance_id, "ftp")]


def test_sweep_eta2_prints_one_row_per_k_and_player(capsys):
    code, text = run_cli(capsys, "sweep", "eta2", "--k", "2", "--l", "1,2,3", "--algs", "ftp")
    assert code == 0
    rows = _parse_csv(text)
    assert [r["instance_id"] for r in rows] == ["eta2(k=2;bigK=20;alg=ftp)"]
    assert (rows[0]["trials"], rows[0]["seed"], rows[0]["stderr"]) == ("1", "0", "0")
    assert (rows[0]["mean"], rows[0]["ratio"]) == ("3/1", "3/2")


def _above_ln2_curve(instance, trials):
    """An estimate of ``instance`` whose ratio lies one unit above ``1+(1+ln2)e``."""
    ref = randomorder.estimate(instance, 0.0, trials)
    return randomorder.estimate(instance, (ref.bound_ln2 + 1) * float(ref.opt), trials)


@pytest.mark.parametrize("mode", ["monte-carlo", "exact"])
def test_ro_flags_gftp_above_the_ln2_curve(tmp_path, capsys, monkeypatch, mode):
    path = tmp_path / "ro.json"
    run_cli(capsys, "gen", "ro-lb", "--k", "2", "--delta", "1/2", "--l", "1",
            "--out", str(path))
    instance = load_instance(path)
    high = _above_ln2_curve(instance, 6)
    if mode == "exact":
        monkeypatch.setattr(randomorder, "exact_expectation",
                            lambda factory, instance: Fraction(high.mean_cost))
        argv = ["--exact"]
    else:
        monkeypatch.setattr(randomorder, "mc_estimate", lambda *args, **kwargs: high)
        argv = ["--trials", "6"]
    for alg, flagged in (("gftp", True), ("ftp", False)):
        code, text = run_cli(capsys, "ro", alg, str(path), *argv)
        assert code == (1 if flagged else 0)
        assert text.endswith(
            "FLAG: measured ratio exceeds 1+(1+ln2)*epsilon beyond 3 std errors\n"
        ) == flagged
        assert Fraction(_parse_csv(text)[0]["ratio"]) > high.bound_ln2


def test_gen_random_refuses_too_many_vertices(tmp_path, capsys):
    out = tmp_path / "big.json"
    code = main(["gen", "random", "--n", "100000", "--out", str(out)])
    assert code == 2
    assert "candidate pairs; the limit is" in capsys.readouterr().err
    assert not out.exists()


def test_gen_random_refuses_too_many_expected_edges(tmp_path, capsys):
    out = tmp_path / "dense.json"
    code = main(["gen", "random", "--n", "2000", "--edge-prob", "1", "--out", str(out)])
    assert code == 2
    assert "expect 1999000 edges; the limit is 400000" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_grid_fails(capsys):
    code = main(["sweep", "ftp-lb", "--k", "", "--l", "1"])
    assert code == 2


def test_unknown_family_weight_param(capsys):
    code = main(["gen", "eta2", "--k", "5/2"])
    assert code == 2  # game families need integer k


def test_sweep_game_family_needs_integer_k(capsys):
    code = main(["sweep", "general-lb", "--k", "5/2", "--l", "1"])
    assert code == 2


def _triangle_payload(**endpoint):
    edges = [
        {"u": 0, "v": 1, "predicted": "2/1", "actual": "1/1"},
        {"u": 1, "v": 2, "predicted": "3/1", "actual": "1/1"},
        {"u": 0, "v": 2, "predicted": "2/1", "actual": "2/1"},
    ]
    edges[0].update(endpoint)
    return {"n": 3, "edges": edges}


@pytest.mark.parametrize(
    "endpoint",
    [{"u": 0.0}, {"v": True}, {"u": "0"}, {"v": None}],
    ids=repr,
)
def test_bad_endpoint_is_an_instance_error(tmp_path, capsys, endpoint):
    payload = _triangle_payload(**endpoint)
    with pytest.raises(InstanceError):
        validate_instance(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "ftp", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _order_file(tmp_path, order) -> str:
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"order": order}))
    return f"given:{path}"


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp, inst: ["run", "ftp", inst, "--order", _order_file(tmp, [0, "a", 2])],
        lambda tmp, inst: ["run", "ftp", inst, "--order", _order_file(tmp, [True, 0, 2])],
        lambda tmp, inst: ["run", "ftp", inst, "--order", _order_file(tmp, 3)],
        lambda tmp, inst: ["run", "ftp", inst, "--order", "seed:x"],
        lambda tmp, inst: ["sweep", "ftp-lb", "--k", "2", "--l", "x"],
        lambda tmp, inst: ["gen", "ftp-lb", "--k", "abc", "--out", f"{tmp}/g.json"],
        lambda tmp, inst: ["gen", "random", "--edge-prob", "1/0", "--out", f"{tmp}/g.json"],
        lambda tmp, inst: ["gen", "random", "--noise", "x", "--out", f"{tmp}/g.json"],
        lambda tmp, inst: ["sweep", "ro-lb", "--k", "2", "--l", "1", "--delta", "1/0"],
        lambda tmp, inst: ["gen", "ftp-lb", "--k", "1e5000", "--out", f"{tmp}/g.json"],
    ],
    ids=["order-str", "order-bool", "order-not-list", "seed-not-int", "sweep-l-not-int",
         "gen-k", "gen-edge-prob", "gen-noise", "sweep-delta", "gen-k-1e5000"],
)
def test_bad_order_or_parameter_exits_two(tmp_path, capsys, argv):
    inst = tmp_path / "tri.json"
    inst.write_text(json.dumps(_triangle_payload()))
    assert main(argv(tmp_path, str(inst))) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["ro", "gftp", "{path}"], ["sweep", "ro-lb", "--k", "2", "--l", "1"]],
    ids=["ro", "sweep"],
)
def test_trial_count_past_maxsize_exits_two_without_a_pool(tmp_path, capsys, monkeypatch, argv):
    def no_pool(method):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(randomorder.multiprocessing, "get_context", no_pool)
    path = tmp_path / "ro.json"
    path.write_text(json.dumps(_triangle_payload()))
    trials = ["--trials", "100000000000000000000"]
    assert main([arg.format(path=path) for arg in argv] + trials) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: at most") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["ro", "gftp", "{path}", "--trials", "10", "--seed", "-3"], -3),
        (["sweep", "ro-lb", "--k", "2", "--l", "1,2,3,4,5", "--trials", "10",
          "--seed", "-2"], -2),
        (["run", "gftp", "{path}", "--order", "seed:-7", "--trace-out", "{tmp}/t.txt"], -7),
        (["gen", "random", "--seed", "-1", "--out", "{tmp}/r.json"], -1),
    ],
    ids=["ro", "sweep", "run-order", "gen-random"],
)
def test_negative_seed_exits_two_before_any_output(tmp_path, capsys, argv, seed):
    # Random(-s) seeds like Random(s), so a negative seed would repeat another's output
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(_triangle_payload()))
    assert main([arg.format(path=path, tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be non-negative, got {seed}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.json"]


@pytest.mark.parametrize("command", ["gen", "sweep"])
@pytest.mark.parametrize(
    "family, params, shape, edges",
    [
        ("ftp-lb", ["--k", "2", "--l", "100000000000"], "hub-spoke", 200_000_000_001),
        ("ro-lb", ["--k", "2", "--l", "100000000000"], "hub-spoke", 200_000_000_001),
        ("general-lb", ["--k", "2", "--l", "100000000"], "path-star", 400_000_003),
    ],
    ids=["ftp-lb", "ro-lb", "general-lb"],
)
def test_family_past_the_edge_limit_exits_two_unbuilt(tmp_path, capsys, command, family,
                                                      params, shape, edges):
    # refused from the parameters alone: building these graphs would exhaust memory
    out = tmp_path / "out.json"
    algs = ["--algs", "ftp"] if command == "sweep" else []
    assert main([command, family, *params, *algs, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the {shape} family would have {edges} edges; "
        f"the limit is {FAMILY_EDGE_LIMIT}\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", [b"\xff", b"[" * 100_000], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("target", ["instance", "order"])
def test_undecodable_json_exits_two(tmp_path, capsys, content, target):
    inst = tmp_path / "tri.json"
    inst.write_text(json.dumps(_triangle_payload()))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if target == "instance":
        argv = ["run", "ftp", str(bad)]
    else:
        argv = ["run", "ftp", str(inst), "--order", f"given:{bad}"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _weights_file(tmp_path, cheap: list[str], heavy: str) -> str:
    """The triangle with two cheap edges of the given weights and a heavy one."""
    payload = _triangle_payload()
    for edge, weight in zip(payload["edges"], [*cheap, heavy]):
        edge["predicted"] = edge["actual"] = weight
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("argv", [["run", "ftp"], ["ro", "gftp", "--trials", "5"],
                                  ["ro", "gftp", "--exact"]], ids=" ".join)
def test_value_too_long_to_write_exits_two(tmp_path, capsys, argv):
    # each weight has 2501-digit terms; the optimum's denominator, a * b, has 5002
    a, b = int("3" * 2500 + "1"), int("7" * 2500 + "3")
    path = _weights_file(tmp_path, [f"{a + 1}/{a}", f"{b + 1}/{b}"], "3/1")
    code = main([*argv[:2], path, *argv[2:]])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: a value of more than 4300 digits cannot be written out\n"


def _path_file(tmp_path, m: int) -> str:
    """A path graph of ``m`` edges: every edge is inert, so ``gftp`` has nothing to walk."""
    graph = Graph.from_pairs(m + 1, [(i, i + 1) for i in range(m)])
    weights = tuple(F(1 + i % 3) for i in range(m))
    path = tmp_path / f"path{m}.json"
    save_instance(WmstInstance(graph, weights, weights), path)
    return str(path)


def test_ro_exact_refuses_a_trials_column_too_long_to_write(tmp_path, capsys):
    # 1558! has 4300 digits and 1559! has 4303, past what Python writes out
    code, text = run_cli(capsys, "ro", "gftp", _path_file(tmp_path, 1558), "--exact")
    assert code == 0
    assert _parse_csv(text)[0]["trials"] == str(math.factorial(1558))
    code = main(["ro", "gftp", _path_file(tmp_path, 1559), "--exact"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: 1559 edges: the trials column would hold 1559!, more than 4300 digits\n"


def test_ro_exact_ftp_answers_past_the_edge_limit_up_to_the_trials_column(tmp_path, capsys):
    # K5 has m = 10, one past the enumeration limit: ftp plays one game
    path = tmp_path / "k5.json"
    inst = random_instance(5, F(1), F(0), seed=0)
    save_instance(inst, path)
    code, text = run_cli(capsys, "ro", "ftp", str(path), "--exact")
    assert code == 0
    row = _parse_csv(text)[0]
    cost = run_cost(ftp(), inst, range(inst.m))
    assert (row["mean"], row["trials"]) == (format_fraction(cost), str(math.factorial(10)))
    code = main(["ro", "ftp", _path_file(tmp_path, 1559), "--exact"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: 1559 edges: the trials column would hold 1559!, more than 4300 digits\n"


def test_ro_exact_past_the_contested_budget_exits_two(tmp_path, capsys, deadline):
    # m = 42 with 16 contested edges, one past the budget
    path = tmp_path / "r20.json"
    save_instance(random_instance(20, F(1, 5), F(1, 4), 39), path)
    start = time.perf_counter()
    code = main(["ro", "gftp", str(path), "--exact"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: 16 contested edges means 16! orders; the limit for gftp is 15\n"


def test_ro_exact_leaves_out_tree_edges_that_predict_below_every_contested_weight(
    tmp_path, capsys, deadline
):
    # m = 45: 16 tree edges and live edges on their paths, 5 of the tree
    # edges predicting below every true weight among them, so 11 contested
    path = tmp_path / "r20.json"
    save_instance(random_instance(20, F(1, 5), F(1, 4), 11), path)
    code, text = run_cli(capsys, "ro", "gftp", str(path), "--exact")
    assert code == 0
    assert "# exact mean = 593329/98304" in text
    row = _parse_csv(text)[0]
    assert (row["mean"], row["trials"]) == ("593329/98304", str(math.factorial(45)))


@pytest.mark.parametrize(
    "weight, refused",
    [("1e400", True), ("1e-400", True), (str(2**257), True), (f"1/{2**257}", True),
     (str(2**256), False), (f"1/{2**256}", False)],
    ids=["1e400", "1e-400", "2^257", "2^-257", "2^256", "2^-256"],
)
@pytest.mark.parametrize("argv", [["run", "ftp"], ["ro", "ftp", "--trials", "3"],
                                  ["ro", "gftp", "--exact"]], ids=" ".join)
def test_weights_are_refused_outside_float_range(tmp_path, capsys, argv, weight, refused):
    path = _weights_file(tmp_path, [weight, weight], weight)
    code = main([*argv[:2], path, *argv[2:]])
    out, err = capsys.readouterr()
    if refused:
        assert (code, out) == (2, "")
        assert err == "error: predicted weight of edge 0 lies outside [2^-256, 2^256]\n"
    else:
        assert (code, err) == (0, "") and out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
payloads = (
    json_values
    | st.builds(lambda key, value: {**_triangle_payload(), key: value},
                st.sampled_from(["n", "edges"]), json_values)
    | st.builds(lambda key, value: _triangle_payload(**{key: value}),
                st.sampled_from(["u", "v", "predicted", "actual"]), json_values)
    | st.builds(lambda value: {"order": [2, value, 0]}, json_values)
)


@settings(max_examples=150, deadline=None)
@given(text=payloads.map(json.dumps))
@example(text="[" + "7" * 4301 + "]")
@example(text=json.dumps(_triangle_payload(actual="1e5000")))
@example(text=json.dumps(_triangle_payload(predicted="1e10000000")))
def test_json_boundary_returns_or_raises_wmst_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    for load in (load_instance, load_order):
        try:
            loaded = load(path)
        except WmstError:
            continue
        if load is load_instance:
            checks.instances_round_trip([loaded])


def test_selftest_passes():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-O", "-m", "wmst.cli", "selftest"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "all good" in done.stdout


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(checks, "exchange_witness", lambda t1, t2, e1: e1)
    code, text = run_cli(capsys, "selftest")
    lines = text.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL - exchange witness pairs cycles: case 2: witness 2 for edge 2 does not pair the cycles"
    ]
    assert lines[-1] == "selftest: 1 failure(s)"


COMMAND_NAMES = ("gen", "run", "ro", "sweep", "selftest")
USAGE_ARGVS = [
    [], ["-h"], ["--help"], *([name, "-h"] for name in COMMAND_NAMES),
    ["bogus"], ["RUN"], ["ru"], ["--"], ["-x"], ["selftest", "--foo"],
    ["gen"], ["run"], ["run", "ftp"], ["ro", "gftp"], ["sweep", "ftp-lb"],
    ["gen", "ro-lb", "--k", "x"], ["gen", "ro-lb", "--k"], ["sweep", "ro-lb", "--k", "2"],
    ["gen", "nope"], ["run", "nope", "a.json"], ["ro", "ftp"], ["sweep", "random", "--l", "1"],
]


def _outcome(capsys, argv) -> tuple:
    """``main(argv)``'s exit code, argparse's ``SystemExit`` included, stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "200"])
def test_usage_and_help_match_the_parser_of_every_command(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    outcomes = [_outcome(capsys, argv) for argv in USAGE_ARGVS]
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    for argv, outcome in zip(USAGE_ARGVS, outcomes):
        assert outcome == _outcome(capsys, argv), argv
        assert outcome[0] in (2, ("SystemExit", 0), ("SystemExit", 2)), argv
    _, _, ru_error = outcomes[USAGE_ARGVS.index(["ru"])]
    assert "wmst: error: argument command: invalid choice: 'ru'" in ru_error


@pytest.fixture
def parsers_built(monkeypatch) -> list[str]:
    """The ``prog`` of every ``ArgumentParser`` constructed while the test runs."""
    progs: list[str] = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return progs


def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch, parsers_built):
    path = tmp_path / "ro.json"
    assert main(["gen", "ro-lb", "--out", str(path)]) == 0
    assert parsers_built == ["wmst", "wmst gen"]
    parsers_built.clear()
    assert main(["run", "ftp", str(path)]) == 0
    assert parsers_built == ["wmst", "wmst run"]
    parsers_built.clear()
    monkeypatch.setattr(cli, "_selftests", lambda: [])
    assert main(["selftest"]) == 0
    assert parsers_built == ["wmst", "wmst selftest"]


def test_console_script_reads_sys_argv(capsys, monkeypatch, parsers_built):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_selftests", lambda: [])
    monkeypatch.setattr(sys, "argv", ["wmst", "selftest"])
    assert main() == 0
    assert capsys.readouterr().out == "selftest: all good\n"
    assert parsers_built == ["wmst", "wmst selftest"]
    monkeypatch.setattr(sys, "argv", ["wmst", "-h"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: wmst [-h] {gen,run,ro,sweep,selftest} ...\n")
    assert all(f"    {name} " in text for name in COMMAND_NAMES)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    """Every ``wmst gen|run|ro|sweep`` line of the README, ``--trials`` cut to 200."""
    commands = []
    for line in README.read_text(encoding="utf-8").splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["wmst"] and words[1:2] in (["gen"], ["run"], ["ro"], ["sweep"]):
            if "--trials" in words:
                at = words.index("--trials") + 1
                words[at] = str(min(int(words[at]), 200))
            commands.append(" ".join(words[1:]))
    return commands


README_COMMANDS = _readme_commands()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_readme_commands(work: Path, split: bool = False) -> dict[str, tuple[int, dict[str, str]]]:
    """Run the README commands in order inside ``work``.

    With ``split``, the CPU set is pinned at two and every Monte Carlo job is
    large enough for two workers, so its trials really split; otherwise the
    worker count is the one ``mc_estimate`` picks, serial at these sizes.
    Returns, per command, its exit code and the SHA-256 of its stdout and of
    every file it wrote.
    """
    outputs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        if split:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            mp.setattr(randomorder, "REVEALS_PER_WORKER", 1)
        files: dict[str, str] = {}
        for command in README_COMMANDS:
            stdout = stdio.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(command.split())
            now = {p.name: _sha256(p.read_bytes()) for p in work.iterdir()}
            hashes = {"stdout": _sha256(stdout.getvalue().encode())}
            hashes.update((name, h) for name, h in now.items() if files.get(name) != h)
            files = now
            outputs[command] = (code, hashes)
    return outputs


# Digests of the README commands' outputs. They are fixed: a change to the code
# must leave every one byte-identical, and only editing a README command calls
# for recording its digests again.
README_GOLDEN: dict[str, dict[str, str]] = {
    "gen ftp-lb --k 3 --l 3 --out fam.json": {
        "stdout": "c3fd6b49d90aac6d894ba2599bdc91beef03cf2e8e8f8274d2353560925a5642",
        "fam.json": "91fbfc0616dbe63a6e3c8443d9250a3a7fee3d668f0c1fbd582067da7afd1f13",
        "fam.defeat-order.json": "7f491633d48c6f8eea0b1bc318b6cbdc3a615764878adcad08455b881590773a",
    },
    "gen ro-lb --k 2 --delta 1/2 --l 1 --out ro.json": {
        "stdout": "2210daa6e8fcf268c00fe34dfbab69566a9b144046ab5098a1ad6f68c8282335",
        "ro.json": "6d2d4028883f15fe1241f6ad755d799d4989f1a9f1de0788d01655bb777f835a",
    },
    "gen general-lb --k 3 --l 2 --alg gftp --out game.json": {
        "stdout": "bf4910aa812d07b3b15a09e7166bc7af68b56ec23f0c95d533dbbcfdd3a903ec",
        "game.json": "fe3dd383cc3083c686746f80aed4e7bee2a79b31db8f558f35b5c98c913a9f36",
        "game.order.json": "036d9afa98545cfea4c230f8b6274c14fdcfbb60a416fbc8641642c78c57c994",
        "game.trace.txt": "7467a5b9e2e71cacebf892d781ef71268b8e7688ccc2f525377d217f3c031b1c",
    },
    "gen eta2 --k 5 --alg ftp --out tri.json": {
        "stdout": "5d45a7bbfca0bcf226cded9bdd96aed651ef6a2401edf0a7caed00fc5a038e13",
        "tri.order.json": "386af51206f45cfeeed094041cbc848c9b08d39807760ed7f48e85a9eba984dd",
        "tri.json": "08be8a051d9a41ba4d0cade2cb7b0b565d09911ef776fe691050793c9d052bd7",
        "tri.trace.txt": "2e92a7fff175853d90ad621ed0201d8191aac7d0a35ddbc3e646353150922625",
    },
    "gen random --n 6 --edge-prob 1/2 --noise 1/4 --seed 7 --out rnd.json": {
        "stdout": "bf23aca29179e2887a46a4743851b664d776a5622079dea59d72b2c08447c0c7",
        "rnd.json": "9db5ee70a7ac2b38469b70927fcaf539a2b576b4fb4e99e284e9d90e6636e7f1",
    },
    "run ftp fam.json": {
        "stdout": "1f6764269ff154ffdb94b24677db087ed20c3e9492c4b8ed31d45187008dec8f",
    },
    "run gftp fam.json --order given:fam.defeat-order.json --checked": {
        "stdout": "56ecd0625e1169777de637e4ee98c691664e73374284bc1f7b45e533eeb864f0",
    },
    "run gftp rnd.json --order seed:42 --trace-out trace.txt": {
        "stdout": "df2535db7ce63c57acb2c9bf92a7a385f3f198d888375be44b8ae61f5ba6e947",
        "trace.txt": "b8473209a9a37743efa6b88f81377a0dd1f9208531b17c07ce01c2272937ed89",
    },
    "ro gftp ro.json --exact": {
        "stdout": "a8f0c5c58c986326ff3af1ffd7e5a8fb8b6a256fbbe78ef6a83c0f655383b97c",
    },
    "ro gftp ro.json --trials 200 --seed 1": {
        "stdout": "bfaed9b8ae71692887aa86cafb4c6b7c4904856b0318655c010b9e2db7fb914e",
    },
    "sweep ftp-lb --k 2,3,4 --l 1,2,4,8 --algs ftp --trials 100 --out table.csv": {
        "stdout": "b24b61f661caa398c623a70ecd45be1dcbc4dcfec4d555d188da4496a5ef920b",
        "table.csv": "8b4a73d4759dfb0f456fb1213498d8569c7279bea367082c71a578fb9d23fb52",
    },
    "sweep ro-lb --k 4 --l 1,5,20 --delta 1/2 --algs ftp,gftp --trials 200": {
        "stdout": "2d6d840188fde9fc86b83fa0d52ed47f1c0e1dad648c74e3d795283ad681feff",
    },
    "sweep general-lb --k 2,3 --l 1,2 --algs ftp,gftp": {
        "stdout": "ae3e2d8fbee0afa534d5264582f0173b6fc528d09c6e74025cb48ec704c8d378",
    },
    "sweep eta2 --k 2,4 --l 1 --algs ftp,gftp": {
        "stdout": "638299dc4d60bcd89c3c2b16ee892d5029880780dd6ec2e60284db16565c35d6",
    },
}


@pytest.fixture(scope="module")
def readme_outputs(tmp_path_factory):
    return run_readme_commands(tmp_path_factory.mktemp("readme"))


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_outputs_are_unchanged(readme_outputs, command):
    code, hashes = readme_outputs[command]
    assert code == 0
    assert hashes == README_GOLDEN[command]


@pytest.fixture(scope="module")
def readme_outputs_two_workers(tmp_path_factory):
    return run_readme_commands(tmp_path_factory.mktemp("readme2"), split=True)


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_outputs_do_not_depend_on_workers(readme_outputs_two_workers, command):
    code, hashes = readme_outputs_two_workers[command]
    assert code == 0
    assert hashes == README_GOLDEN[command]


def test_cli_uses_only_the_public_api():
    """``cli.py`` imports no private name and reads none off another ``wmst`` module."""
    package = Path(cli.__file__).parent
    modules = {info.name for info in pkgutil.iter_modules([str(package)])}
    private = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "wmst"
        ):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []
