"""Command-line workflows, file round-trips, CSV schema."""

import csv
import io as stdio
import json
from fractions import Fraction
from pathlib import Path

import pytest

from wmst import InstanceError, validate_instance
from wmst.cli import CSV_COLUMNS, main
from wmst.io import load_instance, load_order, save_instance

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
    ],
    ids=["order-str", "order-bool", "order-not-list", "seed-not-int", "sweep-l-not-int"],
)
def test_bad_order_or_parameter_exits_two(tmp_path, capsys, argv):
    inst = tmp_path / "tri.json"
    inst.write_text(json.dumps(_triangle_payload()))
    assert main(argv(tmp_path, str(inst))) == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_passes(capsys):
    code, text = run_cli(capsys, "selftest")
    assert code == 0
    assert "all good" in text
