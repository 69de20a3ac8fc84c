"""End-to-end checks of the command line interface via main(argv)."""

import csv
import io
import json

import pytest

from lpn import cli
from lpn.cli import SOLVE_COLUMNS, SQ_COLUMNS, _parse_seeds, main
from lpn.instfile import read_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# -- gen --------------------------------------------------------------


def test_gen_writes_deterministic_file(tmp_path, capsys):
    p1, p2 = tmp_path / "a.lpn", tmp_path / "b.lpn"
    code, out, _ = run(capsys, "gen", "--k", "8", "--count", "5",
                       "--eta", "0.125", "--seed", "7", "--out", str(p1))
    assert code == 0
    assert "wrote" in out
    run(capsys, "gen", "--k", "8", "--count", "5", "--eta", "0.125",
        "--seed", "7", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    data = read_instance(str(p1))
    assert data.k == 8 and data.count == 5 and data.target is None


def test_gen_with_target_embeds_target(tmp_path, capsys):
    p = tmp_path / "t.lpn"
    code, _, _ = run(capsys, "gen", "--k", "6", "--count", "4",
                     "--eta", "0.0", "--seed", "3", "--out", str(p),
                     "--with-target")
    assert code == 0
    data = read_instance(str(p))
    assert data.target is not None
    # noiseless labels match the recorded target
    from lpn.gf2 import BitVec

    for bits_row, label in zip(data.bits, data.labels):
        assert BitVec.from_bits_row(bits_row).dot(data.target) == label


# -- solve ------------------------------------------------------------


def test_solve_gauss_noiseless_file(tmp_path, capsys):
    p = tmp_path / "g.lpn"
    run(capsys, "gen", "--k", "8", "--count", "40", "--eta", "0.0",
        "--seed", "5", "--out", str(p), "--with-target")
    code, out, _ = run(capsys, "solve", "--algo", "gauss", "--in", str(p))
    assert code == 0
    rows = rows_from_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == SOLVE_COLUMNS
    assert row["schema"] == "lpn-solve/1"
    assert row["algo"] == "gauss"
    assert row["status"] == "solved"
    assert row["success"] == "true"
    assert row["c_hat"] == row["target"] != ""


def test_solve_mle_live_source(capsys):
    code, out, _ = run(capsys, "solve", "--algo", "mle", "--k", "10",
                       "--eta", "0.1", "--seeds", "2",
                       "--max-examples", "300")
    assert code == 0
    rows = rows_from_csv(out)
    assert [r["seed"] for r in rows] == ["0", "1"]
    for row in rows:
        assert row["status"] == "recovered"
        assert row["success"] == "true"


def test_solve_bkw_auto_and_explicit_layout(capsys):
    code, out, _ = run(capsys, "solve", "--algo", "bkw", "--k", "8",
                       "--eta", "0.0", "--seeds", "1")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert (row["a"], row["b"]) == ("2", "4")
    assert row["status"] == "recovered" and row["success"] == "true"
    assert int(row["repetitions"]) >= 1
    assert int(row["examples_used"]) > 0

    code, out, _ = run(capsys, "solve", "--algo", "bkw", "--k", "8",
                       "--eta", "0.0", "--a", "2", "--b", "5")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert (row["a"], row["b"]) == ("2", "5")
    assert row["success"] == "true"


def test_solve_online_from_file(tmp_path, capsys):
    p = tmp_path / "o.lpn"
    run(capsys, "gen", "--k", "8", "--count", "400", "--eta", "0.0",
        "--seed", "11", "--out", str(p), "--with-target")
    code, out, _ = run(capsys, "solve", "--algo", "online", "--in", str(p),
                       "--blocks", "2", "--width", "4", "--matrices", "2")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert row["status"] == "completed"
    assert row["count"] == "400"
    assert row["errors"] == "0"
    assert row["success"] == "true"
    assert int(row["predicted"]) + int(row["unknown"]) == 400
    assert int(row["fill"]) <= int(row["capacity"])


def test_solve_json_format(capsys):
    code, out, _ = run(capsys, "solve", "--algo", "gauss", "--k", "6",
                       "--eta", "0.0", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert list(rows[0]) == SOLVE_COLUMNS
    assert rows[0]["success"] == "true"


def test_solve_out_file(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "solve", "--algo", "gauss", "--k", "6",
                       "--eta", "0.0", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert rows_from_csv(dest.read_text())[0]["algo"] == "gauss"


def test_solve_seed_list(capsys):
    code, out, _ = run(capsys, "solve", "--algo", "gauss", "--k", "6",
                       "--eta", "0.0", "--seeds", "3,9")
    assert code == 0
    assert [r["seed"] for r in rows_from_csv(out)] == ["3", "9"]


def test_solve_rows_are_deterministic(capsys):
    argv = ["solve", "--algo", "mle", "--k", "8", "--eta", "0.125",
            "--seeds", "2", "--max-examples", "200"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_solve_worker_pool_matches_serial(capsys, monkeypatch):
    argv = ["solve", "--algo", "mle", "--k", "8", "--eta", "0.125",
            "--seeds", "3", "--max-examples", "200"]
    monkeypatch.setenv("LPN_THREADS", "1")
    _, serial, _ = run(capsys, *argv)
    monkeypatch.setenv("LPN_THREADS", "2")
    _, pooled, _ = run(capsys, *argv)
    assert pooled == serial


def test_in_file_is_decoded_once_per_command(tmp_path, capsys, monkeypatch):
    p = tmp_path / "once.lpn"
    run(capsys, "gen", "--k", "8", "--count", "30000", "--eta", "0.125",
        "--seed", "4", "--out", str(p), "--with-target")
    reads = []
    monkeypatch.setattr(cli, "read_instance",
                        lambda path: reads.append(path) or read_instance(path))
    argv = ["solve", "--algo", "bkw", "--in", str(p), "--seeds", "3"]
    monkeypatch.setenv("LPN_THREADS", "1")
    _, serial, _ = run(capsys, *argv)
    assert len(reads) == 1
    monkeypatch.setenv("LPN_THREADS", "2")
    _, pooled, _ = run(capsys, *argv)
    assert len(reads) == 2
    rows, pooled_rows = rows_from_csv(serial), rows_from_csv(pooled)
    for row in rows + pooled_rows:
        assert float(row.pop("wall_time_ms")) > 0
    assert rows == pooled_rows
    assert [r["seed"] for r in rows] == ["0", "1", "2"]
    assert all(r["success"] == "true" for r in rows)


def test_solve_budget_exceeded_exit_code(tmp_path, capsys):
    p = tmp_path / "tiny.lpn"
    run(capsys, "gen", "--k", "8", "--count", "10", "--eta", "0.0",
        "--seed", "1", "--out", str(p))
    code, out, _ = run(capsys, "solve", "--algo", "mle", "--in", str(p))
    assert code == 3
    assert rows_from_csv(out)[0]["status"] == "budget_exceeded"


def test_solve_bkw_short_file_reports_drawn_examples(tmp_path, capsys):
    # k=12 at eta=0.125 needs more than 20,000 examples
    p = tmp_path / "short12.lpn"
    run(capsys, "gen", "--k", "12", "--count", "20000", "--eta", "0.125",
        "--seed", "3", "--out", str(p))
    code, out, _ = run(capsys, "solve", "--algo", "bkw", "--in", str(p))
    assert code == 3
    row = rows_from_csv(out)[0]
    assert row["status"] == "budget_exceeded"
    assert row["success"] == "false" and row["c_hat"] == ""
    # whole rounds of a*2^b = 128 draws, until the next one did not fit
    assert (row["a"], row["b"]) == ("2", "6")
    assert int(row["examples_used"]) == 19712
    assert float(row["wall_time_ms"]) > 0


@pytest.mark.parametrize("algo,extra", [
    ("mle", []),  # 2,000 default draws
    ("gauss", ["--max-examples", "1600"]),
    ("online", ["--blocks", "2", "--width", "5", "--matrices", "2",
                "--max-examples", "1600"]),
])
def test_solve_short_file_draws_nothing(tmp_path, capsys, algo, extra):
    p = tmp_path / "short10.lpn"
    run(capsys, "gen", "--k", "10", "--count", "1500", "--eta", "0.125",
        "--seed", "3", "--out", str(p))
    code, out, _ = run(capsys, "solve", "--algo", algo, "--in", str(p), *extra)
    assert code == 3
    row = rows_from_csv(out)[0]
    assert row["status"] == "budget_exceeded"
    assert row["examples_used"] == "0"
    assert row["c_hat"] == ""


# -- solve usage errors -----------------------------------------------


@pytest.mark.parametrize("argv,fragment", [
    (["solve", "--algo", "mle", "--k", "8"], "--k and --eta"),
    (["solve", "--algo", "bkw", "--k", "8", "--eta", "0.1", "--a", "2"],
     "go together"),
    (["solve", "--algo", "bkw", "--k", "8", "--eta", "0.1",
      "--a", "2", "--b", "2"], "must cover"),
    (["solve", "--algo", "online", "--eta", "0.1", "--blocks", "2",
      "--width", "4"], "--matrices"),
    (["solve", "--algo", "online", "--eta", "0.1", "--blocks", "2",
      "--width", "4", "--matrices", "2"], "--max-examples"),
    (["solve", "--algo", "mle", "--k", "30", "--eta", "0.1"], "capped"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1",
      "--seeds", "0"], "at least one"),
    (["solve", "--algo", "bkw", "--k", "8", "--eta", "0.1",
      "--seeds", ","], "at least one"),
    (["solve", "--algo", "online", "--eta", "0.1", "--blocks", "2",
      "--width", "4", "--matrices", "0", "--max-examples", "9"],
     "--matrices must be at least 1"),
    (["solve", "--algo", "online", "--eta", "0.1", "--blocks", "0",
      "--width", "4", "--matrices", "2", "--max-examples", "9"],
     "--blocks must be at least 1"),
    (["solve", "--algo", "online", "--eta", "0.1", "--blocks", "2",
      "--width", "-1", "--matrices", "2", "--max-examples", "9"],
     "--width must be at least 1"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1",
      "--max-examples", "-5"], "--max-examples must be nonnegative"),
])
def test_usage_errors_exit_one(tmp_path, capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


def test_in_conflicts_with_k(tmp_path, capsys):
    p = tmp_path / "c.lpn"
    run(capsys, "gen", "--k", "8", "--count", "5", "--eta", "0.0",
        "--seed", "1", "--out", str(p))
    code, _, err = run(capsys, "solve", "--algo", "mle", "--in", str(p),
                       "--k", "8")
    assert code == 1
    assert "--in replaces" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "solve", "--algo", "mle", "--in",
                       "/nonexistent/path.lpn")
    assert code == 2
    assert "error" in err


def test_malformed_file_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.lpn"
    p.write_text("LPN v1 k=8 eta=0.9 seed=0 count=0\n")
    code, _, err = run(capsys, "solve", "--algo", "mle", "--in", str(p))
    assert code == 2
    assert "line 1" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "solve", "--help")[0] == 0


def test_parse_seeds_forms():
    assert _parse_seeds("3") == [0, 1, 2]
    assert _parse_seeds("5,7") == [5, 7]
    assert _parse_seeds("4,") == [4]


# -- sq ---------------------------------------------------------------


def test_sq_dim_row(capsys):
    code, out, _ = run(capsys, "sq", "dim", "--class", "parity:3-of-3")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert list(row) == SQ_COLUMNS
    assert row["schema"] == "lpn-sq/1"
    assert row["d"] == "8"
    assert row["max_abs_correlation"] == "0.0"
    assert row["exact"] == "true"
    assert len(row["witness"].split(";")) == 8


def test_sq_reduce_row(capsys):
    code, out, _ = run(capsys, "sq", "reduce", "--class", "parity:2-of-4",
                       "--query", "labels-agree", "--seed", "5")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert row["mode"] == "reduce"
    assert row["query"] == "labels-agree"
    assert row["k"] == "2"
    assert row["outcome"] in ("estimate", "weak_hypothesis")
    if row["outcome"] == "estimate":
        assert row["estimate"] != "" and row["error_bound"] != ""
    else:
        assert row["advantage"] != ""


def test_sq_reduce_case_one_fires(capsys):
    code, out, _ = run(capsys, "sq", "reduce", "--class", "parity:1-of-4",
                       "--query", "label-is-first-coord", "--seed", "2")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert row["outcome"] in ("estimate", "weak_hypothesis")


def test_sq_basis_learn_row(capsys):
    code, out, _ = run(capsys, "sq", "basis-learn", "--class",
                       "parity:3-of-3", "--seed", "4")
    assert code == 0
    row = rows_from_csv(out)[0]
    assert row["match"] == "true"
    assert row["queries"] == "4"
    assert row["learned"].startswith("parity:")


def test_sq_deterministic(capsys):
    argv = ["sq", "basis-learn", "--class", "parity:4-of-4", "--seed", "9"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sq_unknown_class_exits_one(capsys):
    code, _, err = run(capsys, "sq", "dim", "--class", "mystery:3-of-3")
    assert code == 1
    assert "error" in err


def test_sq_json_format(capsys):
    code, out, _ = run(capsys, "sq", "dim", "--class", "parity:2-of-2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["d"] == 4


# -- bias -------------------------------------------------------------


def test_bias_report(capsys):
    code, out, _ = run(capsys, "bias", "--eta", "0.25", "--s", "2",
                       "--trials", "20000", "--seed", "1")
    assert code == 0
    assert "predicted  0.625" in out
    assert "OK" in out
