"""End-to-end checks of the command line interface via main(argv)."""

import csv
import io
import json
import time

import numpy as np
import pytest

from lpn import cli
from lpn import sq as sqmod
from lpn.cli import SOLVE_COLUMNS, SQ_COLUMNS, _parse_seeds, main
from lpn.gf2 import unpack_words
from lpn.instance import new_source
from lpn.instfile import read_instance
from lpn.solvers import xor_chain_oracle


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
    for word, label in zip(data.words[:, 0].tolist(), data.labels):
        assert (word & data.target.bits).bit_count() & 1 == label


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


@pytest.mark.parametrize("k", [7, 70])
def test_draw_samples_match_the_rows_drawn(k):
    # mle and gauss take the examples as row words
    bits, labels, _ = new_source(k, 0.1, seed=4).draw_batch(5000)
    words, got, _ = new_source(k, 0.1, seed=4).draw_batch(5000, packed=True)
    assert words.shape == (5000, -(-k // 64))
    assert np.array_equal(unpack_words(words, k), bits)
    assert np.array_equal(got, labels)


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


def rows_without_time(text):
    rows = rows_from_csv(text)
    for row in rows:
        row.pop("wall_time_ms")
    return rows


def test_solve_rows_are_deterministic(capsys):
    argv = ["solve", "--algo", "mle", "--k", "8", "--eta", "0.125",
            "--seeds", "2", "--max-examples", "200"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert rows_without_time(first) == rows_without_time(second)


def test_solve_worker_pool_matches_serial(capsys, monkeypatch):
    argv = ["solve", "--algo", "mle", "--k", "8", "--eta", "0.125",
            "--seeds", "3", "--max-examples", "200"]
    monkeypatch.setenv("LPN_THREADS", "1")
    _, serial, _ = run(capsys, *argv)
    monkeypatch.setenv("LPN_THREADS", "2")
    _, pooled, _ = run(capsys, *argv)
    assert rows_without_time(pooled) == rows_without_time(serial)


def test_non_integer_thread_count_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LPN_THREADS", "x")
    code, out, err = run(capsys, "solve", "--algo", "gauss", "--k", "8",
                         "--eta", "0")
    assert code == 1 and out == ""
    assert "LPN_THREADS must be an integer, not 'x'" in err


@pytest.mark.parametrize("algo,extra", [
    ("bkw", ["--k", "8", "--eta", "0.125"]),
    ("mle", ["--k", "8", "--eta", "0.125", "--max-examples", "200"]),
    ("gauss", ["--k", "8", "--eta", "0.0"]),
    ("online", ["--eta", "0.125", "--blocks", "2", "--width", "4",
                "--matrices", "2", "--max-examples", "500"]),
])
def test_every_algo_reports_its_wall_time(capsys, algo, extra):
    for fmt, parse in (("csv", rows_from_csv), ("json", json.loads)):
        code, out, _ = run(capsys, "solve", "--algo", algo, *extra,
                           "--seeds", "2", "--format", fmt)
        assert code == 0
        rows = parse(out)
        assert len(rows) == 2
        assert all(float(row["wall_time_ms"]) > 0 for row in rows)


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
    # the merge draws nothing, so the same rows give the same solve
    assert all({**r, "seed": "0"} == rows[0] for r in rows)


def test_solve_budget_exceeded_exit_code(tmp_path, capsys):
    p = tmp_path / "tiny.lpn"
    run(capsys, "gen", "--k", "8", "--count", "10", "--eta", "0.0",
        "--seed", "1", "--out", str(p))
    code, out, _ = run(capsys, "solve", "--algo", "mle", "--in", str(p))
    assert code == 3
    assert rows_from_csv(out)[0]["status"] == "budget_exceeded"


def test_bkw_predicted_past_2_40_examples_is_refused(capsys):
    # layout 3x14 and 1,336,922,346 votes per bit: about 2.98e15 examples
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve", "--algo", "bkw", "--k", "40",
                         "--eta", "0.45")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert "2.98e+15 examples" in err and "--max-examples" in err
    # a cap keeps the solve, which then runs into it
    code, out, _ = run(capsys, "solve", "--algo", "bkw", "--k", "40",
                       "--eta", "0.45", "--max-examples", "1000")
    assert code == 3
    assert rows_from_csv(out)[0]["status"] == "budget_exceeded"


@pytest.mark.parametrize("argv, a, eta", [
    (["--k", "22", "--eta", "0.25", "--a", "11", "--b", "2", "--seeds", "1"],
     11, 0.25),
    (["--k", "62", "--eta", "0.45", "--a", "62", "--b", "1"], 62, 0.45),
])
def test_bkw_vote_count_underflow_is_one_line(capsys, argv, a, eta):
    # (1-2*eta)^(2^a) underflows to 0.0 here; the vote rule once divided
    # by it and the command ended in a ZeroDivisionError traceback
    code, out, err = run(capsys, "solve", "--algo", "bkw", *argv)
    assert code == 1 and out == ""
    assert err == (f"error: a={a} with eta={eta} needs an infeasible "
                   "number of votes\n")


@pytest.mark.parametrize("k", [61, 62])
def test_bkw_at_k61_and_62_takes_a_fitting_layout(capsys, k):
    code, out, err = run(capsys, "solve", "--algo", "bkw", "--k", str(k),
                         "--eta", "0.1", "--max-examples", "1000")
    assert code == 3 and err == ""
    row = rows_from_csv(out)[0]
    assert (row["a"], row["b"], row["status"]) == ("2", "31", "budget_exceeded")


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


@pytest.mark.parametrize("algo,extra,status,success,solves", [
    ("bkw", [], "recovered", "true", True),
    ("mle", [], "recovered", "", True),
    ("gauss", [], "solved", "true", True),
    ("online", ["--blocks", "2", "--width", "4", "--matrices", "2",
                "--max-examples", "100"], "completed", "", False),
])
def test_file_without_target_rows(tmp_path, capsys, algo, extra, status,
                                  success, solves):
    # the same seed draws the same rows with and without the TARGET line
    bare, marked = tmp_path / "bare.lpn", tmp_path / "marked.lpn"
    for path, flag in ((bare, []), (marked, ["--with-target"])):
        run(capsys, "gen", "--k", "8", "--count", "5000", "--eta", "0.0",
            "--seed", "6", "--out", str(path), *flag)
    target = read_instance(str(marked)).target.to_bytes_le().hex()
    code, out, _ = run(capsys, "solve", "--algo", algo, "--in", str(bare),
                       *extra)
    assert code == 0
    row = rows_from_csv(out)[0]
    assert (row["status"], row["success"]) == (status, success)
    assert row["target"] == ""
    assert row["c_hat"] == (target if solves else "")


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
    (["solve", "--algo", "bkw", "--k", "8", "--eta", "0.1",
      "--a", "2", "--b", "32"], "62-bit limit"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1",
      "--max-examples", "0"], "--max-examples must be positive for mle"),
    (["solve", "--algo", "gauss", "--k", "8", "--eta", "0.1",
      "--max-examples", "0"], "--max-examples must be positive for gauss"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1",
      "--seeds", "1,a"], "--seeds takes a count or a comma-separated list"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1",
      "--seeds", "two"], "--seeds takes a count or a comma-separated list"),
    (["gen", "--k", "8", "--count", "-1", "--eta", "0.1",
      "--out", "/nonexistent/x.lpn"],
     "--count must be nonnegative"),
    (["solve", "--algo", "bkw", "--k", "8", "--eta", "0.1", "--delta", "7"],
     "--delta must lie in (0, 1)"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1", "--delta", "7"],
     "--delta must lie in (0, 1)"),
    (["solve", "--algo", "gauss", "--k", "8", "--eta", "0.1", "--delta", "0"],
     "--delta must lie in (0, 1)"),
    (["solve", "--algo", "online", "--eta", "0.1", "--blocks", "2",
      "--width", "4", "--matrices", "2", "--max-examples", "9",
      "--delta", "nan"], "--delta must lie in (0, 1)"),
    (["solve", "--algo", "bkw", "--k", "8", "--eta", "0.1",
      "--profile", "balanced"], "unrecognized arguments: --profile"),
])
def test_usage_errors_exit_one(tmp_path, capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


BIG_K = str(1 << 40)


@pytest.mark.parametrize("argv, fragment", [
    (["--algo", "mle", "--k", BIG_K, "--eta", "0.1"], "mle is capped at k=26"),
    (["--algo", "bkw", "--k", BIG_K, "--eta", "0.1", "--a", "2",
      "--b", str(1 << 39)], "62-bit limit of bkw"),
    # the depth scan of choose_parameters once ran to k
    (["--algo", "bkw", "--k", "10000000", "--eta", "0.001"],
     "62-bit limit of bkw"),
    (["--algo", "online", "--eta", "0.1", "--blocks", BIG_K, "--width", "1",
      "--matrices", "1", "--max-examples", "10"], "62-bit example limit"),
    (["--algo", "online", "--k", BIG_K, "--eta", "0.1", "--blocks", "2",
      "--width", "4", "--matrices", "1", "--max-examples", "10"],
     "need g*w=8"),
    (["--algo", "mle", "--in", "{file}"], "mle is capped at k=26"),
    (["--algo", "bkw", "--in", "{file}", "--a", "2", "--b", "32"],
     "62-bit limit of bkw"),
    (["--algo", "online", "--in", "{file}", "--blocks", "32", "--width", "2",
      "--matrices", "1"], "62-bit example limit"),
    (["--algo", "gauss", "--k", BIG_K, "--eta", "0"],
     "gauss is capped at k=4096"),
    (["--algo", "gauss", "--k", "4097", "--eta", "0"],
     "gauss is capped at k=4096"),
    (["--algo", "gauss", "--in", "{wide}"], "gauss is capped at k=4096"),
])
def test_refused_solves_build_no_source(tmp_path, monkeypatch, capsys, argv,
                                        fragment):
    # a live source draws its k-bit target first: 1 TiB at k = 2^40
    path = tmp_path / "k30.lpn"
    run(capsys, "gen", "--k", "30", "--count", "5", "--eta", "0.1",
        "--out", str(path))
    wide = tmp_path / "k4097.lpn"
    run(capsys, "gen", "--k", "4097", "--count", "2", "--eta", "0",
        "--out", str(wide))

    def build(*args, **kwargs):
        raise AssertionError("a source was built for a refused solve")

    monkeypatch.setattr(cli, "new_source", build)
    monkeypatch.setattr(cli, "replay_source", build)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve",
                         *[a.format(file=path, wide=wide) for a in argv])
    assert time.perf_counter() - t0 < 0.5
    assert code == 1 and out == ""
    assert fragment in err and err.count("\n") == 1


@pytest.mark.parametrize("name, argv", [
    # a 1.00 TiB target draw
    ("generate_instance", ["gen", "--k", str(1 << 40), "--count", "0",
                           "--eta", "0.1", "--out", "{out}"]),
    # a 7.28 TiB row of flips
    ("xor_chain_oracle", ["bias", "--eta", "0.1", "--s", str(10**12),
                          "--trials", "1"]),
])
def test_memory_errors_exit_one(tmp_path, monkeypatch, capsys, name, argv):
    # stubbed: on a host that overcommits memory, a real allocation of
    # that size can meet the OOM killer instead of raising
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(cli, name, refuse)
    out_path = tmp_path / "big.lpn"
    code, out, err = run(capsys, *[a.format(out=out_path) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1
    assert not out_path.exists()


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


@pytest.mark.parametrize("text,fragment", [
    (b"LPN v1 k=8 eta=0.1 seed=0 count=1\n\xff1 1\n",
     "line 2: non-ASCII byte 0xff"),
    (b"LPN v1 k=100000000000000 eta=0.1 seed=0 count=1\n01 1\n",
     "line 2: expected 25000000000000 hex digits"),
])
def test_unreadable_file_exits_two_without_rows(tmp_path, capsys, text, fragment):
    p = tmp_path / "bad.lpn"
    p.write_bytes(text)
    code, out, err = run(capsys, "solve", "--algo", "mle", "--in", str(p),
                         "--max-examples", "1")
    assert code == 2
    assert out == ""  # no row: nothing was drawn
    assert fragment in err


@pytest.mark.parametrize("algo,extra,status", [
    ("bkw", [], "recovered"),
    ("mle", ["--max-examples", "500"], "recovered"),
    ("gauss", ["--max-examples", "200"], "inconsistent"),
    ("online", ["--blocks", "2", "--width", "4", "--matrices", "2",
                "--max-examples", "3000"], "completed"),
])
def test_crlf_and_uppercase_files_give_the_canonical_rows(
    tmp_path, capsys, monkeypatch, algo, extra, status
):
    canonical = tmp_path / "canonical.lpn"
    run(capsys, "gen", "--k", "8", "--count", "30000", "--eta", "0.125",
        "--seed", "4", "--out", str(canonical), "--with-target")
    raw = canonical.read_bytes()
    head, _, body = raw.partition(b"\n")
    crlf, upper = tmp_path / "crlf.lpn", tmp_path / "upper.lpn"
    crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
    upper.write_bytes(head + b"\n" + body.upper())
    results = []
    for path in (canonical, crlf, upper):
        for threads in ("1", "2"):
            monkeypatch.setenv("LPN_THREADS", threads)
            code, out, _ = run(capsys, "solve", "--algo", algo, "--in", str(path),
                               "--seeds", "2", *extra)
            rows = rows_from_csv(out)
            for row in rows:
                row.pop("wall_time_ms")
            results.append((code, rows))
    assert all(r == results[0] for r in results)
    code, rows = results[0]
    assert code == 0
    assert [r["status"] for r in rows] == [status, status]
    assert all(int(r["examples_used"]) > 0 for r in rows)


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "solve", "--help")[0] == 0


def test_parse_seeds_forms():
    assert _parse_seeds("3") == [0, 1, 2]
    assert _parse_seeds("5,7") == [5, 7]
    assert _parse_seeds("4,") == [4]


@pytest.mark.parametrize("argv,flag", [
    (["gen", "--k", "8", "--count", "5", "--eta", "0.1", "--seed", "-1",
      "--out", "OUT"], "--seed"),
    (["bias", "--eta", "0.1", "--s", "3", "--seed", "-2"], "--seed"),
    (["solve", "--algo", "mle", "--k", "8", "--eta", "0.1", "--seeds=-1,"],
     "--seeds"),
    (["solve", "--algo", "bkw", "--in", "IN", "--seeds", "0,-3"], "--seeds"),
])
def test_negative_seeds_are_usage_errors(tmp_path, capsys, argv, flag):
    # numpy's "expected non-negative integer" once named no flag
    path = tmp_path / "in.lpn"
    run(capsys, "gen", "--k", "8", "--count", "50", "--eta", "0.0",
        "--out", str(path))
    argv = [{"OUT": str(tmp_path / "out.lpn"), "IN": str(path)}.get(a, a)
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"{flag} must be nonnegative" in err
    assert not (tmp_path / "out.lpn").exists()


def test_negative_seeds_are_refused_below_the_cli():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        new_source(8, 0.1, seed=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        xor_chain_oracle(0.1, 3, trials=10, seed=-1)


def test_sq_accepts_a_negative_seed(capsys):
    code, out, _ = run(capsys, "sq", "reduce", "--class", "parity:2-of-4",
                       "--seed", "-3", "--tuples", "5")
    assert code == 0
    assert rows_from_csv(out)[0]["seed"] == "-3"


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


def test_sq_dim_refuses_a_class_too_large_to_hold(monkeypatch, capsys):
    # refused before any concept is built: parity:20-of-20 once built
    # all 1,048,576 concepts (seconds, 0.5 GB) before sq_dimension
    # refused them
    def build(mask, n):
        raise AssertionError("a concept was built")

    monkeypatch.setattr(sqmod, "parity_concept", build)
    for j in (13, 20):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sq", "dim", "--class", f"parity:{j}-of-{j}")
        assert time.perf_counter() - t0 < 0.5
        assert code == 1 and out == ""
        assert err == (f"error: {1 << j} concepts exceed sq_dimension's limit "
                       "of MAX_DIM_CONCEPTS=4096\n")


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


def test_sq_basis_learn_draws_its_target_from_the_class(capsys):
    # parity:2-of-4 holds the four parities on coordinates 1 and 2
    seen = set()
    for seed in range(8):
        code, out, _ = run(capsys, "sq", "basis-learn", "--class",
                           "parity:2-of-4", "--seed", str(seed))
        assert code == 0
        row = rows_from_csv(out)[0]
        assert row["target"][len("parity:"):][2:] == "00"
        assert row["learned"] == row["target"] and row["match"] == "true"
        seen.add(row["target"])
    assert len(seen) > 1


def test_sq_basis_learn_full_class_keeps_its_rows(capsys):
    # on parity:n-of-n the class draw is the old mask draw
    expected = {0: "parity:0111", 1: "parity:1101", 2: "parity:0111"}
    for seed, target in expected.items():
        _, out, _ = run(capsys, "sq", "basis-learn", "--class",
                        "parity:4-of-4", "--seed", str(seed))
        row = rows_from_csv(out)[0]
        assert (row["target"], row["learned"]) == (target, target)


def test_sq_basis_learn_refuses_a_non_parity_class(capsys):
    code, out, err = run(capsys, "sq", "basis-learn", "--class",
                         "conjunction:3-of-3")
    assert code == 1 and out == ""
    assert "--class" in err


@pytest.mark.parametrize("tuples", ["0", "-3"])
def test_sq_tuples_below_one_is_a_usage_error(capsys, tuples):
    code, out, err = run(capsys, "sq", "reduce", "--class", "parity:2-of-4",
                         "--tuples", tuples)
    assert code == 1 and out == ""
    assert "--tuples" in err


def test_sq_unknown_class_exits_one(capsys):
    code, _, err = run(capsys, "sq", "dim", "--class", "mystery:3-of-3")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("mode", ["dim", "reduce", "basis-learn"])
def test_sq_too_wide_class_is_a_usage_error(capsys, mode):
    code, out, err = run(capsys, "sq", mode, "--class", "parity:1-of-40")
    assert code == 1 and out == ""
    assert "--class" in err and "MAX_CLASS_WIDTH=20" in err


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
