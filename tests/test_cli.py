import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcdist
from lrcdist import extremal
from lrcdist.cli import main
from lrcdist.errors import EnvelopeExceeded
from lrcdist.extremal import max_size_multigraph
from lrcdist.multigraph import ForbiddenFamily


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_exact(capsys):
    code, out, _ = run(capsys, "decide", "--n", "16", "--k", "9", "--r", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 6
    assert payload["rule"] == "real_n1m1"
    assert payload["status"] == "exact"
    assert payload["witness"]["order"] == 4
    assert len(payload["witness"]["edges"]) == 4
    assert payload["witness_almost_regular"] is True


def test_decide_d_star_minus_one(capsys):
    code, out, _ = run(capsys, "decide", "--n", "10", "--k", "4", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 5
    assert payload["rule"] == "k2_zero"
    assert payload["witness"] is None


def test_decide_invalid_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--n", "5", "--k", "4", "--r", "1")
    assert code == 2
    assert "error" in err


def test_decide_unresolved_exit_3(capsys):
    code, out, _ = run(
        capsys, "decide", "--n", "89", "--k", "45", "--r", "10", "--oracle-limit", "8"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "unresolved"
    assert payload["value"] == [payload["d_star"] - 1, payload["d_star"]]
    code, out, _ = run(
        capsys, "decide", "--n", "89", "--k", "45", "--r", "10", "--oracle-limit", "9"
    )
    assert code == 0
    assert json.loads(out)["rule"] == "oracle"
    # a girth key at n1 = 9 needs no limit
    code, out, _ = run(capsys, "decide", "--n", "98", "--k", "51", "--r", "11")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n1"], payload["status"], payload["rule"]) == (9, "exact", "girth_k2_eq_k1m1")


def test_construct_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    code, out, _ = run(
        capsys,
        "construct", "--n", "12", "--k", "7", "--r", "3", "--out", str(out_path),
    )
    assert code == 0
    assert "attempts=1" in out or "attempts=" in out
    assert out_path.exists()

    code, out, _ = run(capsys, "verify", "--code", str(out_path))
    assert code == 0
    assert out.count("pass") == 3


def test_construct_not_achievable_exit_4(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "construct", "--n", "10", "--k", "4", "--r", "2",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 4
    assert "error" in err


def test_construct_small_field_exit_5(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "construct", "--n", "16", "--k", "9", "--r", "4",
        "--field", "2", "--retries", "3", "--out", str(tmp_path / "x.json"),
    )
    assert code == 5
    assert "attempts=3" in err


def test_verify_detects_tampering(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    run(capsys, "construct", "--n", "12", "--k", "7", "--r", "3", "--out", str(out_path))
    data = json.loads(out_path.read_text())

    # zero an entry of a local row: locality check must fail
    tampered = json.loads(json.dumps(data))
    row = tampered["H"][0]
    col = next(j for j, x in enumerate(row) if x != 0)
    row[col] = 0
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    code, out, _ = run(capsys, "verify", "--code", str(bad_path))
    assert code == 1
    assert "locality: FAIL" in out

    # inflate the distance claim: mismatch must fail
    tampered = json.loads(json.dumps(data))
    tampered["claimed_distance"] += 1
    bad_path.write_text(json.dumps(tampered))
    code, out, _ = run(capsys, "verify", "--code", str(bad_path))
    assert code == 1
    assert "distance_matches_claim: FAIL" in out


def test_verify_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--code", str(path))
    assert code == 2


def test_verify_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    code, out, err = run(capsys, "verify", "--code", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_deeply_nested_json_exit_2(tmp_path, capsys):
    # json.load gives up on nesting past the recursion limit with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "verify", "--code", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_measures_a_claim_past_eight(tmp_path, capsys):
    # a claim above 8 is measured like any other: (20, 8, 1) has distance 6
    out_path = tmp_path / "code.json"
    run(capsys, "construct", "--n", "20", "--k", "8", "--r", "1", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["claimed_distance"] = 9
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--code", str(out_path))
    assert code == 1
    assert "distance_matches_claim: FAIL" in out
    assert "measured_distance: 6" in out


def test_verify_float_field_order_exit_2(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    run(capsys, "construct", "--n", "12", "--k", "7", "--r", "3", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["q"] = float(data["q"])
    out_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--code", str(out_path))
    assert code == 2
    assert err.startswith("error:")


def test_oracle_commands(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "eX", "--vertices", "4", "--forbid-order", "3", "--forbid-size", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4
    assert "exhaustive" not in payload
    assert len(payload["witness"]["edges"]) == 4

    code, out, _ = run(capsys, "oracle", "girth-ex", "--vertices", "5", "--girth-k", "4")
    assert json.loads(out)["value"] == 5

    code, out, _ = run(
        capsys,
        "oracle", "ex", "--vertices", "3", "--forbid-order", "3", "--forbid-size", "2",
    )
    assert json.loads(out)["value"] == 2


@pytest.mark.parametrize("argv", [
    ("oracle", "eX", "--vertices", "6", "--forbid-order", "4", "--forbid-size", "5"),
    ("oracle", "eX", "--vertices", "3", "--forbid-order", "2", "--forbid-size", "3"),
    ("oracle", "ex", "--vertices", "4", "--forbid-order", "2", "--forbid-size", "0"),
    ("oracle", "ex", "--vertices", "5", "--forbid-order", "3", "--forbid-size", "0"),
    ("oracle", "girth-ex", "--vertices", "7", "--girth-k", "4"),
    ("decide", "--n", "16", "--k", "9", "--r", "4"),
    ("decide", "--n", "89", "--k", "45", "--r", "10", "--oracle-limit", "8"),
    ("decide", "--n", "10", "--k", "4", "--r", "2"),
    ("decide", "--n", "221", "--k", "41", "--r", "10"),
])
def test_oracle_output_is_the_indented_json_dump(capsys, argv):
    # the edge list is written by hand, byte for byte as json.dumps writes it:
    # repeated pairs, a one-edge-per-pair witness and the empty list; a decide
    # record also has a witness, an unresolved interval, no witness, or a note
    code, out, _ = run(capsys, *argv)
    assert code == (3 if json.loads(out).get("status") == "unresolved" else 0)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_oracle_envelope_exit_2(capsys):
    code, _, err = run(
        capsys,
        "oracle", "eX", "--vertices", "12", "--forbid-order", "3", "--forbid-size", "2",
    )
    assert code == 2


@pytest.mark.parametrize("vertices,forbid_order", [(4, 2), (5, 3)])
def test_oracle_refuses_a_huge_witness_at_once(vertices, forbid_order):
    # averaging caps of 6·10^9 and 3.3·10^9 edges: the order-2 witness would
    # print for hours, and the order-3 walk would ask for one more edge 10^9
    # times; a separate interpreter with bounded memory keeps a regression
    # from stalling the suite or filling the machine
    argv = ("--vertices", str(vertices), "--forbid-order", str(forbid_order), "--forbid-size", str(10**9))
    done = run_subprocess("oracle", "eX", *argv, timeout=10, max_memory=2**30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and "exceeds the limit" in done.stderr
    start = time.process_time()
    with pytest.raises(EnvelopeExceeded):
        max_size_multigraph(vertices, ForbiddenFamily(forbid_order, 10**9))
    assert time.process_time() - start < 1.0


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "12", "--r-max", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))

    # independent count of the valid triple space
    expected = 0
    for n in range(2, 13):
        for k in range(1, n):
            for r in range(1, min(k, 3) + 1):
                if n - k >= -(-k // r):
                    expected += 1
    assert len(rows) == expected

    by_key = {(int(t["n"]), int(t["k"]), int(t["r"])): t for t in rows}
    assert by_key[(12, 7, 3)]["value"] == "4"
    for t in rows:
        if t["status"] == "exact":
            assert int(t["value"]) in (int(t["d_star"]) - 1, int(t["d_star"]))
    # stable lexicographic order
    keys = [(int(t["n"]), int(t["k"]), int(t["r"])) for t in rows]
    assert keys == sorted(keys)


def json_out(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


@lru_cache(maxsize=None)
def sweep_rows():
    code, rows = json_out("sweep", "--n-max", "60", "--r-max", "8", "--format", "json")
    assert code == 0
    return tuple(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decide_agrees_with_its_sweep_row(data):
    row = data.draw(st.sampled_from(sweep_rows()))
    code, decided = json_out("decide", "--n", str(row["n"]), "--k", str(row["k"]), "--r", str(row["r"]))
    assert code == (0 if row["status"] == "exact" else 3)
    assert {key: decided[key] for key in row} == row


def test_decide_witness_feeds_density_tooling(capsys):
    # the serialized witness must round-trip into the graph tooling and
    # actually certify the decision
    from lrcdist.multigraph import ForbiddenFamily, is_family_free, multigraph_from_json

    code, out, _ = run(capsys, "decide", "--n", "19", "--k", "11", "--r", "5")
    payload = json.loads(out)
    g = multigraph_from_json(payload["witness"])
    assert g.order == payload["n1"]
    assert g.size == payload["n2"]
    assert is_family_free(g, ForbiddenFamily(payload["k1"], payload["k2"]))


def test_sweep_json_agrees_with_decide(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "10", "--r-max", "2", "--format", "json")
    rows = json.loads(out)
    for t in rows[:10]:
        code, out, _ = run(
            capsys, "decide", "--n", str(t["n"]), "--k", str(t["k"]), "--r", str(t["r"])
        )
        d = json.loads(out)
        assert d["value"] == t["value"]
        assert d["rule"] == t["rule"]


def test_sweep_json_is_the_indented_dump_written_a_length_at_a_time(capsys):
    # 29 lengths, with unresolved intervals and every regularity flag among the records
    code, out, _ = run(capsys, "sweep", "--n-max", "30", "--r-max", "6", "--oracle-limit", "0", "--format", "json")
    assert code == 0
    assert "unresolved" in {row["status"] for row in json.loads(out)}
    # line by line: pytest takes minutes to explain a mismatch between two long strings
    assert out.split("\n") == (json.dumps(json.loads(out), indent=2) + "\n").split("\n")
    assert run(capsys, "sweep", "--n-max", "1", "--r-max", "1", "--format", "json") == (0, "[]\n", "")
    # the first row is decided before anything is written
    code, out, err = run(capsys, "sweep", "--n-max", "5", "--r-max", "2", "--format", "json", "--oracle-limit", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "oracle limit" in err


def run_subprocess(*argv, timeout=60, max_memory=None):
    # a separate interpreter, so a hang fails the test instead of stalling the
    # suite; max_memory (bytes of address space) makes a runaway allocation fail it too
    src = os.path.dirname(os.path.dirname(lrcdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    limit = None
    if max_memory is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))
    return subprocess.run(
        [sys.executable, "-m", "lrcdist", *argv],
        env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=limit,
    )


def test_girth_oracle_answers_a_huge_girth_bound_at_once():
    # no cycle fits in 10 vertices when k >= 10, so the Moore cap is a
    # forest's 9 edges without the bound's walk, whose cost grows as k**3
    done = run_subprocess("oracle", "girth-ex", "--vertices", "10", "--girth-k", "1000000", timeout=10)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["value"] == 9 and len(payload["witness"]["edges"]) == 9


def test_decide_forest_and_cycle_rules_need_no_subset_sweep():
    # C(30, 15) = 155,117,520 k1-subsets: the rules must settle these by arithmetic
    cases = (((610, 286, 20), "forest_n2_lt_n1"), ((900, 436, 30), "cycle_n2_eq_n1"))
    for (n, k, r), rule in cases:
        done = run_subprocess("decide", "--n", str(n), "--k", str(k), "--r", str(r))
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert (payload["n1"], payload["k1"]) == (30, 15)
        assert payload["status"] == "exact"
        assert payload["value"] == payload["d_star"]
        assert payload["rule"] == rule
    # n1 near 10^11 with n2 <= 10: every witness, its self-check and its
    # regularity flag must cost O(n2), one key for each rule that reaches them
    cases = ((10, 10, "k1_eq_1"), (11, 10, "k1_eq_2"), (12, 11, "n2_le_k2"), (21, 10, "forest_n2_lt_n1"),
             (28, 10, "mantel"), (29, 10, "forest_k2_lt_k1m1"), (35, 10, "turan_sufficient"))
    for k, r, rule in cases:
        done = run_subprocess("decide", "--n", str(10**12), "--k", str(k), "--r", str(r),
                              timeout=30, max_memory=2**30)
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert (payload["status"], payload["rule"], payload["notes"]) == ("exact", rule, [])
        assert payload["value"] == payload["d_star"]
        assert len(payload["witness"]["edges"]) == payload["n2"]


def test_decide_skips_the_self_check_without_printing_a_huge_binomial():
    # C(15000, 7500) has 4,513 digits, more than Python converts to a string
    # by default; the note must bound it instead of printing it.  The cycle
    # witness is no forest, so the kernel would walk the subsets.
    done = run_subprocess("decide", "--n", "225000000", "--k", "112492501", "--r", "15000", timeout=30)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["n1"], payload["n2"], payload["k1"], payload["k2"]) == (15000, 15000, 7500, 7499)
    assert (payload["status"], payload["rule"]) == ("exact", "cycle_n2_eq_n1")
    assert payload["notes"] == ["witness self-check skipped: C(15000, 7500) > 20000"]
    # the empty witness at the same n1 and k1 is settled by its size
    done = run_subprocess("decide", "--n", "30000", "--k", "7500", "--r", "1", timeout=30)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["n1"], payload["k1"], payload["status"]) == (15000, 7500, "exact")
    assert payload["notes"] == []


def test_construct_outside_distance_envelope_exit_2(tmp_path):
    # (60, 30, 5) decides d* at once; the envelope must reject it before any
    # field is chosen or any matrix is built
    out_path = tmp_path / "x.json"
    done = run_subprocess(
        "construct", "--n", "60", "--k", "30", "--r", "5", "--out", str(out_path)
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "n <= 20" in done.stderr
    assert not out_path.exists()


def test_construct_past_distance_eight(capsys, tmp_path):
    # (20, 4, 4) has d* = 17: construct builds it, and verify measures 17
    out_path = tmp_path / "x.json"
    code, out, _ = run(capsys, "construct", "--n", "20", "--k", "4", "--r", "4", "--out", str(out_path))
    assert code == 0
    assert "distance=17" in out
    code, out, _ = run(capsys, "verify", "--code", str(out_path))
    assert code == 0
    assert "distance_matches_claim: pass" in out
    assert "measured_distance: 17" in out


def test_construct_field_beyond_int64_exit_2(capsys, tmp_path):
    out_path = tmp_path / "x.json"
    code, _, err = run(
        capsys,
        "construct", "--n", "12", "--k", "7", "--r", "3",
        "--field", "8589934609", "--out", str(out_path),
    )
    assert code == 2
    assert "int64" in err
    assert not out_path.exists()


def test_verify_field_beyond_int64_exit_2(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    run(capsys, "construct", "--n", "12", "--k", "7", "--r", "3", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["q"] = 8589934609  # prime, and every entry of H still lies in [0, q)
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--code", str(out_path))
    assert code == 2
    assert out == ""
    assert "int64" in err


def test_verify_mistyped_code_json_exit_2(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    run(capsys, "construct", "--n", "12", "--k", "7", "--r", "3", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    for key, value in (("H", 1.5), ("claimed_distance", "4")):
        tampered = json.loads(json.dumps(data))
        if key == "H":
            tampered["H"][0][0] = value
        else:
            tampered[key] = value
        out_path.write_text(json.dumps(tampered))
        code, out, err = run(capsys, "verify", "--code", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_decide_refuses_a_witness_past_the_edge_limit():
    # one pair of 10^21 - 18 edges, and 19,999,982 edges on two vertices: the
    # witness costs its pairs, but its edge list would not fit in memory or
    # would take seconds and hundreds of MB to write
    for n, k in ((10**21, 10**21 - 10), (20_000_000, 19_999_990)):
        done = run_subprocess("decide", "--n", str(n), "--k", str(k), "--r", str(k),
                              timeout=20, max_memory=2**30)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("error:")
        assert f"limit of {extremal.WITNESS_EDGE_LIMIT} edges" in done.stderr


def test_construct_has_no_oracle_limit_option():
    done = run_subprocess("construct", "--n", "16", "--k", "9", "--r", "4", "--oracle-limit", "8")
    assert done.returncode == 2
    assert "--oracle-limit" in done.stderr


def test_oracle_missing_required_option_exit_2():
    for argv, option in (
        (("eX", "--vertices", "4", "--forbid-order", "3"), "--forbid-size"),
        (("girth-ex", "--vertices", "4"), "--girth-k"),
    ):
        done = run_subprocess("oracle", *argv)
        assert done.returncode == 2
        assert option in done.stderr


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--retries", "0"), ("--retries", "-2")])
def test_construct_bad_seed_or_retries_exit_2(capsys, tmp_path, monkeypatch, option, value):
    # rejected before the instance is decided or a Tanner graph is built
    def refuse(*args, **kwargs):
        raise AssertionError("decide ran for a construct call with a bad argument")

    monkeypatch.setattr(lrcdist.codec, "decide", refuse)
    out_path = tmp_path / "x.json"
    code, _, err = run(
        capsys,
        "construct", "--n", "12", "--k", "7", "--r", "3", option, value, "--out", str(out_path),
    )
    assert code == 2
    assert err.startswith("error:") and option[2:] in err
    assert not out_path.exists()


def test_negative_oracle_limit_exit_2(capsys):
    for command in ("decide", "sweep"):
        argv = ("--n", "89", "--k", "45", "--r", "10") if command == "decide" else ("--n-max", "5", "--r-max", "2")
        code, out, err = run(capsys, command, *argv, "--oracle-limit", "-1")
        assert (code, out) == (2, ""), command
        assert err.startswith("error:") and "oracle limit" in err, command
