import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcdist
from lrcdist.cli import main


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
        capsys, "decide", "--n", "98", "--k", "51", "--r", "11", "--oracle-limit", "8"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "unresolved"
    assert payload["value"] == [payload["d_star"] - 1, payload["d_star"]]


def test_oracle_limit_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LRC_ORACLE_LIMIT", "10")
    code, out, _ = run(capsys, "decide", "--n", "98", "--k", "51", "--r", "11")
    assert code == 0
    assert json.loads(out)["status"] == "exact"


def test_oracle_limit_env_var_rejects_non_integer(capsys, monkeypatch):
    monkeypatch.setenv("LRC_ORACLE_LIMIT", "abc")
    code, out, err = run(capsys, "decide", "--n", "16", "--k", "9", "--r", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "LRC_ORACLE_LIMIT" in err


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
    assert payload["exhaustive"] is True
    assert len(payload["witness"]["edges"]) == 4

    code, out, _ = run(capsys, "oracle", "girth-ex", "--vertices", "5", "--girth-k", "4")
    assert json.loads(out)["value"] == 5

    code, out, _ = run(
        capsys,
        "oracle", "ex", "--vertices", "3", "--forbid-order", "3", "--forbid-size", "2",
    )
    assert json.loads(out)["value"] == 2


def test_oracle_envelope_exit_2(capsys):
    code, _, err = run(
        capsys,
        "oracle", "eX", "--vertices", "12", "--forbid-order", "3", "--forbid-size", "2",
    )
    assert code == 2


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


def run_subprocess(*argv, timeout=60):
    # a separate interpreter, so a hang fails the test instead of stalling the suite
    src = os.path.dirname(os.path.dirname(lrcdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "lrcdist", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


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


def test_decide_skips_the_self_check_without_printing_a_huge_binomial():
    # C(15000, 7500) has 4,513 digits, more than Python converts to a string
    # by default; the note must bound it instead of printing it
    done = run_subprocess("decide", "--n", "30000", "--k", "7500", "--r", "1", timeout=30)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["n1"], payload["k1"], payload["status"]) == (15000, 7500, "exact")
    assert payload["notes"] == ["witness self-check skipped: C(15000, 7500) > 20000"]


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
