import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

from hornsep.cli import main

DATA = pathlib.Path(__file__).parent / "data"

ADVISOR = [
    "--t1", str(DATA / "advisor_t1.tbox"),
    "--t2", str(DATA / "advisor_t2.tbox"),
    "--sigma-a", str(DATA / "advisor_abox.sig"),
    "--sigma-q", str(DATA / "advisor_query.sig"),
]


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_check_non_entailment_exit_code(runner):
    res = invoke(runner, "check", *ADVISOR)
    assert res.exit_code == 1
    assert "entails: false" in res.output


def test_check_entailment_exit_code(runner, tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("A sub B\n")
    res = invoke(
        runner, "check", "--t1", str(t), "--t2", str(t),
        "--sigma-a", str(DATA / "advisor_abox.sig"),
        "--sigma-q", str(DATA / "advisor_query.sig"),
    )
    assert res.exit_code == 0


def test_check_json_output(runner):
    res = invoke(runner, "check", "--json", *ADVISOR)
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["entails"] is False
    assert obj["precheck"] == {"ri": True}


def test_check_verify_witness(runner):
    res = invoke(
        runner, "check", "--json", "--verify-witness",
        "--oracle-max-ind", "2", "--oracle-max-vars", "1", *ADVISOR
    )
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["witness_verified"] is True
    assert "adv(a0,a1)" in obj["witness"]["abox"]


def test_check_ri_precheck_exit_two(runner, tmp_path):
    t1 = tmp_path / "t1.tbox"
    t1.write_text("")
    t2 = tmp_path / "t2.tbox"
    t2.write_text("r subr s\n")
    sig = tmp_path / "sig"
    sig.write_text("concepts:\nroles: r s\n")
    res = invoke(
        runner, "check", "--t1", str(t1), "--t2", str(t2),
        "--sigma-a", str(sig), "--sigma-q", str(sig),
    )
    assert res.exit_code == 2


def test_check_deductive_precondition_exit_two(runner):
    res = invoke(runner, "check", "--mode", "deductive", *ADVISOR)
    assert res.exit_code == 2
    assert "error:" in res.output


def test_missing_file_exit_ten(runner):
    res = invoke(
        runner, "check", "--t1", "/nonexistent", "--t2", "/nonexistent",
        "--sigma-a", "/nonexistent", "--sigma-q", "/nonexistent",
    )
    assert res.exit_code == 10


def test_parse_error_exit_ten(runner, tmp_path):
    bad = tmp_path / "bad.tbox"
    bad.write_text("A sub\n")
    res = invoke(
        runner, "check", "--t1", str(bad), "--t2", str(bad),
        "--sigma-a", str(bad), "--sigma-q", str(bad),
    )
    assert res.exit_code == 10


def test_usage_error_exit_ten(runner):
    res = invoke(runner, "check", "--t1", "t1.tbox")
    assert res.exit_code == 10
    assert "error: Missing option" in res.output
    res = invoke(runner, "check", "--mode", "bogus", *ADVISOR)
    assert res.exit_code == 10
    assert "error: Invalid value for '--mode'" in res.output


def test_bare_invocation_prints_help(runner):
    res = runner.invoke(main, [])
    assert res.exit_code != 10
    assert "Commands:" in res.output and "error:" not in res.output


def test_malformed_limit_variable_exit_ten(runner):
    for env in ({"HORNSEP_TIME_LIMIT": "abc"}, {"HORNSEP_MEMORY_MB": "1.5"}):
        res = runner.invoke(main, ["check", *ADVISOR], env=env,
                            catch_exceptions=False)
        assert res.exit_code == 10, env
        assert "error: HORNSEP_" in res.output


def test_negative_time_limit_exit_ten(runner):
    res = invoke(runner, "check", "--time-limit", "-3", *ADVISOR)
    assert res.exit_code == 10
    assert "error: --time-limit" in res.output


def test_oracle_finds_witness(runner):
    res = invoke(
        runner, "oracle", "--max-abox", "2", "--max-cq", "1", *ADVISOR
    )
    assert res.exit_code == 1
    assert "Prof" in res.output


def test_oracle_none_within_bounds(runner, tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("")
    res = invoke(
        runner, "oracle", "--json", "--max-abox", "1", "--max-cq", "1",
        "--t1", str(t), "--t2", str(t),
        "--sigma-a", str(DATA / "advisor_abox.sig"),
        "--sigma-q", str(DATA / "advisor_query.sig"),
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["witness"] is None


def test_materialize_outputs_model(runner, tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("r subr s\n")
    a = tmp_path / "a.abox"
    a.write_text("r(a,b)\n")
    res = invoke(
        runner, "materialize", "--tbox", str(t), "--abox", str(a),
        "--depth", "0",
    )
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert ["a", "r", "b"] in obj["edges"]
    assert ["a", "s", "b"] in obj["edges"]


def test_materialize_inconsistent_exit_two(runner, tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("A sub bot\n")
    a = tmp_path / "a.abox"
    a.write_text("A(x)\n")
    res = invoke(
        runner, "materialize", "--tbox", str(t), "--abox", str(a)
    )
    assert res.exit_code == 2


def test_automaton_summary(runner):
    res = invoke(runner, "automaton", "--json", *ADVISOR)
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["states"] > 0 and obj["labels"] > 0
    assert obj["max_priority"] == 1


def test_automaton_dump_matches_golden(runner):
    for which in ("a1", "a4", "a4sim"):
        res = invoke(runner, "automaton", "--which", which, "--dump", *ADVISOR)
        assert res.exit_code == 0
        golden = (DATA / f"advisor_{which}_dump.txt").read_text()
        assert res.output == golden, which


def test_check_resource_limit_exit_thirteen(runner, tmp_path):
    """A concept chain too long for the label alphabet hits a cap, which
    is a resource limit, not an internal error."""
    chain = "\n".join(f"C{i} sub C{i + 1}" for i in range(14))
    t1 = tmp_path / "t1.tbox"
    t1.write_text(chain + "\n")
    t2 = tmp_path / "t2.tbox"
    t2.write_text(chain + "\nC0 sub some r C1\n")
    sa = tmp_path / "a.sig"
    sa.write_text("concepts: C0\nroles: r\n")
    sq = tmp_path / "q.sig"
    sq.write_text("concepts: C14\nroles: r\n")
    args = ["--t1", str(t1), "--t2", str(t2),
            "--sigma-a", str(sa), "--sigma-q", str(sq)]
    res = invoke(runner, "check", *args)
    assert res.exit_code == 13
    assert "cap is 12" in res.output
    res = invoke(runner, "automaton", *args)
    assert res.exit_code == 13


def _run_cli(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, "-m", "hornsep.cli", *args],
        capture_output=True, env=env,
    )


def test_json_output_identical_across_hash_seeds(tmp_path):
    """Identical inputs must give byte-identical JSON regardless of the
    interpreter's hash randomization, for every command that prints
    JSON."""
    abox = tmp_path / "a.abox"
    abox.write_text("PhDStud(a0)\nadv(a0,a1)\nPhDStud(a1)\n")
    # (arguments, expected exit code)
    commands = [
        (["check", "--json", *ADVISOR], 1),
        (["oracle", "--json", "--max-abox", "2", "--max-cq", "1", *ADVISOR],
         1),
        (["materialize", "--tbox", str(DATA / "advisor_t2.tbox"),
          "--abox", str(abox), "--depth", "2"], 0),
    ]
    for args, code in commands:
        runs = [_run_cli(args, seed) for seed in (0, 4242)]
        assert all(r.returncode == code for r in runs), args[0]
        json.loads(runs[0].stdout)
        assert runs[0].stdout == runs[1].stdout, args[0]


def test_dump_identical_across_hash_seeds():
    args = ["automaton", "--dump", *ADVISOR]
    runs = [_run_cli(args, seed) for seed in (0, 1, 7, 31337)]
    assert all(r.returncode == 0 for r in runs)
    assert all(r.stdout == runs[0].stdout for r in runs[1:])
