import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest
from click.testing import CliRunner

from hornsep import cli
from hornsep.syntax import HornsepError, ResourceLimitError
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


def test_materialize_profile_error_exit_ten(runner, tmp_path):
    """A TBox the normalizer rejects is bad input in every command."""
    t = tmp_path / "t.tbox"
    t.write_text("only r A sub B\n")
    a = tmp_path / "a.abox"
    a.write_text("A(x)\n")
    res = invoke(runner, "materialize", "--tbox", str(t), "--abox", str(a))
    assert res.exit_code == 10
    assert "error: " in res.output and "only r A" in res.output


@pytest.mark.parametrize("args", [
    ["oracle", "--max-cq", "0", *ADVISOR],
    ["oracle", "--max-abox", "0", *ADVISOR],
    ["oracle", "--max-abox", "-1", *ADVISOR],
    ["check", "--verify-witness", "--oracle-max-ind", "0", *ADVISOR],
    ["check", "--verify-witness", "--oracle-max-vars", "0", *ADVISOR],
    ["materialize", "--tbox", "t.tbox", "--abox", "a.abox", "--depth", "-1"],
])
def test_bounds_out_of_range_exit_ten(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 10
    assert "is not in the range x>=" in res.output


ORACLE = "hornsep.entailment.oracle_witness_search"


@pytest.mark.parametrize("target, exc, args, code", [
    (ORACLE, MemoryError(), ["oracle"], 13),
    (ORACLE, ResourceLimitError("witness search cap"),
     ["check", "--verify-witness"], 13),
    (ORACLE, HornsepError("broken"), ["oracle"], 12),
    # a time limit that fires while the verdict is printed
    ("hornsep.cli._emit", ResourceLimitError("time limit exceeded"),
     ["check"], 13),
])
def test_exceptions_map_to_exit_codes_in_every_command(
        runner, monkeypatch, target, exc, args, code):
    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(target, fail)
    res = invoke(runner, *args, *ADVISOR)
    assert res.exit_code == code
    assert "error: " in res.output and "Traceback" not in res.output


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
    """Ten unrelated pairs ``Ai sub Bi`` give more closed concept sets
    than the label alphabet bound admits, which is a resource limit, not
    an internal error."""
    t1_text = "\n".join(f"A{i} sub B{i}" for i in range(10))
    t1 = tmp_path / "t1.tbox"
    t1.write_text(t1_text + "\n")
    t2 = tmp_path / "t2.tbox"
    t2.write_text(t1_text + "\nA00 sub some r B01\n")
    sa = tmp_path / "a.sig"
    sa.write_text("concepts: A00\nroles: r\n")
    sq = tmp_path / "q.sig"
    sq.write_text("concepts: B01\nroles: r\n")
    args = ["--t1", str(t1), "--t2", str(t2),
            "--sigma-a", str(sa), "--sigma-q", str(sq)]
    for command in ("check", "automaton"):
        res = invoke(runner, command, *args)
        assert res.exit_code == 13, command
        assert "label alphabet estimate exceeds cap 120000" in res.output


def _run_cli(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, "-m", "hornsep.cli", *args],
        capture_output=True, env=env,
    )


def test_time_limit_ends_with_the_command(runner, monkeypatch):
    """A command run in-process leaves no timer and no alarm handler
    behind.  The signal calls are recorded instead of made, so no timer
    is armed in the test process."""
    timers, handlers = [], []
    monkeypatch.setattr(cli.signal, "alarm", timers.append)
    monkeypatch.setattr(cli.signal, "setitimer",
                        lambda _which, seconds: timers.append(seconds))
    monkeypatch.setattr(cli.signal, "signal",
                        lambda _num, handler: handlers.append(handler)
                        or "previous")
    res = invoke(runner, "check", "--time-limit", "2.5", *ADVISOR)
    assert res.exit_code == 1
    assert timers == [2.5, 0]
    assert handlers[-1] == "previous"


def test_oracle_time_limit_exit_thirteen(tmp_path):
    """A time limit that cuts the oracle short is a resource limit, not
    "no witness", and it is not rounded up to whole seconds: the child
    spends well under a second of CPU.  The search on this problem runs
    for minutes; a subprocess keeps the timer out of the test process."""
    t = tmp_path / "t.tbox"
    t.write_text("PhDStud sub some advBy Prof\nadv subr inv(advBy)\n"
                 "func(advBy)\nA sub some r B\nB sub some s A\n")
    sig = tmp_path / "s.sig"
    sig.write_text("concepts: PhDStud A B Prof\nroles: adv r s\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    r = _run_cli(["oracle", "--json", "--max-abox", "3", "--max-cq", "3",
                  "--time-limit", "0.3", "--t1", str(t), "--t2", str(t),
                  "--sigma-a", str(sig), "--sigma-q", str(sig)], 0)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert r.returncode == 13
    assert r.stdout == b""
    assert b"error: time limit exceeded" in r.stderr
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 0.9


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
