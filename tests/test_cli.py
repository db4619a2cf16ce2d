import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import warnings
from typing import NamedTuple

import pytest

from hornsep import cli, entailment
from hornsep.syntax import HornsepError, ResourceLimitError
from hornsep.cli import main

from conftest import problem
from test_decision_golden import FIXTURES

DATA = pathlib.Path(__file__).parent / "data"

ADVISOR = [
    "--t1", str(DATA / "advisor_t1.tbox"),
    "--t2", str(DATA / "advisor_t2.tbox"),
    "--sigma-a", str(DATA / "advisor_abox.sig"),
    "--sigma-q", str(DATA / "advisor_query.sig"),
]


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved


def invoke(*args) -> Result:
    """Run the command line in this process on ``args``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue())


def test_check_non_entailment_exit_code():
    res = invoke("check", *ADVISOR)
    assert res.exit_code == 1
    assert "entails: false" in res.output


def test_check_entailment_exit_code(tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("A sub B\n")
    res = invoke(
        "check", "--t1", str(t), "--t2", str(t),
        "--sigma-a", str(DATA / "advisor_abox.sig"),
        "--sigma-q", str(DATA / "advisor_query.sig"),
    )
    assert res.exit_code == 0


def test_check_json_output():
    res = invoke("check", "--json", *ADVISOR)
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["entails"] is False
    assert obj["precheck"] == {"ri": True}


def test_check_verify_witness():
    """A verdict that carries a witness replays that witness."""
    res = invoke("check", "--json", "--verify-witness", *ADVISOR)
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["witness_verified"] is True
    assert "adv(a0,a1)" in obj["witness"]["abox"]
    plain = json.loads(invoke("check", "--json", *ADVISOR).output)
    assert obj["witness"] == plain["witness"]
    assert obj["stats"]["settled_by"] == "witness_search"


def test_check_verify_witness_follows_a_backward_verdict(tmp_path):
    """An inseparability verdict that fails backward carries a witness
    of the swapped problem, and it is replayed there."""
    t1 = tmp_path / "t1.tbox"
    t1.write_text("A sub some r B\n")
    t2 = tmp_path / "t2.tbox"
    t2.write_text("")
    sig = tmp_path / "sig"
    sig.write_text("concepts: A B\nroles: r\n")
    res = invoke(
        "check", "--json", "--mode", "inseparable", "--verify-witness",
        "--t1", str(t1), "--t2", str(t2),
        "--sigma-a", str(sig), "--sigma-q", str(sig),
    )
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["stats"]["direction"] == "backward"
    assert obj["witness_verified"] is True
    assert obj["witness"]["abox"] == ["A(a0)"]
    assert obj["witness"]["query"] == "q() <- B(x0)"


def test_check_ri_precheck_exit_two(tmp_path):
    t1 = tmp_path / "t1.tbox"
    t1.write_text("")
    t2 = tmp_path / "t2.tbox"
    t2.write_text("r subr s\n")
    sig = tmp_path / "sig"
    sig.write_text("concepts:\nroles: r s\n")
    res = invoke(
        "check", "--json", "--t1", str(t1), "--t2", str(t2),
        "--sigma-a", str(sig), "--sigma-q", str(sig),
    )
    assert res.exit_code == 2
    obj = json.loads(res.output)
    assert obj["precheck"] == {"ri": False}
    assert obj["witness"] == {"abox": ["r(a0,a1)"],
                              "query": "q(x0,x1) <- s(x0,x1)",
                              "answer": ["a0", "a1"]}


def _problem_files(tmp_path, t1, t2, sigma_a, sigma_q):
    """The ``--t1 --t2 --sigma-a --sigma-q`` arguments of a problem
    whose four files hold the given texts."""
    args = []
    for option, text in (("--t1", t1), ("--t2", t2),
                         ("--sigma-a", sigma_a), ("--sigma-q", sigma_q)):
        path = tmp_path / option.strip("-")
        path.write_text(text)
        args += [option, str(path)]
    return args


# T1 gives every element an s-successor and an s-predecessor, so over
# ΣQ = {s} the edge T2 derives from r(a0, a1) answers no rooted tree
# query that T1 does not answer too; with r in ΣQ, a1's s-predecessor
# a0 has an r-successor, which T1's anonymous s-predecessors lack
_EVERY_S = "top sub some s top\ntop sub some inv(s) top\n"


@pytest.mark.parametrize("mode, sig, code, witness", [
    ("1tcq", ("roles: r\n", "roles: s\n"), 0, None),
    ("1tcq", ("roles: r s\n", "roles: r s\n"), 2,
     {"abox": ["r(a0,a1)", "r(a0,a2)"],
      "query": "q(x1) <- r(x0,x2), s(x0,x1)", "answer": ["a1"]}),
    ("deductive", ("roles: r s\n", "roles: r s\n"), 2,
     {"abox": ["r(a0,a1)"], "query": "q(x0,x1) <- s(x0,x1)",
      "answer": ["a0", "a1"]}),
], ids=["1tcq-s", "1tcq-rs", "deductive"])
def test_a_role_inclusion_refutes_1tcq_only_by_a_rooted_query(
        tmp_path, mode, sig, code, witness):
    """T2's ``r subr s`` and T1's s-edges everywhere.  In ``1tcq`` the
    precheck's rooted edge ``q(x0) <- s(x0,x1)`` does not replay, and
    its search over ABoxes with an r-edge at bounds (3, 3) decides: over
    ΣQ = {s} it finds nothing and the pipeline settles "entails", as the
    rooted tree pipeline and the oracle, asked directly, agree; over
    ΣQ = {r, s} it refutes, exit 2, with the oracle's own witness.  In
    ``deductive`` r ⊑ s is itself a separating axiom, so the
    two-variable edge refutes, exit 2."""
    res = invoke("check", "--json", "--mode", mode,
                 *_problem_files(tmp_path, _EVERY_S, "r subr s\n", *sig))
    assert res.exit_code == code
    obj = json.loads(res.output)
    assert obj["precheck"]["ri"] is (witness is None)
    assert obj["witness"] == witness
    p = problem(_EVERY_S, "r subr s", *sig)
    if witness is None:
        assert obj["stats"]["settled_by"] == "pipeline"
        assert entailment._run_pipeline(p.t1, p.t2, p.sigA, p.sigQ,
                                        True)[0] is True
    else:
        assert obj["stats"]["settled_by"] == "role_inclusion"
        decide = {"1tcq": entailment.decide_1tcq_entailment,
                  "deductive": entailment.decide_deductive}[mode]
        assert entailment.verify_witness(p.t1, p.t2, decide(p).witness)
    if mode == "1tcq":
        oracle = entailment.oracle_witness_search(
            p.t1, p.t2, p.sigA, p.sigQ, 3, 3, "1tcq")
        assert (oracle and oracle.to_json_obj()) == witness


def _no_oracle(monkeypatch):
    """Make ``oracle_witness_search`` raise, so that a test fails if
    ``check`` runs it."""
    def fail(*_args, **_kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(entailment, "oracle_witness_search", fail)


def test_check_verify_witness_replays_a_role_inclusion_witness(
        monkeypatch, tmp_path):
    """A role-inclusion refutation carries its one-edge witness, so
    ``--verify-witness`` replays it and never searches: the oracle is
    patched to raise.  The exit code stays the precheck's."""
    _no_oracle(monkeypatch)
    sig = "concepts: A\nroles: r s\n"
    res = invoke(
        "check", "--verify-witness",
        *_problem_files(tmp_path, "", "r subr s\n", sig, sig),
    )
    assert res.exit_code == 2
    assert "witness_verified: true" in res.output
    assert '"settled_by": "role_inclusion"' in res.output



# ΣA-ABoxes speak of C0 and r, queries of C1 and r; T1 gives a C0 an
# r-successor in C1, T2 one n r-steps away with n = 2 or 3
_C0 = "concepts: C0\nroles: r\n"
_C1 = "concepts: C1\nroles: r\n"


def test_check_verify_witness_replays_a_pipeline_verdicts_decoded_witness(
        monkeypatch, tmp_path):
    """T2's C1 two r-steps from a C0 separates only with a query of
    three variables, beyond the witness-first search, so the pipeline
    refutes.  Its certificate's L0 layer spells out an ABox, and the
    search over that ABox finds a three-variable witness, which the
    decision carries and ``--verify-witness`` replays; ``check`` runs
    no oracle."""
    _no_oracle(monkeypatch)
    res = invoke("check", "--json", "--verify-witness",
                 *_problem_files(tmp_path, "C0 sub some r C1\n",
                                 "C0 sub some r (some r C1)\n", _C0, _C1))
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["stats"]["settled_by"] == "pipeline"
    assert obj["stats"]["decoded"] == {"asked": 5, "capped": False}
    assert obj["witness"] == {
        "abox": ["C0(a0)", "C0(a2)", "r(a1,a0)", "r(a1,a2)"],
        "query": "q(x2) <- C1(x0), r(x1,x0), r(x2,x1)", "answer": ["a0"]}
    assert obj["witness_verified"] is True


def test_check_verify_witness_reports_none_beyond_the_decoded_bound(
        monkeypatch, tmp_path):
    """One r-step more on each side needs a query of four variables:
    the pipeline refutes, the search over its certificate's ABox asks 34
    questions within three variables and finds nothing, so the verdict
    stands without a witness and ``--verify-witness`` has none to
    replay.  ``hornsep oracle`` at larger bounds finds one."""
    _no_oracle(monkeypatch)
    files = _problem_files(tmp_path, "C0 sub some r (some r C1)\n",
                           "C0 sub some r (some r (some r C1))\n", _C0, _C1)
    res = invoke("check", "--json", "--verify-witness", *files)
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["stats"]["settled_by"] == "pipeline"
    assert obj["stats"]["decoded"] == {"asked": 34, "capped": False}
    assert obj["witness"] is None and obj["witness_verified"] is None
    monkeypatch.undo()
    res = invoke("oracle", "--json", "--max-abox", "2", "--max-cq", "4",
                 *files)
    assert res.exit_code == 1
    assert json.loads(res.output)["witness"] == {
        "abox": ["C0(a0)"],
        "query": "q() <- C1(x0), r(x1,x0), r(x2,x1), r(x3,x2)",
        "answer": []}


def test_check_verify_witness_replays_a_bot_free_pipelines_witness(
        monkeypatch, tmp_path):
    """An inconsistency that needs an A with an r-path of two edges
    sends ``cq-incons`` past the witness-first search and the forks to
    the bot-free pipeline, which refutes (about 5 s on a 2-vCPU host).
    The ABox its certificate spells out is consistent with T1 and
    inconsistent with T2, so the decision carries it as an inconsistency
    witness, and ``--verify-witness`` replays it."""
    _no_oracle(monkeypatch)
    sig = "concepts: A\nroles: r\n"
    res = invoke("check", "--json", "--verify-witness", "--mode", "cq-incons",
                 *_problem_files(tmp_path, "",
                                 "A and some r (some r top) sub bot\n",
                                 sig, sig))
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["stats"]["settled_by"] == "pipeline"
    assert obj["stats"]["incons"] is False
    assert obj["stats"]["decoded"] == {"asked": 1, "capped": False}
    assert obj["witness"]["query"] is None and obj["witness"]["answer"] == []
    assert "A(a0)" in obj["witness"]["abox"]
    assert obj["witness_verified"] is True

def test_check_incons_edge_bot_exits_one_with_the_edge(tmp_path):
    """T2's ``some r top sub bot`` makes every r-edge inconsistent, so
    its ``r subr s`` separates nothing and the role-inclusion precheck
    passes; in ``cq-incons`` the edge r(a0, a1) itself separates, as an
    inconsistency witness: exit 1, not the precheck's 2."""
    res = invoke(
        "check", "--json", "--mode", "cq-incons", "--verify-witness",
        *_problem_files(tmp_path, "", "r subr s\nsome r top sub bot\n",
                        "concepts: A\nroles: r\n",
                        "concepts: A\nroles: s\n"),
    )
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["precheck"] == {"ri": True}
    assert obj["witness"] == {"abox": ["r(a0,a1)"], "query": None,
                              "answer": []}
    assert obj["witness_verified"] is True


def test_check_deductive_precondition_exit_two():
    res = invoke("check", "--mode", "deductive", *ADVISOR)
    assert res.exit_code == 2
    assert "error:" in res.output


def test_missing_file_exit_ten():
    res = invoke(
        "check", "--t1", "/nonexistent", "--t2", "/nonexistent",
        "--sigma-a", "/nonexistent", "--sigma-q", "/nonexistent",
    )
    assert res.exit_code == 10


def test_parse_error_exit_ten(tmp_path):
    bad = tmp_path / "bad.tbox"
    bad.write_text("A sub\n")
    res = invoke(
        "check", "--t1", str(bad), "--t2", str(bad),
        "--sigma-a", str(bad), "--sigma-q", str(bad),
    )
    assert res.exit_code == 10


def _error_line(output: str) -> str:
    """The one ``error:`` line of a command's output."""
    (line,) = [s for s in output.splitlines() if s.startswith("error:")]
    return line


def test_usage_error_exit_ten():
    res = invoke("check", "--t1", "t1.tbox")
    assert res.exit_code == 10
    assert "--sigma-q" in _error_line(res.output)
    res = invoke("check", "--mode", "bogus", *ADVISOR)
    assert res.exit_code == 10
    assert "--mode" in _error_line(res.output)


_MATERIALIZE = ["--tbox", str(DATA / "advisor_t2.tbox"),
                "--abox", str(DATA / "advisor_t2.tbox")]

# (subcommand, its valid arguments, a required option, an option
# abbreviated, the options with a floor and a value below it)
_USAGE = [
    ("check", ADVISOR, "--sigma-q", "--verify", []),
    ("oracle", ADVISOR, "--sigma-q", "--max-ab",
     [("--max-abox", "0"), ("--max-cq", "0")]),
    ("materialize", _MATERIALIZE, "--abox", "--dep", [("--depth", "-1")]),
    ("automaton", ADVISOR, "--sigma-q", "--whi", []),
]


def _usage_cases():
    for command, valid, required, abbrev, floors in _USAGE:
        i = valid.index(required)
        yield command, valid[:i] + valid[i + 2:], required
        yield command, [*valid, "--bogus"], "--bogus"
        yield command, [*valid, abbrev, "1"], abbrev
        if command in ("check", "oracle"):
            yield command, [*valid, "--mode", "bogus"], "--mode"
        for option, value in floors:
            yield command, [*valid, option, value], option
        yield command, [*valid, "--time-limit", "abc"], "--time-limit"


@pytest.mark.parametrize("command, args, option", list(_usage_cases()))
def test_usage_errors_exit_ten_naming_the_option(command, args, option):
    """Bad command lines exit 10, not the precheck's 2, with an
    ``error:`` line that names the offending option: a missing required
    option, an unknown or abbreviated one, a value outside its choices
    or below its floor, and a malformed time limit."""
    res = invoke(command, *args)
    assert res.exit_code == 10
    assert option in _error_line(res.output)


@pytest.mark.parametrize("command", [u[0] for u in _USAGE])
def test_subcommand_help_exits_zero(command):
    res = invoke(command, "--help")
    assert res.exit_code == 0
    assert "--time-limit" in res.output and "error:" not in res.output


def test_bare_invocation_prints_help():
    res = invoke()
    assert res.exit_code == 0
    assert "Commands:" in res.output and "error:" not in res.output


def test_malformed_limit_variable_exit_ten(monkeypatch):
    for env in (("HORNSEP_TIME_LIMIT", "abc"), ("HORNSEP_MEMORY_MB", "1.5")):
        with monkeypatch.context() as patch:
            patch.setenv(*env)
            res = invoke("check", *ADVISOR)
        assert res.exit_code == 10, env
        assert "error: HORNSEP_" in res.output


def test_negative_time_limit_exit_ten():
    res = invoke("check", "--time-limit", "-3", *ADVISOR)
    assert res.exit_code == 10
    assert "error: --time-limit" in res.output


def test_oracle_finds_witness():
    res = invoke(
        "oracle", "--max-abox", "2", "--max-cq", "1", *ADVISOR
    )
    assert res.exit_code == 1
    assert "Prof" in res.output


def test_oracle_none_within_bounds(tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("")
    res = invoke(
        "oracle", "--json", "--max-abox", "1", "--max-cq", "1",
        "--t1", str(t), "--t2", str(t),
        "--sigma-a", str(DATA / "advisor_abox.sig"),
        "--sigma-q", str(DATA / "advisor_query.sig"),
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["witness"] is None


def test_materialize_outputs_model(tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("r subr s\n")
    a = tmp_path / "a.abox"
    a.write_text("r(a,b)\n")
    res = invoke(
        "materialize", "--tbox", str(t), "--abox", str(a),
        "--depth", "0",
    )
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert ["a", "r", "b"] in obj["edges"]
    assert ["a", "s", "b"] in obj["edges"]


def test_materialize_gives_a_named_successor_no_anonymous_twin(
        tmp_path):
    """Under ``A sub some r B`` and ``func(r)``, b is a's one r-successor
    and takes B; no axiom asks for an anonymous inv(r)-child of b with
    a's type, so the depth-1 window holds a and b only."""
    t = tmp_path / "t.tbox"
    t.write_text("A sub some r B\nfunc(r)\n")
    a = tmp_path / "a.abox"
    a.write_text("A(a)\nr(a,b)\n")
    res = invoke(
        "materialize", "--tbox", str(t), "--abox", str(a),
        "--depth", "1",
    )
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj == {
        "elements": [
            {"id": "a", "individual": True, "concepts": ["A"]},
            {"id": "b", "individual": True, "concepts": ["B"]},
        ],
        "edges": [["a", "r", "b"]],
    }


def test_materialize_profile_error_exit_ten(tmp_path):
    """A TBox the normalizer rejects is bad input in every command."""
    t = tmp_path / "t.tbox"
    t.write_text("only r A sub B\n")
    a = tmp_path / "a.abox"
    a.write_text("A(x)\n")
    res = invoke("materialize", "--tbox", str(t), "--abox", str(a))
    assert res.exit_code == 10
    assert "error: " in res.output and "only r A" in res.output


@pytest.mark.parametrize("args", [
    ["oracle", "--max-cq", "0", *ADVISOR],
    ["oracle", "--max-abox", "0", *ADVISOR],
    ["oracle", "--max-abox", "-1", *ADVISOR],
    ["materialize", "--tbox", "t.tbox", "--abox", "a.abox", "--depth", "-1"],
])
def test_bounds_out_of_range_exit_ten(args):
    res = invoke(*args)
    assert res.exit_code == 10
    assert "is not in the range x>=" in res.output


ORACLE = "hornsep.entailment.oracle_witness_search"


@pytest.mark.parametrize("target, exc, args, code", [
    (ORACLE, MemoryError(), ["oracle"], 13),
    # every witness check and replay, the decision's and the self-audit's
    ("hornsep.entailment.verify_witness",
     ResourceLimitError("time limit exceeded"), ["check", "--verify-witness"],
     13),
    (ORACLE, HornsepError("broken"), ["oracle"], 12),
    # a time limit that fires while the verdict is printed
    ("hornsep.cli._emit", ResourceLimitError("time limit exceeded"),
     ["check"], 13),
])
def test_exceptions_map_to_exit_codes_in_every_command(
        monkeypatch, target, exc, args, code):
    """An exception a command raises exits with its code from
    ``cli._EXIT_CODES``, an ``error:`` line and no traceback."""
    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(target, fail)
    res = invoke(*args, *ADVISOR)
    assert res.exit_code == code
    assert "error: " in res.output and "Traceback" not in res.output


def test_materialize_inconsistent_exit_two(tmp_path):
    t = tmp_path / "t.tbox"
    t.write_text("A sub bot\n")
    a = tmp_path / "a.abox"
    a.write_text("A(x)\n")
    res = invoke(
        "materialize", "--tbox", str(t), "--abox", str(a)
    )
    assert res.exit_code == 2


def test_automaton_summary():
    res = invoke("automaton", "--json", *ADVISOR)
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["states"] > 0 and obj["labels"] > 0
    assert obj["max_priority"] == 1


def test_automaton_dump_matches_golden():
    for which in ("a1", "a4", "a4sim"):
        res = invoke("automaton", "--which", which, "--dump", *ADVISOR)
        assert res.exit_code == 0
        golden = (DATA / f"advisor_{which}_dump.txt").read_text()
        assert res.output == golden, which


def test_check_resource_limit_exit_thirteen(tmp_path):
    """Ten unrelated pairs ``Ai sub Bi`` give more closed concept sets
    than the label alphabet bound admits, which is a resource limit, not
    an internal error: ``automaton`` exits 13.  ``check`` never builds
    the alphabet: its witness-first search finds the ABox A00(a0), on
    which T2 has an anonymous B01 element and T1 none, so it exits 1
    with that witness."""
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
    res = invoke("automaton", *args)
    assert res.exit_code == 13
    assert "label alphabet estimate exceeds cap 120000" in res.output
    res = invoke("check", "--json", "--verify-witness", *args)
    assert res.exit_code == 1
    obj = json.loads(res.output)
    assert obj["stats"]["settled_by"] == "witness_search"
    assert obj["witness_verified"] is True
    assert obj["witness"]["abox"] == ["A00(a0)"]
    assert obj["witness"]["query"] == "q() <- B01(x0)"


def _run_cli(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, "-m", "hornsep.cli", *args],
        capture_output=True, env=env,
    )


def test_time_limit_ends_with_the_command(monkeypatch):
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
    res = invoke("check", "--time-limit", "2.5", *ADVISOR)
    assert res.exit_code == 1
    assert timers == [2.5, 0]
    assert handlers[-1] == "previous"


def test_oracle_time_limit_exit_thirteen(tmp_path):
    """A time limit that cuts the oracle short is a resource limit, not
    "no witness", and it is not rounded up to whole seconds: the child
    spends well under a second of CPU.  T2 adds ``Zq sub Wq``, whose
    names lie outside both signatures, so no witness exists although
    T1 does not entail T2, and the search on this problem runs for
    minutes; a subprocess keeps the timer out of the test process."""
    axioms = ("PhDStud sub some advBy Prof\nadv subr inv(advBy)\n"
              "func(advBy)\nA sub some r B\nB sub some s A\n")
    t = tmp_path / "t.tbox"
    t.write_text(axioms)
    t2 = tmp_path / "t2.tbox"
    t2.write_text(axioms + "Zq sub Wq\n")
    sig = tmp_path / "s.sig"
    sig.write_text("concepts: PhDStud A B Prof\nroles: adv r s\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    r = _run_cli(["oracle", "--json", "--max-abox", "3", "--max-cq", "3",
                  "--time-limit", "0.3", "--t1", str(t), "--t2", str(t2),
                  "--sigma-a", str(sig), "--sigma-q", str(sig)], 0)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert r.returncode == 13
    assert r.stdout == b""
    assert b"error: time limit exceeded" in r.stderr
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 0.9


def test_a_time_limit_that_fires_at_once_exits_thirteen():
    """A timer that expires as soon as it is armed, before the command
    reads its inputs, still exits 13 with an ``error:`` line."""
    r = _run_cli(["check", "--time-limit", "0.000001", *ADVISOR], 0)
    assert r.returncode == 13
    assert r.stdout == b""
    assert r.stderr.endswith(b"error: time limit exceeded\n")


def test_json_output_identical_across_hash_seeds(tmp_path):
    """Identical inputs must give byte-identical JSON regardless of the
    interpreter's hash randomization, for every command that prints
    JSON, and for ``check`` with a query witness (the advisor fixture)
    and with an inconsistency witness (T2 ``some r A sub bot``)."""
    abox = tmp_path / "a.abox"
    abox.write_text("PhDStud(a0)\nadv(a0,a1)\nPhDStud(a1)\n")
    t1, t2, sig = tmp_path / "t1.tbox", tmp_path / "t2.tbox", tmp_path / "s"
    t1.write_text("")
    t2.write_text("some r A sub bot\n")
    sig.write_text("concepts: A B\nroles: r\n")
    bot = ["--t1", str(t1), "--t2", str(t2), "--sigma-a", str(sig),
           "--sigma-q", str(sig)]
    # (arguments, expected exit code)
    commands = [
        (["check", "--json", *ADVISOR], 1),
        (["check", "--json", "--mode", "cq-incons", "--verify-witness", *bot],
         1),
        (["oracle", "--json", "--max-abox", "2", "--max-cq", "1", *ADVISOR],
         1),
        (["materialize", "--tbox", str(DATA / "advisor_t2.tbox"),
          "--abox", str(abox), "--depth", "2"], 0),
    ]
    for args, code in commands:
        runs = [_run_cli(args, seed) for seed in (0, 4242)]
        assert all(r.returncode == code for r in runs), args[0]
        obj = json.loads(runs[0].stdout)
        assert runs[0].stdout == runs[1].stdout, args[0]
        if args[0] == "check":  # both checks carry a witness
            assert obj["witness"] is not None, args


def test_dump_identical_across_hash_seeds(tmp_path):
    """The product dump of the advisor fixture, and A3's and the
    product's of a derivation set with two names, whose atoms are
    printed in name order."""
    t1, t2, sig = tmp_path / "t1.tbox", tmp_path / "t2.tbox", tmp_path / "s.sig"
    t1.write_text("")
    t2.write_text("B and C sub A\n")
    sig.write_text("concepts: A B C\nroles: r\n")
    derivation = ["--t1", str(t1), "--t2", str(t2), "--sigma-a", str(sig),
                  "--sigma-q", str(sig)]
    for args in (["automaton", "--dump", *ADVISOR],
                 ["automaton", "--dump", *derivation],
                 ["automaton", "--dump", "--which", "a3", *derivation]):
        runs = [_run_cli(args, seed) for seed in (0, 1, 7, 31337)]
        assert all(r.returncode == 0 for r in runs), args
        assert all(r.stdout == runs[0].stdout for r in runs[1:]), args


_COLD_PATH = """
import json, sys, warnings

before = set(sys.modules)
import hornsep.cli
from hornsep import entailment, models, parse_signature, parse_tbox

added = {m.partition(".")[0] for m in set(sys.modules) - before}

def loaded():
    return sorted(m for m in ("hornsep.automata", "hornsep.mosaics")
                  if m in sys.modules)

def problem(t1, t2, sig_a, sig_q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return entailment.make_problem(parse_tbox(t1), parse_tbox(t2),
                                       parse_signature(sig_a),
                                       parse_signature(sig_q))

advisor, bot = (problem(*texts) for texts in json.loads(sys.argv[1]))
out = {"import": loaded(),
       "third_party": sorted(added - sys.stdlib_module_names - {"hornsep"})}
d = entailment.decide_cq_entailment(advisor)
out["search"] = [d.stats["settled_by"], loaded()]
entailment.oracle_witness_search(advisor.t1, advisor.t2, advisor.sigA,
                                 advisor.sigQ, 2, 2)
models.materialize(models.UniversalModel(advisor.t2, d.witness.abox), 2)
out["oracle"] = loaded()
d = entailment.decide_cq_entailment(bot)
out["pipeline"] = [d.stats["settled_by"], loaded(), d.to_json_obj()]
print(json.dumps(out))
"""


def test_the_pipeline_modules_load_with_the_first_pipeline_decision():
    """A fresh interpreter imports the command line, which loads no
    module from outside the standard library and the package, and
    settles the advisor fixture's ``cq`` decision by the witness-first
    search, runs the oracle and materializes a window without loading
    the automata or the mosaics; the ``deductive_bot`` fixture's ``cq``
    decision, which the pipeline settles, loads both and decides as in
    this process.  Modules loaded before the import, as ``site`` may
    load some, do not count."""
    texts = [FIXTURES["advisor"], FIXTURES["deductive_bot"]]
    env = dict(os.environ, PYTHONPATH=str(DATA.parents[1] / "src"))
    r = subprocess.run([sys.executable, "-c", _COLD_PATH, json.dumps(texts)],
                       capture_output=True, env=env, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["import"] == []
    assert out["third_party"] == []
    assert out["search"] == ["witness_search", []]
    assert out["oracle"] == []
    by, loaded, decision = out["pipeline"]
    assert by == "pipeline"
    assert loaded == ["hornsep.automata", "hornsep.mosaics"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = problem(*FIXTURES["deductive_bot"])
    here = entailment.decide_cq_entailment(p).to_json_obj()
    assert decision == json.loads(json.dumps(here))
