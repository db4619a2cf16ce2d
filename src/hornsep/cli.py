"""Command line front end.

Four subcommands: ``check`` runs the decision procedures (prechecks, a
bounded witness-first search, then the automata pipeline), ``oracle``
runs the bounded brute-force witness search, ``materialize``
dumps a finite prefix of a universal model, and ``automaton`` prints the
constructed automata.  Verdicts map to exit codes so shell pipelines can
branch on them:

* 0 entails / true
* 1 non-entails / false
* 2 precheck failure (role-inclusion, profile, or an inconsistent ABox)
* 10 usage, file, or parse error, in every command
* 11 witness self-audit failure
* 12 internal error
* 13 resource limit hit (time, memory, or a construction or search cap)

Input files are checked where they are read; every other exception a
command raises reaches one table in ``_Main``, which maps it to its
code.  ``--time-limit`` (fractional seconds, 0 for none) arms one
interval timer for the length of the command, whose handler raises
``ResourceLimitError``, so a limit exits 13 wherever it fires.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys

import click

from . import entailment, models
from .entailment import PreconditionError, make_problem
from .reasoner import InconsistentABoxError
from .syntax import (
    HornsepError,
    ParseError,
    ProfileError,
    ResourceLimitError,
    normalize,
    parse_abox,
    parse_signature,
    parse_tbox,
)

EXIT_ENTAILS = 0
EXIT_NON_ENTAILS = 1
EXIT_PRECHECK = 2
EXIT_USAGE = 10
EXIT_AUDIT = 11
EXIT_INTERNAL = 12
EXIT_RESOURCE = 13

#: each ``--mode`` of ``check``, and the decision procedure it runs,
#: looked up on ``entailment`` at call time
MODES = {
    "cq": "decide_cq_entailment",
    "1tcq": "decide_1tcq_entailment",
    "cq-incons": "decide_cq_entailment_incons",
    "deductive": "decide_deductive",
    "conservative": "conservative_extension",
    "inseparable": "inseparable",
}


def _emit(obj, as_json: bool):
    if as_json:
        click.echo(json.dumps(obj, indent=2, sort_keys=True))
        return
    for key in sorted(obj):
        click.echo(f"{key}: {json.dumps(obj[key], sort_keys=True)}")


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail(str(exc), EXIT_USAGE)


def _parse(parser, path: str):
    try:
        return parser(_read(path))
    except (ParseError, ProfileError) as exc:
        _fail(f"{path}: {exc}", EXIT_USAGE)


def _limit(value, option: str, env: str, kind):
    """A limit from its option, else from its environment variable, or
    None; it must be a finite nonnegative ``kind``."""
    if value is None and os.environ.get(env):
        option = f"{env}={os.environ[env]!r}"
        try:
            value = kind(os.environ[env])
        except ValueError:
            value = -1
    if value is not None and not 0 <= value < math.inf:
        _fail(f"{option}: not a finite nonnegative {kind.__name__}",
              EXIT_USAGE)
    return value


def _apply_limits(time_limit: float | None, memory_mb: int | None):
    time_limit = _limit(time_limit, "--time-limit", "HORNSEP_TIME_LIMIT",
                        float)
    memory_mb = _limit(memory_mb, "--memory-mb", "HORNSEP_MEMORY_MB", int)
    if memory_mb:
        try:
            import resource

            limit = memory_mb << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            click.echo("warning: memory limit not supported here", err=True)
    if time_limit and hasattr(signal, "SIGALRM"):

        def on_alarm(_signum, _frame):
            raise ResourceLimitError("time limit exceeded")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, time_limit)

        def disarm():
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

        # the limit ends with the command, also when it runs in-process
        click.get_current_context().call_on_close(disarm)


def _problem(t1, t2, sigma_a, sigma_q):
    try:
        return make_problem(
            _parse(parse_tbox, t1),
            _parse(parse_tbox, t2),
            _parse(parse_signature, sigma_a),
            _parse(parse_signature, sigma_q),
        )
    except ResourceLimitError:
        raise  # the time limit, which covers reading the inputs too
    except HornsepError as exc:
        _fail(str(exc), EXIT_USAGE)


def _shared_options(fn):
    for opt in (
        click.option("--t1", required=True, help="first TBox file"),
        click.option("--t2", required=True, help="second TBox file"),
        click.option("--sigma-a", required=True, help="ABox signature file"),
        click.option("--sigma-q", required=True, help="query signature file"),
        click.option("--json", "as_json", is_flag=True, help="JSON output"),
        click.option("--time-limit", type=float, default=None,
                     help="wall-clock limit in seconds, 0 for none"),
        click.option("--memory-mb", type=int, default=None,
                     help="address-space limit in MiB"),
    ):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    """The command group, which maps every exception of a command to its
    exit code.  A usage error exits ``EXIT_USAGE`` with an ``error:``
    line, as other bad input does, not with click's 2, which is the
    precheck-failure code here."""

    def make_context(self, info_name, args, *rest, **kwargs):
        if not args:
            # a bare ``hornsep`` prints the help, as click does
            return super().make_context(info_name, args, *rest, **kwargs)
        return _exit_coded(super().make_context, info_name, args, *rest,
                           **kwargs)

    def invoke(self, ctx):
        return _exit_coded(super().invoke, ctx)


def _exit_coded(call, *args, **kwargs):
    """Call ``call``; exit with the code of the first row below that an
    exception it raises matches.  Errors in the input files already
    exited ``EXIT_USAGE`` where they were read."""
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        _fail(exc.format_message(), EXIT_USAGE)
    except (PreconditionError, ProfileError, InconsistentABoxError) as exc:
        _fail(str(exc), EXIT_PRECHECK)
    except MemoryError:
        _fail("memory limit exceeded", EXIT_RESOURCE)
    except ResourceLimitError as exc:
        _fail(str(exc), EXIT_RESOURCE)
    except HornsepError as exc:
        _fail(str(exc), EXIT_INTERNAL)


@click.group(cls=_Main)
def main():
    """Decide entailment, inseparability, and conservative extensions
    between Horn description logic TBoxes."""


@main.command()
@_shared_options
@click.option("--mode", type=click.Choice(list(MODES)), default="cq",
              show_default=True)
@click.option("--verify-witness", is_flag=True,
              help="on non-entailment, replay the decision's witness, or "
                   "search a small one and replay it")
@click.option("--oracle-max-ind", type=click.IntRange(min=1), default=2,
              show_default=True,
              help="witness ABox size bound for --verify-witness")
@click.option("--oracle-max-vars", type=click.IntRange(min=1), default=2,
              show_default=True,
              help="witness query size bound for --verify-witness")
def check(t1, t2, sigma_a, sigma_q, as_json, time_limit, memory_mb, mode,
          verify_witness, oracle_max_ind, oracle_max_vars):
    """Decide the selected entailment mode for two TBox files."""
    _apply_limits(time_limit, memory_mb)
    p = _problem(t1, t2, sigma_a, sigma_q)
    decision = getattr(entailment, MODES[mode])(p)
    report = decision.to_json_obj()
    code = EXIT_ENTAILS if decision.entails else EXIT_NON_ENTAILS
    if not decision.entails and decision.precheck.get("ri") is False:
        code = EXIT_PRECHECK
    if verify_witness and not decision.entails:
        if decision.stats.get("direction") == "backward":
            p = p.swapped()  # the verdict failed on (T2, T1)
        witness = decision.witness
        if witness is None:  # a pipeline verdict
            witness = entailment.oracle_witness_search(
                p.t1, p.t2, p.sigA, p.sigQ, oracle_max_ind, oracle_max_vars,
                mode="1tcq" if mode in ("1tcq", "deductive") else "cq",
            )
        if witness is None:
            report["witness"] = None
            report["witness_verified"] = None
        else:
            report["witness"] = witness.to_json_obj()
            verified = entailment.verify_witness(p.t1, p.t2, witness)
            report["witness_verified"] = verified
            if not verified:
                _emit(report, as_json)
                _fail("witness failed replay", EXIT_AUDIT)
    _emit(report, as_json)
    sys.exit(code)


@main.command()
@_shared_options
@click.option("--mode", type=click.Choice(("cq", "1tcq")), default="cq",
              show_default=True)
@click.option("--max-abox", type=click.IntRange(min=1), default=2,
              show_default=True, help="maximum ABox individuals")
@click.option("--max-cq", type=click.IntRange(min=1), default=2,
              show_default=True, help="maximum query variables")
def oracle(t1, t2, sigma_a, sigma_q, as_json, time_limit, memory_mb, mode,
           max_abox, max_cq):
    """Brute-force search for a small (ABox, query, answer) witness of
    non-entailment; exit 1 when one is found."""
    _apply_limits(time_limit, memory_mb)
    p = _problem(t1, t2, sigma_a, sigma_q)
    witness = entailment.oracle_witness_search(
        p.t1, p.t2, p.sigA, p.sigQ, max_abox, max_cq, mode=mode
    )
    if witness is None:
        _emit({"mode": mode, "witness": None}, as_json)
        sys.exit(EXIT_ENTAILS)
    if not entailment.verify_witness(p.t1, p.t2, witness):
        _fail("witness failed replay", EXIT_AUDIT)
    _emit({"mode": mode, "witness": witness.to_json_obj()}, as_json)
    sys.exit(EXIT_NON_ENTAILS)


@main.command()
@click.option("--tbox", required=True, help="TBox file")
@click.option("--abox", required=True, help="ABox file")
@click.option("--depth", type=click.IntRange(min=0), default=0,
              show_default=True, help="anonymous-tree depth")
@click.option("--time-limit", type=float, default=None)
@click.option("--memory-mb", type=int, default=None)
def materialize(tbox, abox, depth, time_limit, memory_mb):
    """Dump a finite prefix of the universal model as JSON."""
    _apply_limits(time_limit, memory_mb)
    t = _parse(lambda text: normalize(parse_tbox(text)), tbox)
    a = _parse(parse_abox, abox)
    interp = models.materialize(models.UniversalModel(t, a), depth)
    click.echo(interp.to_json())
    sys.exit(EXIT_ENTAILS)


@main.command()
@_shared_options
@click.option("--which",
              type=click.Choice(("a1", "a2", "a3", "a4", "a4sim", "product")),
              default="product", show_default=True)
@click.option("--dump", "do_dump", is_flag=True,
              help="print states, priorities, and guarded transitions")
def automaton(t1, t2, sigma_a, sigma_q, as_json, time_limit, memory_mb,
              which, do_dump):
    """Build the pipeline automata and print a summary or full dump."""
    from . import automata  # deferred: no other command needs it

    _apply_limits(time_limit, memory_mb)
    p = _problem(t1, t2, sigma_a, sigma_q)
    ctx = automata.build_label_context(p.t1, p.t2, p.sigA, p.sigQ)
    built = {
        "a1": lambda: automata.build_A1(ctx),
        "a2": lambda: automata.build_A2(p.t1, ctx),
        "a3": lambda: automata.build_A3(p.t2, ctx),
        "a4": lambda: automata.build_A4(p.t1, p.t2, ctx),
        "a4sim": lambda: automata.build_A4_sim(p.t1, p.t2, ctx),
    }
    if which == "product":
        aut = automata.intersect([built[k]() for k in ("a1", "a2", "a3", "a4")])
    else:
        aut = built[which]()
    if do_dump:
        click.echo(aut.dump(), nl=False)
    else:
        _emit(
            {
                "name": aut.name,
                "states": len(aut.rules),
                "labels": len(ctx.labels),
                "root_labels": len(ctx.root_labels),
                "max_priority": aut.max_priority(),
            },
            as_json,
        )
    sys.exit(EXIT_ENTAILS)


if __name__ == "__main__":
    main()
