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
command raises reaches one table, ``_EXIT_CODES``, which ``main`` maps
to its code.  ``--time-limit`` (fractional seconds, 0 for none) arms one
interval timer for the length of the command, whose handler raises
``ResourceLimitError``, so a limit exits 13 wherever it fires.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import sys

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

#: the exit code of each exception a command raises; the first row wins
_EXIT_CODES = (
    ((PreconditionError, ProfileError, InconsistentABoxError), EXIT_PRECHECK),
    ((MemoryError, ResourceLimitError), EXIT_RESOURCE),
    (HornsepError, EXIT_INTERNAL),
)


def _emit(obj, as_json: bool):
    if as_json:
        print(json.dumps(obj, indent=2, sort_keys=True))
        return
    for key in sorted(obj):
        print(f"{key}: {json.dumps(obj[key], sort_keys=True)}")


def _fail(message: str, code: int):
    sys.stdout.flush()  # a report printed before the error comes first
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _parse(parser, path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(str(exc), EXIT_USAGE)
    try:
        return parser(text)
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


@contextlib.contextmanager
def _limits(time_limit: float | None, memory_mb: int | None):
    """Apply the limits; the time limit lasts as long as the block."""
    time_limit = _limit(time_limit, "--time-limit", "HORNSEP_TIME_LIMIT",
                        float)
    memory_mb = _limit(memory_mb, "--memory-mb", "HORNSEP_MEMORY_MB", int)
    if memory_mb:
        try:
            import resource

            limit = memory_mb << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            print("warning: memory limit not supported here", file=sys.stderr)
    if not (time_limit and hasattr(signal, "SIGALRM")):
        yield
        return

    def on_alarm(_signum, _frame):
        raise ResourceLimitError("time limit exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, time_limit)
        yield
    finally:
        # the limit ends with the command, also when it runs in-process
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _problem(args):
    try:
        return make_problem(
            _parse(parse_tbox, args.t1),
            _parse(parse_tbox, args.t2),
            _parse(parse_signature, args.sigma_a),
            _parse(parse_signature, args.sigma_q),
        )
    except ResourceLimitError:
        raise  # the time limit, which covers reading the inputs too
    except HornsepError as exc:
        _fail(str(exc), EXIT_USAGE)


def check(args) -> int:
    """Decide the selected entailment mode for two TBox files."""
    p = _problem(args)
    decision = getattr(entailment, MODES[args.mode])(p)
    report = decision.to_json_obj()
    code = EXIT_ENTAILS if decision.entails else EXIT_NON_ENTAILS
    if not decision.entails and decision.precheck.get("ri") is False:
        code = EXIT_PRECHECK
    if args.verify_witness and not decision.entails:
        if decision.stats.get("direction") == "backward":
            p = p.swapped()  # the verdict failed on (T2, T1)
        w = decision.witness
        verified = None if w is None else entailment.verify_witness(
            p.t1, p.t2, w)
        report["witness_verified"] = verified
        if verified is False:
            _emit(report, args.as_json)
            _fail("witness failed replay", EXIT_AUDIT)
    _emit(report, args.as_json)
    return code


def oracle(args) -> int:
    """Brute-force search for a small (ABox, query, answer) witness of
    non-entailment; exit 1 when one is found."""
    p = _problem(args)
    witness = entailment.oracle_witness_search(
        p.t1, p.t2, p.sigA, p.sigQ, args.max_abox, args.max_cq, mode=args.mode
    )
    if witness is None:
        _emit({"mode": args.mode, "witness": None}, args.as_json)
        return EXIT_ENTAILS
    if not entailment.verify_witness(p.t1, p.t2, witness):
        _fail("witness failed replay", EXIT_AUDIT)
    _emit({"mode": args.mode, "witness": witness.to_json_obj()}, args.as_json)
    return EXIT_NON_ENTAILS


def materialize(args) -> int:
    """Dump a finite prefix of the universal model as JSON."""
    t = _parse(lambda text: normalize(parse_tbox(text)), args.tbox)
    a = _parse(parse_abox, args.abox)
    interp = models.materialize(models.UniversalModel(t, a), args.depth)
    print(interp.to_json())
    return EXIT_ENTAILS


def automaton(args) -> int:
    """Build the pipeline automata and print a summary or full dump."""
    from . import automata  # deferred: no other command needs it

    p = _problem(args)
    ctx = automata.build_label_context(p.t1, p.t2, p.sigA, p.sigQ)
    built = {
        "a1": lambda: automata.build_A1(ctx),
        "a2": lambda: automata.build_A2(p.t1, ctx),
        "a3": lambda: automata.build_A3(p.t2, ctx),
        "a4": lambda: automata.build_A4(p.t1, p.t2, ctx),
        "a4sim": lambda: automata.build_A4_sim(p.t1, p.t2, ctx),
    }
    if args.which == "product":
        aut = automata.intersect([built[k]() for k in ("a1", "a2", "a3", "a4")])
    else:
        aut = built[args.which]()
    if args.dump:
        sys.stdout.write(aut.dump())
    else:
        _emit({"name": aut.name, "states": len(aut.rules),
               "labels": len(ctx.labels), "root_labels": len(ctx.root_labels),
               "max_priority": aut.max_priority()}, args.as_json)
    return EXIT_ENTAILS


class _Parser(argparse.ArgumentParser):
    """Usage errors exit ``EXIT_USAGE`` with an ``error:`` line, not with
    argparse's 2, the precheck-failure code here.  Options are never
    abbreviated, and ``--help`` is the one help option."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this help")

    def error(self, message):
        self.print_usage(sys.stderr)
        _fail(message, EXIT_USAGE)


def _at_least(floor: int):
    """The type of an integer option no smaller than ``floor``."""

    def parse(text: str) -> int:
        if (value := int(text)) < floor:
            raise argparse.ArgumentTypeError(
                f"{value} is not in the range x>={floor}")
        return value

    parse.__name__ = "int"  # what argparse names in "invalid int value"
    return parse


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hornsep",
        description="Decide entailment, inseparability, and conservative "
                    "extensions between Horn description logic TBoxes.")
    commands = parser.add_subparsers(title="Commands", metavar="COMMAND")
    problem = (("--t1", "first TBox file"), ("--t2", "second TBox file"),
               ("--sigma-a", "ABox signature file"),
               ("--sigma-q", "query signature file"))

    def command(run, files):
        sub = commands.add_parser(run.__name__, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        for option, text in files:
            sub.add_argument(option, required=True, help=text)
        if files is problem:
            sub.add_argument("--json", dest="as_json", action="store_true",
                             help="JSON output")
        sub.add_argument("--time-limit", type=float,
                         help="wall-clock limit in seconds, 0 for none")
        sub.add_argument("--memory-mb", type=int,
                         help="address-space limit in MiB")
        return sub

    sub = command(check, problem)
    sub.add_argument("--mode", choices=list(MODES), default="cq",
                     help="entailment mode (default: %(default)s)")
    sub.add_argument("--verify-witness", action="store_true",
                     help="on non-entailment, replay the decision's witness")
    sub = command(oracle, problem)
    sub.add_argument("--mode", choices=("cq", "1tcq"), default="cq",
                     help="query class (default: %(default)s)")
    sub.add_argument("--max-abox", type=_at_least(1), default=2,
                     help="maximum ABox individuals (default: %(default)s)")
    sub.add_argument("--max-cq", type=_at_least(1), default=2,
                     help="maximum query variables (default: %(default)s)")
    sub = command(materialize, (("--tbox", "TBox file"),
                                ("--abox", "ABox file")))
    sub.add_argument("--depth", type=_at_least(0), default=0,
                     help="anonymous-tree depth (default: %(default)s)")
    sub = command(automaton, problem)
    sub.add_argument("--which", default="product",
                     choices=("a1", "a2", "a3", "a4", "a4sim", "product"),
                     help="automaton to build (default: %(default)s)")
    sub.add_argument("--dump", action="store_true",
                     help="print states, priorities, and guarded transitions")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the ``hornsep`` command line on ``argv`` (the process's
    arguments by default); return its exit code.  A bare ``hornsep``
    prints the help and exits 0."""
    parser = _parser()
    args = parser.parse_args(argv)
    if "run" not in args:
        parser.print_help()
        return EXIT_ENTAILS
    try:
        with _limits(args.time_limit, args.memory_mb):
            return args.run(args)
    except (MemoryError, HornsepError) as exc:
        code = next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))
        _fail("memory limit exceeded" if isinstance(exc, MemoryError)
              else str(exc), code)


if __name__ == "__main__":
    sys.exit(main())
