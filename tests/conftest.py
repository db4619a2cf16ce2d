import time
import warnings
from contextlib import contextmanager

import pytest

from hornsep import parse_signature, parse_tbox
from hornsep.entailment import make_problem


def problem(t1_text, t2_text, siga_text, sigq_text):
    return make_problem(
        parse_tbox(t1_text),
        parse_tbox(t2_text),
        parse_signature(siga_text),
        parse_signature(sigq_text),
    )


@contextmanager
def within(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


@pytest.fixture
def advisor_problem():
    """A student with an advised-by edge to a professor; the second TBox
    additionally makes advised-by functional, which lets it pull the
    professor onto the asserted adviser."""
    t1 = "PhDStud sub some advBy Prof\nadv subr inv(advBy)"
    with warnings.catch_warnings():
        # adv subr inv(advBy) with func(advBy) triggers the conjectural
        # functional-subrole warning; it is the intended fixture
        warnings.simplefilter("ignore", UserWarning)
        return problem(
            t1,
            t1 + "\nfunc(advBy)",
            "concepts: PhDStud\nroles: adv",
            "concepts: Prof\nroles:",
        )


@pytest.fixture
def disjointness_problem():
    """The second TBox only adds a disjointness, which is invisible to
    queries over consistent ABoxes."""
    return problem(
        "",
        "A1 and A2 sub bot",
        "concepts: A1 A2\nroles:",
        "concepts: A1 A2\nroles:",
    )


@pytest.fixture
def inverse_chain_problem():
    """Both TBoxes build an infinite chain below B; they disagree only on
    the direction of the chain edges."""
    return problem(
        "A sub some s B\nB sub some inv(r) B",
        "A sub some s B\nB sub some r B",
        "concepts: A\nroles:",
        "concepts:\nroles: r",
    )
