import random

import pytest

from helpers import fin_hom_reference, random_tbox_text
from hornsep import mosaics, normalize, parse_signature, parse_tbox
from hornsep.automata import _T2Space, build_label_context
from hornsep.mosaics import (
    Mosaic,
    MosaicSpaceError,
    Neighborhood,
    check_condition_M,
    decide_fin_hom,
    eliminate,
    enumerate_mosaics,
    enumerate_neighborhoods,
)
from hornsep.reasoner import InconsistentABoxError, index_for
from hornsep.syntax import Role


def nt(text):
    return normalize(parse_tbox(text))


def sig(text):
    return parse_signature(text)


def test_enumerate_neighborhoods_of_chain():
    t = nt("A sub some r A")
    nbs = enumerate_neighborhoods(t, frozenset({"A"}))
    roots = [nb for nb in nbs if nb.tpre is None]
    inner = [nb for nb in nbs if nb.tpre is not None]
    assert len(roots) == 1 and roots[0].t == frozenset({"A"})
    assert inner and all("A" in nb.t for nb in inner)


def test_condition_m_requires_sigma_concepts_on_center():
    """A label type whose signature concepts exceed the center's type is
    locally inconsistent."""
    t2 = nt("")
    s = sig("concepts: A B\nroles: r")
    nb = Neighborhood(None, None, frozenset({"A"}), frozenset())
    bad = Mosaic(nb, None, frozenset({frozenset({"A", "B"})}), ())
    good = Mosaic(nb, None, frozenset({frozenset({"A"})}), ())
    assert not check_condition_M(bad, t2, s)
    assert check_condition_M(good, t2, s)


def test_condition_m_successor_obligation():
    # a type demanding an r-successor must place it on some position
    t2 = nt("A sub some r B")
    s = sig("concepts: A B\nroles: r")
    idx = index_for(t2)
    ta = idx.type_of({"A"})
    tb = idx.type_of({"B"})
    bare = Neighborhood(None, None, frozenset({"A"}), frozenset())
    assert not check_condition_M(
        Mosaic(bare, None, frozenset({ta}), ()), t2, s
    )
    rho = index_for(t2).superroles(Role("r"))
    pos = (rho, frozenset({"B"}))
    nb = Neighborhood(None, None, frozenset({"A"}), frozenset({pos}))
    filled = Mosaic(nb, None, frozenset({ta}), ((pos, frozenset({tb})),))
    empty = Mosaic(nb, None, frozenset({ta}), ((pos, frozenset()),))
    assert check_condition_M(filled, t2, s)
    assert not check_condition_M(empty, t2, s)


def test_eliminate_keeps_continuable_mosaics():
    t1 = nt("A sub some r A")
    t2 = nt("")
    s = sig("concepts: A\nroles: r")
    realized = [index_for(t2).type_of({"A"})]
    cands = []
    for nb in enumerate_neighborhoods(t1, frozenset({"A"})):
        cands.extend(enumerate_mosaics(nb, t2, s, realized))
    surviving = eliminate(cands)
    assert surviving
    root2 = index_for(t2).type_of({"A"})
    assert any(root2 in m.self_label for m in surviving)


def test_decide_fin_hom_identity():
    t = nt("A sub some r B")
    s = sig("concepts: A B\nroles: r")
    assert decide_fin_hom(t, frozenset({"A"}), t, frozenset({"A"}), s)


def test_decide_fin_hom_missing_edge():
    t1 = nt("")
    t2 = nt("A sub some r B")
    s = sig("concepts: A B\nroles: r")
    assert not decide_fin_hom(t1, frozenset({"A"}), t2, frozenset({"A"}), s)
    # invisible roles hide the successor entirely
    s2 = sig("concepts: A B\nroles:")
    assert decide_fin_hom(t1, frozenset({"A"}), t2, frozenset({"A"}), s2)


def test_decide_fin_hom_direction_flip():
    """Finite pieces of a forward chain shift into an inverse chain, so
    both directions hold even though the chases differ."""
    fwd = nt("B sub some r B")
    bwd = nt("B sub some inv(r) B")
    s = sig("concepts: B\nroles: r")
    b = frozenset({"B"})
    assert decide_fin_hom(bwd, b, fwd, b, s)
    assert decide_fin_hom(fwd, b, bwd, b, s)


def test_decide_fin_hom_inconsistent_type_raises():
    t = nt("A sub bot")
    s = sig("concepts: A\nroles:")
    with pytest.raises(InconsistentABoxError):
        decide_fin_hom(t, frozenset({"A"}), nt(""), frozenset({"A"}), s)


def test_compute_rq_roots_of_query_subtrees():
    """A4 opens a query subtree at every type-graph node entered by an
    edge without a query role."""
    t2 = nt("A sub some r B\nA sub some s C")
    ctx = build_label_context(nt(""), t2, sig("concepts: A\nroles:"),
                              sig("concepts:\nroles: r"))
    rq = _T2Space(t2, ctx).rq[frozenset({"A"})]
    # only the s-successor enters through a non-query edge
    assert any("C" in node.type for node in rq)
    assert not any("B" in node.type for node in rq)


def test_labeling_cap_enforced(monkeypatch):
    monkeypatch.setattr(mosaics, "LABELING_CAP", 2)
    t = nt("A sub some r B\nA sub some s C")
    s = sig("concepts: A B C\nroles: r s")
    with pytest.raises(MosaicSpaceError):
        decide_fin_hom(t, frozenset({"A"}), t, frozenset({"A"}), s)


def test_random_agreement_with_bounded_oracle():
    """Spot-check against the unfolding-based reference in both
    directions; the larger run is an acceptance criterion."""
    rng = random.Random(11)
    checked = 0
    for _ in range(30):
        tb1 = nt(random_tbox_text(rng, ["A", "B", "C"], ["r", "s"], 3))
        tb2 = nt(random_tbox_text(rng, ["A", "B", "C"], ["r", "s"], 3))
        t0 = frozenset(rng.sample(["A", "B", "C"], rng.randint(1, 2)))
        s = sig(
            "concepts: "
            + " ".join(rng.sample(["A", "B", "C"], rng.randint(1, 3)))
            + "\nroles: "
            + " ".join(rng.sample(["r", "s"], rng.randint(1, 2)))
        )
        if not (
            index_for(tb1).consistent(t0) and index_for(tb2).consistent(t0)
        ):
            continue
        checked += 1
        got = decide_fin_hom(tb1, t0, tb2, t0, s)
        want = all(
            fin_hom_reference(tb1, t0, tb2, t0, s, n) for n in range(1, 5)
        )
        assert got == want, (tb1, tb2, sorted(t0), s, got)
    assert checked >= 15
