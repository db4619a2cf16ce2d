import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    abox_to_text,
    abox_tree_shaped,
    normal_tbox_to_text,
    signature_to_text,
    tbox_to_text,
)
from hornsep.syntax import (
    ABox,
    CQ,
    ConjSub,
    ParseError,
    ProfileError,
    Role,
    SubAll,
    SubBot,
    SubEx,
    TopSub,
    cq_is_1tcq,
    cq_to_text,
    cq_tree_shaped,
    cq_weakly_tree_shaped,
    is_elhifbot,
    normalize,
    parse_abox,
    parse_cq,
    parse_signature,
    parse_tbox,
)

NORMAL_SHAPES = (TopSub, SubBot, ConjSub, SubEx, SubAll)


def test_role_inverse_involution():
    r = Role("adv")
    assert r.inverse().inverse() == r
    assert r.inverse() != r


def test_parse_tbox_round_trip():
    text = (
        "A sub some r B\n"
        "B and C sub D\n"
        "some inv(s) A sub C\n"
        "r subr inv(s)\n"
        "func(s)"
    )
    t = parse_tbox(text)
    again = parse_tbox(tbox_to_text(t))
    assert tbox_to_text(again) == tbox_to_text(t)


def test_parse_abox_round_trip():
    a = parse_abox("A(x)\nr(x,y)\nB(y)")
    assert ("A", "x") in a.concept_assertions
    assert ("r", "x", "y") in a.role_assertions
    assert parse_abox(abox_to_text(a)).role_assertions == a.role_assertions


def test_parse_cq_shapes():
    q = parse_cq("q(x0) <- Prof(x0)")
    assert q.answer_vars == ("x0",)
    assert cq_is_1tcq(q)
    q2 = parse_cq("q(x,y) <- r(x,z), r(y,z)")
    assert not cq_is_1tcq(q2)
    assert parse_cq(cq_to_text(q2)).role_atoms == q2.role_atoms


def test_parse_signature_round_trip():
    s = parse_signature("concepts: A B\nroles: r")
    assert s.concepts == {"A", "B"} and s.roles == {"r"}
    assert parse_signature(signature_to_text(s)).concepts == s.concepts


@pytest.mark.parametrize(
    "bad",
    [
        "A sub",
        "sub B",
        "A subb B",
        "func(inv(r)) extra",
        "q(x <- A(x)",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        if "<-" in bad or bad.startswith("q("):
            parse_cq(bad)
        else:
            parse_tbox(bad)


def test_normalize_produces_only_normal_shapes():
    t = normalize(
        parse_tbox(
            "A sub some r (B and some s C)\n"
            "some r top sub D\n"
            "A and B sub only inv(r) C"
        )
    )
    assert all(isinstance(ci, NORMAL_SHAPES) for ci in t.cis)
    # the source vocabulary survives normalization
    assert {"A", "B", "C", "D"} <= t.concept_names()
    assert t.concept_names() - set(t.fresh) == {"A", "B", "C", "D"}


def test_normalize_rejects_value_restriction_on_left():
    with pytest.raises(ProfileError):
        normalize(parse_tbox("only r A sub B"))
    with pytest.raises(ProfileError):
        normalize(parse_tbox("some r (only s A) sub B"))


def test_is_elhifbot():
    assert is_elhifbot(parse_tbox("A sub some r B\nfunc(r)"))
    assert not is_elhifbot(parse_tbox("A sub only r B"))


def test_abox_tree_shaped():
    tree = parse_abox("r(a,b)\nr(a,c)")
    assert abox_tree_shaped(tree)
    cyc = parse_abox("r(a,b)\nr(b,c)\ns(c,a)")
    assert not abox_tree_shaped(cyc)
    multi = parse_abox("r(a,b)\ns(a,b)")
    assert not abox_tree_shaped(multi)


def test_cq_tree_shape_predicates():
    path = parse_cq("q(x) <- r(x,y), s(y,z)")
    assert cq_tree_shaped(path)
    assert cq_weakly_tree_shaped(path)
    cycle = parse_cq("q(x) <- r(x,y), r(y,z), r(z,x)")
    assert not cq_weakly_tree_shaped(cycle)


@st.composite
def concept_texts(draw, depth=2):
    names = st.sampled_from(["A", "B", "C"])
    if depth == 0:
        return draw(names)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(names)
    if kind == 1:
        left = draw(concept_texts(depth=depth - 1))
        right = draw(concept_texts(depth=depth - 1))
        return f"({left} and {right})"
    role = draw(st.sampled_from(["r", "s", "inv(r)"]))
    sub = draw(concept_texts(depth=depth - 1))
    word = "some" if kind == 2 else "only"
    return f"({word} {role} {sub})"


@given(lhs=concept_texts(), rhs=concept_texts())
@settings(max_examples=60, deadline=None)
def test_normalization_shape_property(lhs, rhs):
    """Any inclusion between Horn concepts normalizes into the five
    normal axiom shapes, with value restrictions only on the right."""
    try:
        t = normalize(parse_tbox(f"{lhs} sub {rhs}"))
    except ProfileError:
        # universal restrictions on the left are outside the profile
        assert "only" in lhs
        return
    assert all(isinstance(ci, NORMAL_SHAPES) for ci in t.cis)
    # the printed normal form parses back to itself
    text = normal_tbox_to_text(t)
    assert normal_tbox_to_text(normalize(parse_tbox(text))) == text


def test_empty_inputs():
    assert parse_tbox("").cis == []
    assert parse_abox("").individuals() == set()
    assert parse_signature("concepts:\nroles:").concepts == set()
