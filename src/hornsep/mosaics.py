"""Mosaic elimination for deciding I_{T2,t2}|con_Σ →fin_Σ I_{T1,t1}.

A mosaic decorates a 1-neighborhood of the universal model of (T1, t1)
with, per position (predecessor, the element itself, each successor),
the set of T2-types that finite partial homomorphisms can map onto that
position.  A local condition (M) makes a single labeling internally
consistent; the elimination loop then removes mosaics whose labels
cannot be continued into adjacent mosaics, and the question above
reduces to whether some surviving mosaic carries the root type of
I_{T2,t2} on its center.

Labels only ever need types that are realized in I_{T2,t2}; anything
else can never be the image type of a mapped element, so the label
alphabet is restricted accordingly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import models, reasoner
from .reasoner import index_for
from .syntax import NormalTBox, ResourceLimitError, Signature


class MosaicSpaceError(ResourceLimitError):
    """The candidate mosaic space exceeded the configured cap."""


#: soft cap on labelings generated per neighborhood
LABELING_CAP = 2_000_000


@dataclass(frozen=True)
class Neighborhood:
    tpre: object  # frozenset of concept names, or None at the root
    rho: object  # frozenset of Role, or None at the root
    t: frozenset
    S: frozenset  # frozenset of (rho', t') pairs


@dataclass(frozen=True)
class Mosaic:
    nb: Neighborhood
    pre_label: object  # frozenset of T2-types, or None when tpre is None
    self_label: frozenset
    s_labels: tuple  # sorted tuple of ((rho', t'), frozenset-of-types)


def _successor_pairs(tg: models.TypeGraph, node: models.TGNode) -> frozenset:
    return frozenset((rho, child.type) for _r, rho, child in tg.out[node])


def enumerate_neighborhoods(tbox1: NormalTBox, t1) -> set:
    tg = models.type_graph(tbox1, t1)
    out = {
        Neighborhood(None, None, tg.root.type, _successor_pairs(tg, tg.root))
    }
    for node in tg.nodes:
        for _r, rho, child in tg.out[node]:
            out.add(
                Neighborhood(
                    node.type, rho, child.type, _successor_pairs(tg, child)
                )
            )
    return out


def _sigma_concepts(t, sigma: Signature) -> frozenset:
    return frozenset(c for c in t if c in sigma.concepts)


def _sigma_roles(roles, sigma: Signature) -> frozenset:
    return frozenset(r for r in roles if r.name in sigma.roles)


def check_condition_M(m: Mosaic, tbox2: NormalTBox, sigma: Signature) -> bool:
    """Condition (M): every T2-type on the center fits its Σ-concepts,
    and each of its (σ|_Σ, successor type) obligations is absorbed by the
    predecessor or a successor position.  Successors reached only through
    non-Σ roles impose nothing."""
    children = index_for(tbox2).children
    for t_hat in m.self_label:
        if not _sigma_concepts(t_hat, sigma) <= m.nb.t:
            return False
        for _r, rho, t_next in children(t_hat):
            sig_roles = _sigma_roles(rho, sigma)
            if not sig_roles:
                continue
            # (b): the predecessor absorbs the successor obligation
            if (
                m.nb.tpre is not None
                and all(s.inverse() in m.nb.rho for s in sig_roles)
                and m.pre_label is not None
                and t_next in m.pre_label
            ):
                continue
            # (c): some successor position absorbs it
            if any(
                sig_roles <= pos[0] and t_next in lab
                for pos, lab in m.s_labels
            ):
                continue
            return False
    return True


def _allowed(realized2, sigma: Signature, center: frozenset) -> list:
    return [t for t in realized2 if _sigma_concepts(t, sigma) <= center]


def enumerate_mosaics(
    nb: Neighborhood, tbox2: NormalTBox, sigma: Signature, realized2
) -> list:
    """All mosaics over nb that satisfy condition (M), with labels drawn
    from the realized T2-types and pre-filtered per position."""
    positions = sorted(nb.S, key=lambda p: (sorted(map(str, p[0])), sorted(p[1])))
    self_pool = _allowed(realized2, sigma, nb.t)
    pos_pools = [_allowed(realized2, sigma, t2) for _rho, t2 in positions]
    pre_pool = (
        _allowed(realized2, sigma, nb.tpre) if nb.tpre is not None else None
    )

    count = 2 ** len(self_pool)
    for pool in pos_pools:
        count *= 2 ** len(pool)
    if pre_pool is not None:
        count *= 2 ** len(pre_pool)
    if count > LABELING_CAP:
        raise MosaicSpaceError(
            f"mosaic labeling space for one neighborhood is {count}, "
            f"cap is {LABELING_CAP}"
        )

    def subsets(pool):
        for k in range(len(pool) + 1):
            for combo in itertools.combinations(pool, k):
                yield frozenset(combo)

    out = []
    for self_label in subsets(self_pool):
        if nb.tpre is None:
            pre_choices = [None]
        else:
            pre_choices = list(subsets(pre_pool))
        for pre_label in pre_choices:
            for pos_labels in itertools.product(
                *(list(subsets(pool)) for pool in pos_pools)
            ):
                m = Mosaic(
                    nb,
                    pre_label,
                    self_label,
                    tuple(zip(positions, pos_labels)),
                )
                if check_condition_M(m, tbox2, sigma):
                    out.append(m)
    return out


def _is_good(m: Mosaic, down_index: set, up_index: set) -> bool:
    for pos, lab in m.s_labels:
        rho, t2 = pos
        if (m.nb.t, rho, t2, m.self_label, lab) not in down_index:
            return False
    if m.nb.tpre is not None:
        key = (m.nb.tpre, m.pre_label, (m.nb.rho, m.nb.t), m.self_label)
        if key not in up_index:
            return False
    return True


def eliminate(mosaics) -> set:
    """Greatest subset in which every mosaic is good: every successor
    position continues into a mosaic centered there with matching labels,
    and every non-root mosaic is some mosaic's successor position."""
    current = set(mosaics)
    while True:
        down_index = set()
        up_index = set()
        for n in current:
            if n.nb.tpre is not None:
                down_index.add(
                    (n.nb.tpre, n.nb.rho, n.nb.t, n.pre_label, n.self_label)
                )
            for pos, lab in n.s_labels:
                up_index.add((n.nb.t, n.self_label, pos, lab))
        keep = {m for m in current if _is_good(m, down_index, up_index)}
        if keep == current:
            return current
        current = keep


def decide_fin_hom(
    tbox1: NormalTBox,
    t1,
    tbox2: NormalTBox,
    t2,
    sigma: Signature,
) -> bool:
    """I_{T2,t2}|con_Σ →fin_Σ I_{T1,t1}?"""
    idx1 = index_for(tbox1)
    idx2 = index_for(tbox2)
    if not idx1.consistent(t1) or not idx2.consistent(t2):
        raise reasoner.InconsistentABoxError(
            "bounded-homomorphism question over an inconsistent type"
        )
    root2 = idx2.type_of(t2)
    tg2 = models.type_graph(tbox2, t2)
    realized2 = sorted({node.type for node in tg2.nodes}, key=sorted)

    candidates = []
    for nb in enumerate_neighborhoods(tbox1, t1):
        candidates.extend(enumerate_mosaics(nb, tbox2, sigma, realized2))
    surviving = eliminate(candidates)
    return any(root2 in m.self_label for m in surviving)

