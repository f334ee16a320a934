import collections
import dataclasses
import itertools
import json
import os
import subprocess
import sys

import pytest

import finsite
import oracles
from finsite import catalog, cli, internal
from finsite.fincat import FinSetCat, PullbackSquare, SetMap
from finsite.site import FinSetTopology

FS = FinSetCat()
T_SURJ = FinSetTopology("surjections")


@pytest.fixture(scope="module")
def gpds():
    return catalog.standard_groupoids()


def test_groupoid_fixtures_validate(gpds):
    for name in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1"):
        assert internal.validate_groupoid(gpds[name]).ok, name


def test_broken_groupoid_fails():
    two = frozenset({0, 1})
    point = frozenset({"*"})
    bad = internal.make_groupoid(
        FS,
        X0=point,
        X1=two,
        s=lambda m: "*",
        t=lambda m: "*",
        i=lambda x: 0,
        comp=lambda g, h: g or h,  # not a group law, 1 has no inverse
        inv=lambda m: m,
    )
    assert not internal.validate_groupoid(bad).ok


def _with(G, **parts):
    """G with some of s, t, i, comp and inv replaced, on the same X2."""
    parts = {"s": G.s, "t": G.t, "i": G.i, "comp": G.comp, "inv": G.inv, **parts}
    return internal.InternalGroupoid(G.ambient, G.X0, G.X1, X2=G.X2, name=G.name, **parts)


def _single_entry_mutations(G, fields=("comp", "inv", "i")):
    """Every groupoid differing from G in one entry of one of the fields."""
    for field in fields:
        f = getattr(G, field)
        for k in sorted(f.mapping, key=repr):
            for v in sorted(f.tgt - {f.mapping[k]}, key=repr):
                yield _with(G, **{field: SetMap(f.src, f.tgt, {**f.mapping, k: v})})


def test_groupoid_verdicts_match_oracle_on_single_entry_mutations(gpds):
    """validate_groupoid against the definitional oracle on every groupoid one
    entry of comp, inv or i away from a valid one; a ValueError is invalid.
    The first failing axiom is pinned too: the laws are checked in order."""
    bases = [catalog.pair_groupoid(range(2)), catalog.pair_groupoid(range(3))]
    bases += [catalog.cyclic_groupoid(3), catalog.cyclic_groupoid(4)]
    bases += [gpds[n] for n in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")]
    first_failures = collections.Counter()
    for H in (H for G in bases for H in (G, *_single_entry_mutations(G))):
        try:
            report = internal.validate_groupoid(H)
        except ValueError:
            report = None
        maps = (H.s, H.t, H.i, H.comp, H.inv)
        want = oracles.groupoid_laws(H.X0, H.X1, *(m.mapping for m in maps))
        assert bool(report) == want, H.name
        axiom = "raised" if report is None else (report.counterexample or {"axiom": "none"})["axiom"]
        first_failures[axiom] += 1
    assert first_failures == {
        "none": 7,
        "unit-section": 36,
        "comp-endpoints-compat": 264,
        "left-unit": 26,
        "right-unit": 14,
        "associativity": 35,
        "inverse-endpoints": 96,
        "left-inverse": 21,
    }


def test_groupoid_verdicts_match_oracle_on_every_inverse_map():
    """validate_groupoid reads the left inverse law alone, as the laws read
    before it imply the right one (_groupoid_laws); the oracle reads both.
    Their verdicts agree on every inverse map of pair_groupoid(range(2)) and
    of Z/4, and on every inverse map of pair_groupoid(range(3)) that varies
    its first three arrows in repr order, and the first failing axiom is
    pinned: one inverse map per groupoid has the right endpoints."""
    first_failures = collections.Counter()
    cases = [(catalog.pair_groupoid(range(2)), 4), (catalog.cyclic_groupoid(4), 4)]
    for G, k in [*cases, (catalog.pair_groupoid(range(3)), 3)]:
        arrows = sorted(G.X1, key=repr)
        for values in itertools.product(arrows, repeat=k):
            H = _with(G, inv=SetMap(G.X1, G.X1, {**G.inv.mapping, **dict(zip(arrows, values))}))
            report = internal.validate_groupoid(H)
            maps = (H.s, H.t, H.i, H.comp, H.inv)
            assert bool(report) == oracles.groupoid_laws(H.X0, H.X1, *(m.mapping for m in maps)), values
            first_failures[(report.counterexample or {"axiom": "none"})["axiom"]] += 1
    assert first_failures == {"none": 3, "inverse-endpoints": 983, "left-inverse": 255}


def test_mistyped_unit_and_inverse_keep_the_composite_outcomes(gpds):
    """Laws checked at points still reject maps that do not compose: a unit or
    inverse landing outside X1 cannot be composed with s, and a unit defined
    off X0 or an inverse defined off X1 has the wrong endpoints."""
    G = gpds["FIX-PAIR2"]
    wide = G.X1 | {"extra"}
    with pytest.raises(ValueError, match="^not composable$"):
        internal.validate_groupoid(_with(G, i=SetMap(G.X0, wide, G.i.mapping)))
    with pytest.raises(ValueError, match="^not composable$"):
        internal.validate_groupoid(_with(G, inv=SetMap(G.X1, wide, G.inv.mapping)))
    off = _with(G, inv=SetMap(wide, G.X1, {**G.inv.mapping, "extra": (0, 0)}))
    assert internal.validate_groupoid(off).counterexample == {"axiom": "inverse-endpoints"}
    off = _with(G, i=SetMap(G.X0 | {"extra"}, G.X1, {**G.i.mapping, "extra": (0, 0)}))
    assert internal.validate_groupoid(off).counterexample == {"axiom": "unit-section"}


def test_mistyped_target_and_composition_fail_their_endpoints(gpds):
    """A source or target map, or a comp, into a set wider than X0, or than
    X1, has the wrong endpoints."""
    G = gpds["FIX-PAIR2"]
    off = _with(G, s=SetMap(G.X1, G.X0 | {"extra"}, G.s.mapping))
    assert internal.validate_groupoid(off).counterexample == {"axiom": "source-endpoints"}
    off = _with(G, t=SetMap(G.X1, G.X0 | {"extra"}, G.t.mapping))
    assert internal.validate_groupoid(off).counterexample == {"axiom": "target-endpoints"}
    off = _with(G, comp=SetMap(G.X2.apex, G.X1 | {"extra"}, G.comp.mapping))
    assert internal.validate_groupoid(off).counterexample == {"axiom": "comp-endpoints"}


def test_action_on_a_wrong_domain_or_into_a_wrong_carrier_fails(gpds):
    """FIX-PAIR2 acting on its arrows validates; over the fibre product of
    (anchor, s) in place of (anchor, t) it fails domain, and with its act
    into a set wider than the carrier it fails act-endpoints."""
    G = gpds["FIX-PAIR2"]
    a = internal.groupoid_as_bundle(G).action
    assert internal.validate_action(a).ok
    off = dataclasses.replace(a, dom=FS.pullback(a.anchor, G.s))
    assert internal.validate_action(off).counterexample == {"axiom": "domain"}
    off = dataclasses.replace(a, act=SetMap(a.dom.apex, a.carrier | {"extra"}, a.act.mapping))
    assert internal.validate_action(off).counterexample == {"axiom": "act-endpoints"}


def test_action_over_a_groupoid_with_misplaced_composites_fails_groupoid():
    """An action whose groupoid's comp breaks the endpoints of its factors
    fails with the groupoid's own law, before its associativity square reads
    a pairing that does not factor: once the groupoid, the domain and the
    anchor square hold, every read of the act's table factors."""
    G = catalog.pair_groupoid(range(2))
    bad = _with(G, comp=SetMap(G.comp.src, G.X1, {**G.comp.mapping, ((0, 0), (0, 0)): (1, 0)}))
    assert internal.validate_principal_bundle(internal.groupoid_as_bundle(bad)).counterexample == {
        "axiom": "groupoid",
        "groupoid": {"axiom": "comp-endpoints-compat"},
    }


def test_comp_on_every_pair_of_arrows_fails_x2():
    """X2 is checked against the cospan (s, t): the pair groupoid on three
    points with X2 the 81 pairs of arrows over a point, and comp extended to
    them by the endpoints of its factors, fails X2, as the oracle, whose comp
    is defined on the 27 composable pairs alone, fails it."""
    G = catalog.pair_groupoid(range(3))
    bang = SetMap(G.X1, frozenset({"*"}), dict.fromkeys(G.X1, "*"))
    X2 = FS.pullback(bang, bang)
    comp = SetMap(X2.apex, G.X1, {(g, h): (g[0], h[1]) for g, h in X2.apex})
    wide = internal.InternalGroupoid(FS, G.X0, G.X1, G.s, G.t, G.i, comp, G.inv, X2)
    assert len(X2.apex) == 81 and len(G.X2.apex) == 27
    assert not oracles.groupoid_laws(G.X0, G.X1, *(m.mapping for m in (G.s, G.t, G.i, comp, G.inv)))
    assert internal.validate_groupoid(wide).counterexample == {"axiom": "X2"}


def test_pair_groupoid_with_identity_inverse_fails_inverse_endpoints():
    X0 = frozenset(range(4))
    bad = internal.make_groupoid(
        FS,
        X0=X0,
        X1=frozenset((a, b) for a in X0 for b in X0),
        s=lambda m: m[1],
        t=lambda m: m[0],
        i=lambda x: (x, x),
        comp=lambda g, h: (g[0], h[1]),
        inv=lambda m: m,
    )
    assert internal.validate_groupoid(bad).counterexample == {"axiom": "inverse-endpoints"}


def test_trivial_z4_action_on_a_point_fails_shear():
    B = _cyclic_action(4, {"p"}, lambda x, g: x)
    assert internal.validate_principal_bundle(B).counterexample == {"axiom": "shear-not-iso"}


def test_opposite_groupoid_validates(gpds):
    for name in ("FIX-PAIR2", "FIX-Z2GPD"):
        assert internal.validate_groupoid(internal.opposite_groupoid(gpds[name])).ok


def unique_functor_to_triv1(G, triv1):
    return internal.InternalFunctor(
        G,
        triv1,
        SetMap(G.X0, triv1.X0, {x: "*" for x in G.X0}),
        SetMap(G.X1, triv1.X1, {m: 0 for m in G.X1}),
    )


def test_pair_groupoid_collapse_is_weak_equivalence(gpds):
    F = unique_functor_to_triv1(gpds["FIX-PAIR2"], gpds["FIX-TRIV1"])
    assert internal.validate_internal_functor(F).ok
    assert internal.is_fully_faithful(F)
    assert internal.is_weak_equivalence(F, T_SURJ)


def test_z2_collapse_is_not_fully_faithful(gpds):
    F = unique_functor_to_triv1(gpds["FIX-Z2GPD"], gpds["FIX-TRIV1"])
    assert internal.validate_internal_functor(F).ok
    assert not internal.is_fully_faithful(F)
    assert not internal.is_weak_equivalence(F, T_SURJ)


def test_refinement_samples_are_weak_equivalences(gpds):
    z2 = gpds["FIX-Z2GPD"]
    pair2 = gpds["FIX-PAIR2"]
    samples = []
    # surjective anchors onto the groupoid objects
    yp = frozenset({"a", "b"})
    samples.append((z2, SetMap(yp, z2.X0, {"a": "*", "b": "*"})))
    y2 = frozenset({"p", "q", "r"})
    samples.append((pair2, SetMap(y2, pair2.X0, {"p": 0, "q": 1, "r": 1})))
    for G, pi in samples:
        Gpi = internal.refine_groupoid(G, pi)
        assert internal.validate_groupoid(Gpi).ok
        to_base = internal.refinement_to_base(G, Gpi, pi)
        assert internal.validate_internal_functor(to_base).ok
        assert internal.is_weak_equivalence(to_base, T_SURJ)


def test_refinement_functor_between_refinements(gpds):
    z2 = gpds["FIX-Z2GPD"]
    y = frozenset({"a0", "a1", "b0"})
    yp = frozenset({"a", "b"})
    rho = SetMap(y, yp, {"a0": "a", "a1": "a", "b0": "b"})
    pi_prime = SetMap(yp, z2.X0, {"a": "*", "b": "*"})
    F = internal.refinement_functor(z2, rho, pi_prime)
    assert internal.validate_internal_functor(F).ok
    assert internal.is_weak_equivalence(F, T_SURJ)


def test_trivial_bundle_shear_is_identity(gpds):
    pair2 = gpds["FIX-PAIR2"]
    U = frozenset({"u", "v", "w"})
    psi = SetMap(U, pair2.X0, {"u": 0, "v": 1, "w": 0})
    tb = internal.trivial_bundle(pair2, psi)
    assert internal.validate_principal_bundle(tb).ok
    assert FS.is_identity(internal.shear_map(tb))


def test_z2_bundle_principal_with_4_by_4_shear(gpds):
    B = gpds["FIX-Z2BUNDLE"]
    assert internal.validate_principal_bundle(B).ok
    sh = internal.shear_map(B)
    assert len(sh.src) == 4 and len(sh.tgt) == 4
    assert sh.is_bijective()


def _relabel(square, *maps):
    """The square with its apex renamed to 0, 1, ... (same legs and cospan),
    and each map out of its apex re-keyed to match."""
    label = {z: k for k, z in enumerate(sorted(square.apex, key=repr))}
    apex = frozenset(label.values())

    def rekey(f):
        return SetMap(apex, f.tgt, {label[z]: v for z, v in f.mapping.items()})

    relabelled = PullbackSquare(apex, rekey(square.to_left), rekey(square.to_right), square.f, square.g)
    return (relabelled, *map(rekey, maps))


def test_z2_bundle_with_relabelled_designated_fibre_product(gpds):
    B = gpds["FIX-Z2BUNDLE"]
    (pb,) = _relabel(FS.pullback(B.p, B.p))
    relabelled = dataclasses.replace(B, designated_pb=pb)
    assert internal.validate_principal_bundle(relabelled).ok
    sh = internal.shear_map(relabelled)
    assert sh.tgt == pb.apex and sh.is_bijective()


def test_principal_bundle_names_invariance_and_designated_fibre_product(gpds):
    """FIX-Z2BUNDLE's action projected by the identity of its carrier is not
    invariant: x acted on by 1 is x + 1.  Over the point, with the action's
    domain named as P x_X P through its left leg twice, the designated
    square is no fibre product."""
    B = gpds["FIX-Z2BUNDLE"]
    two = B.action.carrier
    over_itself = internal.Bundle(B.gpd, B.action, two, FS.identity(two))
    assert internal.validate_principal_bundle(over_itself).counterexample == {"axiom": "invariance"}
    d = B.action.dom
    named = dataclasses.replace(B, designated_pb=PullbackSquare(d.apex, d.to_left, d.to_left, B.p, B.p))
    assert internal.validate_principal_bundle(named).counterexample == {
        "axiom": "designated-fibre-product"
    }


def test_bibundle_whose_actions_do_not_commute_fails_actions_commute():
    """Z/2 acts on Z/3 on the left by x -> -x, and Z/3 on the right by
    translation, both anchored at the point.  Each action is lawful and the
    right one is principal, but (g x) h = -x + h differs from g (x h) = -x - h."""
    G, H = catalog.cyclic_groupoid(2), catalog.cyclic_groupoid(3)
    Z3 = H.X1
    point = SetMap(Z3, G.X0, {x: "*" for x in Z3})
    ldom, rdom = FS.pullback(G.s, point), FS.pullback(point, H.t)
    negate = SetMap(ldom.apex, Z3, {(g, x): -x % 3 if g else x for g, x in ldom.apex})
    translate = SetMap(rdom.apex, Z3, {(x, h): (x + h) % 3 for x, h in rdom.apex})
    left = internal.LeftAction(G, Z3, point, negate, ldom)
    P = internal.Bibundle(Z3, left, internal.RightAction(H, Z3, point, translate, rdom))
    assert internal.validate_action(internal.left_action_as_right(left)).ok
    assert internal.validate_principal_bundle(internal.right_bundle(P)).ok
    assert internal.validate_bibundle(P).counterexample == {"axiom": "actions-commute"}


def test_groupoid_as_bundle(gpds):
    for name in ("FIX-PAIR2", "FIX-Z2GPD"):
        B = internal.groupoid_as_bundle(gpds[name])
        assert internal.validate_principal_bundle(B).ok


def test_bundles_locally_trivial(gpds):
    B = gpds["FIX-Z2BUNDLE"]
    for kind in ("surjections", "isos", "all"):
        assert internal.is_locally_trivial(B, FinSetTopology(kind)).ok


def test_section_trivialization_round_trip(gpds):
    B = gpds["FIX-Z2BUNDLE"]
    U = frozenset({"x", "y"})
    pi = SetMap(U, B.base, {"x": "*", "y": "*"})
    sections = internal.sections_over(B, pi)
    assert len(sections) == 4
    for sigma in sections:
        triv = internal.section_to_trivialization(B, sigma, pi)
        assert internal.validate_trivialization(B, triv, pi)
        back = internal.trivialization_to_section(B, triv, pi)
        assert back == sigma


def test_trivialization_round_trips_in_a_table_ambient():
    """The bundle of arrows of the discrete groupoid on {a, b}, in a table
    copy of finite sets, has one section over a map from {0, 1, 2}; its
    trivialization, built from the table's pullbacks and mediators, is
    valid and gives the section back."""
    disc = _disc2()
    U = frozenset({0, 1, 2})
    amb = TableAmbient([disc.X0, disc.X2.apex, U])
    B = internal.groupoid_as_bundle(internal.map_groupoid(amb, disc))
    pi = amb.on_mor(SetMap(U, disc.X0, {0: "a", 1: "a", 2: "b"}))
    (sigma,) = internal.sections_over(B, pi)
    triv = internal.section_to_trivialization(B, sigma, pi)
    assert internal.validate_trivialization(B, triv, pi)
    assert internal.trivialization_to_section(B, triv, pi) == sigma


def test_trivialization_with_a_bad_phi_is_invalid(gpds):
    """Over a point sent to 0, the bundle of arrows of the pair groupoid on
    {0, 1} has a trivialization whose phi is a bijection over U; swapping
    its two values breaks the anchors, and a phi from another set has the
    wrong source: both are invalid, where reading them elementwise raised
    KeyError."""
    B = internal.groupoid_as_bundle(gpds["FIX-PAIR2"])
    U = frozenset({"u"})
    pi = SetMap(U, B.base, {"u": 0})
    triv = internal.section_to_trivialization(B, internal.sections_over(B, pi)[0], pi)
    assert internal.validate_trivialization(B, triv, pi)
    (e1, x1), (e2, x2) = triv.phi.mapping.items()
    swapped = SetMap(triv.phi.src, triv.phi.tgt, {e1: x2, e2: x1})
    elsewhere = SetMap({"v", "w"}, triv.phi.tgt, {"v": x1, "w": x2})
    for phi in (swapped, elsewhere):
        assert FS.is_iso(phi)
        assert internal.validate_trivialization(B, internal.Trivialization(triv.psi, phi), pi) is False


def test_bibundle_whose_right_anchor_is_not_left_invariant_fails():
    """Z/2 acts on {0, 1, 2} on the left by x -> -x, anchored at the point,
    and the pair groupoid on {0, 1, 2} on the right by x h = s(h), anchored
    by the identity.  The left action is lawful and the right bundle is
    principal, but the right anchor of 1 acted on by 1 is 2, not 1."""
    G, H = catalog.cyclic_groupoid(2), catalog.pair_groupoid(range(3))
    X = H.X0
    point, ident = SetMap(X, G.X0, dict.fromkeys(X, "*")), FS.identity(X)
    ldom, rdom = FS.pullback(G.s, point), FS.pullback(ident, H.t)
    negate = SetMap(ldom.apex, X, {(g, x): -x % 3 if g else x for g, x in ldom.apex})
    to_source = SetMap(rdom.apex, X, {(x, h): H.s(h) for x, h in rdom.apex})
    left = internal.LeftAction(G, X, point, negate, ldom)
    P = internal.Bibundle(X, left, internal.RightAction(H, X, ident, to_source, rdom))
    assert internal.validate_action(internal.left_action_as_right(left)).ok
    assert internal.validate_principal_bundle(internal.right_bundle(P)).ok
    assert internal.validate_bibundle(P).counterexample == {"axiom": "right-anchor-left-invariant"}


def test_bundle_whose_projection_misses_a_base_point_is_not_locally_trivial(gpds):
    """FIX-Z2BUNDLE over the point and one more base point: its projection
    is not surjective, so no surjection covering the base splits it."""
    B = gpds["FIX-Z2BUNDLE"]
    wide = B.base | {"extra"}
    off = dataclasses.replace(B, base=wide, p=SetMap(B.action.carrier, wide, B.p.mapping))
    assert internal.is_locally_trivial(off, T_SURJ).counterexample == {"projection": repr(off.p)}


def test_pullback_bundle_acts_on_the_second_factor():
    """The bundle of arrows of pair_groupoid(range(3)) and of Z/4 pulled back
    along every map f from a 2-point set U: its carrier is the pair set
    U x_{f,t} X1, projected to U, anchored by s of the second factor, and
    acted on by (z, y) g = (z, y g); and it is principal."""
    U = frozenset({"u", "v"})
    for G in (catalog.pair_groupoid(range(3)), catalog.cyclic_groupoid(4)):
        B = internal.groupoid_as_bundle(G)
        for f in FS.hom(U, G.X0):
            P = internal.pullback_bundle(f, B)
            a = P.action
            assert a.carrier == {(z, y) for z in U for y in G.X1 if f(z) == G.t(y)}
            assert P.base == U and all(P.p(zy) == zy[0] and a.anchor(zy) == G.s(zy[1]) for zy in a.carrier)
            assert a.dom.apex == {(zy, g) for zy in a.carrier for g in G.X1 if a.anchor(zy) == G.t(g)}
            assert all(a.act(((z, y), g)) == (z, G.comp((y, g))) for (z, y), g in a.dom.apex)
            assert internal.validate_principal_bundle(P).ok


def test_pullback_bundle_in_a_table_ambient_is_principal():
    """The bundle of arrows of the discrete groupoid on {a, b}, in a table
    copy of finite sets, pulled back along a map from {0, 1, 2}: built
    from the table's pullbacks and mediators, it is principal over
    {0, 1, 2}, and its projection is an iso, as each point has one arrow."""
    disc = _disc2()
    U = frozenset({0, 1, 2})
    amb = TableAmbient([disc.X0, disc.X2.apex, U])
    B = internal.groupoid_as_bundle(internal.map_groupoid(amb, disc))
    P = internal.pullback_bundle(amb.on_mor(SetMap(U, disc.X0, {0: "a", 1: "a", 2: "b"})), B)
    assert internal.validate_principal_bundle(P).ok
    assert P.base == amb.on_obj(U) and amb.target.is_iso(P.p)


def all_internal_functors(G, H):
    out = []
    for f0 in FS.hom(G.X0, H.X0):
        for f1 in FS.hom(G.X1, H.X1):
            F = internal.InternalFunctor(G, H, f0, f1)
            if internal.validate_internal_functor(F).ok:
                out.append(F)
    return out


def test_bibundles_from_functors(gpds):
    names = ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")
    count = 0
    for a in names:
        for b in names:
            for F in all_internal_functors(gpds[a], gpds[b]):
                P = internal.bibundle_from_functor(F)
                report = internal.validate_bibundle(P)
                assert report.ok and report.check == "validate_bibundle"
                for kind in ("surjections", "isos", "all"):
                    rb = internal.right_bundle(P)
                    assert internal.is_locally_trivial(rb, FinSetTopology(kind)).ok
                A = internal.anafunctor_from_bibundle(P, T_SURJ)
                assert internal.validate_anafunctor(A, T_SURJ).ok
                A2 = internal.anafunctor_from_functor(F)
                assert internal.are_isomorphic_anafunctors(A, A2)
                count += 1
    assert count >= 8


def _identity_functor(G):
    return internal.InternalFunctor(G, G, FS.identity(G.X0), FS.identity(G.X1))


def _relabelled_groupoid(G):
    X2, comp = _relabel(G.X2, G.comp)
    return internal.InternalGroupoid(G.ambient, G.X0, G.X1, G.s, G.t, G.i, comp, G.inv, X2, name=G.name)


def _relabelled_action(a):
    dom, act = _relabel(a.dom, a.act)
    return dataclasses.replace(a, dom=dom, act=act)


def _groupoid_readers():
    def ana(G):
        return internal.anafunctor_from_functor(_identity_functor(G))

    return {
        "validate_groupoid": internal.validate_groupoid,
        "groupoid_as_bundle": lambda G: internal.validate_principal_bundle(internal.groupoid_as_bundle(G)),
        "validate_internal_functor": lambda G: internal.validate_internal_functor(_identity_functor(G)),
        "refine_groupoid": lambda G: internal.refine_groupoid(G, SetMap(G.X1, G.X0, G.t.mapping)).comp,
        "anafunctor_from_functor": lambda G: ana(G).functor.F1,
        "bibundle_from_functor": lambda G: internal.bibundle_from_functor(_identity_functor(G)).left.act,
        "anafunctor_transformations": lambda G: [
            eta.mapping for eta in internal.anafunctor_transformations(ana(G), ana(G))
        ],
        "serialize_groupoid": cli.serialize_groupoid,
    }


def _bundle_readers(B):
    U = frozenset({"x", "y"})
    pi = SetMap(U, B.base, {u: min(B.base) for u in U})

    def trivializations(B):
        out = []
        for sigma in internal.sections_over(B, pi):
            triv = internal.section_to_trivialization(B, sigma, pi)
            out.append((triv.phi, internal.validate_trivialization(B, triv, pi)))
        return out

    return {
        "validate_principal_bundle": internal.validate_principal_bundle,
        "pullback_bundle": lambda B: internal.pullback_bundle(pi, B).action.act,
        "section_to_trivialization": trivializations,
        "serialize_bundle": lambda B: cli.serialize_bundle(B, {id(B.gpd): "G"}),
    }


def _bibundle_readers():
    return {
        "validate_bibundle": internal.validate_bibundle,
        "anafunctor_from_bibundle": lambda P: internal.anafunctor_from_bibundle(P, T_SURJ).functor.F1,
    }


@pytest.mark.parametrize("case", ["groupoid", "bundle", "bibundle-left", "bibundle-right"])
def test_readers_agree_on_relabelled_fibre_products(gpds, case):
    """A fibre product is known up to its universal property: with one square's
    apex renamed to integers (same legs, the map on it re-keyed), every
    validator and constructor reading that square gives the same verdict or
    output as on the pair-set square, and the serializers the same rows."""
    if case == "groupoid":
        groupoids = (gpds["FIX-PAIR2"], gpds["FIX-Z2GPD"])
        inputs = [(G, _relabelled_groupoid(G), _groupoid_readers()) for G in groupoids]
    elif case == "bundle":
        B = gpds["FIX-Z2BUNDLE"]
        inputs = [(B, dataclasses.replace(B, action=_relabelled_action(B.action)), _bundle_readers(B))]
    else:
        side = case.split("-")[1]
        P = internal.bibundle_from_functor(_identity_functor(gpds["FIX-PAIR2"]))
        relabelled = dataclasses.replace(P, **{side: _relabelled_action(getattr(P, side))})
        inputs = [(P, relabelled, _bibundle_readers())]
    for original, relabelled, readers in inputs:
        for name, read in readers.items():
            want = read(original)
            assert read(relabelled) == want, name
            assert getattr(want, "ok", True), name


def _operation_squares(gpds):
    """(ambient, square, map out of its apex): the relabelled squares read in
    test_readers_agree_on_relabelled_fibre_products, X2 of the catalog
    groupoids with comp, and X2 of the table copies of FIX-Z2GPD and
    FIX-TRIV1 (a table copy of FIX-PAIR2's eight-element X2 would list 8^8
    endomaps)."""
    P = internal.bibundle_from_functor(_identity_functor(gpds["FIX-PAIR2"]))
    actions = [gpds["FIX-Z2BUNDLE"].action, P.left, P.right]
    for name in ("FIX-PAIR2", "FIX-Z2GPD"):
        yield (FS, *_relabel(gpds[name].X2, gpds[name].comp))
    for a in actions:
        yield (FS, *_relabel(a.dom, a.act))
    for name in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1"):
        yield FS, gpds[name].X2, gpds[name].comp
    for name in ("FIX-Z2GPD", "FIX-TRIV1"):
        G = gpds[name]
        img = internal.map_groupoid(TableAmbient([G.X0, G.X1, G.X2.apex]), G)
        yield img.ambient, img.X2, img.comp


def test_operation_reads_f_at_the_mediator(gpds):
    """operation(sq, f)[a, b] is f at into_pullback's mediator from the
    fibre product's points, at every point (a, b) of pairs, on both
    backends; a pair no apex point lies over raises ValueError."""
    for amb, sq, f in _operation_squares(gpds):
        op = amb.operation(sq, f)
        pb = amb.pullback(sq.f, sq.g)
        fu = amb.at(amb.compose(f, amb.into_pullback(sq, pb.to_left, pb.to_right)))
        left, right = amb.at(pb.to_left), amb.at(pb.to_right)
        want = {(left(z), right(z)): fu(z) for z in amb.points(pb.apex)}
        pairs = amb.pairs(sq.f, sq.g)
        assert set(pairs) == set(want)
        assert {(a, b): op[a, b] for a, b in pairs} == want
        if amb is FS:
            with pytest.raises(ValueError, match="^legs do not factor through the given apex$"):
                op[min(sq.f.src, key=repr), "outside"]
        else:
            with pytest.raises(ValueError, match="^mediating morphism into fibre product not found$"):
                op[sq.to_left, amb.identity(sq.apex)]


def _plain_groupoid(G):
    return {"X1": list(G.X1), "s": G.s.mapping, "t": G.t.mapping, "comp": G.comp.mapping}


def _plain_anafunctor(A):
    return {"pi": A.pi.mapping, "F0": A.functor.F0.mapping, "F1": A.functor.F1.mapping}


def test_anafunctor_transformations_match_oracle(gpds):
    """Both anafunctors of every internal functor between the standard
    groupoids, in every ordered pair with the same ends: the same
    transformations, in the same order, as the product-then-filter oracle."""
    names = ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")
    pairs = empty = 0
    for a in names:
        for b in names:
            G, H = gpds[a], gpds[b]
            anas = []
            for F in all_internal_functors(G, H):
                P = internal.bibundle_from_functor(F)
                anas += [internal.anafunctor_from_functor(F), internal.anafunctor_from_bibundle(P, T_SURJ)]
            for A1 in anas:
                for A2 in anas:
                    got = [eta.mapping for eta in internal.anafunctor_transformations(A1, A2)]
                    want = oracles.anafunctor_transformations(
                        _plain_groupoid(G), _plain_groupoid(H), _plain_anafunctor(A1), _plain_anafunctor(A2)
                    )
                    assert got == want
                    pairs += 1
                    empty += not want
    assert (pairs, empty) == (144, 8)


def _plain_action(a):
    return {"anchor": a.anchor.mapping, "act": a.act.mapping}


def _act_mutations(P):
    """Every bibundle differing from P in one entry of its left or right act."""
    for side in ("left", "right"):
        action = getattr(P, side)
        f = action.act
        for k in sorted(f.mapping, key=repr):
            for v in sorted(f.tgt - {f.mapping[k]}, key=repr):
                mutated = dataclasses.replace(action, act=SetMap(f.src, f.tgt, {**f.mapping, k: v}))
                yield dataclasses.replace(P, **{side: mutated})


def test_bibundle_verdicts_match_oracle_on_single_entry_mutations(gpds):
    """validate_bibundle against the definitional oracle on the bibundle of
    every internal functor between the standard groupoids and on every
    bibundle one entry of its left or right act away from it.  The first
    failing axiom is pinned too."""
    names = ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")
    first_failures = collections.Counter()
    for a in names:
        for b in names:
            G, H = gpds[a], gpds[b]
            for F in all_internal_functors(G, H):
                P = internal.bibundle_from_functor(F)
                for Q in (P, *_act_mutations(P)):
                    report = internal.validate_bibundle(Q)
                    want = oracles.bibundle_laws(
                        _plain_groupoid(G), _plain_groupoid(H), _plain_action(Q.left), _plain_action(Q.right)
                    )
                    assert report.ok == want
                    first_failures[(report.counterexample or {"axiom": "none"})["axiom"]] += 1
    assert first_failures == {
        "none": 16,
        "anchor-square": 180,
        "associativity-square": 156,
        "unit": 8,
    }


def _constant_action(G, carrier):
    """G acting on carrier, every point anchored at the one object of G, by
    the constant map to the least point: associative, but unital only on a
    one-point carrier."""
    carrier = frozenset(carrier)
    anchor = SetMap(carrier, G.X0, {x: min(G.X0) for x in carrier})
    dom = FS.pullback(anchor, G.t)
    act = SetMap(dom.apex, carrier, dict.fromkeys(dom.apex, min(carrier)))
    return internal.RightAction(G, carrier, anchor, act, dom)


def _in_table(a):
    """The image of the action a in a table copy of finite sets."""
    G, d = a.gpd, a.dom
    amb = TableAmbient([G.X0, G.X1, G.X2.apex, a.carrier, d.apex])
    return internal.RightAction(
        internal.map_groupoid(amb, G),
        amb.on_obj(a.carrier),
        amb.on_mor(a.anchor),
        amb.on_mor(a.act),
        PullbackSquare(amb.on_obj(d.apex), *map(amb.on_mor, (d.to_left, d.to_right, d.f, d.g))),
    )


def test_non_unital_action_fails_unit(gpds):
    """FIX-Z2GPD acting on {0, 1} by the constant map to 0 passes the anchor
    square and associativity but breaks x 1 == x, in finite sets and, for
    FIX-TRIV1, at the generic point of a table copy of finite sets."""
    a = _constant_action(gpds["FIX-Z2GPD"], {0, 1})
    assert internal.validate_action(a).counterexample == {"axiom": "unit"}
    triv = gpds["FIX-TRIV1"]
    for carrier, axiom in (({0, 1}, "unit"), ({0}, None)):
        a = _constant_action(triv, carrier)
        assert (internal.validate_action(a).counterexample or {}).get("axiom") == axiom
        assert (internal.validate_action(_in_table(a)).counterexample or {}).get("axiom") == axiom


def test_swap_action_fails_associativity_in_a_table(gpds):
    """FIX-TRIV1 acting on {0, 1} by the swap x 1 = 1 - x breaks (x 1) 1 ==
    x (1 1) before x 1 == x, in finite sets and at the generic point of a
    table copy, whose one point of X1 is its generating set."""
    triv = gpds["FIX-TRIV1"]
    a = _constant_action(triv, {0, 1})
    a = dataclasses.replace(a, act=SetMap(a.dom.apex, a.carrier, {(x, g): 1 - x for x, g in a.dom.apex}))
    assert internal.validate_action(a).counterexample == {"axiom": "associativity-square"}
    assert internal.validate_action(_in_table(a)).counterexample == {"axiom": "associativity-square"}


def _anchored_act_tables(G):
    """Every right action datum of G on the carriers {0..n-1}, n = 1..4,
    with at most 8 domain points and each x h anchored at s(h)."""
    for n in range(1, 5):
        carrier = frozenset(range(n))
        for anchors in itertools.product(sorted(G.X0, key=repr), repeat=n):
            anchor = SetMap(carrier, G.X0, dict(enumerate(anchors)))
            dom = FS.pullback(anchor, G.t)
            if len(dom.apex) > 8:
                continue
            points = sorted(dom.apex, key=repr)
            choices = [[y for y in carrier if anchors[y] == G.s(h)] for _, h in points]
            for values in itertools.product(*choices):
                act = SetMap(dom.apex, carrier, dict(zip(points, values)))
                yield internal.RightAction(G, carrier, anchor, act, dom)


def test_action_verdicts_match_oracle_on_small_act_tables(gpds):
    """Every anchored act table of FIX-Z2GPD, FIX-PAIR2 and FIX-TRIV1 on 1 to
    4 points with at most 8 domain points.  validate_action names the law the
    oracle finds broken first on every table that is associative, and on
    every 50th of the others; 228 associative tables are not unital."""
    first_failures = collections.Counter()
    for name in ("FIX-Z2GPD", "FIX-PAIR2", "FIX-TRIV1"):
        G = _plain_groupoid(gpds[name])
        for k, a in enumerate(_anchored_act_tables(gpds[name])):
            # the domain points of FS.pullback are the pairs (x, h)
            want = oracles.right_action_failure(G, _plain_action(a))
            first_failures[want] += 1
            if want != "associativity" or k % 50 == 0:
                got = (internal.validate_action(a).counterexample or {}).get("axiom")
                assert got == {"associativity": "associativity-square"}.get(want, want), (name, k)
    assert first_failures == {"associativity": 68541, "unit": 228, None: 35}


def _swap_composites(G, gh, kl):
    """G with comp's values at the composable pairs gh and kl swapped."""
    comp = G.comp.mapping
    return _with(G, comp=SetMap(G.comp.src, G.X1, {**comp, gh: comp[kl], kl: comp[gh]}))


def test_laws_match_oracles_at_benchmark_sizes():
    """The groupoid laws, and the principal bundle of a groupoid acting on its
    arrows by composition, against the oracles on the sizes the benchmark
    checks and larger ones: the pair groupoid on 6, 12 and 20 points and Z/n
    for n = 6..12, 30 and 60, each as it is and with two composites swapped,
    the swap both in the groupoid and in the act of the unmutated groupoid.
    In Z/n, 1 + 2 and 1 + 3 lie in the one fibre and the swap breaks
    associativity alone.  Each hom set of a pair groupoid has one arrow, so
    no swap keeps both endpoints: (0, 1)(1, 2) and (3, 4)(4, 2) share their
    source 2 only, which breaks the groupoid's endpoints and, for the action
    anchored at the source, associativity alone."""
    cases = []
    for n in (6, 12, 20):
        P = catalog.pair_groupoid(range(n))
        swapped = _swap_composites(P, ((0, 1), (1, 2)), ((3, 4), (4, 2)))
        cases += [(P, P, "none", None), (P, swapped, "comp-endpoints-compat", "associativity")]
    for n in (*range(6, 13), 30, 60):
        Z = catalog.cyclic_groupoid(n)
        swapped = _swap_composites(Z, (1, 2), (1, 3))
        cases += [(Z, Z, "none", None), (Z, swapped, "associativity", "associativity")]
    for G, M, axiom, action_law in cases:
        report = internal.validate_groupoid(M)
        maps = (M.s, M.t, M.i, M.comp, M.inv)
        assert bool(report) == oracles.groupoid_laws(M.X0, M.X1, *(m.mapping for m in maps))
        assert (report.counterexample or {"axiom": "none"})["axiom"] == axiom
        B = internal.groupoid_as_bundle(G)
        B = dataclasses.replace(B, action=dataclasses.replace(B.action, act=M.comp))
        assert oracles.right_action_failure(_plain_groupoid(G), _plain_action(B.action)) == action_law
        got = (internal.validate_principal_bundle(B).counterexample or {}).get("axiom")
        assert got == {"associativity": "associativity-square"}.get(action_law)


def _closure(G, S):
    """The arrows of G that are composites of arrows in S, by the plain tables."""
    comp, s, t = G.comp.mapping, G.s.mapping, G.t.mapping
    reached, new = set(), set(S)
    while new:
        reached |= new
        new = {comp[g, h] for g in reached for h in reached if s[g] == t[h]} - reached
    return reached


def _generators(G):
    return internal._generators(G, FS.operation(G.X2, G.comp), G.s, G.t)


def test_generators_generate(gpds):
    """The S that associativity is read at generates X1 under comp, on the
    standard groupoids and on the pair groupoids and Z/n that the benchmark
    and the oracle tests check; Z/n needs two generators for n >= 2."""
    groupoids = [gpds[name] for name in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")]
    groupoids += [gpds["FIX-Z2BUNDLE"].gpd]
    groupoids += [catalog.pair_groupoid(range(n)) for n in (6, 9, 12, 20)]
    cyclic = [catalog.cyclic_groupoid(n) for n in (*range(2, 13), 30, 60)]
    for G in groupoids + cyclic + [catalog.cyclic_groupoid(1)]:
        S = _generators(G)
        assert set(S) <= G.X1 and _closure(G, S) == G.X1, G.name
    for G in cyclic:
        assert len(_generators(G)) == 2


_GENERATORS_OF_PAIR6 = """
from finsite import catalog, internal
from finsite.fincat import FinSetCat
G = catalog.pair_groupoid([f"p{k}" for k in range(6)])
print(internal._generators(G, FinSetCat().operation(G.X2, G.comp), G.s, G.t))
"""


def test_generators_do_not_depend_on_the_hash_seed():
    """The pair groupoid on six string points, whose arrows hash by the
    seed, gets one generating set under two hash seeds."""
    src = os.path.dirname(os.path.dirname(finsite.__file__))
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _GENERATORS_OF_PAIR6], env=env, capture_output=True, text=True, check=True
        )
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_action_of_a_non_associative_groupoid_fails_groupoid():
    """Z/n with the composites at (1, 2) and (1, 3) swapped, acting on Z/n by
    plain addition, is associative at every h in the generating set {0, 1}
    of the swapped composition but not at h = 2: the action fails with its
    groupoid's associativity, as the groupoid and action oracles fail it."""
    for n in (6, 12, 30, 60):
        G = _swap_composites(catalog.cyclic_groupoid(n), (1, 2), (1, 3))
        assert _generators(G) == [0, 1]
        dom = G.X2.apex
        plus = {(x, h): (x + h) % n for x, h in dom}
        C = G.comp.mapping
        assert all(plus[plus[x, g], h] == plus[x, C[g, h]] for x, g in dom for h in (0, 1))
        a = internal.RightAction(G, G.X1, G.s, SetMap(dom, G.X1, plus), G.X2)
        maps = (G.s, G.t, G.i, G.comp, G.inv)
        want = oracles.groupoid_laws(G.X0, G.X1, *(m.mapping for m in maps))
        want = want and oracles.right_action_failure(_plain_groupoid(G), _plain_action(a)) is None
        report = internal.validate_action(a)
        assert report.ok == want
        assert report.counterexample == {"axiom": "groupoid", "groupoid": {"axiom": "associativity"}}


def _count_groupoid_laws(monkeypatch):
    """The groupoids internal._groupoid_laws is called on, from now on."""
    calls, laws = [], internal._groupoid_laws
    monkeypatch.setattr(internal, "_groupoid_laws", lambda G: calls.append(G) or laws(G))
    return calls


def test_each_groupoid_is_checked_once(monkeypatch):
    """validate over a document with one groupoid and two bundles over it
    checks the groupoid laws once, and a bibundle checks them once for each
    of its two groupoids, the left action reading the opposite groupoid,
    however often it is validated: the opposite is built once."""
    calls = _count_groupoid_laws(monkeypatch)
    G = catalog.pair_groupoid(range(3))
    doc = cli.BundleDoc()
    doc.groupoids["G"] = G
    doc.bundles["B1"] = internal.groupoid_as_bundle(G)
    doc.bundles["B2"] = internal.trivial_bundle(G, FS.identity(G.X0))
    doc = cli.parse_bundle_doc(json.loads(json.dumps(cli.serialize_bundle_doc(doc))))
    assert [fn().ok for _, fn in cli._validate_all(doc)] == [True] * 3
    assert len(calls) == 1
    calls.clear()
    P = internal.bibundle_from_functor(_identity_functor(catalog.pair_groupoid(range(3))))
    counts = []
    for _ in range(3):
        assert internal.validate_bibundle(P).ok
        counts.append(len(calls))
    assert counts == [2, 2, 2]
    assert internal.opposite_groupoid(P.left.gpd) is internal.opposite_groupoid(P.left.gpd)


def test_right_bundle_reads_the_right_action_groupoid():
    """A bibundle's groupoids are those of its actions, so its right bundle
    is over the right action's groupoid and based at the left one's X0."""
    P = internal.bibundle_from_functor(_identity_functor(catalog.pair_groupoid(range(3))))
    B = internal.right_bundle(P)
    assert B.gpd is P.right.gpd
    assert B.base == P.left.gpd.X0


def test_internal_functor_into_a_wider_set_fails_its_endpoints(gpds):
    """The identity functor of FIX-PAIR2 validates; with F0 into a set wider
    than X0 it fails F0-endpoints, and with F1 into one wider than X1,
    F1-endpoints."""
    G = gpds["FIX-PAIR2"]
    F = internal.InternalFunctor(G, G, FS.identity(G.X0), FS.identity(G.X1))
    assert internal.validate_internal_functor(F).ok
    off = dataclasses.replace(F, F0=SetMap(G.X0, G.X0 | {"extra"}, F.F0.mapping))
    assert internal.validate_internal_functor(off).counterexample == {"axiom": "F0-endpoints"}
    off = dataclasses.replace(F, F1=SetMap(G.X1, G.X1 | {"extra"}, F.F1.mapping))
    assert internal.validate_internal_functor(off).counterexample == {"axiom": "F1-endpoints"}


def test_anafunctor_needs_pi_in_uni(gpds):
    """The anafunctor of FIX-PAIR2's identity functor validates under the
    surjections; with pi the empty map into G0 it fails pi-not-in-Uni.  A
    bibundle whose left anchor misses a point, the discrete groupoid on
    {a, b} acting on one point over a and the trivial group acting on the
    right, validates, but has no anafunctor under the surjections."""
    G = gpds["FIX-PAIR2"]
    A = internal.anafunctor_from_functor(
        internal.InternalFunctor(G, G, FS.identity(G.X0), FS.identity(G.X1))
    )
    assert internal.validate_anafunctor(A, T_SURJ).ok
    off = dataclasses.replace(A, pi=SetMap(frozenset(), G.X0, {}))
    assert internal.validate_anafunctor(off, T_SURJ).counterexample == {"axiom": "pi-not-in-Uni"}
    D, H, X = _disc2(), gpds["FIX-TRIV1"], frozenset({"x"})
    lanchor, ranchor = SetMap(X, D.X0, {"x": "a"}), SetMap(X, H.X0, {"x": "*"})
    ldom, rdom = FS.pullback(D.s, lanchor), FS.pullback(ranchor, H.t)
    left = internal.LeftAction(D, X, lanchor, SetMap(ldom.apex, X, dict.fromkeys(ldom.apex, "x")), ldom)
    right = internal.RightAction(H, X, ranchor, SetMap(rdom.apex, X, dict.fromkeys(rdom.apex, "x")), rdom)
    P = internal.Bibundle(X, left, right)
    assert internal.validate_bibundle(P).ok
    with pytest.raises(ValueError, match="not locally trivial"):
        internal.anafunctor_from_bibundle(P, T_SURJ)


def test_weakly_invertible_anafunctor(gpds):
    F = unique_functor_to_triv1(gpds["FIX-PAIR2"], gpds["FIX-TRIV1"])
    A = internal.anafunctor_from_functor(F)
    assert internal.is_weakly_invertible_anafunctor(A, T_SURJ)
    G = unique_functor_to_triv1(gpds["FIX-Z2GPD"], gpds["FIX-TRIV1"])
    assert not internal.is_weakly_invertible_anafunctor(
        internal.anafunctor_from_functor(G), T_SURJ
    )


class TableAmbient:
    """Adapter exposing a table copy of finite sets as an ambient functor."""

    name = "tbl"

    def __init__(self, sets):
        cat, obj_of, mor_of = catalog.table_copy(sets)
        self.target = cat
        self._obj = obj_of
        self._mor = mor_of

    def on_obj(self, s):
        return self._obj[frozenset(s)]

    def on_mor(self, m):
        return self._mor[m]


def test_map_groupoid_into_table(gpds):
    triv1 = gpds["FIX-TRIV1"]
    sets = [triv1.X0, triv1.X1, triv1.X2.apex]
    amb = TableAmbient(sets)
    img = internal.map_groupoid(amb, triv1)
    assert internal.validate_groupoid(img).ok

    disc = _disc2()
    assert internal.validate_groupoid(disc).ok
    amb2 = TableAmbient([disc.X0, disc.X2.apex])
    img2 = internal.map_groupoid(amb2, disc)
    assert internal.validate_groupoid(img2).ok


def _disc2():
    """A two-object discrete groupoid."""
    two = frozenset({"a", "b"})
    return internal.make_groupoid(
        FS,
        X0=two,
        X1=two,
        s=lambda m: m,
        t=lambda m: m,
        i=lambda x: x,
        comp=lambda g, h: g,
        inv=lambda m: m,
        name="disc2",
    )


@pytest.mark.parametrize(
    "field, key, value, axiom",
    [("comp", ("a", "a"), "b", "comp-endpoints-compat"), ("inv", "b", "a", "inverse-endpoints")],
)
def test_broken_groupoid_fails_the_same_axiom_in_a_table(field, key, value, axiom):
    """A broken disc2 fails at the same axiom in finite sets and, checked at
    the generic point, in a table copy of finite sets."""
    disc = _disc2()
    f = getattr(disc, field)
    broken = _with(disc, **{field: SetMap(f.src, f.tgt, {**f.mapping, key: value})})
    assert internal.validate_groupoid(broken).counterexample == {"axiom": axiom}
    img = internal.map_groupoid(TableAmbient([disc.X0, disc.X2.apex]), broken)
    assert internal.validate_groupoid(img).counterexample == {"axiom": axiom}


def test_table_groupoid_without_triple_fibre_product_fails_x3(gpds):
    """In a table copy of {*}, Z/2 and Z/2 x Z/2, the eight-element X3 of Z/2
    does not exist."""
    z2 = gpds["FIX-Z2GPD"]
    img = internal.map_groupoid(TableAmbient([z2.X0, z2.X1, z2.X2.apex]), z2)
    assert internal.validate_groupoid(img).counterexample == {"axiom": "X3"}


def _table_trivial_action(triv, P):
    """The trivial group triv acting on P over the point, in a table copy
    of its five carriers (the point, X1, X2, P and the action's domain
    P x X1), and that table copy."""
    anchor = SetMap(P, triv.X0, dict.fromkeys(P, "*"))
    dom = FS.pullback(anchor, triv.t)
    act = SetMap(dom.apex, P, {(x, h): x for x, h in dom.apex})
    amb = TableAmbient([triv.X0, triv.X1, triv.X2.apex, P, dom.apex])
    G = internal.map_groupoid(amb, triv)
    square = PullbackSquare(amb.on_obj(dom.apex), *map(amb.on_mor, (dom.to_left, dom.to_right, dom.f, dom.g)))
    return amb, internal.RightAction(G, amb.on_obj(P), amb.on_mor(anchor), amb.on_mor(act), square)


def test_table_bundle_whose_projection_has_no_kernel_pair_fails_universality(gpds):
    """The trivial group acting trivially on P = {0, 1} over the point, in a
    table copy of its five carriers (the point, X1, X2, P and the action's
    domain P x X1): the action's laws and invariance hold, but P x P has
    four elements, so the projection has no pullback along itself there."""
    amb, action = _table_trivial_action(gpds["FIX-TRIV1"], frozenset({0, 1}))
    G = action.gpd
    B = internal.Bundle(G, action, G.X0, action.anchor)
    assert internal.validate_groupoid(G).ok
    assert internal.validate_principal_bundle(B).counterexample == {"axiom": "projection-universal"}


def test_table_bundle_reports_its_axioms_in_order(gpds):
    """The trivial group acting on P = {p, q}, in a table copy of its five
    carriers: with the wrong base, with the projection to the point (whose
    kernel pair, of four elements, is missing) and with the identity of P,
    each beside a designated square (P, id, swap) that is no fibre product,
    the bundle fails projection-endpoints, then projection-universal, then
    designated-fibre-product; without that square it is principal.  A
    groupoid's arrows act on P by its unit law alone, so invariance cannot
    fail, and a table copy of finite sets has no non-principal bundle: one
    that is not free has an isotropy group G, whose X3 has |G|^3 >= 8
    elements (8^8 endomaps), and a universal projection with a fibre of two
    points pulls back along the constant map from the largest carrier to a
    carrier twice as large.  Both axioms fail in finite sets, in the tests
    above."""
    P = frozenset({"p", "q"})
    amb, action = _table_trivial_action(gpds["FIX-TRIV1"], P)
    G = action.gpd
    ident, swap = (amb.on_mor(SetMap(P, P, m)) for m in ({"p": "p", "q": "q"}, {"p": "q", "q": "p"}))
    off = PullbackSquare(amb.on_obj(P), ident, swap, ident, ident)
    cases = [
        (G.X0, ident, off, "projection-endpoints"),
        (G.X0, action.anchor, off, "projection-universal"),
        (amb.on_obj(P), ident, off, "designated-fibre-product"),
        (amb.on_obj(P), ident, None, None),
    ]
    for base, p, designated, axiom in cases:
        report = internal.validate_principal_bundle(internal.Bundle(G, action, base, p, designated))
        assert (report.counterexample or {}).get("axiom") == axiom


def _shear_route(B):
    """validate_principal_bundle's counterexample as it read principality
    before the cone test: the shear map into the chosen P x_X P, then
    is_iso.  Every axiom before principality is read as it was."""
    report = internal.validate_principal_bundle(B)
    if not (report.ok or report.counterexample == {"axiom": "shear-not-iso"}):
        return report.counterexample
    try:
        sh = internal.shear_map(B)
    except ValueError:
        return {"axiom": "shear-domain"}
    return None if B.gpd.ambient.is_iso(sh) else {"axiom": "shear-not-iso"}


def _cyclic_action(n, carrier, act):
    """Z/n acting on carrier over the point by act(x, g)."""
    G = catalog.cyclic_groupoid(n)
    carrier = frozenset(carrier)
    anchor = SetMap(carrier, G.X0, dict.fromkeys(carrier, "*"))
    dom = FS.pullback(anchor, G.t)
    action = internal.RightAction(G, carrier, anchor, SetMap(dom.apex, carrier, {e: act(*e) for e in dom.apex}), dom)
    return internal.Bundle(G, action, G.X0, anchor)


def _bundle_fixtures(gpds):
    """The bundles the tests of this module build, each with a name: the
    catalog's and their variants, the right bundles of bibundles, the
    bundles of pair groupoids and Z/n, non-free actions of Z/n (Z/n on a
    point, Z/4 on Z/2), a free action that is not transitive on its fibre
    (Z/2 on two copies of itself), and the table bundles."""
    B = gpds["FIX-Z2BUNDLE"]
    pair2 = gpds["FIX-PAIR2"]
    two = B.action.carrier
    d = B.action.dom
    yield "FIX-Z2BUNDLE", B
    yield "relabelled designated", dataclasses.replace(B, designated_pb=_relabel(FS.pullback(B.p, B.p))[0])
    yield "relabelled action", dataclasses.replace(B, action=_relabelled_action(B.action))
    yield "over itself", internal.Bundle(B.gpd, B.action, two, FS.identity(two))
    yield "named", dataclasses.replace(B, designated_pb=PullbackSquare(d.apex, d.to_left, d.to_left, B.p, B.p))
    psi = SetMap(frozenset("uvw"), pair2.X0, {"u": 0, "v": 1, "w": 0})
    yield "trivial bundle", internal.trivial_bundle(pair2, psi)
    for name in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1"):
        yield f"groupoid_as_bundle({name})", internal.groupoid_as_bundle(gpds[name])
    for n in (3, 6):
        yield f"pair{n}", internal.groupoid_as_bundle(catalog.pair_groupoid(range(n)))
    for F in all_internal_functors(pair2, gpds["FIX-Z2GPD"]):
        yield "right bundle", internal.right_bundle(internal.bibundle_from_functor(F))
    for n in (1, 2, 4, 6):
        trivial = _cyclic_action(n, {"p"}, lambda x, g: x)
        yield f"Z/{n} on a point", trivial
        yield f"Z/{n} on a point, designated", dataclasses.replace(trivial, designated_pb=FS.pullback(trivial.p, trivial.p))
        yield f"Z/{n} regular", _cyclic_action(n, range(n), lambda x, g: (x + g) % n)
    yield "Z/4 on Z/2", _cyclic_action(4, range(2), lambda x, g: (x + g) % 2)
    yield "Z/2 on two copies", _cyclic_action(2, [(c, x) for c in "ab" for x in range(2)], lambda x, g: (x[0], x[1] ^ g))
    P = frozenset({0, 1})
    amb, action = _table_trivial_action(gpds["FIX-TRIV1"], P)
    yield "table, over the point", internal.Bundle(action.gpd, action, action.gpd.X0, action.anchor)
    yield "table, over itself", internal.Bundle(action.gpd, action, amb.on_obj(P), amb.on_mor(FS.identity(P)))


def test_principality_as_a_cone_test_agrees_with_the_shear_map(gpds):
    """On every bundle fixture, the cone test gives the verdict and the
    counterexample that the shear map and is_iso gave, non-free and
    non-transitive actions failing shear-not-iso."""
    axioms = collections.Counter()
    for name, B in _bundle_fixtures(gpds):
        report = internal.validate_principal_bundle(B)
        assert report.counterexample == _shear_route(B), name
        axioms[(report.counterexample or {}).get("axiom")] += 1
    assert axioms["shear-not-iso"] == 8
    assert set(axioms) == {None, "shear-not-iso", "invariance", "designated-fibre-product", "projection-universal"}
