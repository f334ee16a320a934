import collections
import itertools
import math
import re

import oracles
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from spaces import finite_spaces, restrict
from test_fincat import IDEMPOTENT, _monoid
from test_site import _table_fixtures

from finsite import catalog, fincat, sheaf
from finsite.fincat import FunctorData, TableCategory, identity_functor, is_full, is_faithful, preserves_coproducts
from finsite.site import (
    Pretopology,
    canonical_topology,
    discrete_topology,
    extensive_topology,
    indiscrete_topology,
    is_coarser,
    uni_class,
)


@pytest.fixture(scope="module")
def v():
    shv, cat, T_op = catalog.shv()
    return cat, T_op, shv


@pytest.fixture(scope="module")
def fs012():
    return catalog.fix_fs012()


def fs_presheaves(cat):
    out = [sheaf.representable(cat, x) for x in cat.objects]
    out.append(catalog.k2(cat))
    out.append(catalog.constant_presheaf(cat, ("a",), name="K"))
    return out


def test_fixture_presheaves_validate(v, fs012):
    cat, T_op, shv = v
    assert sheaf.validate_presheaf(shv).ok
    for P in fs_presheaves(fs012):
        assert sheaf.validate_presheaf(P).ok


def test_restriction_leaving_the_source_values_raises(v):
    cat, T_op, shv = v
    restriction = {m: dict(r) for m, r in shv.restriction.items()}
    row = restriction["oE_to_oU"]
    row[next(iter(row))] = "zzz"
    with pytest.raises(ValueError, match="oE_to_oU"):
        sheaf.Presheaf(cat, shv.values, restriction, name="SHV-zzz")


def test_extensivity_modes(v, fs012):
    cat, T_op, shv = v
    # poset self-coproducts kill literal extensivity for any 2-element value
    assert not sheaf.is_extensive_presheaf(shv, "literal").ok
    assert sheaf.is_extensive_presheaf(shv, "disjoint").ok
    # representables on a poset have singleton values, both modes pass
    rep = sheaf.representable(cat, "oU")
    assert sheaf.is_extensive_presheaf(rep, "literal").ok
    k2 = catalog.k2(fs012)
    r = sheaf.is_extensive_presheaf(k2)
    assert not r.ok and r.counterexample["initial"] == "n0"
    with pytest.raises(ValueError):
        sheaf.is_extensive_presheaf(k2, "bogus")


def test_unknown_extensivity_mode_is_refused_before_any_early_exit(v, fs012):
    """K2 fails the initial-object check on FIX-V and on FIX-FS012, and the
    mode is still refused first, by each reader of the mode."""
    message = r"^unknown extensivity mode 'bogus'$"
    for cat, T in ((v[0], v[1]), (fs012, extensive_topology(fs012))):
        k2 = catalog.k2(cat)
        assert sheaf.is_extensive_presheaf(k2).counterexample["initial"] == cat.objects[0]
        with pytest.raises(ValueError, match=message):
            preserves_coproducts(identity_functor(cat), "bogus")
        with pytest.raises(ValueError, match=message):
            sheaf.is_extensive_presheaf(k2, "bogus")
        with pytest.raises(ValueError, match=message):
            sheaf.is_sheaf(k2, T, "bogus")


def test_descent_basics(v):
    cat, T_op, shv = v
    # descent along isomorphisms is automatic for every presheaf
    for P in (shv, catalog.k2(cat), sheaf.representable(cat, "oX")):
        for m in cat.isos():
            assert sheaf.satisfies_descent(P, m)
    # restriction along oE -> oU collapses the two sections over oU
    assert not sheaf.satisfies_descent(shv, "oE_to_oU")


def _assert_descent_matches_the_oracle(P, topologies):
    """satisfies_descent gives the kernel-pair oracle's verdict along every
    morphism of P's category, and raises where the oracle does; is_sheaf's
    verdict and counterexample under each topology, in both modes, are
    extensivity's, then the oracle's along the members of Uni(T) in repr
    order.  Returns the oracle's verdicts, None where it raises."""
    verdicts = {}
    for pi in P.cat.morphisms():
        try:
            verdicts[pi] = oracles.kernel_pair_descent(P, pi)
        except ValueError:
            verdicts[pi] = None
            with pytest.raises(ValueError):
                sheaf.satisfies_descent(P, pi)
        else:
            assert sheaf.satisfies_descent(P, pi) == verdicts[pi], (P.name, pi)
    for T in topologies:
        failing = [pi for pi in sorted(uni_class(T), key=repr) if not verdicts[pi]]
        for mode in ("literal", "disjoint"):
            ext = sheaf.is_extensive_presheaf(P, mode)
            if ext.ok and failing and verdicts[failing[0]] is None:
                with pytest.raises(ValueError):
                    sheaf.is_sheaf(P, T, mode)
                continue
            if not ext.ok:
                want = {"extensivity": ext.counterexample}
            else:
                want = {"descent": failing[0]} if failing else None
            got = sheaf.is_sheaf(P, T, mode)
            assert (got.ok, got.counterexample) == (want is None, want), (P.name, T.name, mode)
    return verdicts


def test_descent_matches_the_kernel_pair_oracle_on_table_fixtures(fs012):
    """The table fixtures of the classification tests, each with its own
    topologies and the canonical, indiscrete, discrete and (where the
    category is extensive) extensive ones, on their representables, K2 and
    the one-point K; among them FIX-FS012, whose Uni(T_dis) holds non-iso
    morphisms.  The skeleton of {0, 1, 2, 4} adds kernel pairs whose two
    legs differ: that of n2 -> n1 is n4."""
    assert uni_class(discrete_topology(fs012)) - set(fs012.isos())
    seen = set()
    for cat, topologies in _table_fixtures():
        topologies = [canonical_topology(cat), indiscrete_topology(cat), discrete_topology(cat), *topologies]
        if fincat.is_extensive(cat).ok:
            topologies.append(extensive_topology(cat))
        for P in fs_presheaves(cat):
            seen.update(_assert_descent_matches_the_oracle(P, topologies).values())
    cat = catalog.finset_skeleton([0, 1, 2, 4])
    for P in fs_presheaves(cat):
        verdicts = _assert_descent_matches_the_oracle(P, [])
        seen.update(verdicts.values())
        assert verdicts["n2>n1:0,0"] is not None
    assert seen == {True, False, None}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(finite_spaces())
def test_descent_matches_the_kernel_pair_oracle_on_finite_spaces(space):
    """The sections presheaf of a random finite space, its subpresheaf and
    K2, under the open-cover topology and the discrete one, whose Uni holds
    every inclusion of opens."""
    opens, full, sub = space
    T, _, presheaves = _finsite_site(opens, [full, sub])
    for P in (*presheaves, catalog.k2(T.cat)):
        _assert_descent_matches_the_oracle(P, [T, discrete_topology(T.cat)])


def test_sheaf_verdicts(v, fs012):
    cat, T_op, shv = v
    assert sheaf.is_sheaf(shv, T_op, "disjoint").ok
    assert not sheaf.is_sheaf(catalog.k2(cat), T_op).ok
    T_ext = extensive_topology(fs012)
    for x in fs012.objects:
        assert sheaf.is_sheaf(sheaf.representable(fs012, x), T_ext).ok
    assert not sheaf.is_sheaf(catalog.k2(fs012), T_ext).ok


def test_validate_presheaf_names_a_broken_identity_and_composite():
    """On the one-point category, restriction along the identity swaps two
    elements; on the monoid {1, e} with e.e = e, restriction along e swaps
    them, so along e.e it is not the swap applied twice."""
    point = catalog.finset_skeleton([1])
    swap = {"a": "b", "b": "a"}
    F = sheaf.Presheaf(point, {"n1": ("a", "b")}, {"n1>n1:0": swap})
    assert sheaf.validate_presheaf(F).counterexample == {"identity": "n1"}
    monoid = _monoid(IDEMPOTENT, "1")
    F = sheaf.Presheaf(monoid, {"*": ("a", "b")}, {"1": {"a": "a", "b": "b"}, "e": swap})
    assert sheaf.validate_presheaf(F).counterexample == {"functoriality": ("e", "e")}


def test_validate_presheaf_morphism_names_a_broken_component_and_square(v):
    """The identity of SHV with one section over oU left out of its
    component fails at that component; with the two sections over oU
    swapped every component is a map, and the first square that fails is
    that of oU_to_oX."""
    cat, T_op, shv = v
    ident = {x: {a: a for a in shv.values[x]} for x in cat.objects}
    assert sheaf.validate_presheaf_morphism(sheaf.PresheafMorphism(shv, shv, ident)).ok
    short = sheaf.PresheafMorphism(shv, shv, {**ident, "oU": {"u0": "u0"}})
    assert sheaf.validate_presheaf_morphism(short).counterexample == {"component": "oU"}
    swapped = sheaf.PresheafMorphism(shv, shv, {**ident, "oU": {"u0": "u1", "u1": "u0"}})
    assert sheaf.validate_presheaf_morphism(swapped).counterexample == {"naturality": "oU_to_oX"}


def test_constant_presheaf_traditional_but_never_a_sheaf(fs012):
    k2 = catalog.k2(fs012)
    Ti = indiscrete_topology(fs012)
    assert sheaf.is_traditional_sheaf(k2, Ti).ok
    for T in (
        extensive_topology(fs012),
        Ti,
        discrete_topology(fs012),
        canonical_topology(fs012),
    ):
        assert not sheaf.is_sheaf(k2, T).ok, T.name


def test_extensive_iff_traditional_on_extensive_site(fs012):
    T_ext = extensive_topology(fs012)
    for P in fs_presheaves(fs012):
        ext = sheaf.is_extensive_presheaf(P).ok
        trad = sheaf.is_traditional_sheaf(P, T_ext).ok
        assert ext == trad, P.name


def test_traditional_implies_uni_descent(fs012):
    tops = [
        extensive_topology(fs012),
        indiscrete_topology(fs012),
        discrete_topology(fs012),
        canonical_topology(fs012),
    ]
    for P in fs_presheaves(fs012):
        for T in tops:
            if sheaf.is_traditional_sheaf(P, T).ok:
                for pi in uni_class(T):
                    assert sheaf.satisfies_descent(P, pi), (P.name, T.name, pi)


def test_comparison_report_consistency(fs012):
    T_ext = extensive_topology(fs012)
    for P in fs_presheaves(fs012):
        assert sheaf.comparison_sheaf_report(P, T_ext).ok, P.name


def test_sheaf_antitone_in_topology(fs012):
    tops = [
        extensive_topology(fs012),
        indiscrete_topology(fs012),
        discrete_topology(fs012),
        canonical_topology(fs012),
    ]
    for P in fs_presheaves(fs012):
        verdicts = {T.name: sheaf.is_sheaf(P, T).ok for T in tops}
        for T1, T2 in itertools.product(tops, repeat=2):
            if is_coarser(T1, T2) and verdicts[T2.name]:
                assert verdicts[T1.name], (P.name, T1.name, T2.name)


def test_subcanonical_via_representables(v, fs012):
    cat, T_op, _ = v
    cases = [
        T_op,
        indiscrete_topology(cat),
        discrete_topology(cat),
        extensive_topology(fs012),
        indiscrete_topology(fs012),
        discrete_topology(fs012),
    ]
    for T in cases:
        assert sheaf.subcanonical_via_representables(T).ok, T.name


def test_pre_covering(fs012):
    T_ext = extensive_topology(fs012)
    surj = "n2>n1:0,0"
    inj = "n1>n2:0"

    def yo_morphism(m):
        a, b = fs012.src(m), fs012.tgt(m)
        A, B = sheaf.representable(fs012, a), sheaf.representable(fs012, b)
        comps = {
            y: {h: fs012.compose(m, h) for h in A.values[y]} for y in fs012.objects
        }
        phi = sheaf.PresheafMorphism(A, B, comps)
        assert sheaf.validate_presheaf_morphism(phi).ok
        return phi

    assert sheaf.is_pre_covering(yo_morphism(surj), T_ext).ok
    assert not sheaf.is_pre_covering(yo_morphism(inj), T_ext).ok


def test_kan_extension_identity_is_evaluation(v):
    cat, T_op, shv = v
    idf = identity_functor(cat)
    ext = sheaf.right_kan_extension(idf, shv)
    assert sheaf.validate_presheaf(ext).ok
    eps = sheaf.counit(idf, shv)
    assert sheaf.validate_presheaf_morphism(eps).ok
    assert sheaf.is_presheaf_iso(eps)


def test_kan_extension_along_skeleton_inclusion():
    small, big, incl = catalog.skeleton_inclusion()
    rep = sheaf.pullback_presheaf(incl, sheaf.representable(big, "n1"))
    ext = sheaf.right_kan_extension(incl, rep)
    assert sheaf.validate_presheaf(ext).ok
    # three slice objects over n2, each with a singleton value set
    assert {x: len(ext.values[x]) for x in big.objects} == {"n0": 1, "n1": 1, "n2": 1}


def test_kan_families_ignore_redundant_identity_constraints():
    small, big, incl = catalog.skeleton_inclusion()
    rep = sheaf.pullback_presheaf(incl, sheaf.representable(big, "n2"))
    ext = sheaf.right_kan_extension(incl, rep)
    for y in big.objects:
        fams = ext.values[y]
        slice_objs, _, cons = incl._slices[y]
        generating = [c for c in cons if not small.is_identity(c[2])]
        surviving = [
            fam
            for fam in itertools.product(*(rep.values[o[0]] for o in slice_objs))
            if all(rep.res(f, fam[j]) == fam[i] for (i, j, f) in generating)
        ]
        assert sorted(map(repr, fams)) == sorted(map(repr, surviving))


def test_adjunction_builds_each_slice_once(monkeypatch):
    """Both triangle identities read F/y in the extensions, the unit, the
    counit and the pushforward; the record of each is built once and kept
    on the functor."""
    small, big, incl = catalog.skeleton_inclusion()
    builds = collections.Counter()
    build = fincat._Slices.__missing__

    def counted(slices, y):
        builds[y] += 1
        return build(slices, y)

    monkeypatch.setattr(fincat._Slices, "__missing__", counted)
    Q = sheaf.representable(big, "n2")
    assert sheaf.verify_adjunction(incl, [sheaf.pullback_presheaf(incl, Q)], [Q]).ok
    assert builds == {y: 1 for y in big.objects}


def test_adjunction_reads_the_unit_and_counit_it_builds(monkeypatch):
    """The triangle identities are read on the components of the unit and
    counit: one sample pair on skeleton_inclusion() extends a presheaf
    twice for Q (unit and counit) and three times for P (F_*P, unit and
    counit), where lifting them to whole presheaf morphisms took 7."""
    small, big, incl = catalog.skeleton_inclusion()
    calls = []
    extend = sheaf.right_kan_extension

    def counted(F, P):
        calls.append(P.name)
        return extend(F, P)

    monkeypatch.setattr(sheaf, "right_kan_extension", counted)
    Q = sheaf.representable(big, "n2")
    assert sheaf.verify_adjunction(incl, [sheaf.pullback_presheaf(incl, Q)], [Q]).ok
    assert len(calls) <= 5, calls


def test_adjunction_names_the_triangle_a_shifted_counit_breaks(monkeypatch):
    """A counit that reads the slot after (x, id) breaks the first triangle
    on a target sample and, with no target sample, the second on a source
    sample."""
    small, big, incl = catalog.skeleton_inclusion()
    counit = sheaf.counit

    def shifted(F, P):
        eps = counit(F, P)
        comps = {}
        for x in F.source.objects:
            fx = F.on_obj(x)
            k = F._slices[fx].index[(x, F.target.identity(fx))]
            comps[x] = {fam: fam[(k + 1) % len(fam)] for fam in eps.src.values[x]}
        return sheaf.PresheafMorphism(eps.src, P, comps)

    monkeypatch.setattr(sheaf, "counit", shifted)
    Q = sheaf.representable(big, "n2")
    P = sheaf.pullback_presheaf(incl, Q)
    report = sheaf.verify_adjunction(incl, [P], [Q])
    assert report.counterexample == {"triangle": "counit.F*unit", "sample": "Yo_n2"}
    report = sheaf.verify_adjunction(incl, [P], [])
    assert report.counterexample == {"triangle": "F_*counit.unit", "sample": P.name}


def test_kan_extension_along_poset_inclusion(v):
    cat, T_op, shv = v
    sub, incl = catalog.fix_b()
    pulled = sheaf.pullback_presheaf(incl, shv)
    ext = sheaf.right_kan_extension(incl, pulled)
    # sections over oU and oV glue freely since SHV(oE) is a point
    assert len(ext.values["oX"]) == 4
    eta = sheaf.unit(incl, shv)
    assert sheaf.validate_presheaf_morphism(eta).ok
    assert sheaf.is_presheaf_iso(eta)


def test_adjunction_triangles(v, fs012):
    cat, T_op, shv = v
    sub, incl = catalog.fix_b()
    pulled = sheaf.pullback_presheaf(incl, shv)
    assert sheaf.verify_adjunction(incl, [pulled], [shv]).ok
    idf = identity_functor(fs012)
    samples = fs_presheaves(fs012)
    assert sheaf.verify_adjunction(idf, samples, samples).ok


def test_counit_iso_for_full_and_faithful(v):
    cat, T_op, shv = v
    small, big, incl2 = catalog.skeleton_inclusion()
    sub, incl = catalog.fix_b()
    for F, P in [
        (incl, sheaf.pullback_presheaf(incl, shv)),
        (incl2, sheaf.pullback_presheaf(incl2, sheaf.representable(big, "n2"))),
    ]:
        assert is_full(F) and is_faithful(F)
        assert sheaf.is_presheaf_iso(sheaf.counit(F, P))


def test_verify_comparison_accepts_skeleton_inclusion():
    small, big, incl = catalog.skeleton_inclusion()
    reps_small = [sheaf.representable(small, x) for x in small.objects]
    reps_big = [sheaf.representable(big, x) for x in big.objects]
    r = sheaf.verify_comparison(
        incl,
        indiscrete_topology(small),
        indiscrete_topology(big),
        reps_small,
        reps_big,
        mode="disjoint",
    )
    assert r.ok, r.counterexample


def test_verify_comparison_refuses_non_extensive_target(v):
    cat, T_op, _ = v
    sub, incl = catalog.fix_b()
    r = sheaf.verify_comparison(
        incl, indiscrete_topology(sub), indiscrete_topology(cat)
    )
    assert not r.ok
    assert "target_extensive" in r.counterexample["hypotheses_failed"]


def test_yoneda_continuity_fix_v(v):
    cat, T_op, _ = v
    k1 = catalog.constant_presheaf(cat, ("a",), name="K")
    r = sheaf.yoneda_continuity_report(cat, indiscrete_topology(cat), extras=(k1,))
    assert r.ok, r.counterexample
    assert r.witness == {"continuity_checked": 4, "cocontinuity": True, "extension(K1)": True}


def test_yoneda_continuity_fs012(fs012):
    r = sheaf.yoneda_continuity_report(fs012, extensive_topology(fs012))
    assert r.ok, r.counterexample


def test_presheaf_fragment_is_a_category(fs012):
    from finsite.fincat import validate_category

    reps = [sheaf.representable(fs012, x, name=f"Yo_{x}") for x in fs012.objects]
    frag, named, decode = sheaf.presheaf_fragment(reps)
    assert validate_category(frag).ok
    # Yoneda: hom(Yo_a, Yo_b) is in bijection with hom(a, b)
    for a in fs012.objects:
        for b in fs012.objects:
            assert len(frag.hom(f"Yo_{a}", f"Yo_{b}")) == len(fs012.hom(a, b))


def test_yoneda_homs_on_finset_skeleton():
    cat = catalog.finset_skeleton([0, 1, 2, 3])
    reps = {x: sheaf.representable(cat, x) for x in cat.objects}
    for a in cat.objects:
        for b in cat.objects:
            homs = sheaf.presheaf_homs(reps[a], reps[b])
            assert len(homs) == len(cat.hom(a, b)), (a, b)
            # each hom is post-composition with exactly one h: a -> b
            hs = []
            for eta in homs:
                (h,) = [
                    h
                    for h in cat.hom(a, b)
                    if all(
                        eta[y][g] == cat.compose(h, g)
                        for y in cat.objects
                        for g in reps[a].values[y]
                    )
                ]
                hs.append(h)
            assert sorted(hs) == sorted(cat.hom(a, b)), (a, b)


def _finsite_site(opens, presheaves):
    cat, T = catalog.open_poset(opens)
    by_name = {"o" + "".join(map(str, sorted(U))): U for U in opens}
    out = []
    for values in presheaves:
        restriction = {}
        for m in cat.morphisms():
            V, U = by_name[cat.src(m)], by_name[cat.tgt(m)]
            restriction[m] = {s: restrict(s, V) for s in values[U]}
        vals = {x: tuple(values[U]) for x, U in by_name.items()}
        out.append(sheaf.Presheaf(cat, vals, restriction))
    return T, by_name, out


def _raw_presheaf(opens, values):
    restriction = {
        (V, U): {s: restrict(s, V) for s in values[U]} for U in opens for V in opens if V <= U
    }
    return values, restriction


@settings(max_examples=60, deadline=None)
@given(finite_spaces(), st.data())
def test_sheaf_condition_and_homs_match_oracles(space, data):
    opens, full, sub = space
    T, by_name, (F_full, F_sub) = _finsite_site(opens, [full, sub])
    for values, P in ((full, F_full), (sub, F_sub)):
        if math.prod(max(len(values[U]), 1) for U in opens) <= 10**5:
            assert sheaf.is_traditional_sheaf(P, T).ok == oracles.sections_sheaf(opens, values)
    pick = st.sampled_from([(full, F_full), (sub, F_sub)])
    (A, F), (B, G) = data.draw(pick), data.draw(pick)
    if math.prod(len(B[U]) ** len(A[U]) for U in opens) > 10**5:
        return
    morphisms = {(V, U): (V, U) for U in opens for V in opens if V <= U}
    want = oracles.natural_transformations(
        opens, morphisms, _raw_presheaf(opens, A), _raw_presheaf(opens, B)
    )
    got = [{by_name[x]: comp for x, comp in eta.items()} for eta in sheaf.presheaf_homs(F, G)]

    def images(homs):
        return [tuple(eta[U][s] for U in opens for s in A[U]) for eta in homs]

    assert len(set(images(got))) == len(got)
    assert set(images(got)) == set(images(want))


def _basis_inclusion(cat, by_name):
    """The full subcategory of a poset of opens on the distinct minimal open
    neighbourhoods U_p, with its inclusion."""
    points = frozenset().union(*by_name.values())
    basis = {frozenset.intersection(*(U for U in by_name.values() if p in U)) for p in points}
    keep = [x for x in cat.objects if by_name[x] in basis]
    morphisms = {m: ends for m, ends in cat._mor.items() if ends[0] in keep and ends[1] in keep}
    comp = {k: v for k, v in cat._comp.items() if k[0] in morphisms and k[1] in morphisms}
    B = TableCategory(keep, morphisms, {x: cat.identity(x) for x in keep}, comp, name="basis")
    return FunctorData(B, cat, {x: x for x in keep}, {m: m for m in morphisms}, name="i")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(finite_spaces())
def test_comparison_lemma_on_the_basis_of_minimal_neighbourhoods(space):
    """SGA 4 III.4 on a finite space: the minimal open neighbourhoods form a
    dense full subcategory B of the opens, with inclusion i.  A presheaf Q
    on the opens is a sheaf iff its unit Q -> i_* i^* Q is an iso; i_* P is
    a sheaf for every P on B; and, i being full and faithful, the counit
    i^* i_* P -> P is an iso.  Q is the sections presheaf, its subpresheaf
    and the constant K2, which is no sheaf (K2 of the empty open has two
    elements); P is i^* Q."""
    opens, full, sub = space
    T, by_name, presheaves = _finsite_site(opens, [full, sub])
    i = _basis_inclusion(T.cat, by_name)
    for k, Q in enumerate([*presheaves, catalog.k2(T.cat)]):
        assert sheaf.is_traditional_sheaf(Q, T).ok == sheaf.is_presheaf_iso(sheaf.unit(i, Q)), k
        P = sheaf.pullback_presheaf(i, Q)
        assert sheaf.is_traditional_sheaf(sheaf.right_kan_extension(i, P), T).ok, k
        assert sheaf.is_presheaf_iso(sheaf.counit(i, P)), k


def _branches(T):
    """Which families the sheaf check reads at each object that has a family
    that is not minimal: 'minimal' or 'all'."""
    return {
        x: "minimal" if T.sheaf_families(x) is T.minimal_families(x) else "all"
        for x in T.cat.objects
        if len(T.minimal_families(x)) < len(T.families[x])
    }


@settings(max_examples=150, deadline=None)
@given(finite_spaces(), st.data())
def test_sheaf_check_on_mutated_topologies_matches_the_oracles(space, data):
    """Open-cover sites with families dropped at random, or with only
    families that contain another one dropped, which breaks superset
    closure: the sheaf check reads the minimal families where that is exact
    and all families elsewhere, and its verdict is the definition's and
    that of the loop over all families."""
    opens, full, sub = space
    rnd = data.draw(st.randoms(use_true_random=False))
    keep_minimal = data.draw(st.booleans())
    families = {}
    for U in opens:
        covers = oracles.open_covers(opens, U)
        minimal = oracles.minimal_sets([frozenset(c) for c in covers])
        families[U] = [c for c in covers if (keep_minimal and frozenset(c) in minimal) or rnd.random() < 0.5]
    T0, by_name, presheaves = _finsite_site(opens, [full, sub])
    name = {U: x for x, U in by_name.items()}
    T = Pretopology(
        T0.cat,
        {name[U]: [{f"{name[V]}_to_{name[U]}" for V in c} for c in fams] for U, fams in families.items()},
    )
    for x, branch in _branches(T).items():
        event(f"reads {branch} families")
    for values, P in zip((full, sub), presheaves):
        if math.prod(max(len(values[U]), 1) for U in opens) <= 10**5:
            got = sheaf.is_traditional_sheaf(P, T).ok
            assert got == oracles.sections_sheaf(opens, values, families)
            assert got == (oracles.all_families_sheaf(P, T) is None)


def test_sheaf_check_reads_all_families_where_a_minimal_one_does_not_pull_back(v):
    """On FIX-V the open covers of oX reduce to their minimal families.  Drop
    {oU_to_oU, oE_to_oU}, the pullback of {oU_to_oX, oV_to_oX} along
    oU_to_oX, and oX reads all of its families; the verdicts stay those of
    the loop over all families."""
    cat, T_op, shv = v
    assert _branches(T_op) == {x: "minimal" for x in cat.objects}
    pulled = frozenset({"oU_to_oU", "oE_to_oU"})
    T = Pretopology(cat, {x: [s for s in fams if s != pulled] for x, fams in T_op.families.items()})
    assert _branches(T) == {"oE": "minimal", "oV": "minimal", "oX": "all"}
    for P in (shv, catalog.k2(cat), *(sheaf.representable(cat, x) for x in cat.objects)):
        for top in (T_op, T):
            assert sheaf.is_traditional_sheaf(P, top).ok == (oracles.all_families_sheaf(P, top) is None)


def test_a_family_without_pairwise_pullbacks_raises_as_before(fs012):
    """FIX-FS012 with the families {id} and {id, c} of n1, c = n2>n1:0,0: {id}
    is the minimal one, and c has no pullback with itself (it would be a
    4-element set), so the check raises, as the loop over all families
    does, rather than read {id} alone.  Descent along c, the sheaf
    condition on {c}, raises with the same message."""
    c, ident = "n2>n1:0,0", fs012.identity("n1")
    T = Pretopology(fs012, {"n1": [{ident}, {ident, c}]})
    assert [cov.members for cov in T.minimal_families("n1")] == [(ident,)]
    P = sheaf.representable(fs012, "n1")
    with pytest.raises(ValueError) as got:
        sheaf.is_traditional_sheaf(P, T)
    with pytest.raises(ValueError) as want:
        oracles.all_families_sheaf(P, T)
    assert str(got.value) == str(want.value) == f"pairwise fibre product missing for {c!r}, {c!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(str(got.value))}$"):
        sheaf.satisfies_descent(P, c)


def test_sheaf_check_on_fs012_matches_the_loop_over_all_families(fs012):
    """The representables of FIX-FS012 under its extensive topology, whose
    families with a leg from n0 are not minimal, and under the singleton
    topologies."""
    tops = [extensive_topology(fs012), indiscrete_topology(fs012), discrete_topology(fs012), canonical_topology(fs012)]
    assert _branches(tops[0]) and set(_branches(tops[0]).values()) == {"minimal"}
    for T in tops:
        for x in fs012.objects:
            P = sheaf.representable(fs012, x)
            assert sheaf.is_traditional_sheaf(P, T).ok == (oracles.all_families_sheaf(P, T) is None), (T.name, x)


def test_kan_restriction_images_are_elements_of_the_value_sets():
    """Each restriction image of a right Kan extension is the very tuple held
    in its value set, so equal families are one object to whatever encodes
    them: finset_skeleton([0, 1, 2]) into [0, 1, 2, 3], on Yo_n3 restricted."""
    big = catalog.finset_skeleton([0, 1, 2, 3])
    small = catalog.fix_fs012()
    incl = FunctorData(small, big, {x: x for x in small.objects}, {m: m for m in small.morphisms()})
    ext = sheaf.right_kan_extension(incl, sheaf.pullback_presheaf(incl, sheaf.representable(big, "n3")))
    assert ext.restriction
    for g, row in ext.restriction.items():
        held = {id(fam) for fam in ext.values[big.src(g)]}
        assert all(id(image) in held for image in row.values()), g
