import os
import re
import subprocess
import sys
from itertools import combinations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import finset_pullback
from spaces import open_sites
from test_cones import _check_cones, _relabelled

import finsite

from finsite import catalog
from finsite.fincat import (
    FinSetCat,
    FunctorData,
    PullbackSquare,
    SetMap,
    TableCategory,
    _generated,
    compose_functors,
    coproduct_is_disjoint_stable,
    identity_functor,
    inverts_coproducts,
    is_effective_epi,
    is_extensive,
    is_faithful,
    is_full,
    is_universal,
    preserves_coproducts,
    slice_category,
    universally_effective_epis,
    validate_category,
    validate_functor,
)

FS = FinSetCat()


@pytest.fixture(scope="module")
def fix_v():
    cat, _ = catalog.fix_v()
    return cat


@pytest.fixture(scope="module")
def fs012():
    return catalog.fix_fs012()


def test_validate_category_accepts_fixtures(fix_v, fs012):
    assert validate_category(fix_v).ok
    assert validate_category(fs012).ok
    assert validate_category(catalog.fix_s()[0]).ok


def test_validate_category_catches_broken_composition(fix_v):
    """A composite with the wrong endpoints never reaches validate_category:
    the constructor rejects its row."""
    comp = dict(fix_v._comp)
    comp[("oU_to_oX", "oE_to_oU")] = "oX_to_oX"  # wrong source
    with pytest.raises(ValueError, match=re.escape(repr(["oU_to_oX", "oE_to_oU", "oX_to_oX"]))):
        TableCategory(fix_v.objects, fix_v._mor, fix_v._identity, comp)


def test_validate_category_rejects_missing_identity(fix_v):
    """An object without an identity row never reaches validate_category:
    the constructor rejects the tables, naming the object."""
    ident = dict(fix_v._identity)
    del ident["oU"]
    with pytest.raises(ValueError, match="oU"):
        TableCategory(fix_v.objects, fix_v._mor, ident, fix_v._comp)
    ident["oU"] = "oE_to_oU"  # not an endomorphism of oU
    with pytest.raises(ValueError, match="oE_to_oU"):
        TableCategory(fix_v.objects, fix_v._mor, ident, fix_v._comp)


def test_validate_category_raises_on_dangling_table_entry(fix_v):
    comp = dict(fix_v._comp)
    comp[("oU_to_oX", "oE_to_oU")] = "no-such-morphism"
    with pytest.raises(ValueError):
        validate_category(TableCategory(fix_v.objects, fix_v._mor, fix_v._identity, comp))
    del comp[("oU_to_oX", "oE_to_oU")]
    with pytest.raises(ValueError, match="oE_to_oU"):
        validate_category(TableCategory(fix_v.objects, fix_v._mor, fix_v._identity, comp))


def test_iso_detection(fix_v, fs012):
    isos = set(fix_v.isos())
    assert isos == {fix_v.identity(x) for x in fix_v.objects}
    # in the skeleton, the swap on n2 is a non-identity iso
    assert set(fs012.isos()) == {fs012.identity(x) for x in fs012.objects} | {"n2>n2:1,0"}


def test_pullback_poset_is_intersection(fix_v):
    sq = fix_v.pullback("oU_to_oX", "oV_to_oX")
    assert sq is not None
    assert sq.apex == "oE"


def test_pullback_absent_in_skeleton(fs012):
    # pulling the surjection 2->1 back along itself needs a 4-element set
    surj = "n2>n1:0,0"
    assert fs012.pullback(surj, surj) is None
    assert not is_universal(fs012, surj)


def test_coproduct_in_skeleton(fs012):
    co = fs012.coproduct(("n1", "n1"))
    assert co is not None and co.apex == "n2"


def test_coproduct_is_join_in_poset(fix_v):
    co = fix_v.coproduct(("oU", "oV"))
    assert co is not None and co.apex == "oX"


def test_table_limits_match_finite_sets_on_small_carriers():
    sets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    cat, obj_of, mor_of = catalog.table_copy(sets)
    for f in cat.morphisms():
        for g in cat.morphisms():
            if cat.tgt(f) != cat.tgt(g):
                continue
            fs_sq = FS.pullback(cat.map_of_mor[f], cat.map_of_mor[g])
            t_sq = cat.pullback(f, g)
            available = any(len(s) == len(fs_sq.apex) for s in sets)
            assert (t_sq is not None) == available
            if t_sq is not None:
                apex_set = cat.set_of_obj[t_sq.apex]
                assert len(apex_set) == len(fs_sq.apex)


def test_finset_limits_are_universal():
    a, b, c = frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0})
    f = SetMap(a, c, {0: 0, 1: 0})
    g = SetMap(b, c, {0: 0, 1: 0, 2: 0})
    sq = FS.pullback(f, g)
    assert len(sq.apex) == 6
    assert FS.compose(f, sq.to_left).mapping == FS.compose(g, sq.to_right).mapping
    pr = FS.product(a, b)
    assert len(pr.apex) == 6
    co = FS.coproduct((a, b))
    assert len(co.apex) == 5
    u = SetMap(a, b, {0: 1, 1: 1})
    v = SetMap(a, b, {0: 2, 1: 1})
    ce = FS.coequalizer(u, v)
    assert len(ce.apex) == 2  # classes {0}, {1,2}


def test_into_pullback_mediator():
    a = frozenset({0, 1})
    f = SetMap(a, a, {0: 0, 1: 0})
    sq = FS.pullback(f, f)
    ident = FS.identity(a)
    m = FS.into_pullback(sq, ident, ident)
    assert all(m(x) == (x, x) for x in a)


def test_into_pullback_rejects_legs_off_the_apex():
    a = frozenset({0, 1})
    f = SetMap(a, a, {0: 0, 1: 0})
    sq = FS.pullback(f, f)
    ident = FS.identity(a)
    stray = SetMap(frozenset({"z"}), a, {"z": 0})
    for off in (
        PullbackSquare(frozenset({"z"}), sq.to_left, sq.to_right, f, f),
        PullbackSquare(sq.apex, stray, sq.to_right, f, f),
        PullbackSquare(sq.apex, sq.to_left, stray, f, f),
    ):
        with pytest.raises(ValueError):
            FS.into_pullback(off, ident, ident)
    with pytest.raises(ValueError):
        FS.into_pullback(sq, ident, SetMap(frozenset({0}), a, {0: 0}))


SIEVE_CATEGORIES = {
    "FIX-V": lambda: catalog.fix_v()[0],
    "FS012": catalog.fix_fs012,
    "skeleton0123": lambda: catalog.finset_skeleton([0, 1, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(SIEVE_CATEGORIES))
def test_into_and_through_match_their_definitions(name):
    cat = SIEVE_CATEGORIES[name]()
    for x in cat.objects:
        assert list(cat.into(x)) == [m for m in cat.morphisms() if cat.tgt(m) == x]
    for f in cat.morphisms():
        factors = {}
        for r in cat.morphisms():
            if cat.tgt(r) == cat.src(f):
                factors.setdefault(cat.compose(f, r), []).append(r)
        expected = {m: min(rs, key=repr) for m, rs in factors.items()}
        assert cat.through(f) == expected, f


def test_epi_is_surjective_on_finite_sets():
    a, b = frozenset({0, 1, 2}), frozenset({0, 1})
    surj = SetMap(a, b, {0: 0, 1: 1, 2: 1})
    nonsurj = SetMap(b, a, {0: 0, 1: 1})
    assert FS.is_epi(surj) and is_effective_epi(FS, surj)
    assert not FS.is_epi(nonsurj) and not is_effective_epi(FS, nonsurj)


def test_injection_not_effective_epi_in_skeleton(fs012):
    inj = "n1>n2:0"
    assert not is_effective_epi(fs012, inj)


def test_universally_effective_epis_are_isos_on_fix_v(fix_v):
    assert universally_effective_epis(fix_v) == frozenset(fix_v.isos())


def test_functor_validation(fix_v):
    idf = identity_functor(fix_v)
    assert validate_functor(idf).ok
    assert is_full(idf) and is_faithful(idf)
    assert validate_functor(compose_functors(idf, idf)).ok


def test_collapsing_functor_faithfulness(fix_v, fs012):
    from finsite.fincat import FunctorData

    # collapsing a poset stays faithful: hom sets have at most one element
    F = FunctorData(
        fix_v,
        fix_v,
        {x: "oE" for x in fix_v.objects},
        {m: "oE_to_oE" for m in fix_v.morphisms()},
    )
    assert validate_functor(F).ok
    assert is_faithful(F)
    # collapsing the skeleton merges the two maps n1 -> n2
    G = FunctorData(
        fs012,
        fs012,
        {x: "n1" for x in fs012.objects},
        {m: "n1>n1:0" for m in fs012.morphisms()},
    )
    assert validate_functor(G).ok
    assert not is_faithful(G)


def test_inclusion_preserves_and_inverts(fix_v):
    sub, incl = catalog.fix_b()
    assert validate_functor(incl).ok
    assert preserves_coproducts(incl)
    assert inverts_coproducts(incl)


def test_skeleton_inclusion_coproduct_scopes():
    small, big, incl = catalog.skeleton_inclusion()
    # n1 + n1 = n1 inside the small skeleton, but n2 in the big one
    assert not preserves_coproducts(incl, "literal")
    assert preserves_coproducts(incl, "disjoint")
    assert inverts_coproducts(incl)
    co = small.coproduct(("n1", "n1"))
    assert co.apex == "n1"
    assert not coproduct_is_disjoint_stable(small, co)


def _skeleton_function(mid):
    """'n3>n1:0,0,0' -> (3, 1, (0, 0, 0))."""
    ends, _, values = mid.partition(":")
    a, b = ends.split(">")
    return int(a[1:]), int(b[1:]), tuple(int(v) for v in values.split(",") if v)


def test_universal_matches_finite_set_oracle():
    # In finset_skeleton([0..3]) the pullback of f: na -> nx along g: nb -> nx
    # is the set {(i, j) : f(i) = g(j)}; it exists iff it has at most 3 elements.
    cat = catalog.finset_skeleton([0, 1, 2, 3])
    maps = {m: _skeleton_function(m) for m in cat.morphisms()}

    def oracle(f):
        _, x, fv = maps[f]
        return all(
            sum(fi == gj for fi in fv for gj in gv) <= 3
            for _, y, gv in maps.values()
            if y == x
        )

    expected = {m: oracle(m) for m in cat.morphisms()}
    assert len(expected) == 60 and sum(expected.values()) == 24
    for _ in range(2):  # the second pass reads the memo
        assert {m: is_universal(cat, m) for m in cat.morphisms()} == expected


def test_cone_checks_reject_legs_off_the_apex(fix_v):
    assert fix_v.is_cone_pullback("oU_to_oX", "oV_to_oX", "oE", "oE_to_oU", "oE_to_oV")
    assert not fix_v.is_cone_pullback("oU_to_oX", "oV_to_oX", "oU", "oE_to_oU", "oE_to_oV")
    assert fix_v.is_coproduct_cocone("oX", ("oU_to_oX", "oV_to_oX"))
    assert not fix_v.is_coproduct_cocone("oU", ("oU_to_oX", "oV_to_oX"))
    sub, incl = catalog.fix_b()
    swapped = dict(incl.obj_map, oU="oV", oV="oU")
    with pytest.raises(ValueError, match="oE_to_oU"):  # oE_to_oU goes into oU, not into F(oU) = oV
        FunctorData(sub, incl.target, swapped, incl.mor_map)

    f = SetMap({0, 1, 2}, {0, 1}, {0: 0, 1: 1, 2: 0})
    g = SetMap({"u", "v"}, {0, 1}, {"u": 0, "v": 0})

    def cone(pairs):
        apex = frozenset(range(len(pairs)))
        return (
            apex,
            SetMap(apex, f.src, {i: a for i, (a, _) in enumerate(pairs)}),
            SetMap(apex, g.src, {i: b for i, (_, b) in enumerate(pairs)}),
        )

    pairs = sorted(FS.pullback(f, g).apex, key=repr)
    apex, p, q = cone(pairs)
    assert FS.is_cone_pullback(f, g, apex, p, q)  # apex relabelled 0..3
    assert not FS.is_cone_pullback(f, g, *cone(pairs + pairs[:1]))
    assert not FS.is_cone_pullback(f, g, frozenset(range(5)), p, q)

    h = SetMap({0, 1}, {0, 1, 2}, {0: 0, 1: 1})
    k = SetMap({0, 1}, {0, 1, 2}, {0: 1, 1: 1})
    assert FS.is_cocone_coequalizer(h, k, frozenset("ab"), SetMap(h.tgt, "ab", {0: "a", 1: "a", 2: "b"}))
    assert not FS.is_cocone_coequalizer(h, k, frozenset("a"), SetMap(h.tgt, "a", {0: "a", 1: "a", 2: "a"}))


def test_extensivity_verdicts(fix_v, fs012):
    assert not is_extensive(fix_v).ok
    assert is_extensive(fs012).ok
    assert is_extensive(FS).ok


def _generated_subcategory(cat, objects, generators):
    """The subcategory of cat on the given objects whose morphisms are the
    generators and their identities, closed under composition."""
    mors = set(generators) | {cat.identity(x) for x in objects}
    while True:
        new = {cat.compose(g, f) for f in mors for g in mors if cat.tgt(f) == cat.src(g)} - mors
        if not new:
            break
        mors |= new
    morphisms = {m: ends for m, ends in cat._mor.items() if m in mors}
    return _generated(objects, morphisms, {x: cat.identity(x) for x in objects}, cat.compose, "generated")


def test_extensivity_names_the_clause_a_coproduct_fails():
    """Each category has an initial object and a disjoint binary coproduct
    that fails one stability clause.  In the skeleton of {0, 1, 2, 4},
    n1 + n1 = n2 and its injections have no pullback along n4 -> n2 (it
    would have 3 elements).  On n1 and n2 with the generated maps, n1 is
    initial and n1 + n1 = n1; its injections pull back along n2 -> n1 to n2
    and n2, which have no coproduct.  On n0..n3 with the generated maps,
    n1 + n1 = n2, and the map out of n2 that the pullbacks of its
    injections along n3 -> n2 induce is no iso."""
    big = catalog.finset_skeleton([0, 1, 2, 3])
    cases = [
        (catalog.finset_skeleton([0, 1, 2, 4]), {"coproduct": ("n1", "n1", "n2"), "pullback_along": "n4>n2:0,0,0,1"}),
        (
            _generated_subcategory(big, ["n1", "n2"], ["n1>n2:0", "n2>n1:0,0", "n2>n2:0,0"]),
            {"coproduct": ("n1", "n1", "n1"), "decomposition_along": "n2>n1:0,0"},
        ),
        (
            _generated_subcategory(
                big, ["n0", "n1", "n2", "n3"], ["n0>n3:", "n1>n2:0", "n2>n3:0,2", "n3>n1:0,0,0", "n3>n2:1,0,0"]
            ),
            {"coproduct": ("n1", "n1", "n2"), "stability_along": "n3>n2:0,1,1"},
        ),
    ]
    for cat, counterexample in cases:
        assert is_extensive(cat).counterexample == counterexample
    assert all(validate_category(cat).ok for cat, _ in cases[1:])


def _monoid(table, unit):
    """The one-object category "*" whose morphisms are the names in table,
    composed by it, with the given identity row."""
    return TableCategory(["*"], {m: ("*", "*") for pair in table for m in pair}, {"*": unit}, table)


# e after e is e: with its identity row "1" the two-element monoid {1, e}
IDEMPOTENT = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}


def test_validate_category_names_a_broken_identity_law():
    """With e, not 1, as the identity row of {1, e}, 1 after e is e, not 1."""
    assert validate_category(_monoid(IDEMPOTENT, "1")).ok
    assert validate_category(_monoid(IDEMPOTENT, "e")).counterexample == {"identity_law": "1"}


def test_validate_functor_names_a_broken_identity_and_composite():
    """The one-point category into {1, e} sending its identity to e breaks
    the identity law; {1, e} into Z/2 sending e to the generator s keeps
    identities but sends e = e.e to s, where s.s = 1."""
    point = catalog.finset_skeleton([1])
    monoid = _monoid(IDEMPOTENT, "1")
    F = FunctorData(point, monoid, {"n1": "*"}, {"n1>n1:0": "e"})
    assert validate_functor(F).counterexample == {"identity": "n1"}
    z2 = _monoid({("1", "1"): "1", ("1", "s"): "s", ("s", "1"): "s", ("s", "s"): "1"}, "1")
    F = FunctorData(monoid, z2, {"*": "*"}, {"1": "1", "e": "s"})
    assert validate_functor(F).counterexample == {"composition": ("e", "e")}


def test_slice_category_of_skeleton_inclusion():
    small, big, incl = catalog.skeleton_inclusion()
    sl, proj = slice_category(incl, "n2")
    # one map n0 -> n2, two maps n1 -> n2
    assert len(sl.objects) == 3
    assert validate_category(sl).ok
    assert validate_functor(proj).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_setmap_composition_associative(n, m, data):
    a = frozenset(range(n))
    b = frozenset(range(m))
    f = SetMap(a, b, {i: data.draw(st.sampled_from(sorted(b))) for i in a})
    g = SetMap(b, a, {i: data.draw(st.sampled_from(sorted(a))) for i in b})
    h = SetMap(a, b, {i: data.draw(st.sampled_from(sorted(b))) for i in a})
    lhs = h.after(g).after(f)
    rhs = h.after(g.after(f))
    assert lhs.mapping == rhs.mapping


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_finset_pullback_square_commutes(n, m, data):
    a = frozenset(range(n))
    b = frozenset(range(m))
    c = frozenset({0})
    f = SetMap(a, c, {i: 0 for i in a})
    g = SetMap(b, c, {i: 0 for i in b})
    sq = FS.pullback(f, g)
    assert len(sq.apex) == n * m
    assert FS.compose(f, sq.to_left).mapping == FS.compose(g, sq.to_right).mapping


def test_setmap_contract():
    src, tgt = frozenset(range(4)), frozenset("ab")
    items = [(0, "a"), (1, "b"), (2, "a"), (3, "b")]
    for order in (items, items[::-1]):  # the hash is cached by whichever map is hashed first
        first, second = SetMap(src, tgt, dict(order)), SetMap(src, tgt, dict(order[::-1]))
        assert hash(first) == hash(second) and first == second
    other = SetMap(src, tgt, {0: "b", 1: "b", 2: "a", 3: "b"})
    assert len({SetMap(src, tgt, dict(items)), other, SetMap(src, tgt, dict(items[::-1])), other}) == 2
    for mapping in ({0: "a"}, {**dict(items), 4: "a"}):
        with pytest.raises(ValueError, match="domain"):
            SetMap(src, tgt, mapping)
    with pytest.raises(ValueError, match="codomain"):
        SetMap(src, tgt, {**dict(items), 3: "c"})
    f = SetMap(src, tgt, dict(items))
    with pytest.raises(ValueError, match="not composable"):
        f.after(f)
    with pytest.raises(ValueError, match="not composable"):
        SetMap.ident("abc").after(f)


def _draw_function(data, dom, cod):
    return {x: data.draw(st.sampled_from(sorted(cod, key=repr))) for x in dom}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_finset_pullback_matches_oracle(data, rnd):
    sizes = st.integers(0, 5)
    X = frozenset(range(data.draw(sizes)))
    A = frozenset(range(data.draw(sizes if X else st.just(0))))
    B = frozenset("abcde"[: data.draw(sizes if X else st.just(0))])
    fd, gd = _draw_function(data, A, X), _draw_function(data, B, X)
    f, g = SetMap(A, X, fd), SetMap(B, X, gd)

    sq = FS.pullback(f, g)
    apex = finset_pullback(fd, A, gd, B)
    assert sq.apex == apex
    assert (sq.to_left.src, sq.to_left.tgt, sq.to_left.mapping) == (apex, A, {z: z[0] for z in apex})
    assert (sq.to_right.src, sq.to_right.tgt, sq.to_right.mapping) == (apex, B, {z: z[1] for z in apex})

    assert FS.is_cone_pullback(f, g, sq.apex, sq.to_left, sq.to_right)
    _check_counted_cone_test(f, g, rnd)

    Z = frozenset(range(data.draw(st.integers(0, 4) if apex else st.just(0))))
    ud = _draw_function(data, Z, apex)
    u = FS.into_pullback(sq, SetMap(Z, A, {z: ud[z][0] for z in Z}), SetMap(Z, B, {z: ud[z][1] for z in Z}))
    assert (u.src, u.tgt, u.mapping) == (Z, apex, ud)

    Z = frozenset(range(data.draw(st.integers(0, 4) if A and B else st.just(0))))
    ad, bd = _draw_function(data, Z, A), _draw_function(data, Z, B)
    a, b = SetMap(Z, A, ad), SetMap(Z, B, bd)
    if all(fd[ad[z]] == gd[bd[z]] for z in Z):
        u = FS.into_pullback(sq, a, b)
        assert (u.src, u.tgt, u.mapping) == (Z, apex, {z: (ad[z], bd[z]) for z in Z})
    else:
        with pytest.raises(ValueError):
            FS.into_pullback(sq, a, b)


def _pair_cone(pairs, A, B):
    """The cone on 0 .. len(pairs) - 1 whose legs read off the given pairs."""
    apex = frozenset(range(len(pairs)))
    p = SetMap(apex, A, {k: a for k, (a, _) in enumerate(pairs)})
    q = SetMap(apex, B, {k: b for k, (_, b) in enumerate(pairs)})
    return apex, p, q


def _check_counted_cone_test(f, g, rnd):
    """FinSetCat.is_cone_pullback, which counts, against the pair-set
    definition: (apex, p, q) is a pullback of (f, g) iff z -> (p z, q z) is
    a bijection onto oracles.finset_pullback.  The cones: the fibre product
    in a random order; without one pair; with one pair repeated; of the
    right size with one pair repeated in place of another; of the right size
    and injective with one pair that f and g do not agree on.  Then the
    edge cases on the true cone: legs out of different apexes, a wrong
    apex, larger or of the right size, and a wrong target of g are no pullback, and a leg that does not
    compose with f or g raises."""
    A, B = f.src, g.src
    pullback = finset_pullback(f.mapping, A, g.mapping, B)
    F = sorted(pullback, key=repr)
    rnd.shuffle(F)
    outside = sorted(set(iproduct(A, B)) - pullback, key=repr)
    cones = {"relabelled": F}
    if F:
        cones["strict subset"] = F[1:]
        cones["duplicated pair"] = F + [rnd.choice(F)]
    if len(F) >= 2:
        cones["duplicated pair, right size"] = F[1:] + [rnd.choice(F[1:])]
    if F and outside:
        cones["not commuting, right size"] = F[1:] + [rnd.choice(outside)]
    for name, pairs in cones.items():
        apex, p, q = _pair_cone(pairs, A, B)
        images = {(p(z), q(z)) for z in apex}
        want = len(images) == len(apex) and images == pullback
        assert want == (name == "relabelled"), name
        assert FS.is_cone_pullback(f, g, apex, p, q) == want, name

    apex, p, q = _pair_cone(F, A, B)
    assert not FS.is_cone_pullback(f, g, apex | {"extra"}, p, q)
    if apex:
        assert not FS.is_cone_pullback(f, g, frozenset((z, "other") for z in apex), p, q)
    if B:
        wide = SetMap(apex | {"extra"}, B, {**q.mapping, "extra": min(B, key=repr)})
        assert not FS.is_cone_pullback(f, g, apex, p, wide)
    off = SetMap(B, g.tgt | {"extra"}, g.mapping)
    assert not FS.is_cone_pullback(f, off, apex, p, q)
    for leg in ("p", "q"):
        legs = {"p": p, "q": q}
        legs[leg] = SetMap(apex, legs[leg].tgt | {"extra"}, legs[leg].mapping)
        with pytest.raises(ValueError, match="^not composable$"):
            FS.is_cone_pullback(f, g, apex, legs["p"], legs["q"])


def test_counted_cone_test_on_a_cospan_with_every_kind_of_cone():
    """A cospan whose fibre product has four pairs and misses five of A x B,
    so every cone of _check_counted_cone_test is built."""
    import random

    X, A, B = frozenset({0, 1}), frozenset({0, 1, 2}), frozenset("abc")
    f = SetMap(A, X, {0: 0, 1: 0, 2: 1})
    g = SetMap(B, X, {"a": 0, "b": 1, "c": 1})
    for seed in range(5):
        _check_counted_cone_test(f, g, random.Random(seed))


def test_setmap_errors_name_the_first_offending_element():
    with pytest.raises(ValueError, match="domain mismatch at 2"):
        SetMap(frozenset({1, 2}), frozenset({0}), {1: 0, 3: 0})
    with pytest.raises(ValueError, match="codomain mismatch at 'b'"):
        SetMap(frozenset({1, 2}), frozenset({0}), {1: "c", 2: "b"})


def _tells_apart(cat, side, sep):
    """By definition: any two distinct u, v: Q -> X differ after some
    e: s -> Q with s in sep (side 0), or any two distinct u, v: X -> Q
    differ before some e: Q -> s (side 1)."""
    comp = cat._comp
    for q, x in iproduct(cat.objects, repeat=2):
        if side == 0:
            probes = [e for s in sep for e in cat.hom(s, q)]
            pairs = combinations(cat.hom(q, x), 2)
            if not all(any(comp[u, e] != comp[v, e] for e in probes) for u, v in pairs):
                return False
        else:
            probes = [e for s in sep for e in cat.hom(q, s)]
            pairs = combinations(cat.hom(x, q), 2)
            if not all(any(comp[e, u] != comp[e, v] for e in probes) for u, v in pairs):
                return False
    return True


def _disjoint_union(*cats):
    """The categories side by side, no arrow between them: an id x of the
    k-th becomes (k, x), so a (co)separating set needs objects of each."""
    def tag(k, table):
        return {(k, a): (k, b) for a, b in table.items()}

    return TableCategory(
        [(k, x) for k, cat in enumerate(cats) for x in cat.objects],
        {(k, m): ((k, a), (k, b)) for k, cat in enumerate(cats) for m, (a, b) in cat._mor.items()},
        {x: i for k, cat in enumerate(cats) for x, i in tag(k, cat._identity).items()},
        {((k, g), (k, f)): (k, gf) for k, cat in enumerate(cats) for (g, f), gf in cat._comp.items()},
        name="+".join(cat.name for cat in cats),
    )


def _kernel_categories():
    copy, _, _ = catalog.table_copy([(), (0,), (1,), (0, 1), (2, 3)])
    yield catalog.fix_fs012()
    yield catalog.finset_skeleton([0, 1, 2, 3])
    yield copy
    yield _relabelled(copy)
    yield _disjoint_union(catalog.fix_fs012(), copy)
    for _, cat, _, _ in open_sites():
        yield cat


def test_the_cone_index_reads_a_separating_and_a_coseparating_set():
    """The set whose hom sets the cone test reads separates (cones) and
    coseparates (cocones), checked by definition, and the index reads only
    its objects; for finite sets these are {1} and {2}."""
    for cat in _kernel_categories():
        for side, index in enumerate(cat._cone_index):
            assert _tells_apart(cat, side, index.sep), (cat.name, side, index.sep)
            assert all(q0 in index.sep for rows in index.multi.values() for q0, _ in rows), cat.name
    fs = catalog.finset_skeleton([0, 1, 2, 3])
    copy, _, _ = catalog.table_copy([(), (0,), (1,), (0, 1), (2, 3)])
    assert [side.sep for side in fs._cone_index] == [{"n1"}, {"n2"}]
    both = _disjoint_union(catalog.fix_fs012(), copy)
    assert [side.sep for side in both._cone_index] == [{(0, "n1"), (1, "S0")}, {(0, "n2"), (1, "S0_1")}]
    # a set with no point separates nothing, one with at most one point coseparates nothing
    assert _tells_apart(fs, 0, {"n2"}) and not _tells_apart(fs, 0, {"n0"})
    assert _tells_apart(fs, 1, {"n3"}) and not _tells_apart(fs, 1, {"n0", "n1"})



def test_cone_kernel_matches_the_oracle_where_the_separating_set_has_two_objects():
    copy, _, _ = catalog.table_copy([(), (0,), (1,), (0, 1), (2, 3)])
    _check_cones(_disjoint_union(catalog.fix_fs012(), copy))


_SEPARATING_SETS = """
from finsite import catalog
cats = [catalog.fix_fs012(), catalog.finset_skeleton([0, 1, 2, 3]), catalog.fix_v()[0]]
cats.append(catalog.table_copy([(), (0,), (1,), (0, 1), (2, 3)])[0])
for cat in cats:
    print([[x for x in cat.objects if x in side.sep] for side in cat._cone_index])
"""


def test_the_separating_sets_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(finsite.__file__))
    outs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _SEPARATING_SETS], env=env, capture_output=True, text=True, check=True
        )
        outs.add(run.stdout)
    assert outs == {"[['n1'], ['n2']]\n[['n1'], ['n2']]\n[[], []]\n[['S0'], ['S0_1']]\n"}
