import functools
import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings, strategies as st

import finsite
import oracles
from spaces import finite_spaces, open_sites, subsets
from finsite import catalog, cli, site
from finsite.fincat import (
    FinSetCat,
    FunctorData,
    SetMap,
    TableCategory,
    identity_functor,
    is_effective_epi,
    is_extensive,
    is_universal,
    universally_effective_epis,
)
from finsite.site import (
    CoveringFamily,
    FinSetTopology,
    Pretopology,
    are_equivalent,
    canonical_topology,
    continuity_sufficient,
    discrete_topology,
    extensive_topology,
    find_refinement,
    has_dense_image,
    indiscrete_topology,
    is_coarser,
    is_cocontinuous,
    is_continuous,
    is_local,
    is_locally_split,
    is_singletonizable,
    is_subcanonical,
    is_superextensive,
    restrict_topology,
    singletonize,
    uni_class,
    uni_contains,
    universal_completion,
    validate_pretopology,
)

FS = FinSetCat()


@pytest.fixture(scope="module")
def v():
    cat, T_op = catalog.fix_v()
    return cat, T_op


@pytest.fixture(scope="module")
def fs012():
    return catalog.fix_fs012()


def catalog_topologies(cat, T_special):
    return [T_special, indiscrete_topology(cat), discrete_topology(cat), canonical_topology(cat)]


def test_open_cover_pretopology_validates(v):
    cat, T_op = v
    assert validate_pretopology(T_op).ok
    assert len(T_op.families["oX"]) == 10
    assert frozenset() in T_op.families["oE"]


def test_all_catalog_topologies_validate(v, fs012):
    cat, T_op = v
    for T in catalog_topologies(cat, T_op):
        assert validate_pretopology(T).ok, T.name
    for T in catalog_topologies(fs012, extensive_topology(fs012)):
        assert validate_pretopology(T).ok, T.name


def test_all_surjections_family_fails_pullback_stability(fs012):
    fams = {x: set() for x in fs012.objects}
    for m in fs012.morphisms():
        tgt_size = int(fs012.tgt(m)[1:])
        values = m.split(":")[1]
        hit = set(values.split(",")) if values else set()
        if len(hit) == tgt_size:
            fams[fs012.tgt(m)].add(frozenset({m}))
    report = validate_pretopology(Pretopology(fs012, fams, name="T_allsurj"))
    assert not report.ok
    assert report.counterexample["axiom"] == 3
    assert report.counterexample["member"].startswith("n2>n1")


def test_composite_family_fails_axiom_two(v):
    cat, _ = v
    fams = {x: {frozenset({f})} for x in cat.objects for f in cat.isos() if cat.tgt(f) == x}
    fams["oX"].add(frozenset({"oU_to_oX", "oV_to_oX"}))
    fams["oU"].add(frozenset({"oE_to_oU"}))
    report = validate_pretopology(Pretopology(cat, fams, name="T_ax2"))
    assert not report.ok
    # {oE_to_oU} covering oU composes with {oU_to_oX, oV_to_oX} to a family
    # {oE_to_oX, oV_to_oX} that is not declared
    assert report.counterexample == {"axiom": 2, "family": ("oU_to_oX", "oV_to_oX")}


def test_families_keyed_by_unknown_object_raise(v):
    cat, T_op = v
    fams = dict(T_op.families, oNOPE={frozenset({"oU_to_oX"})})
    with pytest.raises(ValueError, match="oNOPE"):
        Pretopology(cat, fams, name="T_stray")


def test_locally_split_witnesses(v):
    cat, T_op = v
    # every singleton covering splits through itself
    for x in cat.objects:
        w = is_locally_split(T_op, cat.identity(x))
        assert w is not None
    # the inclusion oU -> oX is not locally split: every covering of oX
    # contains a member that does not factor through oU
    assert is_locally_split(T_op, "oU_to_oX") is None


def test_uni_classification(v):
    cat, T_op = v
    assert uni_class(T_op) == frozenset(cat.isos())
    assert uni_class(indiscrete_topology(cat)) == frozenset(cat.isos())
    assert "oU_to_oX" in uni_class(discrete_topology(cat))


def test_universal_completion_laws(v, fs012):
    cat, T_op = v
    everything = catalog_topologies(cat, T_op) + catalog_topologies(
        fs012, extensive_topology(fs012)
    )
    for T in everything:
        uni = universal_completion(T)
        assert are_equivalent(T, uni), T.name
        assert uni_class(universal_completion(uni)) == uni_class(uni), T.name
        if T.is_singleton():
            for x in T.cat.objects:
                for fam in T.families[x]:
                    assert uni.has_family(x, fam) or all(
                        uni_contains(T, m) for m in fam
                    ), T.name


def test_equivalence_order(v, fs012):
    for cat, T_sp in ((v[0], v[1]), (fs012, extensive_topology(fs012))):
        tops = catalog_topologies(cat, T_sp)
        for T in tops:
            assert is_coarser(indiscrete_topology(cat), T)
            assert is_coarser(T, discrete_topology(cat))


def test_coarser_matches_identity_functor_continuity(v):
    cat, T_op = v
    tops = catalog_topologies(cat, T_op)
    idf = identity_functor(cat)
    for T1, T2 in itertools.product(tops, repeat=2):
        c = is_coarser(T1, T2)
        assert c == is_continuous(idf, T1, T2).ok, (T1.name, T2.name)
        assert c == is_cocontinuous(idf, T2, T1).ok, (T1.name, T2.name)


_CONTINUITY_ON_V = """
from finsite import catalog, site
from finsite.fincat import identity_functor
cat, T_op = catalog.fix_v()
idf, T_dis = identity_functor(cat), site.discrete_topology(cat)
print(site.is_continuous(idf, T_dis, T_op).counterexample)
print(site.continuity_sufficient(idf, T_dis, T_op).counterexample)
"""


def test_continuity_counterexamples_do_not_depend_on_the_hash_seed(v):
    cat, T_op = v
    uni = uni_class(discrete_topology(cat))
    first = next(f for f in cat.morphisms() if f in uni and not uni_contains(T_op, f))
    src = os.path.dirname(os.path.dirname(finsite.__file__))
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _CONTINUITY_ON_V], env=env, capture_output=True, text=True, check=True
        )
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == repr({"clause": "image", "morphism": first})


def test_continuity_sufficient_names_the_covering_and_universal_clauses():
    """On the chain of opens {} < {0}, the identity functor from the
    open-cover site to the indiscrete one loses the empty cover of the empty
    open.  Sent into FIX-FS012 as n2 -> n1, the chain keeps its iso covers,
    but the inclusion of {} in {0}, universal in the chain, goes to a map
    n2 -> n1 without a kernel pair: n2 x_n1 n2 has four points."""
    chain, T_op = catalog.open_poset([frozenset(), frozenset({0})])
    T_indis = indiscrete_topology(chain)
    report = continuity_sufficient(identity_functor(chain), T_op, T_indis)
    assert report.counterexample == {"clause": "covering", "family": ()}
    fs012 = catalog.fix_fs012()
    F = FunctorData(
        chain,
        fs012,
        {"o": "n2", "o0": "n1"},
        {"o_to_o": "n2>n2:0,1", "o0_to_o0": "n1>n1:0", "o_to_o0": "n2>n1:0,0"},
    )
    report = continuity_sufficient(F, T_indis, indiscrete_topology(fs012))
    assert report.counterexample == {"clause": "universal", "morphism": "o_to_o0"}


def test_continuity_names_the_image_and_fibre_product_clauses(v, fs012):
    """The identity of FIX-FS012 from its discrete to its indiscrete
    topology sends the universal n0 -> n1 to a map that is not an iso.
    FIX-V -> FIX-S gluing oU and oV into oA sends their pullback oE over oX
    to oE, which is not the pullback oA of oA -> oX with itself."""
    idf = identity_functor(fs012)
    report = is_continuous(idf, discrete_topology(fs012), indiscrete_topology(fs012))
    assert report.counterexample == {"clause": "image", "morphism": "n0>n1:"}
    cat, _ = v
    chain, _ = catalog.fix_s()
    on_obj = {"oE": "oE", "oU": "oA", "oV": "oA", "oX": "oX"}
    F = FunctorData(
        cat, chain, on_obj, {m: f"{on_obj[cat.src(m)]}_to_{on_obj[cat.tgt(m)]}" for m in cat.morphisms()}
    )
    report = is_continuous(F, discrete_topology(cat), discrete_topology(chain))
    assert report.counterexample == {"clause": "fibre-product", "cospan": ("oU_to_oX", "oV_to_oX")}


def test_continuity_sufficient_skips_morphisms_that_are_not_universal(fs012):
    """FIX-FS012 has three maps without a pullback along some map into their
    target (n2 -> n1 and the two constant endomaps of n2); the sufficient
    criterion asks nothing of them, so the identity functor passes under
    T_can."""
    assert sorted(f for f in fs012.morphisms() if not is_universal(fs012, f)) == [
        "n2>n1:0,0", "n2>n2:0,0", "n2>n2:1,1"
    ]
    T_can = canonical_topology(fs012)
    assert continuity_sufficient(identity_functor(fs012), T_can, T_can).ok


def test_find_refinement(v):
    cat, T_op = v
    fam = CoveringFamily("oX", ("oU_to_oX", "oV_to_oX"))
    assert find_refinement(fam, T_op) is not None
    assert find_refinement(fam, indiscrete_topology(cat)) is None
    trivial = CoveringFamily("oX", ("oX_to_oX",))
    r = find_refinement(trivial, indiscrete_topology(cat))
    assert r is not None
    assert all(cat.is_identity(c) for c in r.connecting)


def _sieve_site(name):
    """The category with its catalog topologies and their universal completions."""
    if name == "FIX-V":
        cat, T_op = catalog.fix_v()
        tops = [T_op]
    elif name == "FS012":
        cat = catalog.fix_fs012()
        tops = [extensive_topology(cat)]
    else:
        cat, tops = catalog.finset_skeleton([0, 1, 2, 3]), []
    tops += [indiscrete_topology(cat), discrete_topology(cat), canonical_topology(cat)]
    return cat, tops + [universal_completion(T) for T in tops]


@pytest.mark.parametrize("name", ["FIX-V", "FS012", "skeleton0123"])
def test_split_witnesses_and_refinements_factor(name):
    """Local splitness and refinement exist iff some family, of all of
    them, splits or refines; the witness is the first minimal family that
    does, and its sections and connecting maps factor."""
    cat, tops = _sieve_site(name)
    for T in tops:
        for f in cat.morphisms():
            w = is_locally_split(T, f)

            def split(cov):
                return all(
                    any(cat.compose(f, r) == m for r in cat.hom(cat.src(m), cat.src(f)))
                    for m in cov.members
                )

            assert (w is None) == (not any(map(split, T.covering_families(cat.tgt(f))))), (T.name, f)
            if w is not None:
                assert w.covering == next(filter(split, T.minimal_families(cat.tgt(f))))
                assert [cat.compose(f, s) for s in w.sections] == list(w.covering.members)
        for T2 in tops:
            for x in cat.objects:
                for fam in T.covering_families(x):
                    r = find_refinement(fam, T2)

                    def refines(cov):
                        return all(
                            any(
                                cat.compose(pi, rho) == psi
                                for pi in fam.members
                                for rho in cat.hom(cat.src(psi), cat.src(pi))
                            )
                            for psi in cov.members
                        )

                    assert (r is None) == (not any(map(refines, T2.covering_families(x)))), (T.name, T2.name)
                    if r is None:
                        continue
                    assert r.refining_family == next(filter(refines, T2.minimal_families(x)))
                    assert T2.has_family(x, r.refining_family.members)
                    assert len(r.index_map) == len(r.connecting) == len(r.refining_family.members)
                    for psi, i, rho in zip(r.refining_family.members, r.index_map, r.connecting):
                        assert cat.compose(fam.members[i], rho) == psi, (T.name, T2.name, psi)


def test_singletonize_rejected_on_non_extensive_poset(v):
    cat, T_op = v
    assert is_singletonizable(T_op)  # joins exist per family
    with pytest.raises(ValueError):
        singletonize(T_op)


def test_singletonization_on_skeleton(fs012):
    T_ext = extensive_topology(fs012)
    S = singletonize(T_ext)
    assert validate_pretopology(S).ok
    isos = frozenset(fs012.isos())
    assert uni_class(S) == isos
    assert are_equivalent(T_ext, S)


_FS012_TWO_FAMILIES_WITHOUT_COPRODUCT = """
from finsite import catalog, site
cat = catalog.fix_fs012()
fams = {x: {frozenset({cat.identity(x)})} for x in cat.objects}
fams["n2"] = {frozenset(s) for s in [
    ("n1>n2:0", "n1>n2:1"), ("n2>n2:0,1", "n1>n2:0"), ("n2>n2:0,1", "n1>n2:1")
]}
T = site.Pretopology(cat, fams)
print(site.is_singletonizable(T))
try:
    site.singletonize(T)
except ValueError as exc:
    print(exc)
"""


def test_singletonize_names_the_same_family_under_every_hash_seed():
    """On FIX-FS012 the two families {id_n2, n1 -> n2} of n2 have no
    coproduct (n2 + n1 is not in the skeleton).  singletonize names the
    first of them in covering_families order whatever the hash seed; it
    named whichever its set of families yielded first."""
    src = os.path.dirname(os.path.dirname(finsite.__file__))
    outs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _FS012_TWO_FAMILIES_WITHOUT_COPRODUCT],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.add(run.stdout)
    assert outs == {"False\ncovering family without coproduct: ('n1>n2:0', 'n2>n2:0,1')\n"}


def _finset_fragment():
    """The sets {0..k} for k <= 3, the empty set included, and every map
    between them."""
    sets = [frozenset(range(n)) for n in range(5)]
    return sets, [f for a in sets for b in sets for f in FS.hom(a, b)]


def _local_by_definition(T, maps, uni):
    """is_local's definition on the cospans (pi, g) of the given maps: pi is
    in uni whenever g is and so is the leg FS.pullback(pi, g).to_right,
    which uni_contains judges, since the pullback's apex is no given set."""
    return all(
        pi in uni or g not in uni or not uni_contains(T, FS.pullback(pi, g).to_right)
        for pi in maps
        for g in maps
        if g.tgt == pi.tgt
    )


def _superextensive_by_definition(T):
    """is_superextensive's definition on the coproduct cocones into {0..n-1},
    n <= 3, with legs out of the sets {0..m-1}, m <= 3: each is a family of
    T, that is a singleton {c} that T covers."""
    def leg(values, n):
        return SetMap(frozenset(range(len(values))), frozenset(range(n)), dict(enumerate(values)))

    return all(
        len(fam) == 1 and T.covers(leg(*fam, n))
        for n in range(4)
        for fam in oracles.finset_coproduct_families(range(4), n)
    )


def test_finset_topology_branches_match_brute_force_on_small_sets():
    """On the maps between the sets {0..k}, k <= 3: f is locally split in
    FinSetTopology(kind) iff some map c: U -> tgt(f) of that kind equals
    f . s for some s: U -> src(f), U in the fragment; each witness factors;
    universal_completion keeps the Uni class; and is_coarser is inclusion
    of the Uni classes.  Every map of finite sets is universal, so the Uni
    class of a kind is its locally split maps.  is_local and
    is_superextensive agree with their definitions on the fragment
    (_local_by_definition with that Uni class, _superextensive_by_definition):
    no kind is superextensive, as the empty family into the empty set is a
    coproduct family and no singleton, and neither is the singleton-surjection
    topology of a table copy of the sets {}, {0}, {1}, {0, 1}."""
    sets, maps = _finset_fragment()
    of_kind = {
        "surjections": lambda img, tgt, n: img == tgt,
        "isos": lambda img, tgt, n: img == tgt and n == len(tgt),
        "all": lambda img, tgt, n: True,
    }

    def brute(kind, f):
        for u in sets:
            for s in itertools.product(sorted(f.src), repeat=len(u)):
                if of_kind[kind]({f(y) for y in s}, f.tgt, len(u)):
                    return True
        return False

    uni = {}
    for kind in FinSetTopology.KINDS:
        T = FinSetTopology(kind)
        split = set()
        for f in maps:
            w = is_locally_split(T, f)
            assert (w is not None) == brute(kind, f), (kind, f)
            if w is not None:
                split.add(f)
                (c,), (s,) = w.covering.members, w.sections
                assert w.covering.target == f.tgt and T.covers(c), (kind, f)
                assert FS.compose(f, s) == c, (kind, f)
        uni[kind] = frozenset(f for f in maps if uni_contains(T, f))
        assert uni[kind] == split, kind
        done = universal_completion(T)
        assert frozenset(f for f in maps if uni_contains(done, f)) == uni[kind], kind
        assert is_local(T) == _local_by_definition(T, maps, uni[kind]), kind
        assert _superextensive_by_definition(T) is False, kind
        assert is_superextensive(T) is False, kind
    for k1, k2 in itertools.product(FinSetTopology.KINDS, repeat=2):
        assert is_coarser(FinSetTopology(k1), FinSetTopology(k2)) == (uni[k1] <= uni[k2]), (k1, k2)
    cat, _, _ = catalog.table_copy([(), (0,), (1,), (0, 1)])
    surj = {x: {frozenset({m}) for m in cat.into(x) if cat.map_of_mor[m].is_surjective()} for x in cat.objects}
    assert not is_superextensive(Pretopology(cat, surj))


def test_classification_predicates(v, fs012):
    cat, T_op = v
    assert is_subcanonical(T_op)
    assert is_superextensive(T_op)
    assert is_local(discrete_topology(cat))
    T_ext = extensive_topology(fs012)
    assert is_subcanonical(T_ext)
    assert is_superextensive(T_ext)
    assert not is_superextensive(indiscrete_topology(fs012))


@functools.cache
def _classification_sites():
    """The topologies the singletonizable and superextensive checks are
    compared with their oracles on, keyed by (site, topology):
    - on the open sites of spaces.open_sites, FIX-S and the discrete
      2-point space: T_op; the topology of T_op's minimal families alone,
      which is not closed under supersets; and T_op without the families
      of the top open, which is trivially closed there;
    - on the skeletons of {0..2} and {0..3}: the families of at most two
      members, some of which have no coproduct there (n2 + n2);
    - on FIX-V without its empty open, which has every binary coproduct
      (join) but no initial object: the empty family at every object;
    - on every one of these sites: T_indis, T_dis and T_can, and T_ext
      where the category is extensive."""
    tops, cats = {}, {}
    opens = [(label, cat, T) for label, cat, T, _ in open_sites()]
    opens += [("FIX-S", *catalog.fix_s()), ("discrete-2", *catalog.open_poset(subsets([0, 1])))]
    for label, cat, T in opens:
        cats[label] = cat
        tops[label, "T_op"] = T
        minimal = {x: [cov.members for cov in T.minimal_families(x)] for x in cat.objects}
        tops[label, "minimal"] = Pretopology(cat, minimal, name="minimal")
        no_top = {x: T.families[x] for x in cat.objects[:-1]}
        tops[label, "no top"] = Pretopology(cat, no_top, name="no top")
    for k in (2, 3):
        cat = cats[f"skeleton of {k}"] = catalog.finset_skeleton(range(k + 1))
        pairs = {x: [s for n in range(3) for s in itertools.combinations(cat.into(x), n)] for x in cat.objects}
        tops[f"skeleton of {k}", "pairs"] = Pretopology(cat, pairs, name="pairs")
    big, _ = catalog.fix_v()
    keep = ("oU", "oV", "oX")
    mor = {m: ab for m, ab in big._mor.items() if ab[0] in keep and ab[1] in keep}
    comp = {gf: h for gf, h in big._comp.items() if gf[0] in mor and gf[1] in mor}
    cat = cats["FIX-V without oE"] = TableCategory(keep, mor, {x: big.identity(x) for x in keep}, comp)
    tops["FIX-V without oE", "empty"] = Pretopology(cat, {x: [()] for x in keep}, name="empty")
    for label, cat in cats.items():
        for T in (indiscrete_topology(cat), discrete_topology(cat), canonical_topology(cat)):
            tops[label, T.name] = T
        if is_extensive(cat).ok:
            tops[label, "T_ext"] = extensive_topology(cat)
    return tops


def test_singletonizable_matches_the_loop_over_all_families():
    for key, T in _classification_sites().items():
        assert is_singletonizable(T) == oracles.all_families_singletonizable(T), key


def test_superextensive_matches_the_loop_over_all_coproduct_families():
    tops = _classification_sites()
    for key, T in tops.items():
        assert is_superextensive(T) == oracles.all_families_superextensive(T), key
    # every prefix-minimal coproduct family of the discrete 2-point space is
    # a minimal open cover, so only closure under supersets tells this apart
    assert not is_superextensive(tops["discrete-2", "minimal"])


def test_restrict_topology_to_skeleton():
    small, big, incl = catalog.skeleton_inclusion()
    T_dis = discrete_topology(big)
    T = restrict_topology(T_dis, incl)
    assert validate_pretopology(T).ok
    members = {m for fams in T.families.values() for fam in fams for m in fam}
    assert members == {m for m in small.morphisms() if is_universal(small, m)}
    # a family of n1 with a member out of n2, which the skeleton lacks, is skipped
    fams = {x: {*f, frozenset({"n2>n1:0,0"})} if x == "n1" else f for x, f in T_dis.families.items()}
    assert restrict_topology(Pretopology(big, fams), incl).families == T.families


def test_skeleton_inclusion_site_functor_properties():
    small, big, incl = catalog.skeleton_inclusion()
    T1 = indiscrete_topology(small)
    T2 = indiscrete_topology(big)
    assert is_continuous(incl, T1, T2).ok
    assert is_cocontinuous(incl, T1, T2).witness == {"lifts": 2}
    # n0 -> n1 is in Uni of the discrete topology; the sieve it generates
    # holds no isomorphism, and the indiscrete source lifts only those
    assert is_cocontinuous(incl, T1, discrete_topology(big)).counterexample == {
        "object": "n1",
        "morphism": "n0>n1:",
    }
    assert has_dense_image(incl, T2).ok
    assert continuity_sufficient(incl, T1, T2).ok


def test_dense_image_verdicts(v, fs012):
    cat, _ = v
    sub, incl = catalog.fix_b()
    # oX = oU join oV with the identity as induced map, so FIX-B is dense
    assert has_dense_image(incl, indiscrete_topology(cat)).ok
    # the one-object inclusion {n0} cannot reach n2 by coproducts of n0
    tiny = catalog.finset_skeleton([0])
    j = FunctorData(tiny, fs012, {"n0": "n0"}, {tiny.identity("n0"): fs012.identity("n0")})
    r = has_dense_image(j, indiscrete_topology(fs012))
    assert r.ok is False
    assert r.counterexample["object"] in ("n1", "n2")


def test_dense_image_names_a_functor_that_is_not_full_or_not_faithful():
    """The point sent to n2 of FIX-FS012 misses three of n2's four
    endomorphisms; the set n2 with its four maps, collapsed to the point,
    identifies them."""
    point, fs012, fs2 = catalog.finset_skeleton([1]), catalog.fix_fs012(), catalog.finset_skeleton([2])
    F = FunctorData(point, fs012, {"n1": "n2"}, {"n1>n1:0": "n2>n2:0,1"})
    assert has_dense_image(F, indiscrete_topology(fs012)).counterexample == {"clause": "full"}
    F = FunctorData(fs2, point, {"n2": "n1"}, dict.fromkeys(fs2.morphisms(), "n1>n1:0"))
    assert has_dense_image(F, indiscrete_topology(point)).counterexample == {"clause": "faithful"}


def test_dense_image_of_finset_sub_skeletons_matches_the_sums_oracle():
    """Every non-empty S in [0..3]: the inclusion of finset_skeleton(S) is
    dense for T_indis iff every size is a sum of sizes in S.  S = [1] and
    [0, 1] reach n3 only as n1 + n1 + n1."""
    sizes = [0, 1, 2, 3]
    big = catalog.finset_skeleton(sizes)
    T = indiscrete_topology(big)
    for r in range(1, len(sizes) + 1):
        for S in itertools.combinations(sizes, r):
            small = catalog.finset_skeleton(S)
            incl = FunctorData(small, big, {x: x for x in small.objects}, {m: m for m in small.morphisms()})
            rep = has_dense_image(incl, T)
            assert rep.ok == oracles.finset_dense_sizes(S, sizes), S
            if rep.ok:
                for x, w in rep.witness["objects"].items():
                    h, legs = w["morphism"], w["family"]
                    assert big.tgt(h) == x and uni_contains(T, h)
                    assert big.is_coproduct_cocone(big.src(h), legs)
                    assert all(big.src(m) in small.objects for m in legs)
            else:
                assert rep.counterexample["object"] in big.objects


def test_dense_image_witness_is_the_smallest_family_of_image_legs():
    """The witness at each object is, of every coproduct family into the
    source of its morphism whose legs start at images, the one with the
    fewest legs, ties broken by the reprs of its legs."""
    sizes = [0, 1, 2, 3]
    big = catalog.finset_skeleton(sizes)
    for T in (indiscrete_topology(big), discrete_topology(big)):
        for r in range(1, len(sizes) + 1):
            for S in itertools.combinations(sizes, r):
                small = catalog.finset_skeleton(S)
                incl = FunctorData(small, big, {x: x for x in small.objects}, {m: m for m in small.morphisms()})
                rep = has_dense_image(incl, T)
                for w in rep.witness["objects"].values() if rep.ok else ():
                    fams = [
                        sorted(fam, key=repr)
                        for fam in big.coproduct_families(big.src(w["morphism"]))
                        if all(big.src(m) in small.objects for m in fam)
                    ]
                    assert w["family"] == min(fams, key=lambda legs: (len(legs), list(map(repr, legs)))), S


def test_finset_topology_order_and_uni():
    surj = FinSetTopology("surjections")
    isos = FinSetTopology("isos")
    alltop = FinSetTopology("all")
    assert is_coarser(isos, surj) and is_coarser(surj, isos)
    assert is_coarser(surj, alltop) and not is_coarser(alltop, surj)
    two = frozenset({0, 1})
    one = frozenset({0})
    s = SetMap(two, one, {0: 0, 1: 0})
    inj = SetMap(one, two, {0: 0})
    for T in (surj, isos, alltop):
        assert uni_contains(T, s)
    assert not uni_contains(surj, inj)
    assert uni_contains(alltop, inj)
    assert universal_completion(isos).kind == "surjections"
    _, maps = _finset_fragment()
    for T in (surj, isos, alltop):
        uni = {f for f in maps if uni_contains(T, f)}
        assert is_local(T) == _local_by_definition(T, maps, uni), T
        assert is_superextensive(T) == _superextensive_by_definition(T), T


def test_uni_class_refuses_intensional_backend():
    with pytest.raises(ValueError):
        uni_class(FinSetTopology("surjections"))


def _table_fixtures():
    """The table categories tier-1 builds from the catalog, each with the
    topologies it carries: the open posets with their open covers, FIX-B,
    the finite-set skeletons, and table copies whose isomorphic carriers
    are distinct objects.  Last, two of these with their morphism tables
    in reverse order, so that the first morphism of an orbit, in table
    order, is not the identity or the leg the cone kernel picks."""
    for _, cat, T, _ in open_sites():
        yield cat, [T]
    cat, T = catalog.fix_s()
    yield cat, [T]
    yield catalog.fix_b()[0], []
    for sizes in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
        yield catalog.finset_skeleton(sizes), []
    for sets in ([(0, 1), (2, 3), (0,)], [(), (0,), (1,), (0, 1), (2, 3)]):
        yield catalog.table_copy(sets)[0], []
    for cat in (catalog.finset_skeleton([0, 1, 2, 3]), catalog.table_copy([(0, 1), (2, 3), (0,)])[0]):
        mor = dict(reversed(cat._mor.items()))
        yield TableCategory(cat.objects, mor, cat._identity, cat._comp, name=f"reversed {cat.name}"), []


def test_classification_matches_the_unreduced_oracles_on_table_fixtures():
    """universally_effective_epis, uni_class, is_local and is_universal,
    which read one morphism per orbit under precomposition with isos, give
    the verdicts of the loops over every morphism and cospan, on each
    fixture with its own topologies and the indiscrete, discrete, canonical
    and (where the category is extensive) extensive ones."""
    for cat, topologies in _table_fixtures():
        assert universally_effective_epis(cat) == oracles.unreduced_universally_effective_epis(cat), cat.name
        topologies = [canonical_topology(cat), indiscrete_topology(cat), discrete_topology(cat), *topologies]
        if is_extensive(cat).ok:
            topologies.append(extensive_topology(cat))
        for T in topologies:
            assert uni_class(T) == oracles.unreduced_uni_class(T), (cat.name, T.name)
            assert is_local(T) == oracles.unreduced_is_local(T), (cat.name, T.name)
        for f in cat.morphisms():
            assert is_universal(cat, f) == oracles.unreduced_is_universal(cat, f), (cat.name, f)


def test_uni_class_and_is_local_match_the_unreduced_oracles_on_random_families():
    """200 seeded random families on the skeleton of {0..3}, most of them no
    pretopology: each object gets up to three random sets of at most three
    morphisms into it, and half the time the singletons of its isos."""
    cat = catalog.finset_skeleton([0, 1, 2, 3])
    rng, isos, verdicts = random.Random(0), cat.isos(), set()
    for k in range(200):
        fams = {}
        for x in cat.objects:
            into = cat.into(x)
            fams[x] = [rng.sample(into, rng.randint(0, min(3, len(into)))) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                fams[x] += [[e] for e in into if e in isos]
        T = Pretopology(cat, fams, name=f"random-{k}")
        assert uni_class(T) == oracles.unreduced_uni_class(T), fams
        local = is_local(T)
        assert local == oracles.unreduced_is_local(T), fams
        verdicts.add(local)
    assert verdicts == {True, False}


def test_is_local_of_the_canonical_topology_reads_one_morphism_per_orbit(monkeypatch):
    """canonical_topology and is_local on the skeleton of {0..3} make at most
    half the 882 TableCategory.pullback calls (memo hits included) that
    reading every morphism and every cospan made."""
    calls = []
    pullback = TableCategory.pullback

    def counted(cat, f, g):
        calls.append((f, g))
        return pullback(cat, f, g)

    monkeypatch.setattr(TableCategory, "pullback", counted)
    assert is_local(canonical_topology(catalog.finset_skeleton([0, 1, 2, 3])))
    assert len(calls) <= 882 // 2


def test_uni_class_is_built_once_per_topology(monkeypatch):
    """A second uni_class(T) asks uni_contains nothing: the class is kept on T."""
    calls = []
    contains = site.uni_contains

    def counted(T, f):
        calls.append(f)
        return contains(T, f)

    monkeypatch.setattr(site, "uni_contains", counted)
    T = discrete_topology(catalog.fix_fs012())
    first = uni_class(T)
    assert calls
    calls.clear()
    assert uni_class(T) == first and not calls


def test_minimal_families_are_the_antichain_of_the_families():
    for label, cat, T, _ in open_sites():
        for x in cat.objects:
            got = T.minimal_families(x)
            assert {frozenset(cov.members) for cov in got} == oracles.minimal_sets(T.families[x]), (label, x)
            assert list(got) == sorted(got, key=repr)
            assert all(list(cov.members) == sorted(cov.members, key=repr) for cov in got)


def test_extensive_families_of_open_posets_match_the_union_oracle():
    for label, cat, _, open_of in open_sites():
        families = site._extensive_families(cat)
        for x in cat.objects:
            # in a poset a family into x is given by its sources
            got = {frozenset(open_of[cat.src(m)] for m in fam) for fam in families[x]}
            assert got == oracles.open_coproduct_families(list(open_of.values()), open_of[x]), (label, x)


def test_extensive_families_of_the_finset_skeleton_match_the_disjoint_union_oracle():
    cat = catalog.finset_skeleton([0, 1, 2, 3])
    start = time.perf_counter()
    families = site._extensive_families(cat)
    assert time.perf_counter() - start < 1

    def values(m):  # the id of a map {0..a-1} -> {0..b-1} ends in its values
        return tuple(int(v) for v in m.split(":")[1].split(",") if v)

    for x in cat.objects:
        got = {frozenset(map(values, fam)) for fam in families[x]}
        assert got == oracles.finset_coproduct_families([0, 1, 2, 3], int(x[1:])), x
    assert {x: len(fams) for x, fams in families.items()} == {"n0": 2, "n1": 2, "n2": 6, "n3": 26}
    assert validate_pretopology(extensive_topology(cat)).ok


def _uni_class_universal_first(T):
    return frozenset(
        f for f in T.cat.morphisms() if is_universal(T.cat, f) and is_locally_split(T, f) is not None
    )


def _is_local_pulling_back_every_cospan(T):
    cat, uni = T.cat, _uni_class_universal_first(T)
    for pi in cat.morphisms():
        for g in cat.into(cat.tgt(pi)):
            sq = cat.pullback(pi, g)
            if sq is not None and sq.to_right in uni and g in uni and pi not in uni:
                return False
    return True


def _universally_effective_epis_universal_first(cat):
    current = {f for f in cat.morphisms() if is_universal(cat, f) and is_effective_epi(cat, f)}
    changed = True
    while changed:
        changed = False
        for f in list(current):
            for g in cat.into(cat.tgt(f)):
                sq = cat.pullback(f, g)
                if sq is None or sq.to_right not in current:
                    current.discard(f)
                    changed = True
                    break
    return frozenset(current)


def test_reordered_classifications_match_the_old_order():
    """uni_class, is_local and universally_effective_epis against their
    universality-first, pull-back-everything formulations, on every topology
    of the catalog bundle and on T_can, T_indis and T_dis of the skeleton
    of {0..3}."""
    fs0123 = catalog.finset_skeleton([0, 1, 2, 3])
    tops = list(cli.catalog_bundle().topologies.values())
    tops += [canonical_topology(fs0123), indiscrete_topology(fs0123), discrete_topology(fs0123)]
    for T in tops:
        assert uni_class(T) == _uni_class_universal_first(T), T.name
        assert is_local(T) == _is_local_pulling_back_every_cospan(T), T.name
    for cat in {id(T.cat): T.cat for T in tops}.values():
        assert universally_effective_epis(cat) == _universally_effective_epis_universal_first(cat), cat.name


def test_canonical_topology_and_locality_pull_back_only_what_decides():
    """On a fresh skeleton of {0..3}, of its 1,842 cospans canonical_topology
    pulls back at most 325, and is_local of that T_can alone at most 539."""
    cat = catalog.finset_skeleton([0, 1, 2, 3])
    T = canonical_topology(cat)
    assert len(cat._pullbacks) <= 325
    cat._pullbacks.clear()
    cat._universal.clear()
    assert is_local(T)
    assert len(cat._pullbacks) <= 539


@functools.cache
def _axiom_sites():
    """The fixed sites the pretopology oracle test mutates, each with its
    plain tables and a memo of the oracle's pullbacks: FIX-V, the six-open
    space and the discrete 3-point space with their open-cover topologies,
    and T_can, T_indis and T_dis on the skeletons of {0..2} and {0..3}.
    DOWN12 is left out: both oracles read every family of its top open,
    which takes over a minute."""
    sites = {label: T for label, _, T, _ in open_sites() if label != "DOWN12"}
    for points in ([0, 1, 2], [0, 1, 2, 3]):
        cat = catalog.finset_skeleton(points)
        for T in (canonical_topology(cat), indiscrete_topology(cat), discrete_topology(cat)):
            sites[f"{T.name} on {len(points)} objects"] = T
    return {
        label: (T, oracles.table_category(T.cat.objects, T.cat._mor, T.cat._comp), {})
        for label, T in sites.items()
    }


def _mutate(data, T):
    """T with the families of one object x changed, x and the change; or T
    as it is, which is valid.  On a topology closed under supersets the
    change drops a minimal family or adds the supersets of a new set
    (closure kept), or drops a family that is not minimal or adds one new
    set alone (closure broken, unless every set one member larger is
    already a family).  On a singleton topology it drops an iso singleton
    or adds a non-iso one."""
    cat = T.cat
    fams = {x: set(T.families[x]) for x in cat.objects}

    def pick(options):
        return data.draw(st.sampled_from(sorted(options, key=lambda s: sorted(map(repr, s)))))

    def others(x):
        return [s for s in subsets(cat.into(x)) if s not in fams[x]]

    if T.is_singleton():
        isos = cat.isos()
        kinds = {
            "drop an iso singleton": [x for x in cat.objects if any(m in isos for m in cat.into(x))],
            "add a non-iso singleton": [
                x for x in cat.objects if any(m not in isos and {m} not in fams[x] for m in cat.into(x))
            ],
        }
    else:
        kinds = {
            "drop a minimal family": [x for x in cat.objects if fams[x]],
            "add an up-set": [x for x in cat.objects if others(x)],
            "drop a non-minimal family": [
                x for x in cat.objects if fams[x] - oracles.minimal_sets(fams[x])
            ],
            "add a lone set": [x for x in cat.objects if others(x)],
        }
    kinds["keep every family"] = list(cat.objects)
    kind = data.draw(st.sampled_from(sorted(k for k, xs in kinds.items() if xs)))
    x = data.draw(st.sampled_from(kinds[kind]))
    if kind == "keep every family":
        pass
    elif kind == "drop an iso singleton":
        fams[x].discard(pick(frozenset({m}) for m in cat.into(x) if m in isos))
    elif kind == "add a non-iso singleton":
        fams[x].add(pick(frozenset({m}) for m in cat.into(x) if m not in isos and {m} not in fams[x]))
    elif kind == "drop a minimal family":
        fams[x].discard(pick(oracles.minimal_sets(fams[x])))
    elif kind == "drop a non-minimal family":
        fams[x].discard(pick(fams[x] - oracles.minimal_sets(fams[x])))
    elif kind == "add an up-set":
        new = pick(others(x))
        fams[x].update(s for s in subsets(cat.into(x)) if s >= new)
    else:
        fams[x].add(pick(others(x)))
    return Pretopology(cat, fams, name=f"{T.name} ({kind} at {x})"), x, kind


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_validate_pretopology_matches_both_oracles_on_mutated_sites(data):
    """validate_pretopology against the definitional oracle and the former
    all-families loop, on open-cover sites and singleton topologies with
    one object's families changed.  The changed object reads the antichain
    when the change keeps closure under supersets and every family when it
    breaks it; both readings occur."""
    sites = _axiom_sites()
    label = data.draw(st.sampled_from(sorted(sites) + ["random space"]))
    if label == "random space":
        opens, _, _ = data.draw(finite_spaces())
        _, T = catalog.open_poset(opens)
        tables, pullbacks = oracles.table_category(T.cat.objects, T.cat._mor, T.cat._comp), {}
    else:
        T, tables, pullbacks = sites[label]
    T2, x, kind = _mutate(data, T)
    for y in T2.cat.objects:
        assert T2.superset_closed(y) == oracles.superset_closed(T2.families[y], T2.cat.into(y)), (T2.name, y)
    if kind in ("drop a minimal family", "add an up-set"):
        assert T2.superset_closed(x), T2.name
    if kind == "drop a non-minimal family":
        assert not T2.superset_closed(x), T2.name
    event(f"{'the antichain' if T2.superset_closed(x) else 'every family'} read at the changed object")
    ok = validate_pretopology(T2).ok
    event(f"valid: {ok}")
    assert ok == oracles.pretopology_axioms(tables, T2.families, pullbacks), T2.name
    assert ok == (oracles.all_families_pretopology(T2) is None), T2.name


def test_dropping_any_one_cover_of_the_six_open_site_matches_both_oracles():
    """Each of the six-open site's 64 covers dropped in turn.  Dropping a
    cover that is not minimal, such as {id, o_to_o01} of o01, leaves o01
    not closed under supersets; the minimal covers of o012 then pull back
    along o01_to_o012 to covers, and only a larger cover pulls back to the
    dropped one, so axiom 3 at (o012, o01_to_o012) must read every cover of
    o012."""
    (_, cat, T, _), = (site for site in open_sites() if site[0] == "six-open")
    tables, pullbacks = oracles.table_category(cat.objects, cat._mor, cat._comp), {}
    for y in cat.objects:
        for cov in T.covering_families(y):
            T2 = Pretopology(cat, dict(T.families, **{y: T.families[y] - {frozenset(cov.members)}}))
            ok = validate_pretopology(T2).ok
            assert ok == oracles.pretopology_axioms(tables, T2.families, pullbacks), (y, cov)
            assert ok == (oracles.all_families_pretopology(T2) is None), (y, cov)
    T2 = Pretopology(cat, dict(T.families, o01=T.families["o01"] - {frozenset({"o01_to_o01", "o_to_o01"})}))
    assert validate_pretopology(T2).counterexample == {
        "axiom": 3,
        "family": ("o012_to_o012", "o01_to_o012", "o_to_o012"),
        "along": "o01_to_o012",
    }


_SIX_WITHOUT_A_COVER = """
from finsite import catalog, site
cat, T = catalog.open_poset([frozenset(s) for s in [(), (0,), (1,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]])
drop = next(cov for cov in T.covering_families("o0123") if len(cov.members) == 3)
fams = dict(T.families, o0123=T.families["o0123"] - {frozenset(drop.members)})
print(site.validate_pretopology(site.Pretopology(cat, fams)).counterexample)
"""


def test_pretopology_counterexample_does_not_depend_on_the_hash_seed():
    """The six-open site without the first 3-member cover of its top open
    fails axiom 2 at the first family in repr order, whatever the hash
    seed; the former loop read the families in set order."""
    src = os.path.dirname(os.path.dirname(finsite.__file__))
    outs = set()
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _SIX_WITHOUT_A_COVER], env=env, capture_output=True, text=True, check=True
        )
        outs.add(run.stdout)
    assert outs == {"{'axiom': 2, 'family': ('o0123_to_o0123', 'o012_to_o0123')}\n"}


def test_down12_validates_on_the_antichain():
    """DOWN12 (4,096 covers of its top open, 41 minimal ones over all
    objects) validates.  Without a minimal cover of the top it fails axiom
    2.  Without {id, o_to_o0}, the cover of o0 that is not minimal, it
    fails axiom 3 along o0_to_o01, where every cover of o01 is read and the
    one that is not minimal pulls back to the dropped cover."""
    (_, cat, T, _), = (site for site in open_sites() if site[0] == "DOWN12")
    assert all(T.superset_closed(x) for x in cat.objects)
    assert validate_pretopology(T).ok
    top = cat.objects[-1]
    cov = T.minimal_families(top)[-1]
    T2 = Pretopology(cat, dict(T.families, **{top: T.families[top] - {frozenset(cov.members)}}))
    assert T2.superset_closed(top)
    assert validate_pretopology(T2).counterexample["axiom"] == 2
    T3 = Pretopology(cat, dict(T.families, o0={frozenset({"o0_to_o0"})}))
    assert not T3.superset_closed("o0")
    assert validate_pretopology(T3).counterexample == {
        "axiom": 3,
        "family": ("o01_to_o01", "o0_to_o01", "o_to_o01"),
        "along": "o0_to_o01",
    }


def test_a_read_family_whose_iso_member_has_no_pullback_is_reported(monkeypatch):
    """The iso lemma needs the category laws, which check assumes.  On a
    table whose pullback of an iso is missing, axiom 3 still reports the
    member of a family it reads instead of raising.  The chain of opens
    {} < {0} < {0, 1} with o01 covered only by {id} and {id, o_to_o01} is a
    pretopology, and o01 is not closed under supersets, so both of its
    families are read along its identity."""
    cat, T = catalog.open_poset([frozenset(s) for s in [(), (0,), (0, 1)]])
    o01 = {frozenset({"o01_to_o01"}), frozenset({"o01_to_o01", "o_to_o01"})}
    T = Pretopology(cat, dict(T.families, o01=o01))
    assert not T.superset_closed("o01")
    assert validate_pretopology(T).ok
    pullback = cat.pullback
    monkeypatch.setattr(
        cat, "pullback", lambda a, b: None if a == b == "o01_to_o01" else pullback(a, b)
    )
    assert validate_pretopology(T).counterexample == {
        "axiom": 3,
        "member": "o01_to_o01",
        "along": "o01_to_o01",
    }


def test_sheaf_families_are_every_family_where_a_minimal_one_does_not_pull_back():
    """In the cospan a -> x <- b, where a and b have no meet, x is covered by
    {a -> x}, {b -> x} and {a -> x, id_x}.  Every family has its pairwise
    pullbacks, but the minimal family {b -> x} has none along a -> x, so
    x's sheaf families are all three of its families."""
    V = TableCategory(
        ["a", "b", "x"],
        {"1a": ("a", "a"), "1b": ("b", "b"), "1x": ("x", "x"), "ax": ("a", "x"), "bx": ("b", "x")},
        {"a": "1a", "b": "1b", "x": "1x"},
        {
            ("1a", "1a"): "1a", ("1b", "1b"): "1b", ("1x", "1x"): "1x",
            ("ax", "1a"): "ax", ("bx", "1b"): "bx", ("1x", "ax"): "ax", ("1x", "bx"): "bx",
        },
    )
    x_families = {frozenset({"ax"}), frozenset({"bx"}), frozenset({"ax", "1x"})}
    T = Pretopology(V, {"a": {frozenset({"1a"})}, "b": {frozenset({"1b"})}, "x": x_families})
    assert V.pullback("ax", "bx") is None
    assert len(T.minimal_families("x")) == 2
    assert T.sheaf_families("x") == T.covering_families("x")


def test_a_member_of_an_unread_family_without_a_pullback_is_reported():
    """On FIX-FS012 the surjection n2 -> n1 has no pullback along itself.
    With every object's families the sets that hold an iso, every object is
    closed under supersets and its minimal families are iso singletons, so
    axiom 3 reads no family with the surjection in it; the existence check
    on the members of x's families is what finds it."""
    cat = catalog.fix_fs012()
    isos = cat.isos()

    def up(x):
        into = sorted(cat.into(x))
        subsets = (frozenset(c) for r in range(len(into) + 1) for c in itertools.combinations(into, r))
        return {s for s in subsets if s & isos}

    T = Pretopology(cat, {x: up(x) for x in cat.objects})
    assert all(T.superset_closed(x) for x in cat.objects)
    expected = {"axiom": 3, "member": "n2>n1:0,0", "along": "n2>n1:0,0"}
    assert oracles.all_families_pretopology(T) == expected
    assert validate_pretopology(T).counterexample == expected
