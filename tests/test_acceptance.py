"""One test per acceptance criterion, numbered to match the release checklist."""

import itertools

import pytest

from finsite import catalog, internal, sheaf, site
from finsite.fincat import FinSetCat, SetMap, identity_functor, is_full, is_faithful

from oracles import classification as oracle_classification

FS = FinSetCat()
T_SURJ = site.FinSetTopology("surjections")


@pytest.fixture(scope="module")
def v():
    return catalog.fix_v()


@pytest.fixture(scope="module")
def s():
    return catalog.fix_s()


@pytest.fixture(scope="module")
def fs012():
    return catalog.fix_fs012()


@pytest.fixture(scope="module")
def gpds():
    return catalog.standard_groupoids()


def topologies_on(cat, special):
    return [
        special,
        site.indiscrete_topology(cat),
        site.discrete_topology(cat),
        site.canonical_topology(cat),
    ]


def all_sites(v, s, fs012):
    cat_v, T_op_v = v
    cat_s, T_op_s = s
    return [
        (cat_v, topologies_on(cat_v, T_op_v)),
        (cat_s, topologies_on(cat_s, T_op_s)),
        (fs012, topologies_on(fs012, site.extensive_topology(fs012))),
    ]


def fs_presheaves(cat):
    out = [sheaf.representable(cat, x) for x in cat.objects]
    out.append(catalog.k2(cat))
    return out


def test_criterion_01(v, s, fs012):
    cat_v, T_op_v = v
    cat_s, T_op_s = s
    passing = [
        T_op_v,
        T_op_s,
        site.indiscrete_topology(cat_v),
        site.discrete_topology(cat_v),
        site.extensive_topology(fs012),
        site.canonical_topology(cat_v),
    ]
    for T in passing:
        assert site.validate_pretopology(T).ok, T.name

    fams = {x: set() for x in fs012.objects}
    for m in fs012.morphisms():
        tgt_size = int(fs012.tgt(m)[1:])
        values = m.split(":")[1]
        hit = set(values.split(",")) if values else set()
        if len(hit) == tgt_size:
            fams[fs012.tgt(m)].add(frozenset({m}))
    report = site.validate_pretopology(
        site.Pretopology(fs012, fams, name="T_allsurj")
    )
    assert not report.ok
    assert report.counterexample["axiom"] == 3
    assert report.counterexample["member"].startswith("n2>n1")


def test_criterion_02(v, s, fs012):
    for cat, tops in all_sites(v, s, fs012):
        for T in tops:
            uni = site.universal_completion(T)
            assert site.are_equivalent(T, uni), T.name
            assert site.uni_class(site.universal_completion(uni)) == site.uni_class(
                uni
            ), T.name
            if T.is_singleton():
                contained = all(
                    m in site.uni_class(T)
                    for x in cat.objects
                    for fam in T.families[x]
                    for m in fam
                )
                assert contained, T.name


def test_criterion_03(v, s, fs012):
    for cat, tops in all_sites(v, s, fs012):
        idf = identity_functor(cat)
        for T in tops:
            assert site.is_coarser(site.indiscrete_topology(cat), T), T.name
            assert site.is_coarser(T, site.discrete_topology(cat)), T.name
        for T1, T2 in itertools.product(tops, repeat=2):
            c = site.is_coarser(T1, T2)
            assert c == site.is_continuous(idf, T1, T2).ok, (T1.name, T2.name)
            assert c == site.is_cocontinuous(idf, T2, T1).ok, (T1.name, T2.name)


def test_criterion_04(fs012):
    T_ext = site.extensive_topology(fs012)
    S = site.singletonize(T_ext)
    members = {m for fams in S.families.values() for fam in fams for m in fam}
    assert members == frozenset(fs012.isos())
    assert site.are_equivalent(T_ext, S)


def test_criterion_05(v):
    cat, T_op = v
    isos = frozenset(cat.isos())
    canonical_members = {
        m
        for fams in site.canonical_topology(cat).families.values()
        for fam in fams
        for m in fam
    }
    computed = {
        "uni_equals_isos": site.uni_class(T_op) == isos,
        "equivalent_to_indiscrete": site.are_equivalent(
            T_op, site.indiscrete_topology(cat)
        ),
        "subcanonical": site.is_subcanonical(T_op),
        "canonical_equals_isos": canonical_members == isos,
    }
    assert computed == oracle_classification()
    assert all(computed.values())


def test_criterion_06(v, s, fs012):
    for cat, tops in all_sites(v, s, fs012):
        mors = list(cat.morphisms())
        for T in tops:
            split = {m for m in mors if site.is_locally_split(T, m) is not None}
            # (a) members of singleton covering families are locally split,
            # with a checked witness
            for x in cat.objects:
                for fam in T.families[x]:
                    if len(fam) != 1:
                        continue
                    (m,) = fam
                    w = site.is_locally_split(T, m)
                    assert w is not None, (T.name, m)
                    for c, sec in zip(w.covering.members, w.sections):
                        assert cat.compose(m, sec) == c, (T.name, m)
            for f in mors:
                for g in mors:
                    if cat.src(g) != cat.tgt(f):
                        continue
                    gf = cat.compose(g, f)
                    # (b) closed under composition
                    if f in split and g in split:
                        assert gf in split, (T.name, f, g)
                    # (c) a locally split composite forces the outer leg
                    if gf in split:
                        assert g in split, (T.name, f, g)
            # (d) stable under existing pullbacks
            for f in split:
                for h in mors:
                    if cat.tgt(h) != cat.tgt(f) or h == f:
                        continue
                    sq = cat.pullback(f, h)
                    if sq is not None:
                        assert sq.to_right in split, (T.name, f, h)
            # (e) globally split implies locally split
            for f in mors:
                has_section = any(
                    cat.is_identity(cat.compose(f, sec))
                    for sec in cat.hom(cat.tgt(f), cat.src(f))
                )
                if has_section:
                    assert f in split, (T.name, f)


def test_criterion_07(gpds):
    pair2, z2, triv1 = gpds["FIX-PAIR2"], gpds["FIX-Z2GPD"], gpds["FIX-TRIV1"]
    for G in (pair2, z2):
        assert internal.validate_groupoid(G).ok

    samples = []
    y = frozenset({"a0", "a1", "b0"})
    yp = frozenset({"a", "b"})
    samples.append(
        (
            z2,
            SetMap(y, yp, {"a0": "a", "a1": "a", "b0": "b"}),
            SetMap(yp, z2.X0, {"a": "*", "b": "*"}),
        )
    )
    y2 = frozenset({"p", "q"})
    yp2 = frozenset({0, 1})
    samples.append(
        (
            pair2,
            SetMap(y2, yp2, {"p": 0, "q": 1}),
            SetMap(yp2, pair2.X0, {0: 0, 1: 1}),
        )
    )
    for G, rho, pi_prime in samples:
        F = internal.refinement_functor(G, rho, pi_prime)
        assert internal.validate_internal_functor(F).ok
        assert internal.is_weak_equivalence(F, T_SURJ)

    collapse = internal.InternalFunctor(
        pair2,
        triv1,
        SetMap(pair2.X0, triv1.X0, {x: "*" for x in pair2.X0}),
        SetMap(pair2.X1, triv1.X1, {m: 0 for m in pair2.X1}),
    )
    assert internal.is_weak_equivalence(collapse, T_SURJ)


def test_criterion_08(gpds):
    pair2 = gpds["FIX-PAIR2"]
    U = frozenset({"u", "v"})
    psi = SetMap(U, pair2.X0, {"u": 0, "v": 1})
    tb = internal.trivial_bundle(pair2, psi)
    assert internal.validate_principal_bundle(tb).ok
    assert FS.is_identity(internal.shear_map(tb))

    B = gpds["FIX-Z2BUNDLE"]
    assert internal.validate_principal_bundle(B).ok
    sh = internal.shear_map(B)
    assert len(sh.src) == 4 and len(sh.tgt) == 4 and sh.is_bijective()

    for cover in (frozenset({"x"}), frozenset({"x", "y"})):
        pi = SetMap(cover, B.base, {u: "*" for u in cover})
        sections = internal.sections_over(B, pi)
        assert len(sections) == 2 ** len(cover)
        for sigma in sections:
            triv = internal.section_to_trivialization(B, sigma, pi)
            assert internal.validate_trivialization(B, triv, pi)
            assert internal.trivialization_to_section(B, triv, pi) == sigma


def test_criterion_09(gpds):
    names = ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")
    count = 0
    for a in names:
        for b in names:
            G, H = gpds[a], gpds[b]
            for f0 in FS.hom(G.X0, H.X0):
                for f1 in FS.hom(G.X1, H.X1):
                    F = internal.InternalFunctor(G, H, f0, f1)
                    if not internal.validate_internal_functor(F).ok:
                        continue
                    P = internal.bibundle_from_functor(F)
                    assert internal.validate_bibundle(P).ok
                    for kind in ("surjections", "isos", "all"):
                        rb = internal.right_bundle(P)
                        assert internal.is_locally_trivial(
                            rb, site.FinSetTopology(kind)
                        ).ok
                    A = internal.anafunctor_from_bibundle(P, T_SURJ)
                    assert internal.validate_anafunctor(A, T_SURJ).ok
                    assert internal.are_isomorphic_anafunctors(
                        A, internal.anafunctor_from_functor(F)
                    )
                    count += 1
    assert count >= 8


def test_criterion_10(fs012):
    T_ext = site.extensive_topology(fs012)
    k2 = catalog.k2(fs012)
    r = sheaf.comparison_sheaf_report(k2, T_ext)
    assert r.ok
    assert r.witness["i_sheaf"] is False
    assert r.witness["ii_extensive_traditional"] is False
    assert r.witness["iii_traditional"] is False
    for x in fs012.objects:
        r = sheaf.comparison_sheaf_report(sheaf.representable(fs012, x), T_ext)
        assert r.ok
        assert r.witness["i_sheaf"] and r.witness["iii_traditional"]
        assert r.witness["ii_extensive_traditional"]

    tops = topologies_on(fs012, T_ext)
    for P in fs_presheaves(fs012):
        for T in tops:
            if sheaf.is_traditional_sheaf(P, T).ok:
                for pi in site.uni_class(T):
                    assert sheaf.satisfies_descent(P, pi), (P.name, T.name, pi)
        assert (
            sheaf.is_extensive_presheaf(P).ok
            == sheaf.is_traditional_sheaf(P, T_ext).ok
        ), P.name

    assert sheaf.is_traditional_sheaf(k2, site.indiscrete_topology(fs012)).ok
    for T in tops:
        assert not sheaf.is_sheaf(k2, T).ok, T.name


def test_criterion_11(v, fs012):
    cat, T_op = v
    cases = [
        T_op,
        site.extensive_topology(fs012),
        site.indiscrete_topology(cat),
        site.discrete_topology(cat),
        site.indiscrete_topology(fs012),
        site.discrete_topology(fs012),
    ]
    for T in cases:
        assert sheaf.subcanonical_via_representables(T).ok, T.name


def test_criterion_12(v, fs012):
    cat, T_op = v
    shv, _, _ = catalog.shv()
    sub, incl_b = catalog.fix_b()
    small, big, incl_sk = catalog.skeleton_inclusion()

    samples = {
        incl_b.name: [sheaf.pullback_presheaf(incl_b, shv)],
        incl_sk.name: [
            sheaf.pullback_presheaf(incl_sk, sheaf.representable(big, x))
            for x in big.objects
        ],
    }
    for F in (incl_b, incl_sk):
        assert is_full(F) and is_faithful(F)
        for P in samples[F.name]:
            assert sheaf.is_presheaf_iso(sheaf.counit(F, P)), (F.name, P.name)

    assert sheaf.verify_adjunction(incl_b, samples[incl_b.name], [shv]).ok
    assert sheaf.verify_adjunction(
        incl_sk,
        samples[incl_sk.name],
        [sheaf.representable(big, x) for x in big.objects],
    ).ok

    r = sheaf.verify_comparison(
        incl_sk,
        site.indiscrete_topology(small),
        site.indiscrete_topology(big),
        [sheaf.representable(small, x) for x in small.objects],
        [sheaf.representable(big, x) for x in big.objects],
        mode="disjoint",
    )
    assert r.ok, r.counterexample
    hyp_keys = (
        "continuous",
        "cocontinuous",
        "dense_image",
        "preserves_coproducts",
        "inverts_coproducts",
        "target_extensive",
    )
    assert all(r.witness[k] for k in hyp_keys)
    assert all(val for key, val in r.witness.items() if "iso" in key or "sheaf" in key)

    refusal = sheaf.verify_comparison(
        incl_b, site.indiscrete_topology(sub), site.indiscrete_topology(cat)
    )
    assert not refusal.ok
    assert "target_extensive" in refusal.counterexample["hypotheses_failed"]


def _compare_backends(sets):
    cat, obj_of, mor_of = catalog.table_copy(sets)
    sizes = {len(x) for x in sets}
    size_of = {obj_of[x]: len(x) for x in sets}
    maps = {
        (a, b): list(FS.hom(a, b)) for a in sets for b in sets
    }

    for a in sets:
        for b in sets:
            # products and coproducts
            prod = cat.product(obj_of[a], obj_of[b])
            assert (prod is not None) == (len(a) * len(b) in sizes), (a, b)
            if prod is not None:
                assert size_of[prod.apex] == len(a) * len(b)
            co = cat.coproduct((obj_of[a], obj_of[b]))
            assert (co is not None) == (len(a) + len(b) in sizes), (a, b)
            if co is not None:
                assert size_of[co.apex] == len(a) + len(b)
            for f in maps[(a, b)]:
                tf = mor_of[f]
                # morphism classifications
                assert cat.is_iso(tf) == f.is_bijective()
                from finsite.fincat import is_effective_epi

                assert cat.is_epi(tf) == f.is_surjective(), f
                kp = FS.pullback(f, f)
                if len(kp.apex) in sizes:
                    assert is_effective_epi(cat, tf) == f.is_surjective(), f
                else:
                    assert not is_effective_epi(cat, tf), f
                # coequalizers of parallel pairs
                for g in maps[(a, b)]:
                    fs_coeq = FS.coequalizer(f, g)
                    tc = cat.coequalizer(tf, mor_of[g])
                    n = len(fs_coeq.apex)
                    assert (tc is not None) == (n in sizes), (f, g)
                    if tc is not None:
                        assert size_of[cat.tgt(tc.quotient)] == n
                # pullbacks of cospans
                for c in sets:
                    for g in maps[(c, b)]:
                        fs_sq = FS.pullback(f, g)
                        tsq = cat.pullback(tf, mor_of[g])
                        n = len(fs_sq.apex)
                        assert (tsq is not None) == (n in sizes), (f, g)
                        if tsq is not None:
                            assert size_of[tsq.apex] == n


def test_criterion_13():
    # exhaustive over all subsets of a 2-element carrier
    _compare_backends(
        [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    )

    # curated instances exercising carriers of sizes 3 and 4
    sets = [
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
        frozenset({0, 1, 2, 3}),
    ]
    cat, obj_of, mor_of = catalog.table_copy(sets)
    size_of = {obj_of[x]: len(x) for x in sets}
    one, two, three = sets[0], sets[1], sets[2]

    fold = SetMap(two, one, {0: 0, 1: 0})
    sq = cat.pullback(mor_of[fold], mor_of[fold])
    assert sq is not None and size_of[sq.apex] == 4

    from finsite.fincat import is_effective_epi

    assert is_effective_epi(cat, mor_of[fold])

    prod = cat.product(obj_of[two], obj_of[two])
    assert prod is not None and size_of[prod.apex] == 4
    co = cat.coproduct((obj_of[one], obj_of[three]))
    assert co is not None and size_of[co.apex] == 4

    f = SetMap(three, three, {0: 0, 1: 1, 2: 2})
    g = SetMap(three, three, {0: 0, 1: 0, 2: 2})
    tc = cat.coequalizer(mor_of[f], mor_of[g])
    assert tc is not None and size_of[cat.tgt(tc.quotient)] == 2
    assert len(FS.coequalizer(f, g).apex) == 2
