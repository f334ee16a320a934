"""Independent brute-force oracles: the diamond poset of opens of the
two-point discrete space, the fibre product of finite sets, the
traditional sheaf condition on a finite space (for its open covers or
for any families of opens) and on any site by finsite's former loop over
all families, descent along a morphism by its kernel pair, the three
pretopology axioms (by their definition, and by finsite's former loop
over all families), singletonizable and superextensive sites (by
finsite's former loops over all families), the minimal sets of a family
of sets and whether a family of sets is closed under supersets, natural
transformations between finite presheaves and between anafunctors of
finite groupoids, the groupoid laws, the right-action laws, the bibundle
laws, the coproduct families of a poset of opens and of a skeleton of
finite sets, dense images between skeletons of finite sets, the limits
and colimits of an explicit-table category by its cones, and
universality, Uni(T), locality and the universally effective epis read
on every morphism and every cospan.

Deliberately separate from the main code path: the poset is rebuilt from
raw subset data, morphisms are (src, tgt) pairs, and every universal
property is decided by the textbook definition (existence and uniqueness
of mediating morphisms), not by the bijection method the package uses.
Finite-set functions are plain dicts or tuples of values.  The sheaf and
naturality oracles build the full product of candidates and filter it by
the definition; pretopology_axioms gathers the composites of axiom 2 one
member at a time, every choice kept as the set it gives.  Ten oracles
are the exception.  The cone oracle is finsite's cone kernel as it was
before the kernel indexed its tables, counting every cone at every
object, and pins which apex and which legs finsite returns.
all_families_sheaf and all_families_pretopology are finsite's sheaf and
pretopology checks as they were before they read minimal families, and
take pullbacks from the category they are given; kernel_pair_descent is
finsite's descent check as it was before descent became the sheaf
condition on a singleton family, and takes the kernel pair from the
category it is given; likewise
all_families_singletonizable and all_families_superextensive are
finsite's checks as they were before they stopped reading every family,
and take coproducts from the category they are given.  The four unreduced
classifiers are finsite's as they were before they read one morphism per
orbit under precomposition with isos, and take pullbacks from the
category they are given.
"""

from itertools import combinations, product as iproduct

E, U, V, X = frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
OPENS = [E, U, V, X]

# morphisms are inclusion pairs (a, b) with a <= b
MORPHISMS = [(a, b) for a in OPENS for b in OPENS if a <= b]


def src(m):
    return m[0]


def tgt(m):
    return m[1]


def compose(g, f):
    assert f[1] == g[0]
    return (f[0], g[1])


def hom(a, b):
    return [(a, b)] if a <= b else []


def is_iso(m):
    return m[0] == m[1]


def cones(f, g):
    """All cones over the cospan (f, g): apex plus commuting legs."""
    out = []
    for q in OPENS:
        for p, r in iproduct(hom(q, src(f)), hom(q, src(g))):
            if compose(f, p) == compose(g, r):
                out.append((q, p, r))
    return out


def is_pullback(cone, f, g):
    apex, p, r = cone
    for other in cones(f, g):
        q, p2, r2 = other
        mediators = [
            u for u in hom(q, apex) if compose(p, u) == p2 and compose(r, u) == r2
        ]
        if len(mediators) != 1:
            return False
    return True


def pullback(f, g):
    for cone in cones(f, g):
        if is_pullback(cone, f, g):
            return cone
    return None


def is_universal(f):
    return all(
        pullback(f, g) is not None for g in MORPHISMS if tgt(g) == tgt(f)
    )


def coverings(x):
    """Open-cover families of x: subsets of incoming inclusions joining to x."""
    incoming = [m for m in MORPHISMS if tgt(m) == x]
    fams = []
    for r in range(1 << len(incoming)):
        sel = frozenset(m for i, m in enumerate(incoming) if r >> i & 1)
        join = frozenset().union(*(src(m) for m in sel)) if sel else frozenset()
        if join == x:
            fams.append(sel)
    return fams


def is_locally_split(pi, fams_of=coverings):
    for fam in fams_of(tgt(pi)):
        ok = True
        for m in fam:
            if not any(compose(pi, s) == m for s in hom(src(m), src(pi))):
                ok = False
                break
        if ok:
            return True
    return False


def is_globally_split(pi):
    return any(compose(pi, s) == (tgt(pi), tgt(pi)) for s in hom(tgt(pi), src(pi)))


def uni_open_cover():
    return frozenset(
        m for m in MORPHISMS if is_universal(m) and is_locally_split(m)
    )


def uni_indiscrete():
    return frozenset(
        m for m in MORPHISMS if is_universal(m) and is_globally_split(m)
    )


def is_effective_epi(f):
    kp = pullback(f, f)
    if kp is None:
        return False
    _, p1, p2 = kp
    # f coequalizes its kernel pair: check the cocone is initial
    for q in OPENS:
        forks = [
            h
            for h in hom(src(f), q)
            if compose(h, p1) == compose(h, p2)
        ]
        for h in forks:
            mediators = [u for u in hom(tgt(f), q) if compose(u, f) == h]
            if len(mediators) != 1:
                return False
    return True


def universally_effective_epis():
    cls = {
        f
        for f in MORPHISMS
        if is_universal(f)
        and is_effective_epi(f)
        and all(
            pullback(f, g) is None or is_effective_epi(pullback(f, g)[2])
            for g in MORPHISMS
            if tgt(g) == tgt(f)
        )
    }
    return frozenset(cls)


def classification():
    """The four verdicts of the open-cover site on the diamond poset."""
    isos = frozenset(m for m in MORPHISMS if is_iso(m))
    uni = uni_open_cover()
    uee = universally_effective_epis()
    return {
        "uni_equals_isos": uni == isos,
        "equivalent_to_indiscrete": uni == uni_indiscrete(),
        "subcanonical": uni <= uee,
        "canonical_equals_isos": uee == isos,
    }


def open_coproduct_families(opens, target):
    """The coproduct families into the open target of a poset of opens, each
    given by the set of its sources: a set of opens inside target is a
    coproduct cocone iff its union is target, the join of the poset."""
    below = [o for o in opens if o <= target]
    return {
        frozenset(c)
        for r in range(len(below) + 1)
        for c in combinations(below, r)
        if frozenset().union(*c) == target
    }


def finset_coproduct_families(sizes, n):
    """The coproduct families into {0..n-1} among the maps {0..m-1} ->
    {0..n-1}, m in sizes, each leg written as its tuple of values: the legs
    are injective, their images pairwise disjoint, and they cover the
    target (a disjoint union of the sources)."""
    injective = [v for m in sizes for v in iproduct(range(n), repeat=m) if len(set(v)) == m]
    return {
        frozenset(legs)
        for r in range(len(injective) + 1)
        for legs in combinations(injective, r)
        if sum(map(len, legs)) == n and set().union(*legs) == set(range(n))
    }


def finset_dense_sizes(sizes, within):
    """Whether the inclusion of the skeleton of finite sets of the given
    sizes into the one of the sizes within has a dense image for the
    indiscrete topology.  There the universal locally split maps are the
    bijections, so each size in within must be a sum of sizes (0 is the
    empty sum)."""
    top = max(within)
    sums = {0}
    for _ in range(top):
        sums |= {a + k for a in sums for k in sizes if a + k <= top}
    return set(within) <= sums


def finset_pullback(f, A, g, B):
    """The fibre product of f: A -> X and g: B -> X (dicts) by definition:
    every pair of A x B on which f and g agree."""
    return frozenset((a, b) for a in A for b in B if f[a] == g[b])


def open_covers(opens, U):
    """Every cover of U: a list of opens below U whose union is U."""
    below = [V for V in opens if V <= U]
    covers = ([V for i, V in enumerate(below) if r >> i & 1] for r in range(1 << len(below)))
    return [cover for cover in covers if frozenset().union(*cover) == U]


def sections_sheaf(opens, values, families=None):
    """The traditional sheaf condition, by definition, for the presheaf
    U -> values[U] on the finite space with the given opens (frozensets),
    where a section is a tuple of (point, value) pairs and restriction to
    V <= U keeps the pairs whose point lies in V.

    For every open U and every family of U (families[U], a list of lists
    of opens below U; by default the covers of U), restriction must be a
    bijection from values[U] onto the families (s_V) that agree on every
    pairwise intersection V & W."""

    def res(s, V):
        return tuple(p for p in s if p[0] in V)

    for U in opens:
        for cover in open_covers(opens, U) if families is None else families[U]:
            matching = {
                fam
                for fam in iproduct(*(values[V] for V in cover))
                if all(
                    res(s, V & W) == res(t, V & W)
                    for (V, s), (W, t) in iproduct(zip(cover, fam), repeat=2)
                )
            }
            image = [tuple(res(s, V) for V in cover) for s in values[U]]
            if len(set(image)) != len(image) or set(image) != matching:
                return False
    return True


def all_families_sheaf(P, T):
    """finsite's traditional sheaf check as it was before it read minimal
    families: every family of every object, objects in category order and
    the families of each sorted by the reprs of their sorted members.  P
    and T are finsite's Presheaf and Pretopology, read through their tables
    and the category's pullback; the matching families are the tuples
    extended one member at a time and kept while they agree on each
    pairwise pullback.  The first family that fails, as a tuple of members,
    or None; raises ValueError, with finsite's message, at the first family
    two of whose members have no pullback."""
    cat = T.cat
    for x in cat.objects:
        for members in sorted((tuple(sorted(s, key=repr)) for s in T.families[x]), key=repr):
            squares = {}
            for i, mi in enumerate(members):
                for j, mj in enumerate(members[i:], i):
                    sq = cat.pullback(mi, mj)
                    if sq is None:
                        raise ValueError(f"pairwise fibre product missing for {mi!r}, {mj!r}")
                    squares[i, j] = P.restriction[sq.to_left], P.restriction[sq.to_right]
            matching = [()]
            for j, mj in enumerate(members):
                matching = [
                    t + (v,)
                    for t in matching
                    for v in P.values[cat.src(mj)]
                    if all(squares[i, j][0][t[i] if i < j else v] == squares[i, j][1][v] for i in range(j + 1))
                ]
            image = [tuple(P.restriction[m][s] for m in members) for s in P.values[x]]
            if len(set(image)) != len(image) or set(image) != set(matching):
                return members
    return None


def kernel_pair_descent(P, pi):
    """finsite's descent check as it was before it became the sheaf
    condition on the singleton family {pi}: whether restriction along pi is
    a bijection from P(tgt pi) onto the elements of P(src pi) on which the
    two legs of pi's kernel pair agree.  The kernel pair is the category's
    pullback of pi along itself; raises ValueError if it has none."""
    cat = P.cat
    kp = cat.pullback(pi, pi)
    if kp is None:
        raise ValueError("the double fibre product does not exist")
    elements = {a for a in P.values[cat.src(pi)] if P.res(kp.to_left, a) == P.res(kp.to_right, a)}
    image = [P.res(pi, a) for a in P.values[cat.tgt(pi)]]
    return len(set(image)) == len(image) and set(image) == elements


def all_families_singletonizable(T):
    """finsite's is_singletonizable as it was before it asked for binary
    coproducts: whether every family of every object has the coproduct of
    its members' sources and the map that coproduct induces into the
    object, the empty family the one map out of an initial object.  T is
    finsite's Pretopology, read through its families and its category's
    coproduct, from_coproduct and hom."""
    cat = T.cat
    for x in cat.objects:
        for fam in T.families[x]:
            members = tuple(sorted(fam, key=repr))
            co = cat.coproduct(tuple(cat.src(m) for m in members))
            if co is None:
                return False
            if members and cat.from_coproduct(co, members) is None:
                return False
            if not members and len(cat.hom(co.apex, x)) != 1:
                return False
    return True


def all_families_superextensive(T):
    """finsite's is_superextensive as it was before it read prefix-minimal
    coproduct families: whether every coproduct family into every object,
    as the category's coproduct_families lists them, is a family of T."""
    return all(T.cat.coproduct_families(x) <= T.families[x] for x in T.cat.objects)


def minimal_sets(sets):
    """The sets that contain no other set of the given ones."""
    return {s for s in sets if not any(t < s for t in sets)}


def superset_closed(sets, universe):
    """Whether every subset of universe that contains one of the sets is
    itself one of them: each set with any one more element is a set."""
    return all(s | {u} in sets for s in sets for u in universe)


def all_families_pretopology(T):
    """finsite's pretopology check as it was before it read minimal
    families: axiom 1 for every iso, axiom 2 for every family of every
    object, its composites built member by member from every family of each
    member's source, and axiom 3 for every family and every morphism into
    its target.  T is finsite's Pretopology, read through its families and
    its category's isos, composites and pullbacks; families are read in the
    repr order of their sorted members.  The first failure, as a dict of
    the shape of finsite's counterexample, or None."""
    cat = T.cat

    def sorted_families(x):
        return sorted((tuple(sorted(s, key=repr)) for s in T.families[x]), key=repr)

    for f in sorted(cat.isos(), key=repr):
        if frozenset({f}) not in T.families[cat.tgt(f)]:
            return {"axiom": 1, "iso": f}
    for x in cat.objects:
        for members in sorted_families(x):
            composites = {frozenset()}
            for m in members:
                pieces = {frozenset(cat.compose(m, s) for s in sub) for sub in T.families[cat.src(m)]}
                composites = {acc | piece for acc in composites for piece in pieces}
            if not composites <= T.families[x]:
                return {"axiom": 2, "family": members}
    for x in cat.objects:
        for members in sorted_families(x):
            for g in cat.into(x):
                pulled = set()
                for m in members:
                    sq = cat.pullback(m, g)
                    if sq is None:
                        return {"axiom": 3, "member": m, "along": g}
                    pulled.add(sq.to_right)
                if frozenset(pulled) not in T.families[cat.src(g)]:
                    return {"axiom": 3, "family": members, "along": g}
    return None


def natural_transformations(objects, morphisms, F, G):
    """Every natural transformation F -> G, as dicts {x: {v: eta_x(v)}}.

    morphisms maps each morphism id to its (src, tgt); a presheaf is a pair
    (values, restriction) with values[x] a list and restriction[m] a dict
    from values[tgt m] to values[src m].  Every choice of one function
    F(x) -> G(x) per object is built, and those for which
    eta_a(F(m)v) == G(m)(eta_b(v)) for every m: a -> b and v in F(b) kept."""
    Fv, Fr = F
    Gv, Gr = G
    per_object = [
        [dict(zip(Fv[x], img)) for img in iproduct(Gv[x], repeat=len(Fv[x]))]
        for x in objects
    ]
    out = []
    for choice in iproduct(*per_object):
        eta = dict(zip(objects, choice))
        if all(
            eta[a][Fr[m][v]] == Gr[m][eta[b][v]]
            for m, (a, b) in morphisms.items()
            for v in Fv[b]
        ):
            out.append(eta)
    return out


def anafunctor_transformations(G, H, A1, A2):
    """Every natural transformation A1 => A2 between anafunctors G -> H, as
    dicts {z: eta_z}.

    A groupoid is a dict with "X1" (a list of arrows) and the dicts "s", "t"
    and "comp" (comp[(g, h)] is g after h); an anafunctor is a dict with the
    dicts "pi" (Y -> G0), "F0" (Y -> H0) and "F1" (arrows ((y, g), y') of the
    refined groupoid -> H1).  Z is every pair (y, y') with pi1(y) == pi2(y'),
    in repr order.  Every choice of one arrow eta_z: F0_2(y') -> F0_1(y) per
    z is built, in product order, and those for which
    F1_1((y1, g), y2) . eta_z2 == eta_z1 . F1_2((y1', g), y2') for every
    arrow g: pi(y2) -> pi(y1) of G are kept."""
    pi1, pi2 = A1["pi"], A2["pi"]
    Z = sorted(((y, y2) for y in pi1 for y2 in pi2 if pi1[y] == pi2[y2]), key=repr)
    candidates = [
        [h for h in H["X1"] if H["t"][h] == A1["F0"][y] and H["s"][h] == A2["F0"][y2]]
        for y, y2 in Z
    ]
    out = []
    for values in iproduct(*candidates):
        eta = dict(zip(Z, values))
        if all(
            H["comp"][(A1["F1"][((y1, g), y2)], eta[(y2, y2_)])]
            == H["comp"][(eta[(y1, y1_)], A2["F1"][((y1_, g), y2_)])]
            for y1, y1_ in Z
            for y2, y2_ in Z
            for g in G["X1"]
            if G["t"][g] == pi1[y1] and G["s"][g] == pi1[y2]
        ):
            out.append(eta)
    return out


def groupoid_laws(X0, X1, s, t, i, comp, inv):
    """Whether the dicts s, t: X1 -> X0, i: X0 -> X1, comp on the pairs
    (g, h) with s[g] == t[h] (g after h) and inv: X1 -> X1 make a groupoid,
    by the definition: every composite the laws name is defined, and units,
    endpoints of composites, associativity and inverses hold."""
    composable = [(g, h) for g in X1 for h in X1 if s[g] == t[h]]
    if set(comp) != set(composable):
        return False
    try:
        if any(s[i[x]] != x or t[i[x]] != x for x in X0):
            return False
        if any(s[comp[g, h]] != s[h] or t[comp[g, h]] != t[g] for g, h in composable):
            return False
        for g in X1:
            if comp[i[t[g]], g] != g or comp[g, i[s[g]]] != g:
                return False
            if s[inv[g]] != t[g] or t[inv[g]] != s[g]:
                return False
            if comp[inv[g], g] != i[s[g]] or comp[g, inv[g]] != i[t[g]]:
                return False
        return all(
            comp[comp[f, g], h] == comp[f, comp[g, h]]
            for f, g in composable
            for h in X1
            if s[g] == t[h]
        )
    except KeyError:  # a composite the laws name is not defined
        return False


def _unit(G, o):
    """The identity arrow of the object o of the groupoid dict G: its one
    idempotent loop e e == e."""
    (e,) = (g for g in G["X1"] if G["s"][g] == o == G["t"][g] and G["comp"][g, g] == g)
    return e


def right_action_failure(H, right):
    """The first law that a right action of the groupoid dict H breaks, or
    None.  right is a dict with the dicts "anchor" (carrier -> objects) and
    "act", keyed by the pairs (x, h) with anchor[x] == t[h].  The laws, in
    order: "domain", act is defined on exactly those pairs; "anchor", x h is
    in the carrier and anchored at s[h]; "associativity", (x h) k == x (h k);
    "unit", x 1 == x."""
    r, ract = right["anchor"], right["act"]
    rdom = [(x, h) for x in r for h in H["X1"] if r[x] == H["t"][h]]
    if set(ract) != set(rdom):
        return "domain"
    if any(ract[x, h] not in r or r[ract[x, h]] != H["s"][h] for x, h in rdom):
        return "anchor"
    if any(
        ract[ract[x, h], k] != ract[x, H["comp"][h, k]]
        for x, h in rdom
        for k in H["X1"]
        if H["t"][k] == H["s"][h]
    ):
        return "associativity"
    if any(ract[x, _unit(H, r[x])] != x for x in r):
        return "unit"
    return None


def bibundle_laws(G, H, left, right):
    """Whether a left action of G and a right action of H on one carrier make
    a bibundle, by the definition.  G and H are dicts as in
    anafunctor_transformations, with "X1", "s", "t" and "comp"; an action is a
    dict with the dicts "anchor" (carrier -> objects) and "act", keyed by the
    pairs (g, x) with s[g] == anchor[x] for the left action (g x) and (x, h)
    with anchor[x] == t[h] for the right one (x h).  The right action obeys
    right_action_failure's laws; the left one moves its anchor along the
    arrow, is associative and has 1 x == x; each anchor ignores the other
    action, (g x) h == g (x h), and the right shear map (x, h) -> (x, x h) is
    a bijection onto the pairs (x, y) with the same left anchor."""
    if right_action_failure(H, right) is not None:
        return False
    l, lact, r, ract = left["anchor"], left["act"], right["anchor"], right["act"]
    ldom = [(g, x) for g in G["X1"] for x in l if G["s"][g] == l[x]]
    rdom = [(x, h) for x in r for h in H["X1"] if r[x] == H["t"][h]]
    if set(lact) != set(ldom):
        return False
    try:
        if any(l[lact[g, x]] != G["t"][g] for g, x in ldom):
            return False
        if any(
            lact[k, lact[g, x]] != lact[G["comp"][k, g], x]
            for g, x in ldom
            for k in G["X1"]
            if G["s"][k] == G["t"][g]
        ):
            return False
        if any(lact[_unit(G, l[x]), x] != x for x in l):
            return False
        if any(l[ract[x, h]] != l[x] for x, h in rdom) or any(r[lact[g, x]] != r[x] for g, x in ldom):
            return False
        if any(
            ract[lact[g, x], h] != lact[g, ract[x, h]]
            for g, x in ldom
            for h in H["X1"]
            if H["t"][h] == r[x]
        ):
            return False
    except KeyError:  # a composite the laws name is not defined
        return False
    sheared = {(x, ract[x, h]) for x, h in rdom}
    return len(sheared) == len(rdom) and sheared == {(x, y) for x in l for y in l if l[x] == l[y]}


# ---------------------------------------------------------------------------
# Limits and colimits in an explicit-table category, by the cones at every
# object: finsite's kernel before it indexed the tables.  A category here is
# (objects, mor, hom, comp): mor maps a morphism to (src, tgt), hom maps
# (a, b) to the morphisms a -> b sorted by repr, comp maps (g, f) to g.f.
# A family of cones is a dict object -> the leg tuples at that apex.
# ---------------------------------------------------------------------------


def table_category(objects, mor, comp):
    """(objects, mor, hom, comp) from the plain tables, hom sorted by repr
    with ties in the order of mor."""
    hom = {(a, b): [] for a in objects for b in objects}
    for m, ends in mor.items():
        hom[ends].append(m)
    return list(objects), dict(mor), {k: sorted(v, key=repr) for k, v in hom.items()}, dict(comp)


def is_universal_cone(cat, cones, apex, legs, initial=False):
    """Whether (apex, legs) is a terminal cone of the family (an initial
    cocone if initial): at every object Q, |hom(Q, apex)| = |cones[Q]| and
    u -> (leg.u) is injective on hom(Q, apex) (u -> (u.leg) on hom(apex, Q))."""
    objects, _, hom, comp = cat
    for q0 in objects:
        homs = hom[apex, q0] if initial else hom[q0, apex]
        if len(homs) != len(cones[q0]):
            return False
        images = {tuple(comp[(u, leg) if initial else (leg, u)] for leg in legs) for u in homs}
        if len(images) != len(homs):
            return False
    return True


def first_universal(cat, cones, initial=False):
    """The first universal (apex, legs): apexes in object order, the legs at
    each in lexicographic order of their positions in hom order.  None if
    there is none."""
    _, mor, hom, _ = cat
    for apex in cat[0]:
        for legs in sorted(cones[apex], key=lambda legs: [hom[mor[m]].index(m) for m in legs]):
            if is_universal_cone(cat, cones, apex, legs, initial):
                return apex, legs
    return None


def cospan_cones(cat, f, g):
    """The cones (p, q) with f.p = g.q, p in hom order, then q."""
    objects, mor, hom, comp = cat
    a, b = mor[f][0], mor[g][0]
    return {
        q0: [(p, q) for p in hom[q0, a] for q in hom[q0, b] if comp[f, p] == comp[g, q]]
        for q0 in objects
    }


def product_cones(cat, a, b):
    objects, _, hom, _ = cat
    return {q0: list(iproduct(hom[q0, a], hom[q0, b])) for q0 in objects}


def coproduct_cocones(cat, objs):
    objects, _, hom, _ = cat
    return {q0: list(iproduct(*(hom[o, q0] for o in objs))) for q0 in objects}


def coequalizing_cocones(cat, f, g):
    """The (q,) with q.f = q.g, q in hom order."""
    objects, mor, hom, comp = cat
    b = mor[f][1]
    return {q0: [(q,) for q in hom[b, q0] if comp[q, f] == comp[q, g]] for q0 in objects}


def is_epi(cat, f):
    """No two distinct u, v out of the target of f with u.f = v.f."""
    objects, mor, hom, comp = cat
    b = mor[f][1]
    return not any(
        u != v and comp[u, f] == comp[v, f] for q0 in objects for u in hom[b, q0] for v in hom[b, q0]
    )


def pretopology_axioms(cat, families, pullbacks=None):
    """Whether families (object -> set of frozensets of morphisms into it)
    form a pretopology on the plain-table category cat, by the definition:
    (1) every iso {m} is a family; (2) for every family F of x and every
    choice of a family G_m of src(m) for each m in F, the composites
    {m.g : m in F, g in G_m} form a family of x; (3) for every family F of
    x and every g into x, each m in F has a pullback along g and the legs
    to src(g) form a family of src(g).  Identities and isos are read off
    the composition table, and the pullback of (m, g) is first_universal
    over cospan_cones, the choice rule finsite's kernel follows.  The
    composites of (2) are gathered one member at a time: the set of the
    composites of every choice for the members so far, extended by every
    choice for the next; a composite is a set, so choices that give the
    same set are kept once.  pullbacks, a dict, memoizes the cone kernel
    across calls on one category."""
    objects, mor, hom, comp = cat
    pullbacks = {} if pullbacks is None else pullbacks

    def is_identity(e, a):
        return all(comp[e, f] == f for b in objects for f in hom[b, a]) and all(
            comp[f, e] == f for b in objects for f in hom[a, b]
        )

    ident = {a: next(e for e in hom[a, a] if is_identity(e, a)) for a in objects}
    for m, (a, b) in mor.items():
        if any(comp[n, m] == ident[a] and comp[m, n] == ident[b] for n in hom[b, a]):
            if frozenset({m}) not in families[b]:
                return False
    for x in objects:
        for F in families[x]:
            composites = {frozenset()}
            for m in F:
                pieces = {frozenset(comp[m, g] for g in G) for G in families[mor[m][0]]}
                composites = {acc | piece for acc in composites for piece in pieces}
            if not composites <= families[x]:
                return False
    for x in objects:
        for F in families[x]:
            for g in (g for g, ends in mor.items() if ends[1] == x):
                pulled = set()
                for m in F:
                    if (m, g) not in pullbacks:
                        pullbacks[m, g] = first_universal(cat, cospan_cones(cat, m, g))
                    if pullbacks[m, g] is None:
                        return False
                    pulled.add(pullbacks[m, g][1][1])
                if frozenset(pulled) not in families[mor[g][0]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Classification without the orbit index: finsite's is_universal, uni_class,
# is_local and universally_effective_epis as they were before they read one
# morphism per orbit under precomposition with isos.  Each reads every
# morphism and every cospan, and takes pullbacks, kernel pairs and
# coequalizers from the finsite TableCategory it is given, but keeps no
# verdict on it.  T is a finsite Pretopology on such a category.
# ---------------------------------------------------------------------------


def unreduced_is_universal(cat, f):
    """Whether the pullback of f along every morphism into tgt f exists."""
    return all(cat.pullback(f, g) is not None for g in cat.into(cat.tgt(f)))


def unreduced_uni_class(T):
    """The universal morphisms f for which some family of tgt f lies inside
    the sieve f generates."""
    cat = T.cat

    def locally_split(f):
        sieve = cat.through(f)
        return any(all(m in sieve for m in fam) for fam in T.families[cat.tgt(f)])

    return frozenset(f for f in cat.morphisms() if locally_split(f) and unreduced_is_universal(cat, f))


def unreduced_is_local(T):
    """No cospan (pi, g) with pi outside Uni(T) and g inside it has a
    pullback whose leg to src g is in Uni(T)."""
    cat = T.cat
    uni = unreduced_uni_class(T)
    for pi in cat.morphisms():
        if pi in uni:
            continue
        for g in cat.into(cat.tgt(pi)):
            if g not in uni:
                continue
            sq = cat.pullback(pi, g)
            if sq is not None and sq.to_right in uni:
                return False
    return True


def unreduced_universally_effective_epis(cat):
    """C0, the universal effective epis (the kernel pair exists and f
    coequalizes it), and of it the f whose pullbacks along every morphism
    into tgt f have their leg to src g in C0."""

    def effective(f):
        kp = cat.pullback(f, f)
        return kp is not None and cat.is_cocone_coequalizer(kp.to_left, kp.to_right, cat.tgt(f), f)

    c0 = {f for f in cat.morphisms() if effective(f) and unreduced_is_universal(cat, f)}
    return frozenset(
        f for f in c0 if all(cat.pullback(f, g).to_right in c0 for g in cat.into(cat.tgt(f)))
    )
