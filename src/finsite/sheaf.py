"""Presheaves as finite data: extensivity, descent, sheaf conditions,
right Kan extension, the pullback/pushforward adjunction, and the Yoneda
embedding into a finite presheaf-category fragment.

The right Kan extension along F at y is the limit of P over the slice
category F/y.  The extension, its unit and counit, verify_adjunction and the
Yoneda check index fincat's one record of F/y, F._slices[y], from which
fincat.slice_category also builds F/y; the presheaf fragment is built by
fincat._generated like every derived table category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .fincat import (
    CheckReport,
    FunctorData,
    inverts_coproducts,
    is_extensive,
    preserves_coproducts,
    _existing_binary_coproducts,
    _generated,
)
from . import site as _site


@dataclass(frozen=True)
class Presheaf:
    """The constructor raises ValueError unless every object has a value set
    and every morphism m has one restriction row, a function from
    values[tgt m] into values[src m]; validate_presheaf checks the laws."""

    cat: Any
    values: dict  # obj -> tuple of elements
    restriction: dict  # mor -> dict mapping values(tgt) -> values(src)
    name: str = ""

    def __post_init__(self):
        values = {}
        for x in self.cat.objects:
            if x not in self.values:
                raise ValueError(f"no value set for object {x!r}")
            values[x] = set(self.values[x])
        stray = self.restriction.keys() ^ self.cat._mor.keys()
        if stray:
            raise ValueError(f"restriction rows and morphisms differ at {min(stray, key=repr)!r}")
        for m, (a, b) in self.cat._mor.items():
            r = self.restriction[m]
            if r.keys() != values[b] or not values[a].issuperset(r.values()):
                raise ValueError(f"restriction {m!r} is not a map values[{b!r}] -> values[{a!r}]")

    def res(self, m, a):
        return self.restriction[m][a]


@dataclass(frozen=True)
class PresheafMorphism:
    src: Presheaf
    tgt: Presheaf
    components: dict  # obj -> dict values_src(x) -> values_tgt(x)

    def at(self, x, a):
        return self.components[x][a]


def validate_presheaf(F: Presheaf) -> CheckReport:
    cat = F.cat
    for x in cat.objects:
        i = cat.identity(x)
        if any(F.res(i, a) != a for a in F.values[x]):
            return CheckReport(False, "validate_presheaf", counterexample={"identity": x})
    for (v, u), w in cat._comp.items():
        for a in F.values[cat.tgt(v)]:
            if F.res(w, a) != F.res(u, F.res(v, a)):
                return CheckReport(
                    False, "validate_presheaf", counterexample={"functoriality": (v, u)}
                )
    return CheckReport(True, "validate_presheaf")


def validate_presheaf_morphism(phi: PresheafMorphism) -> CheckReport:
    F, G = phi.src, phi.tgt
    cat = F.cat
    for x in cat.objects:
        comp = phi.components.get(x)
        if comp is None or set(comp) != set(F.values[x]) or not set(comp.values()) <= set(G.values[x]):
            return CheckReport(False, "validate_presheaf_morphism", counterexample={"component": x})
    for m in cat.morphisms():
        a, b = cat.src(m), cat.tgt(m)
        for v in F.values[b]:
            if phi.at(a, F.res(m, v)) != G.res(m, phi.at(b, v)):
                return CheckReport(
                    False, "validate_presheaf_morphism", counterexample={"naturality": m}
                )
    return CheckReport(True, "validate_presheaf_morphism")


def is_presheaf_iso(phi: PresheafMorphism) -> bool:
    for x, comp in phi.components.items():
        if len(set(comp.values())) != len(comp) or len(comp) != len(phi.tgt.values[x]):
            return False
    return True


def compose_presheaf_morphisms(g: PresheafMorphism, f: PresheafMorphism) -> PresheafMorphism:
    return PresheafMorphism(
        f.src,
        g.tgt,
        {x: {a: g.at(x, f.at(x, a)) for a in f.src.values[x]} for x in f.src.cat.objects},
    )


# ---------------------------------------------------------------------------
# Extensivity of presheaves
# ---------------------------------------------------------------------------


def is_extensive_presheaf(F: Presheaf, mode: str = "literal") -> CheckReport:
    """Whether F sends existing coproducts to products of sets.

    mode 'literal' quantifies over every existing coproduct; mode
    'disjoint' only over the disjoint pullback-stable ones.
    """
    cat = F.cat
    coproducts = _existing_binary_coproducts(cat, mode)

    def fail(**cx):
        return CheckReport(False, "is_extensive_presheaf", counterexample=cx)

    init = cat.coproduct(())
    if init is not None and len(F.values[init.apex]) != 1:
        return fail(initial=init.apex, size=len(F.values[init.apex]))
    for a, b, co in coproducts:
        i1, i2 = co.injections
        image = {(F.res(i1, x), F.res(i2, x)) for x in F.values[co.apex]}
        total = len(F.values[a]) * len(F.values[b])
        if len(image) != len(F.values[co.apex]) or len(image) != total:
            return fail(coproduct=(a, b, co.apex))
    return CheckReport(True, "is_extensive_presheaf")


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------


def satisfies_descent(F: Presheaf, pi) -> bool:
    """Descent along pi is the sheaf condition for the singleton family
    {pi}: restriction along pi is a bijection onto the elements of
    F(src pi) on which the two legs of pi's kernel pair agree."""
    return _is_sheaf_for(F, F.cat.tgt(pi), (pi,))


def is_sheaf(F: Presheaf, T, mode: str = "literal") -> CheckReport:
    _site._same_cat(T, F.cat, f"presheaf {F.name!r}")
    ext = is_extensive_presheaf(F, mode)
    if not ext.ok:
        return CheckReport(False, "is_sheaf", counterexample={"extensivity": ext.counterexample})
    for pi in sorted(_site.uni_class(T), key=repr):
        if not satisfies_descent(F, pi):
            return CheckReport(False, "is_sheaf", counterexample={"descent": pi})
    return CheckReport(True, "is_sheaf")


def _join(domains, by_last):
    """Every tuple t with t[k] in domains[k] that satisfies every constraint,
    each yielded once, in lexicographic order of the domains.

    by_last maps k to the constraints (i, ri, j, rj), with i, j <= k, that
    read ri[t[i]] == rj[t[j]]; ri and rj are dicts.  Variables are set in
    the order 0, 1, ..., and each constraint is checked as soon as its last
    variable k is set, so no inconsistent partial tuple is extended (the
    join order of worst-case-optimal joins).  Cost: the nodes visited are
    the consistent partial assignments, each tried against every value of
    the next domain and that variable's constraints.
    """
    n = len(domains)
    if not n:
        yield ()
        return
    cons = [by_last.get(k, ()) for k in range(n)]
    chosen = [None] * n
    its = [iter(domains[0])]
    k = 0
    while its:
        for v in its[k]:
            chosen[k] = v
            for i, ri, j, rj in cons[k]:
                if ri[chosen[i]] != rj[chosen[j]]:
                    break
            else:
                break  # every constraint of k holds: keep v
        else:
            its.pop()  # domain k exhausted: backtrack
            k -= 1
            continue
        if k == n - 1:
            yield tuple(chosen)
        else:
            k += 1
            its.append(iter(domains[k]))


def _is_sheaf_for(F: Presheaf, x, members) -> bool:
    """Whether restriction is a bijection from F(x) onto the matching
    families of {m_i: u_i -> x}: the (s_i) in the product of the F(u_i)
    that agree on every pairwise fibre product u_i x_x u_j, i <= j.  _join
    enumerates the matching families with one variable per member, so a
    partial family that already disagrees is never extended.  Raises
    ValueError when a pairwise fibre product is missing."""
    cat = F.cat
    by_last = {}
    for i, mi in enumerate(members):
        for j, mj in enumerate(members[i:], i):
            sq = cat.pullback(mi, mj)
            if sq is None:
                raise ValueError(f"pairwise fibre product missing for {mi!r}, {mj!r}")
            by_last.setdefault(j, []).append(
                (i, F.restriction[sq.to_left], j, F.restriction[sq.to_right])
            )
    matching = set(_join([F.values[cat.src(m)] for m in members], by_last))
    image = [tuple(F.res(m, s) for m in members) for s in F.values[x]]
    return len(set(image)) == len(image) and set(image) == matching


def is_traditional_sheaf(F: Presheaf, T) -> CheckReport:
    """Whether F is a sheaf for every covering {m_i: u_i -> x} of T
    (_is_sheaf_for).  The counterexample names the first covering that
    fails.

    At x only T.sheaf_families(x) is read: the minimal families of x when
    (1) every family of T has its pairwise pullbacks and (2) each minimal
    family of x pulls back along each member of x's families to a family,
    and all of x's families otherwise.  For a presheaf F this is exact.
    Take a family G of x that contains a minimal family M.  A matching
    family on G restricts to one on M, which glues to a unique s.  For each
    f in G, the pullback of M along f is a family by (2), so it contains a
    minimal family M', which is read wherever its object sits; F is
    separated for M', and s|f and the given element agree on each member of
    M' because the element at f and those at M agree on the pullbacks of f
    with M.  By (1) no read family lacks a pullback; when (1) fails every
    object reads all of its families, as the loop over all families did.
    So the verdict, and whether the check raises, is that of the loop over
    all families; only the counterexample, its object and family, may
    differ."""
    _site._same_cat(T, F.cat, f"presheaf {F.name!r}")
    for x in F.cat.objects:
        for cov in T.sheaf_families(x):
            if not _is_sheaf_for(F, x, cov.members):
                return CheckReport(
                    False,
                    "is_traditional_sheaf",
                    counterexample={"object": x, "family": cov.members},
                )
    return CheckReport(True, "is_traditional_sheaf")


def comparison_sheaf_report(F: Presheaf, T, mode: str = "literal") -> CheckReport:
    """The three sheaf conditions and the implications between them that
    the detected hypotheses support."""
    cat = F.cat
    sheaf_report = is_sheaf(F, T, mode)
    i_sheaf = sheaf_report.ok
    trad = is_traditional_sheaf(F, T).ok
    # is_sheaf checks extensivity before descent
    ext = i_sheaf or "extensivity" not in sheaf_report.counterexample
    ii = ext and trad
    hyp_extensive = is_extensive(cat).ok
    hyp_superext = _site.is_superextensive(T)
    hyp_singletonizable = _site.is_singletonizable(T)
    failures = []
    if ii and not i_sheaf:
        failures.append("(ii) holds but (i) fails")
    if ii and not trad:
        failures.append("(ii) holds but (iii) fails")
    if hyp_extensive and hyp_superext and trad != ii:
        failures.append("(ii) and (iii) disagree despite extensive + superextensive")
    if hyp_singletonizable and i_sheaf != ii:
        failures.append("(i) and (ii) disagree despite singletonizability")
    report = {
        "i_sheaf": i_sheaf,
        "ii_extensive_traditional": ii,
        "iii_traditional": trad,
        "hypotheses": {
            "extensive_category": hyp_extensive,
            "superextensive": hyp_superext,
            "singletonizable": hyp_singletonizable,
        },
    }
    if failures:
        return CheckReport(
            False, "comparison_sheaf_report", counterexample={"failures": failures, **report}
        )
    return CheckReport(True, "comparison_sheaf_report", witness=report)


# ---------------------------------------------------------------------------
# Representables and subcanonicity
# ---------------------------------------------------------------------------


def representable(cat, x, name=None) -> Presheaf:
    values = {y: tuple(cat.hom(y, x)) for y in cat.objects}
    restriction = {
        m: {h: cat.compose(h, m) for h in values[cat.tgt(m)]} for m in cat.morphisms()
    }
    return Presheaf(cat, values, restriction, name=name or f"Yo_{x}")


def subcanonical_via_representables(T, mode: str = "literal") -> CheckReport:
    cat = T.cat
    lhs = _site.is_subcanonical(T)
    bad = None
    for x in cat.objects:
        rep = is_sheaf(representable(cat, x), T, mode)
        if not rep.ok:
            bad = (x, rep.counterexample)
            break
    rhs = bad is None
    detail = {"is_subcanonical": lhs, "all_representables_sheaves": rhs, "witness": bad}
    if lhs == rhs:
        return CheckReport(True, "subcanonical_via_representables", witness=detail)
    return CheckReport(False, "subcanonical_via_representables", counterexample=detail)


# ---------------------------------------------------------------------------
# Pre(T) coverings of presheaf morphisms
# ---------------------------------------------------------------------------


def is_pre_covering(phi: PresheafMorphism, T) -> CheckReport:
    """Element-wise local lifting through phi along T-coverings.  An
    element lifts along a family whenever it lifts along a subfamily, so
    only the minimal families are read."""
    F, G = phi.src, phi.tgt
    cat = F.cat
    image = {u: {phi.at(u, a) for a in F.values[u]} for u in cat.objects}
    for x in cat.objects:
        for psi in G.values[x]:
            if not any(
                all(G.res(m, psi) in image[cat.src(m)] for m in cov.members)
                for cov in T.minimal_families(x)
            ):
                return CheckReport(
                    False, "is_pre_covering", counterexample={"object": x, "element": psi}
                )
    return CheckReport(True, "is_pre_covering")


# ---------------------------------------------------------------------------
# Pullback and right Kan extension of presheaves
# ---------------------------------------------------------------------------


def pullback_presheaf(F: FunctorData, G: Presheaf) -> Presheaf:
    values = {x: G.values[F.on_obj(x)] for x in F.source.objects}
    restriction = {m: dict(G.restriction[F.on_mor(m)]) for m in F.source.morphisms()}
    return Presheaf(F.source, values, restriction, name=f"{F.name}*{G.name}")


def right_kan_extension(F: FunctorData, P: Presheaf) -> Presheaf:
    """(F_* P)(y) is the set of families over F/y, one value of P per slice
    object in the record's order, that satisfy every slice constraint."""
    _site._same_cat(P, F.source, f"the source of functor {F.name!r}")
    tgt = F.target
    values = {}
    for y in tgt.objects:
        sl = F._slices[y]
        domains = [P.values[x] for (x, _) in sl.objects]
        ident = [{v: v for v in d} for d in domains]
        by_last = {}
        for (i, j, f) in sl.constraints:
            by_last.setdefault(max(i, j), []).append((j, P.restriction[f], i, ident[i]))
        values[y] = tuple(sorted(_join(domains, by_last), key=repr))
    restriction = {}
    for g in tgt.morphisms():
        y1, y2 = tgt.src(g), tgt.tgt(g)
        idx2 = F._slices[y2].index
        at = [idx2[(x, tgt.compose(g, phi))] for (x, phi) in F._slices[y1].objects]
        # each image is the element of values[y1] itself, so equal families are one object
        canon = {fam: fam for fam in values[y1]}
        restriction[g] = {fam: canon.get(image := tuple(fam[k] for k in at), image) for fam in values[y2]}
    return Presheaf(tgt, values, restriction, name=f"{F.name}_*{P.name}")


def counit(F: FunctorData, P: Presheaf) -> PresheafMorphism:
    """Evaluation of a compatible family at (x, id): F* F_* P -> P."""
    return _counit(F, P, right_kan_extension(F, P))


def _counit(F: FunctorData, P: Presheaf, ext: Presheaf) -> PresheafMorphism:
    """counit(F, P), given ext = F_* P."""
    back = pullback_presheaf(F, ext)
    src_cat, tgt_cat = F.source, F.target
    comps = {}
    for x in src_cat.objects:
        fx = F.on_obj(x)
        k = F._slices[fx].index[(x, tgt_cat.identity(fx))]
        comps[x] = {fam: fam[k] for fam in back.values[x]}
    return PresheafMorphism(back, P, comps)


def unit(F: FunctorData, Q: Presheaf) -> PresheafMorphism:
    """Restriction along every slice leg: Q -> F_* F* Q."""
    return _unit(F, Q, right_kan_extension(F, pullback_presheaf(F, Q)))


def _unit(F: FunctorData, Q: Presheaf, ext: Presheaf) -> PresheafMorphism:
    """unit(F, Q), given ext = F_* F* Q."""
    comps = {}
    for y in F.target.objects:
        objects = F._slices[y].objects
        comps[y] = {q: tuple(Q.res(psi, q) for (_, psi) in objects) for q in Q.values[y]}
    return PresheafMorphism(Q, ext, comps)


def verify_adjunction(F: FunctorData, source_samples, target_samples) -> CheckReport:
    """Both triangle identities (Mac Lane, CWM IV.1), checked on the given
    sample presheaves element by element, on the components of the unit and
    counit.  F^* acts on a component by reindexing along F, so the first
    reads eps_{F^*Q, x}(eta_{Q, F x}(q)) = q for q in Q(F x); F_* acts slot
    by slot along F._slices[y], so the second reads
    (eps_{x_k}(eta_{F_*P, y}(s)_k))_k = s for s in (F_*P)(y), where x_k is
    the source object of slot k.  Each sample is extended once: F_* F^* Q
    for Q, and F_* P and F_* F^* F_* P for P."""
    return _verify_adjunction(
        F,
        ((P, right_kan_extension(F, P)) for P in source_samples),
        ((Q, right_kan_extension(F, pullback_presheaf(F, Q))) for Q in target_samples),
    )


def _verify_adjunction(F: FunctorData, source, target) -> CheckReport:
    """verify_adjunction on the pairs (P, F_* P) of source and
    (Q, F_* F* Q) of target, reading those extensions."""

    def fail(**cx):
        return CheckReport(False, "verify_adjunction", counterexample=cx)

    for Q, ext in target:
        eta = _unit(F, Q, ext).components
        eps = _counit(F, pullback_presheaf(F, Q), ext).components
        for x in F.source.objects:
            fx = F.on_obj(x)
            if any(eps[x][eta[fx][q]] != q for q in Q.values[fx]):
                return fail(triangle="counit.F*unit", sample=Q.name)
    for P, ext in source:
        eta = unit(F, ext).components
        eps = _counit(F, P, ext).components
        for y in F.target.objects:
            objects = F._slices[y].objects
            for s in ext.values[y]:
                if tuple(eps[x][t] for (x, _), t in zip(objects, eta[y][s])) != s:
                    return fail(triangle="F_*counit.unit", sample=P.name)
    return CheckReport(True, "verify_adjunction")


def verify_comparison(F: FunctorData, T1, T2, source_samples=(), target_samples=(), mode="literal") -> CheckReport:
    """The comparison-lemma hypotheses plus sheaf and unit/counit checks
    on sample presheaves; refuses when a hypothesis fails.  The checks and
    the triangle identities read one extension per sample, as
    verify_adjunction does."""
    hyps = {
        "continuous": _site.is_continuous(F, T1, T2).ok,
        "cocontinuous": _site.is_cocontinuous(F, T1, T2).ok,
        "dense_image": _site.has_dense_image(F, T2).ok,
        "preserves_coproducts": preserves_coproducts(F, mode),
        "inverts_coproducts": inverts_coproducts(F),
        "target_extensive": is_extensive(F.target).ok,
    }
    failed = [k for k, v in hyps.items() if not v]
    if failed:
        return CheckReport(
            False, "verify_comparison", counterexample={"hypotheses_failed": failed, **hyps}
        )
    source = [(P, right_kan_extension(F, P)) for P in source_samples]
    target = [(Q, right_kan_extension(F, pullback_presheaf(F, Q))) for Q in target_samples]
    results = {}
    for P, ext in source:
        results[f"pushforward({P.name}) sheaf"] = is_sheaf(ext, T2, mode).ok
        results[f"counit({P.name}) iso"] = is_presheaf_iso(_counit(F, P, ext))
    for Q, ext in target:
        results[f"pullback({Q.name}) sheaf"] = is_sheaf(pullback_presheaf(F, Q), T1, mode).ok
        results[f"unit({Q.name}) iso"] = is_presheaf_iso(_unit(F, Q, ext))
    adj = _verify_adjunction(F, source, target)
    results["triangle_identities"] = adj.ok
    if all(results.values()):
        return CheckReport(True, "verify_comparison", witness={**hyps, **results})
    return CheckReport(False, "verify_comparison", counterexample={**hyps, **results})


# ---------------------------------------------------------------------------
# The Yoneda embedding into a finite presheaf-category fragment
# ---------------------------------------------------------------------------


def presheaf_homs(F: Presheaf, G: Presheaf):
    """All natural transformations F -> G, as component dicts
    {x: {v: eta_x(v)}}.  _join enumerates one variable per element (x, v),
    v in F(x), with domain G(x), in object-then-value order; the naturality
    equation eta_a(F(m)v) = G(m)(eta_b(v)) of each m: a -> b and v in F(b)
    is a constraint, so each single value is pruned as soon as it is set."""
    cat = F.cat
    var = {(x, v): k for k, (x, v) in enumerate((x, v) for x in cat.objects for v in F.values[x])}
    domains = [G.values[x] for (x, _) in var]
    ident = {x: {w: w for w in G.values[x]} for x in cat.objects}
    by_last = {}
    for m in cat.morphisms():
        a, b = cat.src(m), cat.tgt(m)
        for v in F.values[b]:
            i, j = var[(a, F.res(m, v))], var[(b, v)]
            by_last.setdefault(max(i, j), []).append((i, ident[a], j, G.restriction[m]))
    results = []
    for t in _join(domains, by_last):
        comps = {x: {} for x in cat.objects}
        for (x, v), k in var.items():
            comps[x][v] = t[k]
        results.append(comps)
    return results


def _freeze_components(comps):
    return tuple(
        (x, tuple(sorted(comps[x].items(), key=repr))) for x in sorted(comps, key=repr)
    )


def presheaf_fragment(presheaves):
    """The full subcategory of presheaves spanned by the given objects.

    Returns (TableCategory, dict name -> Presheaf, morphism decoder).
    """
    named = {p.name: p for p in presheaves}
    if len(named) != len(presheaves):
        raise ValueError("presheaf names must be unique")
    objects = sorted(named)
    morphisms = {}
    identity = {}
    decode = {}
    for a in objects:
        for b in objects:
            for comps in presheaf_homs(named[a], named[b]):
                mid = (a, b, _freeze_components(comps))
                morphisms[mid] = (a, b)
                decode[mid] = PresheafMorphism(named[a], named[b], comps)
                if a == b and all(
                    v == k for comp in comps.values() for k, v in comp.items()
                ):
                    identity[a] = mid

    def composite(g, f):
        return f[0], g[1], _freeze_components(compose_presheaf_morphisms(decode[g], decode[f]).components)

    cat = _generated(objects, morphisms, identity, composite, "psh-fragment")
    return cat, named, decode


def yoneda_embedding(cat, extras=()):
    """The Yoneda functor into the fragment on representables plus extras."""
    reps = {x: representable(cat, x, name=f"Yo_{x}") for x in cat.objects}
    fragment, named, decode = presheaf_fragment(list(reps.values()) + list(extras))
    obj_map = {x: reps[x].name for x in cat.objects}
    # Yo(m), m: a -> b, is the element m of Yo_b(a)
    mor_map = {
        m: _yoneda_element_morphism(cat, reps, reps[cat.tgt(m)], cat.src(m), m) for m in cat.morphisms()
    }
    yo = FunctorData(cat, fragment, obj_map, mor_map, name="Yo")
    return yo, fragment, named, decode


def _yoneda_element_morphism(cat, reps, G: Presheaf, y, g):
    """The fragment's id of the presheaf morphism Yo_y -> G matching the
    element g of G(y): h |-> G(h)(g)."""
    comps = {z: {h: G.res(h, g) for h in reps[y].values[z]} for z in cat.objects}
    return reps[y].name, G.name, _freeze_components(comps)


def yoneda_continuity_report(cat, T, extras=()) -> CheckReport:
    """Continuity of Yo (Uni(T) maps to Pre(T)-coverings), the singleton
    cocontinuity lifting, and the Yoneda-extension identity on samples."""
    yo, fragment, named, decode = yoneda_embedding(cat, extras)
    reps = {x: named[f"Yo_{x}"] for x in cat.objects}
    report = {}

    def fail(**cx):
        return CheckReport(False, "yoneda_continuity_report", counterexample=cx)

    uni = _site.uni_class(T)
    for f in sorted(uni, key=repr):
        phi = decode[yo.on_mor(f)]
        if not is_pre_covering(phi, T).ok:
            return fail(clause="continuity", morphism=f)
    report["continuity_checked"] = len(uni)
    if T.is_singleton():
        failure, _ = _site._lifting_failure(yo, uni, lambda mid: is_pre_covering(decode[mid], T).ok)
        if failure is not None:
            return fail(clause="cocontinuity", object=failure["object"])
        report["cocontinuity"] = True
    # Yoneda extension: (Yo_* F)(G) is Hom(G, F) for sampled F among extras
    for F in extras:
        ext = right_kan_extension(yo, F)
        for gname in fragment.objects:
            G = named[gname]
            homs = [decode[m].components for m in fragment.hom(gname, F.name)]
            index = yo._slices[gname].index
            # the slice position of each element morphism Yo_y -> G
            at = {
                y: {g: index[(y, _yoneda_element_morphism(cat, reps, G, y, g))] for g in G.values[y]}
                for y in cat.objects
            }
            seen = set()
            for fam in ext.values[gname]:
                comps = {y: {g: fam[k] for g, k in at[y].items()} for y in cat.objects}
                frozen = _freeze_components(comps)
                if frozen in seen:
                    return fail(clause="extension-injective", at=gname)
                seen.add(frozen)
                if comps not in homs:
                    return fail(clause="extension-natural", at=gname)
            if len(seen) != len(homs):
                return fail(clause="extension-bijective", at=gname, families=len(seen), homs=len(homs))
        report[f"extension({F.name})"] = True
    return CheckReport(True, "yoneda_continuity_report", witness=report)
