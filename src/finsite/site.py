"""Grothendieck pretopologies on finite categories.

Coverings on an explicit-table category are stored extensionally, one set
of covering families per object.  On the finite-sets ambient a topology is
an intensional descriptor ("all surjections", "all isomorphisms", "all
morphisms") together with certified classifiers for local splitness and
membership in the universal completion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .fincat import (
    CheckReport,
    FinSetCat,
    FunctorData,
    SetMap,
    is_universal,
    universally_effective_epis,
    is_extensive,
    is_full as _full,
    is_faithful as _faithful,
)


@dataclass(frozen=True)
class CoveringFamily:
    target: object
    members: tuple


@dataclass(frozen=True)
class SplitWitness:
    covering: CoveringFamily
    sections: tuple


@dataclass(frozen=True)
class Refinement:
    source_family: CoveringFamily
    refining_family: CoveringFamily
    index_map: tuple
    connecting: tuple


class Pretopology:
    """Extensional pretopology on a TableCategory.  The constructor checks
    that each family is keyed by an object and made of morphisms into it;
    validate_pretopology checks the axioms.  The families are fixed after
    construction, so each reader below builds its answer for an object once,
    on first use.

    members[x] is the union of x's families.  minimal_families(x) is the
    antichain of x's families: those that contain no other family of x.
    Every family contains a minimal one, so a question that holds for a
    family whenever it holds for a subfamily (a family inside a sieve, one
    that refines another, one along which elements lift) holds for some
    family iff it holds for a minimal one: is_locally_split,
    find_refinement and sheaf.is_pre_covering read only these.
    sheaf_families(x) is what the traditional sheaf condition reads.
    Membership is not monotone in general, but it is at an object that is
    superset_closed(x): there validate_pretopology's axioms 2 and 3 read the
    minimal families too, and is_superextensive reads only the
    prefix-minimal coproduct families.  is_singletonizable reads no family
    where the category has an initial object and every binary coproduct.
    singletonize, _pairwise_pullbacks and the covering clause of
    continuity_sufficient read every family.  uni_class builds Uni(T) once
    per topology."""

    def __init__(self, cat, families, name=""):
        self.cat = cat
        self.name = name
        stray = families.keys() - set(cat.objects)
        if stray:
            raise ValueError(f"families for unknown object {min(stray, key=repr)!r}")
        self.families, self.members = {}, {}
        for x in cat.objects:
            fams = frozenset(frozenset(s) for s in families.get(x, ()))
            members = frozenset().union(*fams)
            stray = members.difference(cat.into(x))
            if stray:
                raise ValueError(f"family member {min(stray, key=repr)!r} is not a morphism into {x!r}")
            self.families[x], self.members[x] = fams, members
        self._covering, self._minimal, self._sheaf, self._closed = {}, {}, {}, {}
        self._uni = None

    def covering_families(self, x):
        """The families of x as CoveringFamily values, members and families
        sorted by repr."""
        if x not in self._covering:
            self._covering[x] = _wrap(x, self.families[x])
        return self._covering[x]

    def minimal_families(self, x):
        """The families of x that contain no other family of x, sorted as
        covering_families.  The raw sets are read in order of size and one
        is kept unless a kept set lies inside it; only the kept sets are
        wrapped and sorted."""
        if x not in self._minimal:
            kept = []
            for s in sorted(self.families[x], key=len):
                if not any(map(s.issuperset, kept)):
                    kept.append(s)
            self._minimal[x] = _wrap(x, kept)
        return self._minimal[x]

    def superset_closed(self, x):
        """Whether every set of morphisms into x that contains a family of x
        is a family of x.  Each member of into(x) is one bit and each family
        one int; x is closed iff mask | bit is a family for every family
        mask and every bit not in it, and the scan stops at the first miss."""
        if x not in self._closed:
            bit = {m: 1 << i for i, m in enumerate(self.cat.into(x))}
            masks = {sum(map(bit.__getitem__, s)) for s in self.families[x]}
            bits = tuple(bit.values())
            self._closed[x] = all(mask & b or mask | b in masks for mask in masks for b in bits)
        return self._closed[x]

    def sheaf_families(self, x):
        """The families sheaf.is_traditional_sheaf reads at x: the minimal
        ones when (1) every two members of a family of the site, a member
        with itself included, have a pullback, and (2) each minimal family
        of x pulls back along each member of x's families to a family of
        that member's source; every family of x otherwise.  (1) is decided
        once, and only if some object has a family that is not minimal."""
        if x not in self._sheaf:
            fams = self.minimal_families(x)
            if len(fams) < len(self.families[x]) and not (
                self._pairwise_pullbacks and self._pulls_back(x, fams)
            ):
                fams = self.covering_families(x)
            self._sheaf[x] = fams
        return self._sheaf[x]

    @functools.cached_property
    def _pairwise_pullbacks(self):
        """Condition (1) of sheaf_families.  Two members of x's families
        without a pullback fail it only if some family holds both, so every
        family is read (the sieve-level route is ROADMAP item 4)."""
        for x, fams in self.families.items():
            members = sorted(self.members[x], key=repr)
            for i, a in enumerate(members):
                for b in members[i:]:
                    if self.cat.pullback(a, b) is None and any(a in s and b in s for s in fams):
                        return False
        return True

    def _pulls_back(self, x, minimal):
        """Condition (2) of sheaf_families at x, with pullbacks taken as
        validate_pretopology's axiom 3 takes them."""
        cat = self.cat
        for f in self.members[x]:
            for cov in minimal:
                pulled = set()
                for m in cov.members:
                    sq = cat.pullback(m, f)
                    if sq is None:
                        return False
                    pulled.add(sq.to_right)
                if not self.has_family(cat.src(f), pulled):
                    return False
        return True

    def has_family(self, x, members):
        return frozenset(members) in self.families[x]

    def is_singleton(self):
        return all(len(s) == 1 for fams in self.families.values() for s in fams)

    def __repr__(self):
        return f"Pretopology({self.name!r})"


def _wrap(x, sets):
    """The member sets of families of x as CoveringFamily values, members
    and families sorted by repr."""
    return tuple(sorted((CoveringFamily(x, tuple(sorted(s, key=repr))) for s in sets), key=repr))


class FinSetTopology:
    """Intensional topology on the finite-sets ambient.

    kind 'surjections': singleton coverings by surjections (canonical here).
    kind 'isos':        singleton coverings by bijections (indiscrete).
    kind 'all':         singleton coverings by arbitrary maps (discrete,
                        since every map of finite sets is universal).

    No kind is superextensive: the coproduct families {0} -> {0, 1} <- {1}
    and the empty family into the empty set are not singletons.

    A finite-sets topology is built as FinSetTopology(kind): the table
    constructors (indiscrete_topology, discrete_topology, canonical_topology,
    singletonize) take explicit tables only.
    """

    KINDS = ("surjections", "isos", "all")

    def __init__(self, kind):
        if kind not in self.KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.cat = FinSetCat()
        self.name = f"finset-{kind}"

    def covers(self, f):
        if self.kind == "surjections":
            return f.is_surjective()
        if self.kind == "isos":
            return f.is_bijective()
        return True

    def __repr__(self):
        return f"FinSetTopology({self.kind!r})"


def _choose_section(f):
    """A section of a surjective SetMap, by finite choice in sorted order."""
    pick = {}
    for x in sorted(f.src, key=repr):
        pick.setdefault(f(x), x)
    return SetMap(f.tgt, f.src, pick)


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


def validate_pretopology(T) -> CheckReport:
    """The three pretopology axioms, each read only on the families where it
    can fail.  Families are read in covering_families order, so the
    counterexample is the first failure in repr order.  At an object whose
    families are all minimal, its minimal families are all its families, and
    closure under supersets is not asked.

    1. Every iso f is a family {f} of tgt(f); checked for every iso.
    2. Composites of families are families.  At an object x closed under
       supersets (Pretopology.superset_closed), F is read from
       minimal_families(x) and each G_m from minimal_families(src m); at any
       other x every family is read.  Exact: any F in T(x) and G_m in
       T(src m) contain minimal F0 and G0_m, composite(F0, G0) lies inside
       composite(F, G) inside into(x), and closure at x takes the former's
       membership to the latter's.
    3. Families pull back, member-wise, to families.  At (x, g), F is read
       from minimal_families(x) if src(g) is closed and from every family of
       x otherwise; where that leaves some family of x unread, every member
       of x's families that is not an iso must first have a pullback along g.
       Exact: the pulled family of F contains that of a minimal F0 inside it,
       both taken with the same cat.pullback(m, g), and closure at src(g)
       takes membership up.  A singleton {m} with m an iso is skipped: m has
       a pullback along every g, its pulled leg is an iso, and axiom 1,
       checked first, has put {iso} in T.  The argument uses only the
       category laws, which check assumes; a member of a family that is read
       and has no pullback is still reported."""
    cat = T.cat
    isos = cat.isos()

    def fail(**cx):
        return CheckReport(False, "validate_pretopology", counterexample=cx)

    def read(y, x):
        """y's families: only the minimal ones if x is closed under supersets."""
        minimal = T.minimal_families(y)
        if len(minimal) == len(T.families[y]) or T.superset_closed(x):
            return minimal
        return T.covering_families(y)

    # axiom 1: every isomorphism is a singleton covering
    for f in sorted(isos, key=repr):
        if not T.has_family(cat.tgt(f), (f,)):
            return fail(axiom=1, iso=f)
    # axiom 2: coverings of coverings compose.  The composite families are
    # built one member at a time; distinct choices often give the same set.
    for x in cat.objects:
        for cov in read(x, x):
            composites = {frozenset()}
            for m in cov.members:
                pieces = {
                    frozenset(cat.compose(m, s) for s in sub.members)
                    for sub in read(cat.src(m), x)
                }
                composites = {acc | piece for acc in composites for piece in pieces}
            if not all(T.has_family(x, c) for c in composites):
                return fail(axiom=2, family=cov.members)
    # axiom 3: coverings pull back member-wise to coverings
    for x in cat.objects:
        for g in cat.into(x):
            fams = read(x, cat.src(g))
            if len(fams) < len(T.families[x]):
                for m in sorted(T.members[x] - isos, key=repr):
                    if cat.pullback(m, g) is None:
                        return fail(axiom=3, member=m, along=g)
            for cov in fams:
                if len(cov.members) == 1 and cov.members[0] in isos:
                    continue
                pulled = set()
                for m in cov.members:
                    sq = cat.pullback(m, g)
                    if sq is None:
                        return fail(axiom=3, member=m, along=g)
                    pulled.add(sq.to_right)
                if not T.has_family(cat.src(g), pulled):
                    return fail(axiom=3, family=cov.members, along=g)
    return CheckReport(True, "validate_pretopology")


# ---------------------------------------------------------------------------
# Standard topologies
# ---------------------------------------------------------------------------


def _singleton_topology(cat, morphisms, name):
    """The pretopology whose coverings are the singletons {f}, f in morphisms."""
    fams = {x: set() for x in cat.objects}
    for f in morphisms:
        fams[cat.tgt(f)].add(frozenset({f}))
    return Pretopology(cat, fams, name=name)


def indiscrete_topology(cat):
    return _singleton_topology(cat, cat.isos(), "T_indis")


def discrete_topology(cat):
    return _singleton_topology(cat, (f for f in cat.morphisms() if is_universal(cat, f)), "T_dis")


def canonical_topology(cat):
    return _singleton_topology(cat, universally_effective_epis(cat), "T_can")


def _extensive_families(cat):
    """Per object x, all incoming-morphism sets forming a coproduct cocone."""
    return {x: cat.coproduct_families(x) for x in cat.objects}


def extensive_topology(cat):
    rep = is_extensive(cat)
    if not rep.ok:
        raise ValueError(f"category is not extensive: {rep.counterexample}")
    return Pretopology(cat, _extensive_families(cat), name="T_ext")


# ---------------------------------------------------------------------------
# Locally split morphisms and the universal completion
# ---------------------------------------------------------------------------


def is_locally_split(T, f) -> Optional[SplitWitness]:
    """A covering of tgt(f) inside the sieve f generates, with a section of
    f at each member; on a Pretopology, the first minimal family that lies
    inside it."""
    cat = T.cat
    if isinstance(T, FinSetTopology):
        if T.kind in ("surjections", "all"):
            if T.covers(f):
                cov = CoveringFamily(f.tgt, (f,))
                return SplitWitness(cov, (SetMap.ident(f.src),))
            return None
        # indiscrete: locally split means globally split
        if f.is_surjective():
            cov = CoveringFamily(f.tgt, (SetMap.ident(f.tgt),))
            return SplitWitness(cov, (_choose_section(f),))
        return None
    sieve = cat.through(f)
    for cov in T.minimal_families(cat.tgt(f)):
        if all(m in sieve for m in cov.members):
            return SplitWitness(cov, tuple(sieve[m] for m in cov.members))
    return None


def uni_class(T) -> frozenset:
    """The universal T-locally split morphisms of an explicit-table site:
    the morphisms uni_contains accepts, built once per topology.  It asks
    uni_contains of one representative per orbit under precomposition with
    isos (TableCategory._orbits) and takes in its whole orbit.  This holds
    for every T, a pretopology or not: through(f.a) is the sieve through(f),
    since a is an iso, so f.a is T-locally split iff f is, and universal
    iff f is (is_universal)."""
    if isinstance(T, FinSetTopology):
        raise ValueError("intensional topologies classify membership, use uni_contains")
    if T._uni is None:
        cat = T.cat
        T._uni = frozenset(
            h
            for x in cat.objects
            for f in cat._orbits(x)[0]
            if uni_contains(T, f)
            for h in cat._orbit(f)
        )
    return T._uni


def uni_contains(T, f) -> bool:
    """Whether f is universal and T-locally split.  Local splitness is asked
    first: it is one through(f) lookup per covering of tgt(f), while
    universality computes the pullback of f along every morphism into
    tgt(f), and a conjunction does not depend on the order it is tested in."""
    return is_locally_split(T, f) is not None and is_universal(T.cat, f)


def universal_completion(T):
    if isinstance(T, FinSetTopology):
        kind = {"surjections": "surjections", "isos": "surjections", "all": "all"}[T.kind]
        return FinSetTopology(kind)
    return _singleton_topology(T.cat, uni_class(T), f"Uni({T.name})")


# ---------------------------------------------------------------------------
# Comparing topologies
# ---------------------------------------------------------------------------


def _same_cat(T, cat, owner):
    """Raise ValueError unless T, a topology or a presheaf, lives on cat, the
    category of owner (both named in the message).  Two TableCategory
    objects with the same tables are the same category, and so are any two
    FinSetCat objects."""
    if T.cat is not cat and any(
        getattr(T.cat, a, None) != getattr(cat, a, None)
        for a in ("backend", "_mor", "_identity", "_comp")
    ):
        raise ValueError(f"{owner} and {T.name!r} live on different categories")


def _functor_sites(F: FunctorData, T1, T2):
    """Require T1 on the source of F and T2 on its target."""
    _same_cat(T1, F.source, f"the source of functor {F.name!r}")
    _same_cat(T2, F.target, f"the target of functor {F.name!r}")


def is_coarser(T1, T2) -> bool:
    """Every universal T1-locally split morphism is T2-locally split."""
    _same_cat(T2, T1.cat, f"topology {T1.name!r}")
    if isinstance(T1, FinSetTopology):
        rank = {"surjections": 1, "isos": 1, "all": 2}
        return rank[T1.kind] <= rank[T2.kind]
    return uni_class(T1) <= uni_class(T2)


def are_equivalent(T1, T2) -> bool:
    return is_coarser(T1, T2) and is_coarser(T2, T1)


def find_refinement(family: CoveringFamily, T2) -> Optional[Refinement]:
    """A T2-covering of the same target refining the family, if one exists:
    the first minimal family of T2 that does, since a family refines
    whenever a subfamily of it does."""
    sieves = [T2.cat.through(pi) for pi in family.members]
    for cov in T2.minimal_families(family.target):
        hits = [
            next(((i, s[psi]) for i, s in enumerate(sieves) if psi in s), None)
            for psi in cov.members
        ]
        if None not in hits:
            return Refinement(family, cov, tuple(h[0] for h in hits), tuple(h[1] for h in hits))
    return None


# ---------------------------------------------------------------------------
# Singletonization
# ---------------------------------------------------------------------------


def _induced(T, x, fam):
    """The map into x that the family fam induces out of the coproduct of
    its members' sources; None if that coproduct or map does not exist."""
    cat = T.cat
    members = tuple(sorted(fam, key=repr))
    co = cat.coproduct(tuple(cat.src(m) for m in members))
    if co is None:
        return None
    if members:
        return cat.from_coproduct(co, members)
    # empty family: the mediator is the unique map out of the initial object
    homs = cat.hom(co.apex, x)
    return homs[0] if len(homs) == 1 else None


def is_singletonizable(T) -> bool:
    """Whether every family of T has an induced map (_induced).  A category
    with an initial object and a coproduct of every two objects, an object
    with itself included, has every finite coproduct, as A1 + ... + An =
    (A1 + ... + An-1) + An (the dual of the finite-products fact in Mac
    Lane, CWM); then every family has one, and with it its induced map, and
    T is not read.  Otherwise every family is."""
    cat = T.cat
    objs = cat.objects
    if cat.coproduct(()) is not None and all(
        cat.coproduct((a, b)) is not None for i, a in enumerate(objs) for b in objs[i:]
    ):
        return True
    return all(_induced(T, x, fam) is not None for x in objs for fam in T.families[x])


def singletonize(T):
    """The singleton topology of the maps T's families induce.  A family
    without an induced map is named as the first such family of the first
    object that has one, in covering_families order.  Every family is read
    (the sieve-level route is ROADMAP item 4)."""
    cat = T.cat
    rep = is_extensive(cat)
    if not rep.ok:
        raise ValueError(f"singletonize needs an extensive category: {rep.counterexample}")
    fams = {x: set() for x in cat.objects}
    for x in cat.objects:
        for cov in T.covering_families(x):
            induced = _induced(T, x, cov.members)
            if induced is None:
                raise ValueError(f"covering family without coproduct: {cov.members}")
            fams[x].add(frozenset({induced}))
    return Pretopology(cat, fams, name=f"Sing({T.name})")


# ---------------------------------------------------------------------------
# Classification of topologies
# ---------------------------------------------------------------------------


def is_subcanonical(T) -> bool:
    return is_coarser(T, canonical_topology(T.cat))


def is_local(T) -> bool:
    """In every pullback square whose pulled-back leg and base leg are in
    Uni(T), the original morphism is in Uni(T) as well.  A cospan (pi, g)
    with pi in Uni(T) or g not in it satisfies this whatever its pullback
    is, so only the others are pulled back.  pi ranges over one
    representative per orbit under precomposition with isos
    (TableCategory._orbits): a pullback of (pi.a, g) is one of (pi, g)
    with the same right leg up to an iso of its apex, and Uni(T) is closed
    under precomposition with isos (uni_class), for every T."""
    if isinstance(T, FinSetTopology):
        # pullbacks of maps of finite sets along surjections of finite sets
        # are surjective, and everything is universal
        return True
    cat = T.cat
    uni = uni_class(T)
    for x in cat.objects:
        for pi in cat._orbits(x)[0]:
            if pi in uni:
                continue
            for g in cat.into(x):
                if g not in uni:
                    continue
                sq = cat.pullback(pi, g)
                if sq is not None and sq.to_right in uni:
                    return False
    return True


def is_superextensive(T) -> bool:
    """Whether every coproduct family is a family of T.  Every coproduct
    family contains a prefix-minimal one (coproduct_families), so at an
    object that is superset_closed only those are read; at any other object
    every coproduct family is.  No FinSetTopology is superextensive."""
    if isinstance(T, FinSetTopology):
        return False  # its families are singletons; the empty family into {} is a coproduct family
    cat = T.cat
    return all(
        cat.coproduct_families(x, prefix_minimal=T.superset_closed(x)) <= T.families[x]
        for x in cat.objects
    )


def restrict_topology(T, incl: FunctorData):
    """Coverings of T lying in the subcategory whose members are universal there."""
    sub, amb = incl.source, incl.target
    if len(set(incl.obj_map.values())) != len(incl.obj_map):
        raise ValueError("restriction needs an inclusion functor")
    if len(set(incl.mor_map.values())) != len(incl.mor_map):
        raise ValueError("restriction needs an inclusion functor")
    mor_back = {v: k for k, v in incl.mor_map.items()}
    fams = {x: set() for x in sub.objects}
    for x in sub.objects:
        for fam in T.families[incl.on_obj(x)]:
            if not all(m in mor_back for m in fam):
                continue
            back = frozenset(mor_back[m] for m in fam)
            if all(is_universal(sub, m) for m in back):
                fams[x].add(back)
    return Pretopology(sub, fams, name=f"{T.name}|{sub.name}")


# ---------------------------------------------------------------------------
# Functors between sites
# ---------------------------------------------------------------------------


def _fibre_product_failure(F: FunctorData, f):
    """The first cospan (f, g), f universal in the source of F, whose
    pullback is not sent to a fibre product, as a counterexample; None if
    none."""
    src, tgt = F.source, F.target
    for g in src.into(src.tgt(f)):
        # callers pass a universal f, so is_universal has found this pullback
        sq = src.pullback(f, g)
        if not tgt.is_cone_pullback(
            F.on_mor(f),
            F.on_mor(g),
            F.on_obj(sq.apex),
            F.on_mor(sq.to_left),
            F.on_mor(sq.to_right),
        ):
            return {"clause": "fibre-product", "cospan": (f, g)}
    return None


def is_continuous(F: FunctorData, T1, T2) -> CheckReport:
    """Sends Uni(T1) into Uni(T2) and preserves fibre products with Uni(T1).
    The counterexample is the first failing morphism in table order."""
    _functor_sites(F, T1, T2)
    uni1 = uni_class(T1)
    for f in F.source.morphisms():
        if f not in uni1:
            continue
        if not uni_contains(T2, F.on_mor(f)):
            return CheckReport(
                False, "is_continuous", counterexample={"clause": "image", "morphism": f}
            )
        failure = _fibre_product_failure(F, f)
        if failure is not None:
            return CheckReport(False, "is_continuous", counterexample=failure)
    return CheckReport(True, "is_continuous")


def continuity_sufficient(F: FunctorData, T1, T2) -> CheckReport:
    """The stronger criterion: coverings map to coverings, universal
    morphisms stay universal, and their fibre products are preserved.  The
    covering clause reads every family of T1 (the sieve-level route is
    ROADMAP item 4)."""
    _functor_sites(F, T1, T2)
    src, tgt = F.source, F.target

    def fail(cx):
        return CheckReport(False, "continuity_sufficient", counterexample=cx)

    for x in src.objects:
        for cov in T1.covering_families(x):
            if not T2.has_family(F.on_obj(x), (F.on_mor(m) for m in cov.members)):
                return fail({"clause": "covering", "family": cov.members})
    for f in src.morphisms():
        if not is_universal(src, f):
            continue
        if not is_universal(tgt, F.on_mor(f)):
            return fail({"clause": "universal", "morphism": f})
        failure = _fibre_product_failure(F, f)
        if failure is not None:
            return fail(failure)
    return CheckReport(True, "continuity_sufficient")


def _lifting_failure(F: FunctorData, lifts, covers):
    """Cocontinuity's lifting loop: for each source object x and each
    target morphism pi into F(x) with covers(pi), whether the sieve pi
    generates holds F(l) for some l in lifts with target x.  Returns the
    first failure as {"object": x, "morphism": pi}, or None, and the
    number of pi that lift."""
    src, tgt = F.source, F.target
    lifted = 0
    for x in src.objects:
        images = [F.on_mor(l) for l in src.into(x) if l in lifts]
        for pi in tgt.into(F.on_obj(x)):
            if not covers(pi):
                continue
            sieve = tgt.through(pi)
            if not any(im in sieve for im in images):
                return {"object": x, "morphism": pi}, lifted
            lifted += 1
    return None, lifted


def is_cocontinuous(F: FunctorData, T1, T2) -> CheckReport:
    """Every Uni(T2) morphism pi into an image object F(x) lifts: the sieve
    pi generates holds F(pi1) for some Uni(T1) morphism pi1 into x."""
    _functor_sites(F, T1, T2)
    failure, lifts = _lifting_failure(F, uni_class(T1), uni_class(T2).__contains__)
    if failure is not None:
        return CheckReport(False, "is_cocontinuous", counterexample=failure)
    return CheckReport(True, "is_cocontinuous", witness={"lifts": lifts})


def has_dense_image(F: FunctorData, T2) -> CheckReport:
    """Whether F is full and faithful and every target object x receives a
    Uni(T2) morphism h: c -> x out of a coproduct c of image objects F(u).
    Exact: every map out of a coproduct is induced by its legs, and
    precomposing with an iso keeps Uni(T2) membership, so it is enough to
    find h in into(x) and one coproduct family into src(h) whose legs all
    start at images.  The witness family is the smallest, ties broken by
    the reprs of its legs, searched for at most once per object and only
    up to the first size that has one."""
    _same_cat(T2, F.target, f"the target of functor {F.name!r}")
    tgt = F.target
    if not _full(F):
        return CheckReport(False, "has_dense_image", counterexample={"clause": "full"})
    if not _faithful(F):
        return CheckReport(False, "has_dense_image", counterexample={"clause": "faithful"})
    images = {F.on_obj(u) for u in F.source.objects}
    families = {}

    def family(c):
        if c not in families:
            families[c] = tgt.smallest_coproduct_family(c, images)
        return families[c]

    witness = {}
    for x in tgt.objects:
        for h in tgt.into(x):
            if uni_contains(T2, h) and family(tgt.src(h)) is not None:
                witness[x] = {"morphism": h, "family": family(tgt.src(h))}
                break
        else:
            return CheckReport(False, "has_dense_image", counterexample={"object": x})
    return CheckReport(True, "has_dense_image", witness={"objects": witness})
