"""Finite categories: explicit composition tables and the finite-sets ambient.

Two backends share one interface.  TableCategory stores everything as
explicit tables, so limits and colimits are decided by counting cones and
every classification is decidable.  The counts, and the composites that
test a candidate cone, are read from an index built lazily and cached on
the category: per morphism the table of its composites with each hom set
and their fibres, per object its hom-count signature.  A second lazy
index, per object x, holds the orbits of into(x) under precomposition with
isos, {f.a : a an iso into src f}, and one representative of each:
is_universal, universally_effective_epis and site's uni_class and is_local
classify one representative per orbit, since a pullback is unique up to
iso (Mac Lane, CWM III.4), so f.a is universal, or has a pullback along
g.b, iff f is, or has one along g.  Caching is sound because the tables
are immutable after construction.  FinSetCat is the
ambient category of extensional finite sets; its limits are constructed
directly and classifications like "every morphism is universal" hold as
meta-facts about finite sets rather than by enumeration.

Both backends implement src, tgt, identity, compose, hom, is_identity,
is_iso, is_epi, pullback, into_pullback, product (a
PullbackSquare with no cospan, so into_pullback mediates into it),
coproduct, coequalizer, is_cone_pullback, is_cocone_coequalizer and
has_all_pullbacks.  Generic checks
(is_effective_epi here, the fibre products of internal) call only these
and run unchanged on either backend.  The six FinSetTopology branches left
in site (is_locally_split, uni_class, universal_completion, is_coarser,
is_local and is_superextensive) answer meta-facts about an intensional
topology that no enumeration over the ambient could decide, so they stay
there rather than in methods; the table constructors of site, and
validate_category and universally_effective_epis here, take explicit
tables only.

Laws are checked at points: two maps out of x are equal iff they agree
at every point (generalized element) of x, and the generic point id_x is
enough.  points(x), at(f), pairs(f, g, among) (the fibre product's points
as pairs, None if there is none; given among, only the pairs whose right
factor is among those points of g's source) and operation(square, f)
serve this.  The operation is a table m with m[a, b] = f at the apex's
point over (a, b), f . into_pullback(square, a, b), and a pair that does
not factor raises ValueError.  FinSetCat's points are the elements, so a
law is dict lookups and builds no map: its operation is a dict built once
from the legs and f.  TableCategory's one point is the generic point,
where a law compares composites: its operation composes f with the
mediator on first use.  The apex of FinSetCat.pullback is the set of
pairs (a, b); any other square may name its apex elements otherwise, so
callers read the elements of a square they did not build through its
legs and operation.

TableCategory alone also answers the two sieve questions that
universality, locality and continuity ask: into(x), the morphisms with
target x, and through(f), the sieve f generates with a witness factor for
each member; and coproduct_families(x), the coproduct cocones into x that
the extensive topology covers by (or only their prefix-minimal ones, which
is_superextensive reads where T is closed under supersets), and smallest_coproduct_family(x,
sources), the one a dense image needs; and from_coproduct, the mediator out
of a coproduct.  FinSetCat has none of these: its hom sets are enumerated
lazily, and no caller asks these questions of the ambient.  through(f),
from_coproduct and into_pullback read their factors off the cone index.

Every derived table category (catalog's poset, finite-set and table-copy
fixtures, sheaf's presheaf fragment, the slice category F/y) is built by
_generated, which applies a composition rule at each composable pair.  F/y
is built here once per functor and object: the record F._slices[y] (a
_Slice) holds its objects, their positions and its morphisms, read by
slice_category and, as a limit diagram, by sheaf's right Kan extension, its
unit and counit, verify_adjunction and the Yoneda check (Mac Lane, CWM X.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from operator import eq, le, mul
from sys import maxsize
from typing import Any, NamedTuple, Optional

ObjId = Any
MorId = Any


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    check: str
    witness: Optional[dict] = None
    counterexample: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PullbackSquare:
    """A chosen fibre product of a cospan (f: A -> X, g: B -> X).

    to_left : apex -> A,  to_right : apex -> B, with f . to_left = g . to_right.
    """

    apex: ObjId
    to_left: MorId
    to_right: MorId
    f: MorId
    g: MorId


@dataclass(frozen=True)
class CoproductCocone:
    apex: ObjId
    injections: tuple


@dataclass(frozen=True)
class CoequalizerCocone:
    apex: ObjId
    quotient: MorId


class _ConeSide(NamedTuple):
    """The per-object part of the cone index, for cones or for cocones."""

    sig: dict  # object -> its hom counts (|hom(Q, x)|)_Q, or (|hom(x, Q)|)_Q
    apexes: dict  # hom counts -> the objects with them, in object order
    sep: frozenset  # a separating (cones) or coseparating (cocones) set of objects
    multi: dict  # object -> the (Q, count) with Q in sep and count > 1


class TableCategory:
    """A finite category given by explicit tables.

    morphisms: dict MorId -> (src, tgt)
    identity:  dict ObjId -> MorId
    comp:      dict (g, f) -> g.f  for every composable pair (f first)

    The constructor alone decides that the tables are well typed: it raises
    ValueError, naming the offending row, unless the objects are distinct,
    every endpoint names a declared object, every object has one identity
    row x -> x, and comp has one row per composable pair whose composite
    goes from src f to tgt g, so compose is total and typed.
    validate_category checks the laws: the identity laws and associativity.

    The tables are immutable after construction: hom sets are built once,
    the cone index and the orbits of into(x) under precomposition with
    isos (_orbits) on first use, and pullbacks and universality are
    memoized per category, universality for a whole orbit at once, as no
    verdict changes when a morphism is precomposed with an iso.  through,
    into_pullback and from_coproduct read factors off the cone index.
    """

    backend = "explicit-table"

    def __init__(self, objects, morphisms, identity, comp, name=""):
        self.name = name
        self.objects = tuple(objects)
        self._mor = mor = dict(morphisms)
        self._identity = dict(identity)
        self._comp = comp = dict(comp)
        into, out, hom = {x: [] for x in self.objects}, dict.fromkeys(self.objects, 0), {}
        if len(into) != len(self.objects):
            seen = set()
            repeat = next(x for x in self.objects if x in seen or seen.add(x))
            raise ValueError(f"objects repeat the id {repeat!r}")
        for m, (a, b) in mor.items():
            if a not in out or b not in into:
                raise ValueError(f"morphism {m!r} has an unknown endpoint")
            out[a] += 1
            into[b].append(m)
            hom.setdefault((a, b), []).append(m)
        for x, i in self._identity.items():
            if x not in into or mor.get(i) != (x, x):
                raise ValueError(f"identity row {[x, i]!r} is not a declared morphism {x!r} -> {x!r}")
        if len(self._identity) != len(into):
            x = next(x for x in self.objects if x not in self._identity)
            raise ValueError(f"object {x!r} has no identity row")
        # every parse runs this loop: endpoints are unpacked, no tuple is built per row
        try:
            for (g, f), gf in comp.items():
                a, b = mor[f]
                c, d = mor[g]
                e, h = mor[gf]
                if b != c:
                    raise ValueError(f"composition row {[g, f, gf]!r} names a non-composable pair")
                if e != a or h != d:
                    raise ValueError(
                        f"composition row {[g, f, gf]!r} has a composite {e!r} -> {h!r},"
                        f" not {a!r} -> {d!r}"
                    )
        except KeyError:
            raise ValueError(f"composition row {[g, f, gf]!r} names an unknown id") from None
        if len(comp) != sum(len(into[x]) * out[x] for x in into):
            pair = next(
                (g, f) for f in mor for g in mor if mor[g][0] == mor[f][1] and (g, f) not in comp
            )
            raise ValueError(f"composable pair {pair!r} has no composition row")
        self._into = {x: tuple(ms) for x, ms in into.items()}
        self._hom = {key: tuple(sorted(ms, key=repr)) for key, ms in hom.items()}
        self._isos = None
        self._orbit_tables = {}
        self._pullbacks = {}
        self._universal = {}
        self._composite_tables = ({}, {})
        self._fibre_tables = {}

    # -- structure access ------------------------------------------------

    def morphisms(self):
        return list(self._mor)

    def src(self, f):
        return self._mor[f][0]

    def tgt(self, f):
        return self._mor[f][1]

    def identity(self, x):
        try:
            return self._identity[x]
        except KeyError:
            raise ValueError(f"object {x!r} has no identity") from None

    def compose(self, g, f):
        """g after f."""
        if self.src(g) != self.tgt(f):
            raise ValueError(f"not composable: {g!r} after {f!r}")
        return self._comp[(g, f)]

    def hom(self, a, b):
        """The morphisms a -> b, sorted by repr."""
        return self._hom.get((a, b), ())

    def into(self, x):
        """The morphisms with target x, in table order."""
        return self._into[x]

    def through(self, f):
        """The sieve f generates, with witnesses: each composite f.rho maps
        to its first factor rho in hom (repr) order, in f's fibre at src rho."""
        return {m: us[0] for fib, _ in self._fibres(f).values() for m, us in fib.items()}

    def is_identity(self, f):
        return self._identity[self.src(f)] == f

    def _inverse(self, f):
        """The two-sided inverse of f, or None, read off the tables."""
        (a, b), comp = self._mor[f], self._comp
        ida, idb = self._identity[a], self._identity[b]
        for g in self._hom.get((b, a), ()):
            if comp[g, f] == ida and comp[f, g] == idb:
                return g
        return None

    def is_iso(self, f):
        return self._inverse(f) is not None

    def is_epi(self, f):
        """f is epi iff u -> u.f is injective on every hom(tgt f, Q): the
        injectivity half of the cocone test for the single leg f, read on
        hom(tgt f, s) for s in the coseparating set."""
        return self._injective(1, self.tgt(f), (f,))

    def isos(self):
        if self._isos is None:
            self._isos = frozenset(f for f in self._mor if self._inverse(f) is not None)
        return self._isos

    # -- orbits under precomposition with isos ---------------------------
    #
    # Composing the legs of a pullback of (f, g) with a^-1 and b^-1 gives
    # one of (f.a, g.b), a, b isos, so the classifications read one
    # representative per orbit (the module docstring).

    @cached_property
    def _isos_into(self):
        """Per object a, the isos into a other than id_a: empty where the
        only isos are identities."""
        isos_into = {}
        for a in self.isos():
            if not self.is_identity(a):
                isos_into.setdefault(self._mor[a][1], []).append(a)
        return isos_into

    def _orbits(self, x):
        """The orbits of into(x): the representatives, the first member of
        each orbit in table order, and a dict from each member of an orbit
        with more than one member to that orbit, a frozenset.  Built for x
        on first use; where the only isos are identities, every orbit is one
        morphism and nothing is built."""
        t = self._orbit_tables.get(x)
        if t is None:
            isos_into = self._isos_into
            if not isos_into:
                return self._into[x], {}
            comp, reps, orbit = self._comp, [], {}
            for f in self._into[x]:
                if f not in orbit:
                    reps.append(f)
                    o = frozenset([f, *[comp[f, a] for a in isos_into.get(self._mor[f][0], ())]])
                    if len(o) > 1:
                        orbit.update(dict.fromkeys(o, o))
            t = self._orbit_tables[x] = tuple(reps), orbit
        return t

    def _orbit(self, f):
        """The orbit of f: f.a for every iso a into src f."""
        return self._orbits(self._mor[f][1])[1].get(f, (f,))

    # -- limits / colimits by counted cones ------------------------------
    #
    # A cone (apex, legs) is terminal iff, for every object Q, composing
    # with the legs is a bijection hom(Q, apex) -> cones(Q).  That map
    # always lands in cones(Q), so it is a bijection iff it is injective
    # and |hom(Q, apex)| = |cones(Q)|.  Initial cocones are dual: side 0
    # below is cones, side 1 cocones.
    #
    # Every quantity the test reads comes from an index that is built
    # lazily, on first use, and cached on the category; the tables are
    # immutable after construction, so no entry can go stale.
    # - Per object x (_cone_index): its hom-count signature,
    #   (|hom(Q, x)|)_Q for cones and (|hom(x, Q)|)_Q for cocones; the
    #   objects with each signature, in object order; and the objects Q of
    #   a separating set (below) where that count exceeds 1.
    # - Per morphism h (_composites): for each Q, the composites h.u for u
    #   in hom(Q, src h), or u.h for u in hom(tgt h, Q), in hom order; and
    #   (_fibres) the fibres composite -> [u] of the first, with their
    #   sizes over hom(Q, tgt h).
    # The counts are computed without building a cone: over a cospan
    # (f, g) there are sum_x |f-fibre_Q(x)| * |g-fibre_Q(x)| cones at Q.
    # The apexes whose signature equals the counts are one dict lookup.
    # Candidate legs are generated only there, lazily, in lexicographic
    # order of their positions in hom order, and the first whose composite
    # tables are injective is returned; so the answer is the first terminal
    # cone in object order, then in that order of the legs.  Injectivity is
    # read only on the hom sets out of (into) a separating set S: if any two
    # distinct u, v: Q -> X differ after some e: s -> Q with s in S, then
    # legs injective on every hom(s, apex) are injective on every
    # hom(Q, apex), since u != v gives u.e != v.e and so leg.u.e != leg.v.e
    # for some leg (Mac Lane, CWM V.7); cocones read a coseparating set.  A
    # map out of a hom set with at most one element is injective, so of S
    # only the objects with more than one arrow are read; a poset has none.
    # The tables of the legs line up with hom(Q, apex) (or hom(apex, Q)):
    # the legs start (or end) at the apex by construction, or the public
    # entry point has checked that they do.

    @cached_property
    def _cone_index(self):
        hom, objs, index = self._hom, self.objects, []
        sigs = [
            {x: tuple([len(hom.get((q0, x), ())) for q0 in objs]) for x in objs},
            {x: tuple([len(hom.get((x, q0), ())) for q0 in objs]) for x in objs},
        ]
        for side, sig in enumerate(sigs):
            apexes = {}
            for x in objs:
                apexes.setdefault(sig[x], []).append(x)
            # the other side's signature of Q counts the arrows out of (into) Q
            sep = self._separating(side, sorted(objs, key=lambda x: sum(sig[x])), sigs[1 - side])
            multi = {
                x: [(q0, n) for q0, n in zip(objs, s) if n > 1 and q0 in sep] for x, s in sig.items()
            }
            index.append(_ConeSide(sig, apexes, sep, multi))
        return index

    def _separating(self, side, order, arrows):
        """A separating set (side 0) or coseparating set (side 1), chosen
        greedily along order: Q joins unless the objects chosen so far tell
        apart any two distinct arrows out of Q, u, v: Q -> X with u.e != v.e
        for some e: s -> Q.  Side 1 asks this of the opposite category,
        where the pair (a, b) is (b, a) here.  Q tells its own arrows apart
        (e = id_Q), so every object ends told apart.  arrows[Q] counts the
        arrows out of Q (into Q on side 1) to each object.  The order, fewest
        arrows first, keeps the set small: for finite sets it is {1} and
        {2}."""
        hom, comp, objs, sep = self._hom, self._comp, self.objects, []
        pair = (lambda a, b: (a, b)) if side == 0 else (lambda a, b: (b, a))
        for q in order:
            probes = [e for s in sep for e in hom.get(pair(s, q), ())]
            for x, n in zip(objs, arrows[q]):
                if n > 1 and len({tuple([comp[pair(u, e)] for e in probes]) for u in hom[pair(q, x)]}) < n:
                    sep.append(q)
                    break
        return frozenset(sep)

    def _composites(self, side, h):
        """Per object Q: (h.u for u in hom(Q, src h)) on side 0, (u.h for u
        in hom(tgt h, Q)) on side 1, in hom order."""
        tables = self._composite_tables[side]
        t = tables.get(h)
        if t is None:
            comp, hom = self._comp, self._hom
            if side == 0:
                a = self._mor[h][0]
                t = {q0: tuple([comp[h, u] for u in hom.get((q0, a), ())]) for q0 in self.objects}
            else:
                b = self._mor[h][1]
                t = {q0: tuple([comp[u, h] for u in hom.get((b, q0), ())]) for q0 in self.objects}
            tables[h] = t
        return t

    def _fibres(self, h):
        """Per object Q: the fibres x -> [u] of u -> h.u over hom(Q, src h),
        in hom order, and their sizes for x in hom(Q, tgt h)."""
        t = self._fibre_tables.get(h)
        if t is None:
            (a, b), hom = self._mor[h], self._hom
            t = self._fibre_tables[h] = {}
            for q0, row in self._composites(0, h).items():
                fib = {}
                for u, x in zip(hom.get((q0, a), ()), row):
                    fib.setdefault(x, []).append(u)
                t[q0] = fib, tuple([len(fib.get(x, ())) for x in hom.get((q0, b), ())])
        return t

    def _injective(self, side, apex, legs):
        """Whether composing with the legs is injective on every hom(Q, apex)
        (side 0) or hom(apex, Q) (side 1): on hom(s, apex) (hom(apex, s))
        for s in the separating (coseparating) set, by the argument above."""
        multi = self._cone_index[side].multi[apex]
        tables = [self._composites(side, leg) for leg in legs] if multi else ()
        for q0, n in multi:
            if len(set(zip(*[t[q0] for t in tables]))) != n:
                return False
        return True

    def _fits(self, side, apex, counts):
        return self._cone_index[side].sig.get(apex) == counts

    def _first(self, side, counts, candidates):
        """The first terminal (side 0) or initial (side 1) (apex, legs) with
        these counts: apexes in object order, the legs in the order
        candidates(apex) yields them.  None if there is none."""
        for apex in self._cone_index[side].apexes.get(counts, ()):
            for legs in candidates(apex):
                if self._injective(side, apex, legs):
                    return apex, legs
        return None

    def _cospan_counts(self, f, g):
        F, G = self._fibres(f), self._fibres(g)
        return tuple([sum(map(mul, F[q0][1], G[q0][1])) for q0 in self.objects])

    def _cospan_legs(self, f, g, apex):
        """The cones (p, q) at apex with f.p = g.q: p in hom order, then q.
        A p is passed over where no q can make the pair injective on
        hom(s, apex), s in the separating set: there u -> q.u must tell
        apart the u in each fibre of u -> p.u, and it maps the fibre over a
        into g's fibre over f.a, so with the counts fitting, the two
        fibres must have one size for every a in hom(s, src f)."""
        F, G, fibres = self._composites(0, f), self._fibres(g), self._fibres
        sizes = [
            (q0, tuple([len(G[q0][0].get(x, ())) for x in F[q0]]))
            for q0, _ in self._cone_index[0].multi[apex]
        ]
        fib = G[apex][0]
        return (
            (p, q)
            for p, x in zip(self._hom.get((apex, self._mor[f][0]), ()), F[apex])
            if x in fib and all(fibres(p)[q0][1] == n for q0, n in sizes)
            for q in fib[x]
        )

    def _coequalizing_counts(self, f, g):
        F, G = self._composites(1, f), self._composites(1, g)
        return tuple([sum(map(eq, F[q0], G[q0])) for q0 in self.objects])

    def _coproduct_counts(self, objs):
        sig, counts = self._cone_index[1].sig, (1,) * len(self.objects)
        for o in objs:
            counts = tuple(map(mul, counts, sig[o]))
        return counts

    def pullback(self, f, g):
        key = (f, g)
        if key not in self._pullbacks:
            if self.tgt(f) != self.tgt(g):
                raise ValueError("pullback needs a cospan")
            found = self._first(
                0, self._cospan_counts(f, g), lambda apex: self._cospan_legs(f, g, apex)
            )
            self._pullbacks[key] = (
                None if found is None else PullbackSquare(found[0], *found[1], f, g)
            )
        return self._pullbacks[key]

    def into_pullback(self, square, a, b):
        """The unique u with to_left.u = a and to_right.u = b, read off their
        fibres; ValueError if none, or if the legs do not start at the apex."""
        z, apex = self.src(a), square.apex
        if self.src(b) != z:
            raise ValueError("legs must share a source")
        if self.src(square.to_left) != apex or self.src(square.to_right) != apex:
            raise ValueError("the legs of the square do not start at its apex")
        over_b = self._fibres(square.to_right)[z][0].get(b, ())
        for u in self._fibres(square.to_left)[z][0].get(a, ()):
            if u in over_b:
                return u
        raise ValueError("mediating morphism into fibre product not found")

    def product(self, a, b):
        """Binary product as a PullbackSquare-shaped pair of projections."""
        sig = self._cone_index[0].sig
        found = self._first(
            0,
            tuple(map(mul, sig[a], sig[b])),
            lambda apex: iproduct(self.hom(apex, a), self.hom(apex, b)),
        )
        return None if found is None else PullbackSquare(found[0], *found[1], None, None)

    def coproduct(self, objs):
        objs = tuple(objs)
        found = self._first(
            1,
            self._coproduct_counts(objs),
            lambda apex: iproduct(*(self.hom(o, apex) for o in objs)),
        )
        return None if found is None else CoproductCocone(*found)

    def is_coproduct_cocone(self, apex, legs):
        """Whether the legs, all ending at apex, form an initial cocone
        under their sources."""
        legs = tuple(legs)
        if any(self.tgt(leg) != apex for leg in legs):
            return False
        counts = self._coproduct_counts(tuple(self.src(leg) for leg in legs))
        return self._fits(1, apex, counts) and self._injective(1, apex, legs)

    def coproduct_families(self, x, prefix_minimal=False):
        """Every set of morphisms into x that are the legs of a coproduct
        cocone, that is, every subset of into(x) that is_coproduct_cocone
        accepts.  Given prefix_minimal, only those no proper prefix of whose
        legs, in repr order, is one: every coproduct family contains the
        first prefix of its own legs that is, so every coproduct family
        contains one of these."""
        ms, out = sorted(self._into[x], key=repr), set()
        self._families(x, ms, len(ms), out.add, prefix_minimal)
        return out

    def smallest_coproduct_family(self, x, sources):
        """The coproduct family into x with the fewest legs, all starting at
        objects in sources, ties broken by the reprs of the legs in repr
        order: its legs in repr order, or None if there is none.  Families
        are searched with at most 0, 1, 2, ... legs, up to the first bound
        that finds one or cuts no branch; a smaller family would have been
        found under a smaller bound."""
        ms = sorted((m for m in self._into[x] if self._mor[m][0] in sources), key=repr)
        for most in range(len(ms) + 1):
            found = []
            if not self._families(x, ms, most, found.append) or found:
                break
        return sorted(found[0], key=repr) if found else None

    def _families(self, x, ms, most, keep, stop=False):
        """Call keep on each coproduct family into x of at most `most` legs
        drawn from the morphisms ms, as the frozenset of its legs, in
        lexicographic order of their positions in ms; return whether a
        branch was cut for reaching `most` legs.  Given stop, a branch whose
        legs are a family is not grown further.

        Legs are chosen one at a time in ms order, carrying the cocone
        counts prod_i |hom(src_i, Q)| for every object Q, which must end
        equal to |hom(x, Q)|.  Adding a leg multiplies each count by a whole
        number, so a leg from an object with no arrow to some Q with
        |hom(x, Q)| > 0 is never chosen, and a branch whose count at such a
        Q exceeds |hom(x, Q)| can never match again and is cut.  A set whose
        counts all match needs only the injectivity half of the test."""
        sig = self._cone_index[1].sig
        want = sig[x]
        cap = tuple([n or maxsize for n in want])  # no bound where |hom(x, Q)| = 0
        live = [k for k, n in enumerate(want) if n]
        rows = [(m, sig[self._mor[m][0]]) for m in ms]
        rows = [(m, row) for m, row in rows if all(row[k] for k in live)]
        cut = []

        def grow(start, legs, counts, room):
            if counts == want and self._injective(1, x, legs):
                keep(frozenset(legs))
                if stop:
                    return
            for j in range(start, len(rows)):
                m, row = rows[j]
                nxt = tuple(map(mul, counts, row))
                if all(map(le, nxt, cap)):
                    if not room:
                        cut.append(legs)
                        return
                    grow(j + 1, legs + (m,), nxt, room - 1)

        grow(0, (), (1,) * len(want), most)
        return bool(cut)

    def from_coproduct(self, cocone, legs):
        """The unique u with u . inj_i = legs[i], one leg per injection, or
        None, read off the tables of the injections' composites."""
        legs = tuple(legs)
        if not cocone.injections:
            raise ValueError("need a codomain for the empty cocone mediator")
        z = self.tgt(legs[0])
        rows = zip(*[self._composites(1, i)[z] for i in cocone.injections])
        return next((u for u, row in zip(self.hom(cocone.apex, z), rows) if row == legs), None)

    def coequalizer(self, f, g):
        if self._mor[f][0] != self._mor[g][0] or self._mor[f][1] != self._mor[g][1]:
            raise ValueError("coequalizer needs a parallel pair")
        F, G, b = self._composites(1, f), self._composites(1, g), self._mor[f][1]
        found = self._first(
            1,
            self._coequalizing_counts(f, g),
            lambda apex: [(q,) for q, x, y in zip(self.hom(b, apex), F[apex], G[apex]) if x == y],
        )
        return None if found is None else CoequalizerCocone(found[0], found[1][0])

    def is_cocone_coequalizer(self, f, g, apex, q):
        """Whether (apex, q) is an initial cocone for the parallel pair."""
        # q.f = q.g makes f, g parallel and ending at the source of q
        if self.compose(q, f) != self.compose(q, g) or self.tgt(q) != apex:
            return False
        return self._fits(1, apex, self._coequalizing_counts(f, g)) and self._injective(1, apex, (q,))

    def is_cone_pullback(self, f, g, apex, p, q):
        """Whether (apex, p, q) is a terminal cone over the cospan (f, g)."""
        # f.p = g.q makes (f, g) a cospan and p, q share a source
        if self.compose(f, p) != self.compose(g, q) or self.src(p) != apex:
            return False
        return self._fits(0, apex, self._cospan_counts(f, g)) and self._injective(0, apex, (p, q))

    def has_all_pullbacks(self):
        return False

    # -- points: the generic point id_x alone --------------------------------

    def points(self, x):
        return (self.identity(x),)

    def at(self, f):
        return lambda e: self.compose(f, e)

    def pairs(self, f, g, among=None):
        """The generic point of the fibre product, or None if there is none;
        g's source has one point, the one that among holds when given."""
        P = self.pullback(f, g)
        return None if P is None else ((P.to_left, P.to_right),)

    def operation(self, square, f):
        return _MediatedOperation(self, square, f)


class _MediatedOperation(dict):
    """TableCategory.operation: m[a, b] = f . into_pullback(square, a, b),
    composed on first use and kept; the tables never change."""

    __slots__ = ("_cat", "_square", "_f")

    def __init__(self, cat, square, f):
        self._cat, self._square, self._f = cat, square, f

    def __missing__(self, key):
        cat = self._cat
        value = self[key] = cat.compose(self._f, cat.into_pullback(self._square, *key))
        return value


class _Operation(dict):
    """FinSetCat.operation's table; a pair it lacks does not factor."""

    __slots__ = ()

    def __missing__(self, key):
        raise ValueError("legs do not factor through the given apex")


# ---------------------------------------------------------------------------
# Finite-sets ambient
# ---------------------------------------------------------------------------


class SetMap:
    """An extensional function between finite sets (frozensets).

    Construction checks the domain and codomain in O(|src|).  The hash,
    which few maps ever need, is computed on first use and cached.
    """

    __slots__ = ("src", "tgt", "mapping", "_hash")

    def __init__(self, src, tgt, mapping):
        src = frozenset(src)
        tgt = frozenset(tgt)
        mapping = dict(mapping)
        if not (len(mapping) == len(src) and src.issuperset(mapping)):
            bad = min(src.symmetric_difference(mapping), key=repr)
            raise ValueError(f"mapping domain mismatch at {bad!r}")
        if not tgt.issuperset(mapping.values()):
            bad = min(set(mapping.values()) - tgt, key=repr)
            raise ValueError(f"mapping codomain mismatch at {bad!r}")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("SetMap is immutable")

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, SetMap)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.mapping == other.mapping
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.src, self.tgt, frozenset(self.mapping.items()))))
        return self._hash

    def __repr__(self):
        items = sorted(self.mapping.items(), key=repr)
        return f"SetMap({items})"

    @staticmethod
    def ident(s):
        s = frozenset(s)
        return SetMap(s, s, {x: x for x in s})

    def after(self, other):
        if other.tgt is not self.src and other.tgt != self.src:
            raise ValueError("not composable")
        m = self.mapping
        return SetMap(other.src, self.tgt, {x: m[y] for x, y in other.mapping.items()})

    def is_surjective(self):
        return set(self.mapping.values()) == set(self.tgt)

    def is_injective(self):
        return len(set(self.mapping.values())) == len(self.mapping)

    def is_bijective(self):
        return self.is_surjective() and self.is_injective()

    def inverse(self):
        if not self.is_bijective():
            raise ValueError("not a bijection")
        return SetMap(self.tgt, self.src, {v: k for k, v in self.mapping.items()})


class FinSetCat:
    """The ambient category of finite sets and functions.

    Objects are frozensets, morphisms are SetMap values.  Limits and
    colimits are constructed directly; every morphism is universal here,
    and epi is the same as surjective.  A pullback cone is decided as the
    table kernel decides it, by the size of the fibre product, counted
    from the fibres of the cospan without listing it, and injectivity
    into it.
    """

    backend = "finite-sets-ambient"
    name = "FinSet"

    def src(self, f):
        return f.src

    def tgt(self, f):
        return f.tgt

    def identity(self, x):
        return SetMap.ident(x)

    def compose(self, g, f):
        return g.after(f)

    def hom(self, a, b):
        a = sorted(a, key=repr)
        if len(b) == 0 and len(a) > 0:
            return
        if len(b) ** len(a) > 1_000_000:
            raise ValueError("hom set too large to enumerate")
        for values in iproduct(sorted(b, key=repr), repeat=len(a)):
            yield SetMap(frozenset(a), frozenset(b), dict(zip(a, values)))

    def is_identity(self, f):
        return f.src == f.tgt and all(f(x) == x for x in f.src)

    def is_iso(self, f):
        return f.is_bijective()

    def is_epi(self, f):
        return f.is_surjective()

    def points(self, x):
        return x

    def at(self, f):
        return f.mapping.__getitem__

    def pairs(self, f, g, among=None):
        """The elements (a, b) of the pair-set fibre product with b among the
        given elements of B (default all), a-major, joined through g's
        fibres: O(|A| + |among| + |result|) for f: A -> X, g: B -> X."""
        if f.tgt != g.tgt:
            raise ValueError("pullback needs a cospan")
        gm = g.mapping
        fibres = {}
        for b, x in gm.items() if among is None else ((b, gm[b]) for b in among):
            fibres.setdefault(x, []).append(b)
        return [(a, b) for a, x in f.mapping.items() for b in fibres.get(x, ())]

    def pullback(self, f, g):
        apex = frozenset(self.pairs(f, g))
        p = SetMap(apex, f.src, {x: x[0] for x in apex})
        q = SetMap(apex, g.src, {x: x[1] for x in apex})
        return PullbackSquare(apex, p, q, f, g)

    def operation(self, square, f):
        """The table (a, b) -> f(z) for the z in the apex of any pullback
        square with (to_left(z), to_right(z)) = (a, b), built once in
        O(|apex|); a pair no z lies over raises ValueError."""
        apex = square.apex
        if not (square.to_left.src == square.to_right.src == f.src == apex):
            raise ValueError("the legs of the square and the map do not start at its apex")
        rm, fm = square.to_right.mapping, f.mapping
        return _Operation({(x, rm[z]): fm[z] for z, x in square.to_left.mapping.items()})

    def into_pullback(self, square, a, b):
        """The unique u with to_left.u = a and to_right.u = b, through an
        index of the apex built once."""
        if square.to_left.src != square.apex or square.to_right.src != square.apex:
            raise ValueError("the legs of the square do not start at its apex")
        if a.src != b.src:
            raise ValueError("legs must share a source")
        rm, bm = square.to_right.mapping, b.mapping
        index = {(x, rm[z]): z for z, x in square.to_left.mapping.items()}
        try:
            return SetMap(a.src, square.apex, {z: index[x, bm[z]] for z, x in a.mapping.items()})
        except KeyError:
            raise ValueError("legs do not factor through the given apex") from None

    def product(self, a, b):
        apex = frozenset((x, y) for x in a for y in b)
        p = SetMap(apex, a, {t: t[0] for t in apex})
        q = SetMap(apex, b, {t: t[1] for t in apex})
        return PullbackSquare(apex, p, q, None, None)

    def coproduct(self, objs):
        objs = tuple(objs)
        apex = frozenset((i, x) for i, o in enumerate(objs) for x in o)
        injections = tuple(
            SetMap(o, apex, {x: (i, x) for x in o}) for i, o in enumerate(objs)
        )
        return CoproductCocone(apex, injections)

    def coequalizer(self, f, g):
        if f.src != g.src or f.tgt != g.tgt:
            raise ValueError("coequalizer needs a parallel pair")
        # union-find over the codomain
        parent = {b: b for b in f.tgt}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in f.src:
            ra, rb = find(f(a)), find(g(a))
            if ra != rb:
                parent[ra] = rb
        classes = {}
        for b in f.tgt:
            classes.setdefault(find(b), set()).add(b)
        apex = frozenset(frozenset(c) for c in classes.values())
        lookup = {b: c for c in apex for b in c}
        q = SetMap(f.tgt, apex, lookup)
        return CoequalizerCocone(apex, q)

    def is_cocone_coequalizer(self, f, g, apex, q):
        """Whether (apex, q) is an initial cocone for the parallel pair: the
        mediator from the quotient by the generated equivalence is a bijection."""
        if q.after(f) != q.after(g) or q.tgt != apex:
            return False
        co = self.coequalizer(f, g)
        return SetMap(co.apex, apex, {c: q(next(iter(c))) for c in co.apex}).is_bijective()

    def is_cone_pullback(self, f, g, apex, p, q):
        """Whether (apex, p, q) is a terminal cone over the cospan (f, g) of
        f: A -> X and g: B -> X, decided by counting as TableCategory does,
        in O(|A| + |B| + |apex|), with neither the fibre product nor a
        composite map built.  The cone is terminal iff z -> (p(z), q(z)) is a
        bijection onto the pair-set fibre product F.  If the cone commutes,
        f(p z) = g(q z), every image lies in F; if the map is moreover
        injective and |apex| = |F| = sum over x of |f^-1 x| |g^-1 x|, its
        images fill F.  So: the size, then injectivity, then commuting at
        each image, which is commuting at each z once the map is injective."""
        if p.tgt != f.src or q.tgt != g.src:
            raise ValueError("not composable")
        if p.src != apex or q.src != apex or f.tgt != g.tgt:
            return False
        fm, gm = f.mapping, g.mapping
        fibre = {}
        for x in gm.values():
            fibre[x] = fibre.get(x, 0) + 1
        if sum(fibre.get(x, 0) for x in fm.values()) != len(apex):
            return False
        qm = q.mapping
        images = {(a, qm[z]) for z, a in p.mapping.items()}
        return len(images) == len(apex) and all(fm[a] == gm[b] for a, b in images)

    def has_all_pullbacks(self):
        return True


# ---------------------------------------------------------------------------
# Validation and classification
# ---------------------------------------------------------------------------


def validate_category(cat) -> CheckReport:
    """The identity laws and associativity; the constructor has checked the typing."""
    # identity laws
    for f in cat.morphisms():
        a, b = cat._mor[f]
        if cat.compose(f, cat.identity(a)) != f or cat.compose(cat.identity(b), f) != f:
            return CheckReport(False, "validate_category", counterexample={"identity_law": f})
    # associativity over composable triples
    by_src = {}
    for m, (a, b) in cat._mor.items():
        by_src.setdefault(a, []).append(m)
    for f in cat.morphisms():
        for g in by_src.get(cat.tgt(f), ()):
            gf = cat.compose(g, f)
            for h in by_src.get(cat.tgt(g), ()):
                if cat.compose(cat.compose(h, g), f) != cat.compose(h, gf):
                    return CheckReport(
                        False, "validate_category", counterexample={"associativity": (h, g, f)}
                    )
    return CheckReport(True, "validate_category")


def is_universal(cat, f) -> bool:
    """Whether the pullback of f along every morphism with the same target
    exists.  On a TableCategory, g ranges over one representative per orbit
    of into(tgt f) under precomposition with isos (TableCategory._orbits),
    as (f, g.b) has a pullback iff (f, g) has; the orbit of the identity,
    the isos, is skipped, as a pullback along an iso always exists.  The
    verdict is stored for f's whole orbit at once, as it is the verdict of
    each f.a."""
    if cat.has_all_pullbacks():
        return True
    if f not in cat._universal:
        isos = cat.isos()
        verdict = f in isos or all(
            cat.pullback(f, g) is not None for g in cat._orbits(cat.tgt(f))[0] if g not in isos
        )
        cat._universal.update(dict.fromkeys(cat._orbit(f), verdict))
    return cat._universal[f]


def is_effective_epi(cat, f) -> bool:
    """Whether the kernel pair exists and f coequalizes it."""
    kp = cat.pullback(f, f)
    if kp is None:
        return False
    return cat.is_cocone_coequalizer(kp.to_left, kp.to_right, cat.tgt(f), f)


def universally_effective_epis(cat) -> frozenset:
    """The universal effective epis all of whose pullbacks are universal
    effective epis, in one pass: the f in C0, the universal effective epis,
    whose legs pullback(f, g).to_right all lie in C0.  This class C1 is the
    greatest inside C0 closed under pullback.  Any such class lies in C1,
    and C1 is closed: for f in C1, the pullback along h of its leg along g
    is, by the pasting lemma, a pullback of f along g.h, so an iso over the
    base away from that leg, which is in C0; and such an iso changes
    neither effectiveness nor which pullbacks exist.  Effectiveness is
    tested before universality: it pulls back one kernel pair where
    universality pulls back along every morphism into the target.

    Both classes are read once per orbit under precomposition with isos
    (TableCategory._orbits), f and g alike.  Effective epis and universal
    morphisms are closed under composing with isos on either side, so C0
    is too; the leg of (f.a, g.b) is the leg of (f, g) composed with isos
    on both sides, so it lies in C0 iff that of (f, g) does."""
    c0, c1 = set(), set()
    for x in cat.objects:
        for f in cat._orbits(x)[0]:
            if is_effective_epi(cat, f) and is_universal(cat, f):
                c0.update(cat._orbit(f))
    for x in cat.objects:
        reps = cat._orbits(x)[0]
        for f in reps:
            if f in c0 and all(cat.pullback(f, g).to_right in c0 for g in reps):
                c1.update(cat._orbit(f))
    return frozenset(c1)


# ---------------------------------------------------------------------------
# Functors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctorData:
    """A functor between table categories, given by its maps on objects and
    morphisms.  The constructor alone decides that it is well typed: it
    raises ValueError unless every source object and morphism has an image
    in the target and F(m) goes from F(src m) to F(tgt m).
    validate_functor checks the laws: identities and composites."""

    source: Any
    target: Any
    obj_map: dict
    mor_map: dict
    name: str = ""

    def __post_init__(self):
        obj_map, mor_map, tmor = self.obj_map, self.mor_map, self.target._mor
        images = set(self.target.objects)
        for x in self.source.objects:
            if x not in obj_map:
                raise ValueError(f"no image for {x!r}")
            if obj_map[x] not in images:
                raise ValueError(f"image {obj_map[x]!r} of {x!r} is not in the target")
        for m, (a, b) in self.source._mor.items():
            if m not in mor_map:
                raise ValueError(f"no image for {m!r}")
            if tmor.get(mor_map[m]) != (obj_map[a], obj_map[b]):
                raise ValueError(
                    f"image {mor_map[m]!r} of {m!r} is not a target morphism"
                    f" {obj_map[a]!r} -> {obj_map[b]!r}"
                )

    def on_obj(self, x):
        return self.obj_map[x]

    def on_mor(self, f):
        return self.mor_map[f]

    @cached_property
    def _slices(self):
        """The slice categories F/y, each built once (_Slices)."""
        return _Slices(self)


def identity_functor(cat, name="id"):
    return FunctorData(
        cat,
        cat,
        {x: x for x in cat.objects},
        {f: f for f in cat.morphisms()},
        name=name,
    )


def compose_functors(g: FunctorData, f: FunctorData) -> FunctorData:
    return FunctorData(
        f.source,
        g.target,
        {x: g.on_obj(f.on_obj(x)) for x in f.obj_map},
        {m: g.on_mor(f.on_mor(m)) for m in f.mor_map},
        name=f"{g.name}.{f.name}",
    )


def validate_functor(F: FunctorData) -> CheckReport:
    src, tgt = F.source, F.target
    for x in src.objects:
        if F.on_mor(src.identity(x)) != tgt.identity(F.on_obj(x)):
            return CheckReport(False, "validate_functor", counterexample={"identity": x})
    for (g, f), gf in src._comp.items():
        if F.on_mor(gf) != tgt.compose(F.on_mor(g), F.on_mor(f)):
            return CheckReport(False, "validate_functor", counterexample={"composition": (g, f)})
    return CheckReport(True, "validate_functor")


def is_faithful(F: FunctorData) -> bool:
    src = F.source
    for a in src.objects:
        for b in src.objects:
            seen = {}
            for f in src.hom(a, b):
                im = F.on_mor(f)
                if im in seen:
                    return False
                seen[im] = f
    return True


def is_full(F: FunctorData) -> bool:
    src, tgt = F.source, F.target
    for a in src.objects:
        for b in src.objects:
            images = {F.on_mor(f) for f in src.hom(a, b)}
            for g in tgt.hom(F.on_obj(a), F.on_obj(b)):
                if g not in images:
                    return False
    return True


def _existing_binary_coproducts(cat, mode):
    """The (a, b, cocone) of the existing binary coproducts that the
    extensivity mode counts, pairs unordered, yielded lazily: mode 'literal'
    counts every one, mode 'disjoint' only those disjoint and stable under
    the pullbacks that exist, which needs the initial object (found once).
    An unknown mode raises ValueError on the call, before anything is read."""
    if mode not in ("literal", "disjoint"):
        raise ValueError(f"unknown extensivity mode {mode!r}")
    return _binary_coproducts(cat, mode == "disjoint")


def _binary_coproducts(cat, disjoint):
    if disjoint:
        init = cat.coproduct(())
        if init is None:
            return
    for i, a in enumerate(cat.objects):
        for b in cat.objects[i:]:
            co = cat.coproduct((a, b))
            if co is not None and not (disjoint and _coproduct_failure(cat, co, init.apex)):
                yield a, b, co


def _coproduct_failure(cat, co, initial):
    """Why the binary coproduct cocone co is not disjoint or not stable under
    the pullbacks that exist, as counterexample entries; None if it is both."""
    i1, i2 = co.injections
    sq = cat.pullback(i1, i2)
    if sq is None or not _isomorphic_objects(cat, sq.apex, initial):
        return {"reason": "not disjoint"}
    for f in cat.into(co.apex):
        s1, s2 = cat.pullback(i1, f), cat.pullback(i2, f)
        if s1 is None or s2 is None:
            return {"pullback_along": f}
        parts = cat.coproduct((s1.apex, s2.apex))
        if parts is None:
            return {"decomposition_along": f}
        u = cat.from_coproduct(parts, (s1.to_right, s2.to_right))
        if u is None or not cat.is_iso(u):
            return {"stability_along": f}
    return None


def coproduct_is_disjoint_stable(cat, co) -> bool:
    """Whether the given binary coproduct cocone is disjoint and stable
    under the pullbacks that exist."""
    init = cat.coproduct(())
    return init is not None and _coproduct_failure(cat, co, init.apex) is None


def preserves_coproducts(F: FunctorData, mode: str = "literal") -> bool:
    """Existing source coproducts map to coproduct cocones in the target.

    mode 'literal' quantifies over every existing source coproduct; mode
    'disjoint' only over the disjoint pullback-stable ones, as in the
    disjoint extensivity mode.
    """
    src, tgt = F.source, F.target
    coproducts = _existing_binary_coproducts(src, mode)
    init = src.coproduct(())
    if init is not None and not tgt.is_coproduct_cocone(F.on_obj(init.apex), ()):
        return False
    for _, _, co in coproducts:
        legs = tuple(F.on_mor(i) for i in co.injections)
        if not tgt.is_coproduct_cocone(F.on_obj(co.apex), legs):
            return False
    return True


def _isomorphic_objects(cat, a, b):
    return a == b or any(cat.is_iso(f) for f in cat.hom(a, b))


def inverts_coproducts(F: FunctorData) -> bool:
    """Full and faithful, and components of target decompositions of images
    are isomorphic to images of source objects."""
    if not (is_full(F) and is_faithful(F)):
        return False
    src, tgt = F.source, F.target
    images = {F.on_obj(x) for x in src.objects}

    def component_ok(c):
        return any(_isomorphic_objects(tgt, c, im) for im in images)

    coproducts = list(_existing_binary_coproducts(tgt, "literal"))
    for x in src.objects:
        fx = F.on_obj(x)
        for a, b, co in coproducts:
            if _isomorphic_objects(tgt, co.apex, fx):
                if not (component_ok(a) and component_ok(b)):
                    return False
    return True


def is_extensive(cat) -> CheckReport:
    """Initial object; existing binary coproducts disjoint and pullback-stable."""
    if isinstance(cat, FinSetCat):
        return CheckReport(True, "is_extensive", witness={"note": "finite sets"})
    init = cat.coproduct(())
    if init is None:
        return CheckReport(False, "is_extensive", counterexample={"initial_object": None})
    for a, b, co in _existing_binary_coproducts(cat, "literal"):
        failure = _coproduct_failure(cat, co, init.apex)
        if failure is not None:
            return CheckReport(
                False, "is_extensive", counterexample={"coproduct": (a, b, co.apex), **failure}
            )
    return CheckReport(True, "is_extensive")


# ---------------------------------------------------------------------------
# Derived table categories
# ---------------------------------------------------------------------------


def _generated(objects, morphisms, identity, compose, name):
    """The TableCategory whose composition table holds compose(g, f) at
    every composable pair: f in morphisms order, then g among the morphisms
    out of tgt f, in morphisms order.  morphisms maps each id to its
    (src, tgt); compose(g, f) names the composite g after f."""
    out = {}
    for m, (a, _) in morphisms.items():
        out.setdefault(a, []).append(m)
    comp = {(g, f): compose(g, f) for f, (_, b) in morphisms.items() for g in out.get(b, ())}
    return TableCategory(objects, morphisms, identity, comp, name=name)


class _Slice(NamedTuple):
    """The record of F/y: its objects (x, psi: F(x) -> y) in repr order,
    their positions, and its morphisms as triples (i, j, f), f: x_i -> x_j
    with psi_j . F(f) = psi_i, ordered by i, j and hom order; in a limit of
    P over F/y, (i, j, f) reads res_P[f](s[j]) == s[i]."""

    objects: tuple
    index: dict
    constraints: tuple


class _Slices(dict):
    """FunctorData._slices: y -> the _Slice F/y, built on first use and kept;
    the functor's tables never change."""

    __slots__ = ("_F",)

    def __init__(self, F):
        self._F = F

    def __missing__(self, y):
        F = self._F
        src, tgt = F.source, F.target
        objects = tuple(sorted(((x, psi) for x in src.objects for psi in tgt.hom(F.on_obj(x), y)), key=repr))
        constraints = tuple(
            (i, j, f)
            for i, (x1, p1) in enumerate(objects)
            for j, (x2, p2) in enumerate(objects)
            for f in src.hom(x1, x2)
            if tgt.compose(p2, F.on_mor(f)) == p1
        )
        value = self[y] = _Slice(objects, {o: k for k, o in enumerate(objects)}, constraints)
        return value


def slice_category(F: FunctorData, y):
    """The category F/y of pairs (x, psi: F(x) -> y), with its projection.
    Its objects and morphisms are those of the record F._slices[y], which
    sheaf's right Kan extension reads as a limit diagram."""
    src = F.source
    objects, _, constraints = F._slices[y]
    morphisms = {(objects[i], objects[j], f): (objects[i], objects[j]) for i, j, f in constraints}
    identity = {o: (o, o, src.identity(o[0])) for o in objects}

    def composite(m2, m1):
        return m1[0], m2[1], src.compose(m2[2], m1[2])

    cat = _generated(objects, morphisms, identity, composite, f"{F.name}/{y!r}")
    projection = FunctorData(
        cat,
        src,
        {o: o[0] for o in objects},
        {m: m[2] for m in morphisms},
        name="slice-projection",
    )
    return cat, projection
