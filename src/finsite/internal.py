"""Groupoids, actions, principal bundles, bibundles and anafunctors
internal to an ambient category.

Structures are constructed elementwise in the finite-sets ambient, while
all validation goes through the ambient interface so that images under
ambient functors revalidate in explicit-table ambients as well.  The laws
are checked at the ambient's points (fincat): at every element for finite
sets, with no composite map built, and at the generic point, comparing
composites, for tables.

A fibre product is known only up to its universal property, so a square
handed in by the caller is read through its legs (amb.at(sq.to_left),
amb.at(sq.to_right)) and through amb.operation(sq, f), the table of f at the
apex's point over each pair, never by unpacking its apex elements as pairs.
Each law compares two lists of table reads, both read in full first, so a
pair that does not factor raises wherever it is, as composite maps do.
Constructors do unpack the squares they build themselves with amb.pullback,
whose apex FinSetCat documents as the pair set.  A groupoid's table of
comp on X2 is built once (InternalGroupoid._comp_table) and read by its
laws, its actions and the constructors over it.

Principality builds no P x_X P: the shear map (pr1, act) is an
isomorphism onto a chosen fibre product iff the action's domain with legs
(pr1, act) is itself a pullback of (p, p), one amb.is_cone_pullback,
which FinSetCat decides by counting.

Associativity is read at the points (w, k) of X3 = X2 x_{G0} X1 with k in a
set S of X1's points that generates X1 under comp (Light's test,
_generators): about 2 n^3 points for the pair groupoid on n points and 2 n^2
for Z/n, against n^4 and n^3 for all of X3.  A groupoid's laws are checked
once, on first use (InternalGroupoid._laws).  An action or bibundle over a
groupoid that breaks them fails with axiom "groupoid"; otherwise its
associativity square and actions-commute law are read at the h in S
likewise.  A table ambient's X1 has one point, so its S is that point and
its laws read what they always did.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Optional

from .fincat import CheckReport, FinSetCat, PullbackSquare, SetMap, is_universal
from . import site as _site
from .sheaf import _join


class InternalGroupoid:
    """A groupoid object: X1 over X0 with unit, composition and inverse.

    comp is defined on the chosen fibre product X2 = X1 x_{s,t} X1 whose
    left leg carries the outer factor (pairs (g, h) with s(g) = t(h),
    composite "g after h").
    """

    def __init__(self, ambient, X0, X1, s, t, i, comp, inv, X2, name=""):
        self.ambient, self.X0, self.X1, self.name = ambient, X0, X1, name
        self.s, self.t, self.i, self.comp, self.inv, self.X2 = s, t, i, comp, inv, X2

    def __repr__(self):
        return f"InternalGroupoid({self.name!r})"

    @functools.cached_property
    def _laws(self):
        """_groupoid_laws(self), computed once: the parts are fixed after
        construction."""
        return _groupoid_laws(self)

    @functools.cached_property
    def _comp_table(self):
        """The operation table of comp on X2, built once and read by the
        laws, the actions and the constructors over this groupoid."""
        return self.ambient.operation(self.X2, self.comp)

    @functools.cached_property
    def _opposite(self):
        """The opposite groupoid, built once, so that its laws are too."""
        amb = self.ambient
        X2op = amb.pullback(self.t, self.s)
        comp_op = amb.compose(self.comp, amb.into_pullback(self.X2, X2op.to_right, X2op.to_left))
        return InternalGroupoid(
            amb, self.X0, self.X1, self.t, self.s, self.i, comp_op, self.inv, X2op, name=f"{self.name}^op"
        )


def make_groupoid(ambient, X0, X1, s, t, i, comp, inv, name=""):
    """Build a finite-sets groupoid from elementwise python functions."""
    X0, X1 = frozenset(X0), frozenset(X1)
    s_m = SetMap(X1, X0, {g: s(g) for g in X1})
    t_m = SetMap(X1, X0, {g: t(g) for g in X1})
    i_m = SetMap(X0, X1, {x: i(x) for x in X0})
    X2 = ambient.pullback(s_m, t_m)
    comp_m = SetMap(X2.apex, X1, {(g, h): comp(g, h) for (g, h) in X2.apex})
    inv_m = SetMap(X1, X1, {g: inv(g) for g in X1})
    return InternalGroupoid(ambient, X0, X1, s_m, t_m, i_m, comp_m, inv_m, X2, name=name)


def _composable(amb, g, f):
    """Raise as amb.compose(g, f) would: laws checked at points compose no maps."""
    if amb.src(g) != amb.tgt(f):
        raise ValueError("not composable")


def _generators(G, C, s, t):
    """A list S of X1's points that generates X1 under comp, whose table C
    holds every composable pair, G.X2 being a fibre product of (s, t).  A
    point the closure of S so far does not reach joins S, in repr order of
    the points, so S does not depend on the hash seed; the closure grows
    by right-multiplying through C and lags one generator behind, so a
    single point, as in a table ambient, is read at no pair.

    Light's associativity test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1.2): the k with (g h) k = g (h k) for all composable g, h
    are closed under comp by that equation alone, so associativity holds at
    every k once it holds at every k in S."""
    S, reached, todo, by_target = [], set(), [], {}
    for k in sorted(G.ambient.points(G.X1), key=repr):
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo += [C[x, g] for g in by_target.get(s(x), ())]
        if k not in reached:
            S.append(k)
            by_target.setdefault(t(k), []).append(k)
            todo += [k, *(C[r, k] for r in reached if s(r) == t(k))]
    return S


def validate_groupoid(G) -> CheckReport:
    """The groupoid laws of G._laws, then the universality of s and t."""
    report, amb = G._laws[0], G.ambient
    if report and not (is_universal(amb, G.s) and is_universal(amb, G.t)):
        return CheckReport(False, "validate_groupoid", counterexample={"axiom": "source-target-universal"})
    return report


def _groupoid_laws(G):
    """validate_groupoid's report without the universality of s and t, and
    the S of _generators that it read associativity at (None if it stopped
    before).  The h at which an action of G is associative, or at which it
    commutes with an associative action on the other side, are closed under
    comp when G is a groupoid, so the action and bibundle laws read S too."""
    amb = G.ambient

    def fail(axiom, **data):
        return CheckReport(False, "validate_groupoid", counterexample={"axiom": axiom, **data}), None

    if amb.src(G.s) != G.X1 or amb.tgt(G.s) != G.X0:
        return fail("source-endpoints")
    if amb.src(G.t) != G.X1 or amb.tgt(G.t) != G.X0:
        return fail("target-endpoints")
    if not amb.is_cone_pullback(G.s, G.t, G.X2.apex, G.X2.to_left, G.X2.to_right):
        return fail("X2")
    if amb.src(G.comp) != G.X2.apex or amb.tgt(G.comp) != G.X1:
        return fail("comp-endpoints")
    s_pr2 = amb.compose(G.s, G.X2.to_right)
    s, t, i, comp, inv, pr1, pr2 = map(amb.at, (G.s, G.t, G.i, G.comp, G.inv, G.X2.to_left, G.X2.to_right))
    C = G._comp_table
    X0, X1 = amb.points(G.X0), amb.points(G.X1)
    S = _generators(G, C, s, t)
    X3 = amb.pairs(s_pr2, G.t, S)
    if X3 is None:
        return fail("X3")
    _composable(amb, G.s, G.i)
    if amb.src(G.i) != G.X0 or not all(s(i(x)) == x == t(i(x)) for x in X0):
        return fail("unit-section")
    _composable(amb, G.t, G.X2.to_left)
    if not all(s(comp(w)) == s(pr2(w)) and t(comp(w)) == t(pr1(w)) for w in amb.points(G.X2.apex)):
        return fail("comp-endpoints-compat")
    if [C[i(t(g)), g] for g in X1] != [*X1]:
        return fail("left-unit")
    if [C[g, i(s(g))] for g in X1] != [*X1]:
        return fail("right-unit")
    # at the points (w, k) of X3 = X2 x_{G0} X1 with k in S, (g h) k against g (h k) for w = (g, h)
    if [C[comp(w), k] for w, k in X3] != [C[pr1(w), C[pr2(w), k]] for w, k in X3]:
        return fail("associativity")
    _composable(amb, G.s, G.inv)
    if amb.src(G.inv) != G.X1 or not all(s(inv(g)) == t(g) and t(inv(g)) == s(g) for g in X1):
        return fail("inverse-endpoints")
    if [C[inv(g), g] for g in X1] != [i(s(g)) for g in X1]:
        return fail("left-inverse")
    if [C[g, inv(g)] for g in X1] != [i(t(g)) for g in X1]:
        return fail("right-inverse")
    return CheckReport(True, "validate_groupoid"), S


def opposite_groupoid(G) -> InternalGroupoid:
    return G._opposite


# ---------------------------------------------------------------------------
# Internal functors and weak equivalences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InternalFunctor:
    src_gpd: InternalGroupoid
    tgt_gpd: InternalGroupoid
    F0: Any
    F1: Any
    name: str = ""


def validate_internal_functor(F: InternalFunctor) -> CheckReport:
    G, H = F.src_gpd, F.tgt_gpd
    amb = G.ambient
    c = amb.compose

    def fail(what):
        return CheckReport(False, "validate_internal_functor", counterexample={"axiom": what})

    if amb.src(F.F0) != G.X0 or amb.tgt(F.F0) != H.X0:
        return fail("F0-endpoints")
    if amb.src(F.F1) != G.X1 or amb.tgt(F.F1) != H.X1:
        return fail("F1-endpoints")
    if c(H.s, F.F1) != c(F.F0, G.s) or c(H.t, F.F1) != c(F.F0, G.t):
        return fail("source-target")
    if c(F.F1, G.i) != c(H.i, F.F0):
        return fail("unit")
    both = amb.into_pullback(H.X2, c(F.F1, G.X2.to_left), c(F.F1, G.X2.to_right))
    if c(F.F1, G.comp) != c(H.comp, both):
        return fail("composition")
    return CheckReport(True, "validate_internal_functor")


def is_fully_faithful(F: InternalFunctor) -> bool:
    """The square over the pairs of endpoints is a pullback."""
    G, H = F.src_gpd, F.tgt_gpd
    amb = G.ambient
    c = amb.compose
    gg = amb.product(G.X0, G.X0)
    hh = amb.product(H.X0, H.X0)
    if gg is None or hh is None:
        raise ValueError("ambient lacks the products needed for fully-faithfulness")
    ts_h = amb.into_pullback(hh, H.t, H.s)
    f0f0 = amb.into_pullback(hh, c(F.F0, gg.to_left), c(F.F0, gg.to_right))
    q = amb.pullback(f0f0, ts_h)
    if q is None:
        return False
    return amb.is_iso(amb.into_pullback(q, amb.into_pullback(gg, G.t, G.s), F.F1))


def essential_surjectivity_map(F: InternalFunctor):
    G, H = F.src_gpd, F.tgt_gpd
    amb = G.ambient
    e = amb.pullback(F.F0, H.t)
    return amb.compose(H.s, e.to_right)


def is_essentially_surjective(F: InternalFunctor, T) -> bool:
    return _site.uni_contains(T, essential_surjectivity_map(F))


def is_weak_equivalence(F: InternalFunctor, T) -> bool:
    return is_fully_faithful(F) and is_essentially_surjective(F, T)


# ---------------------------------------------------------------------------
# Refinement groupoids G^pi
# ---------------------------------------------------------------------------


def refine_groupoid(G, pi) -> InternalGroupoid:
    """The groupoid G^pi on objects Y along pi: Y -> G0 (finite-sets ambient)."""
    amb = G.ambient
    if not isinstance(amb, FinSetCat):
        raise ValueError("refinement groupoids are constructed in the finite-sets ambient")
    Y = pi.src
    C = G._comp_table
    A = amb.pullback(pi, G.t)
    B = amb.pullback(amb.compose(G.s, A.to_right), pi)
    arrows = B.apex  # elements ((y1, g), y2) with pi(y1) = t(g), s(g) = pi(y2)
    s1 = SetMap(arrows, Y, {m: m[1] for m in arrows})
    t1 = SetMap(arrows, Y, {m: m[0][0] for m in arrows})
    i1 = SetMap(Y, arrows, {y: ((y, G.i(pi(y))), y) for y in Y})
    inv1 = SetMap(arrows, arrows, {m: ((m[1], G.inv(m[0][1])), m[0][0]) for m in arrows})
    X2 = amb.pullback(s1, t1)
    comp1 = SetMap(
        X2.apex,
        arrows,
        {
            (m1, m2): ((m1[0][0], C[m1[0][1], m2[0][1]]), m2[1])
            for (m1, m2) in X2.apex
        },
    )
    return InternalGroupoid(amb, Y, arrows, s1, t1, i1, comp1, inv1, X2, name=f"{G.name}^pi")


def refine_functor(F: InternalFunctor, Gpi: InternalGroupoid, pi) -> InternalFunctor:
    """Precompose a functor out of G with the projection G^pi -> G."""
    amb = F.src_gpd.ambient
    F0 = amb.compose(F.F0, pi)
    F1 = SetMap(Gpi.X1, F.tgt_gpd.X1, {m: F.F1(m[0][1]) for m in Gpi.X1})
    return InternalFunctor(Gpi, F.tgt_gpd, F0, F1, name=f"{F.name}^pi")


def refinement_to_base(G, Gpi: InternalGroupoid, pi) -> InternalFunctor:
    """The canonical weak equivalence G^pi -> G (object part pi)."""
    F1 = SetMap(Gpi.X1, G.X1, {m: m[0][1] for m in Gpi.X1})
    return InternalFunctor(Gpi, G, pi, F1, name="to-base")


def refinement_functor(G, rho, pi_prime) -> InternalFunctor:
    """For the triangle pi = pi' . rho, the functor G^pi -> G^{pi'}."""
    amb = G.ambient
    pi = amb.compose(pi_prime, rho)
    Gpi = refine_groupoid(G, pi)
    Gpi2 = refine_groupoid(G, pi_prime)
    F1 = SetMap(
        Gpi.X1, Gpi2.X1, {m: ((rho(m[0][0]), m[0][1]), rho(m[1])) for m in Gpi.X1}
    )
    return InternalFunctor(Gpi, Gpi2, rho, F1, name="refinement")


# ---------------------------------------------------------------------------
# Actions and principal bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RightAction:
    gpd: InternalGroupoid
    carrier: Any
    anchor: Any
    act: Any
    dom: PullbackSquare  # fibre product of (anchor, t)


@dataclass(frozen=True)
class LeftAction:
    gpd: InternalGroupoid
    carrier: Any
    anchor: Any
    act: Any
    dom: PullbackSquare  # fibre product of (s, anchor); elements (g, x)


def validate_action(a: RightAction) -> CheckReport:
    G = a.gpd
    amb = G.ambient

    def fail(what, **data):
        return CheckReport(False, "validate_action", counterexample={"axiom": what, **data})

    report, S = G._laws
    if not report:
        return fail("groupoid", groupoid=report.counterexample)
    if not amb.is_cone_pullback(a.anchor, G.t, a.dom.apex, a.dom.to_left, a.dom.to_right):
        return fail("domain")
    if amb.src(a.act) != a.dom.apex or amb.tgt(a.act) != a.carrier:
        return fail("act-endpoints")
    act, anchor, s, i, pr1, pr2 = map(amb.at, (a.act, a.anchor, G.s, G.i, a.dom.to_left, a.dom.to_right))
    _composable(amb, a.anchor, a.act)
    if not all(anchor(act(e)) == s(pr2(e)) for e in amb.points(a.dom.apex)):
        return fail("anchor-square")
    # at the points (e, h) of dom x_{G0} X1, (x g) h against x (g h) for e = (x, g), h in S
    D = amb.pairs(amb.compose(G.s, a.dom.to_right), G.t, S)
    if D is None:
        return fail("associativity-square")
    A, C = amb.operation(a.dom, a.act), G._comp_table
    if [A[act(e), h] for e, h in D] != [A[pr1(e), C[pr2(e), h]] for e, h in D]:
        return fail("associativity-square")
    # at the points x of the carrier, x 1_{anchor(x)} against x
    _composable(amb, G.i, a.anchor)
    X = amb.points(a.carrier)
    if [A[x, i(anchor(x))] for x in X] != [*X]:
        return fail("unit")
    return CheckReport(True, "validate_action")


def left_action_as_right(a: LeftAction):
    """A left action is a right action of the opposite groupoid: the same act on
    the same apex, whose square with its legs swapped is a fibre product of
    (anchor, s), that is of (anchor, t) of the opposite groupoid."""
    d = a.dom
    swapped = PullbackSquare(d.apex, d.to_right, d.to_left, d.g, d.f)
    return RightAction(opposite_groupoid(a.gpd), a.carrier, a.anchor, a.act, swapped)


@dataclass(frozen=True)
class Bundle:
    gpd: InternalGroupoid
    action: RightAction
    base: Any
    p: Any
    designated_pb: Optional[PullbackSquare] = None


def shear_map(B: Bundle):
    """The mediator (pr1, rho) into the chosen fibre product P x_X P."""
    amb = B.gpd.ambient
    rep = B.designated_pb
    pr1, act = B.action.dom.to_left, B.action.act
    if rep is None:
        rep = amb.pullback(B.p, B.p)
        if rep is None:
            raise ValueError("the fibre product P x_X P does not exist")
    return amb.into_pullback(rep, pr1, act)


def validate_principal_bundle(B: Bundle) -> CheckReport:
    """The action, then the projection: its endpoints, invariance,
    universality, the designated fibre product if any, and principality.

    B is principal when the shear map (pr1, act) into the chosen P x_X P is
    an isomorphism, that is when the cone (dom, pr1, act) over (p, p) is
    itself a pullback: the shear map is the mediator from that cone into a
    pullback, and a cone is terminal iff its mediator into a terminal one is
    an isomorphism.  So principality is one amb.is_cone_pullback, with no
    P x_X P built.  That fibre product always exists once universality has
    held, so no domain failure remains to report: without designated_pb a
    universal p has its kernel pair, and with it invariance makes the legs
    (pr1, act) factor through the designated square, checked a pullback."""
    G = B.gpd
    amb = G.ambient

    def fail(what):
        return CheckReport(False, "validate_principal_bundle", counterexample={"axiom": what})

    rep = validate_action(B.action)
    if not rep.ok:
        return rep
    if amb.src(B.p) != B.action.carrier or amb.tgt(B.p) != B.base:
        return fail("projection-endpoints")
    p, act, pr1 = map(amb.at, (B.p, B.action.act, B.action.dom.to_left))
    if not all(p(act(e)) == p(pr1(e)) for e in amb.points(B.action.dom.apex)):
        return fail("invariance")
    if not is_universal(amb, B.p):
        return fail("projection-universal")
    if B.designated_pb is not None:
        d = B.designated_pb
        if not amb.is_cone_pullback(B.p, B.p, d.apex, d.to_left, d.to_right):
            return fail("designated-fibre-product")
    dom = B.action.dom
    if not amb.is_cone_pullback(B.p, B.p, dom.apex, dom.to_left, B.action.act):
        return fail("shear-not-iso")
    return CheckReport(True, "validate_principal_bundle")


def trivial_bundle(G, psi) -> Bundle:
    """The trivial bundle I_psi = U x_{psi,t} G1 over U = src(psi)."""
    amb = G.ambient
    U = amb.src(psi)
    Q = amb.pullback(psi, G.t)
    P = Q.apex
    p = Q.to_left
    anchor = amb.compose(G.s, Q.to_right)
    dom = amb.pullback(anchor, G.t)
    inner = amb.into_pullback(G.X2, amb.compose(Q.to_right, dom.to_left), dom.to_right)
    act = amb.into_pullback(Q, amb.compose(p, dom.to_left), amb.compose(G.comp, inner))
    action = RightAction(G, P, anchor, act, dom)
    designated = PullbackSquare(dom.apex, dom.to_left, act, p, p)
    return Bundle(G, action, U, p, designated)


def groupoid_as_bundle(G) -> Bundle:
    """The target map t: G1 -> G0 with right translation is principal."""
    action = RightAction(G, G.X1, G.s, G.comp, G.X2)
    return Bundle(G, action, G.X0, G.t)


def pullback_bundle(f, B: Bundle) -> Bundle:
    amb = B.gpd.ambient
    if not isinstance(amb, FinSetCat):
        raise ValueError("bundle pullbacks are constructed in the finite-sets ambient")
    act_B = amb.operation(B.action.dom, B.action.act)
    Q = amb.pullback(f, B.p)
    carrier = Q.apex
    anchor = amb.compose(B.action.anchor, Q.to_right)
    dom = amb.pullback(anchor, B.gpd.t)
    act = SetMap(
        dom.apex,
        carrier,
        {((z, y), g): (z, act_B[y, g]) for ((z, y), g) in dom.apex},
    )
    action = RightAction(B.gpd, carrier, anchor, act, dom)
    return Bundle(B.gpd, action, f.src, Q.to_left)


# ---------------------------------------------------------------------------
# Local triviality, sections and trivializations
# ---------------------------------------------------------------------------


def is_locally_trivial(B: Bundle, T) -> CheckReport:
    w = _site.is_locally_split(T, B.p)
    if w is None:
        return CheckReport(False, "is_locally_trivial", counterexample={"projection": repr(B.p)})
    return CheckReport(True, "is_locally_trivial", witness={"covering": w.covering})


def sections_over(B: Bundle, pi):
    amb = B.gpd.ambient
    return [
        sigma
        for sigma in amb.hom(amb.src(pi), B.action.carrier)
        if amb.compose(B.p, sigma) == pi
    ]


@dataclass(frozen=True)
class Trivialization:
    psi: Any  # anchor U -> G0
    phi: Any  # I_psi carrier -> pulled-back carrier, over U and equivariant


def section_to_trivialization(B: Bundle, sigma, pi) -> Trivialization:
    amb = B.gpd.ambient
    G = B.gpd
    psi = amb.compose(B.action.anchor, sigma)
    I = trivial_bundle(G, psi)
    pulled = amb.pullback(pi, B.p)
    act = amb.operation(B.action.dom, B.action.act)
    phi = SetMap(
        I.action.carrier,
        pulled.apex,
        {(u, g): (u, act[sigma(u), g]) for (u, g) in I.action.carrier},
    )
    return Trivialization(psi, phi)


def trivialization_to_section(B: Bundle, triv: Trivialization, pi):
    amb = B.gpd.ambient
    G = B.gpd
    U = amb.src(pi)
    return SetMap(U, B.action.carrier, {u: triv.phi((u, G.i(triv.psi(u))))[1] for u in U})


def validate_trivialization(B: Bundle, triv: Trivialization, pi) -> bool:
    amb = B.gpd.ambient
    G = B.gpd
    if not triv.phi.is_bijective():
        return False
    I = trivial_bundle(G, triv.psi)
    pulled = pullback_bundle(pi, B)
    phi = triv.phi
    if any(phi((u, g))[0] != u for (u, g) in I.action.carrier):
        return False
    return all(
        phi(I.action.act(((u, g), h))) == pulled.action.act((phi((u, g)), h))
        for ((u, g), h) in I.action.dom.apex
    )


# ---------------------------------------------------------------------------
# Bibundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bibundle:
    """A left G-action and a right H-action on one carrier; G and H are
    left.gpd and right.gpd."""

    carrier: Any
    left: LeftAction
    right: RightAction
    designated_pb: Optional[PullbackSquare] = None


def right_bundle(P: Bibundle) -> Bundle:
    """The right structure as a principal bundle over G0 via the left anchor."""
    return Bundle(P.right.gpd, P.right, P.left.gpd.X0, P.left.anchor, P.designated_pb)


def validate_bibundle(P: Bibundle) -> CheckReport:
    """The left action, the right principal bundle over G0 (whose invariance
    is the left anchor ignoring the right action), the right anchor ignoring
    the left action, and the two actions commuting."""
    L, R, H = P.left, P.right, P.right.gpd
    amb = P.left.gpd.ambient

    def fail(what):
        return CheckReport(False, "validate_bibundle", counterexample={"axiom": what})

    rep = validate_action(left_action_as_right(L))
    if rep.ok:
        rep = validate_principal_bundle(right_bundle(P))
    if not rep.ok:
        return rep
    lact, ranchor, pr1, pr2 = map(amb.at, (L.act, R.anchor, L.dom.to_left, L.dom.to_right))
    if not all(ranchor(lact(e)) == ranchor(pr2(e)) for e in amb.points(L.dom.apex)):
        return fail("right-anchor-left-invariant")
    # at the points (e, h) of L.dom x_{H0} H1, (g x) h against g (x h) for e = (g, x), h in S
    D = amb.pairs(amb.compose(R.anchor, L.dom.to_right), H.t, H._laws[1])
    if D is None:
        return fail("actions-commute")
    LA, RA = amb.operation(L.dom, L.act), amb.operation(R.dom, R.act)
    if [RA[lact(e), h] for e, h in D] != [LA[pr1(e), RA[pr2(e), h]] for e, h in D]:
        return fail("actions-commute")
    return CheckReport(True, "validate_bibundle")


def bibundle_from_functor(F: InternalFunctor) -> Bibundle:
    """P_F = G0 x_{F0,t} H1, the trivial right H-bundle with anchor F0."""
    G, H = F.src_gpd, F.tgt_gpd
    amb = G.ambient
    if not isinstance(amb, FinSetCat):
        raise ValueError("bibundles are constructed in the finite-sets ambient")
    tb = trivial_bundle(H, F.F0)  # carrier {(a, h): F0(a) = t(h)}, base G0
    carrier = tb.action.carrier
    left_anchor = tb.p  # pr1: P -> G0
    ldom = amb.pullback(G.s, left_anchor)  # pairs (g, (a, h)) with s(g) = a
    comp = H._comp_table
    lact = SetMap(
        ldom.apex,
        carrier,
        {(g, (a, h)): (G.t(g), comp[F.F1(g), h]) for (g, (a, h)) in ldom.apex},
    )
    left = LeftAction(G, carrier, left_anchor, lact, ldom)
    return Bibundle(carrier, left, tb.action, tb.designated_pb)


# ---------------------------------------------------------------------------
# Anafunctors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Anafunctor:
    gpd_src: InternalGroupoid
    gpd_tgt: InternalGroupoid
    pi: Any  # Y -> G0, a member of Uni(T)
    functor: InternalFunctor  # G^pi -> H
    name: str = ""


def validate_anafunctor(A: Anafunctor, T) -> CheckReport:
    if not _site.uni_contains(T, A.pi):
        return CheckReport(
            False, "validate_anafunctor", counterexample={"axiom": "pi-not-in-Uni"}
        )
    return validate_internal_functor(A.functor)


def anafunctor_from_functor(F: InternalFunctor) -> Anafunctor:
    G = F.src_gpd
    amb = G.ambient
    pi = amb.identity(G.X0)
    Gid = refine_groupoid(G, pi)
    return Anafunctor(G, F.tgt_gpd, pi, refine_functor(F, Gid, pi), name=f"ana({F.name})")


def anafunctor_from_bibundle(P: Bibundle, T) -> Anafunctor:
    """Ana(P): the anafunctor of a locally trivial bibundle."""
    G, H = P.left.gpd, P.right.gpd
    amb = G.ambient
    pi = P.left.anchor
    if not _site.uni_contains(T, pi):
        raise ValueError("the bibundle is not locally trivial for this topology")
    Gpi = refine_groupoid(G, pi)
    # the inverse of the shear map onto the pair-set fibre product P x_{G0} P
    shear = amb.into_pullback(amb.pullback(pi, pi), P.right.dom.to_left, P.right.act)
    unshear, arrow = amb.at(shear.inverse()), amb.at(P.right.dom.to_right)
    lact = amb.operation(P.left.dom, P.left.act)
    # the arrow m = ((x1, g), x2) goes to the h with x1 h = g x2
    F1 = SetMap(Gpi.X1, H.X1, {m: arrow(unshear((m[0][0], lact[m[0][1], m[1]]))) for m in Gpi.X1})
    F = InternalFunctor(Gpi, H, P.right.anchor, F1, name="Ana")
    return Anafunctor(G, H, pi, F, name="Ana")


def is_weakly_invertible_anafunctor(A: Anafunctor, T) -> bool:
    return is_weak_equivalence(A.functor, T)


def anafunctor_transformations(A1: Anafunctor, A2: Anafunctor):
    """All natural transformations between two anafunctors G -> H,
    enumerated over the common refinement Z = Y x_{G0} Y'.  sheaf._join sets
    one component eta_z per z in repr order, ranging over the arrows
    F0_2(y') -> F0_1(y) of H, and checks each naturality square
    F1_1(m1) . eta_z2 == eta_z1 . F1_2(m2) as soon as both components are set."""
    G = A1.gpd_src
    H = A1.gpd_tgt
    comp = H._comp_table
    Z = G.ambient.pullback(A1.pi, A2.pi).apex  # pairs (y, y')
    F0_1, F1_1 = A1.functor.F0, A1.functor.F1
    F0_2, F1_2 = A2.functor.F0, A2.functor.F1
    zs = sorted(Z, key=repr)
    domains = [[h for h in H.X1 if H.t(h) == F0_1(y) and H.s(h) == F0_2(y2)] for y, y2 in zs]
    by_last = {}
    for i, (y1, y1_) in enumerate(zs):
        for j, (y2, y2_) in enumerate(zs):
            for g in G.X1:
                if G.t(g) != A1.pi(y1) or G.s(g) != A1.pi(y2):
                    continue
                f1 = F1_1(((y1, g), y2))
                f2 = F1_2(((y1_, g), y2_))
                lhs = {h: comp[f1, h] for h in domains[j]}
                rhs = {h: comp[h, f2] for h in domains[i]}
                by_last.setdefault(max(i, j), []).append((j, lhs, i, rhs))
    return [SetMap(frozenset(Z), H.X1, dict(zip(zs, t))) for t in _join(domains, by_last)]


def are_isomorphic_anafunctors(A1: Anafunctor, A2: Anafunctor) -> bool:
    return bool(anafunctor_transformations(A1, A2))


# ---------------------------------------------------------------------------
# Images under ambient functors
# ---------------------------------------------------------------------------


def map_groupoid(F, G: InternalGroupoid) -> InternalGroupoid:
    """Apply an ambient functor to a groupoid, carrying the fibre product."""
    return InternalGroupoid(
        F.target,
        F.on_obj(G.X0),
        F.on_obj(G.X1),
        F.on_mor(G.s),
        F.on_mor(G.t),
        F.on_mor(G.i),
        F.on_mor(G.comp),
        F.on_mor(G.inv),
        PullbackSquare(
            F.on_obj(G.X2.apex),
            F.on_mor(G.X2.to_left),
            F.on_mor(G.X2.to_right),
            F.on_mor(G.X2.f),
            F.on_mor(G.X2.g),
        ),
        name=f"{F.name}({G.name})",
    )

