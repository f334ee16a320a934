"""Reproducible fixtures: poset sites, finite-set skeletons, groupoids,
bundles, and presheaves used by the examples and the acceptance suite.

Everything here is generated by code; golden serialized copies live in the
test suite to detect drift.
"""

from __future__ import annotations

from itertools import product as iproduct

from .fincat import FinSetCat, FunctorData, SetMap, TableCategory, _generated
from .site import Pretopology

_FINSET = FinSetCat()


def finite_sets_ambient() -> FinSetCat:
    return _FINSET


# ---------------------------------------------------------------------------
# Poset sites from finite topological spaces
# ---------------------------------------------------------------------------


def open_poset(opens, names=None):
    """Poset category of a finite topology plus its open-cover pretopology.

    opens: iterable of frozensets, closed under union and intersection and
    containing the empty set and the total set.  Coverings of an open U are
    the sets of inclusions whose sources join to U; the empty family covers
    the empty open.
    """
    opens = sorted({frozenset(o) for o in opens}, key=lambda s: (len(s), sorted(map(repr, s))))
    total = frozenset().union(*opens) if opens else frozenset()
    if frozenset() not in opens or total not in opens:
        raise ValueError("finite topology must contain the empty and total sets")
    for a in opens:
        for b in opens:
            if a | b not in opens or a & b not in opens:
                raise ValueError("opens must be closed under union and intersection")
    if names is None:
        names = {o: "o" + "".join(sorted(map(str, o))) for o in opens}
    objects = [names[o] for o in opens]
    by_name = {names[o]: o for o in opens}
    morphisms = {}
    identity = {}
    for a in opens:
        for b in opens:
            if a <= b:
                mid = f"{names[a]}_to_{names[b]}"
                morphisms[mid] = (names[a], names[b])
                if a == b:
                    identity[names[a]] = mid
    cat = _generated(
        objects, morphisms, identity, lambda g, f: f"{morphisms[f][0]}_to_{morphisms[g][1]}", "open-poset"
    )

    fams = {x: set() for x in objects}
    for x in objects:
        target_open = by_name[x]
        incoming = [m for m in morphisms if morphisms[m][1] == x]
        for r in range(1 << len(incoming)):
            sel = [m for i, m in enumerate(incoming) if r >> i & 1]
            join = frozenset().union(*(by_name[morphisms[m][0]] for m in sel)) if sel else frozenset()
            if join == target_open:
                fams[x].add(frozenset(sel))
    T_op = Pretopology(cat, fams, name="T_op")
    return cat, T_op


def fix_v():
    """FIX-V: the diamond poset of opens of the 2-point discrete space."""
    e, u, v, x = frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
    names = {e: "oE", u: "oU", v: "oV", x: "oX"}
    cat, T_op = open_poset([e, u, v, x], names)
    cat.name = "FIX-V"
    return cat, T_op


def fix_s():
    """FIX-S: the chain of opens of the Sierpinski space."""
    e, a, x = frozenset(), frozenset({0}), frozenset({0, 1})
    names = {e: "oE", a: "oA", x: "oX"}
    cat, T_op = open_poset([e, a, x], names)
    cat.name = "FIX-S"
    return cat, T_op


def fix_b():
    """FIX-B: the full subcategory {oE, oU, oV} of FIX-V, with its inclusion."""
    big, _ = fix_v()
    keep = ("oE", "oU", "oV")
    morphisms = {m: st for m, st in big._mor.items() if st[0] in keep and st[1] in keep}
    identity = {x: big._identity[x] for x in keep}
    comp = {k: v for k, v in big._comp.items() if k[0] in morphisms and k[1] in morphisms}
    sub = TableCategory(keep, morphisms, identity, comp, name="FIX-B")
    incl = FunctorData(
        sub, big, {x: x for x in keep}, {m: m for m in morphisms}, name="B-into-V"
    )
    return sub, incl


# ---------------------------------------------------------------------------
# Finite-set skeletons and explicit-table copies of finite sets
# ---------------------------------------------------------------------------


def _fn_id(a, b, values):
    return f"n{a}>n{b}:" + ",".join(map(str, values))


def finset_skeleton(sizes):
    """Explicit-table category of the sets {0..k-1} for k in sizes, with all functions."""
    sizes = sorted(set(sizes))
    objects = [f"n{k}" for k in sizes]
    morphisms = {}
    identity = {}
    graphs = {}
    for a in sizes:
        for b in sizes:
            if a > 0 and b == 0:
                continue
            for values in iproduct(range(b), repeat=a) if b > 0 else [()]:
                mid = _fn_id(a, b, values)
                morphisms[mid] = (f"n{a}", f"n{b}")
                graphs[mid] = values
                if a == b and values == tuple(range(a)):
                    identity[f"n{a}"] = mid

    def composite(g, f):
        return _fn_id(len(graphs[f]), int(morphisms[g][1][1:]), tuple(graphs[g][i] for i in graphs[f]))

    return _generated(objects, morphisms, identity, composite, f"finset-skeleton{sizes}")


def fix_fs012():
    return finset_skeleton([0, 1, 2])


def skeleton_inclusion():
    """The inclusion of the size-at-most-1 skeleton into FIX-FS012."""
    big = fix_fs012()
    small = finset_skeleton([0, 1])
    incl = FunctorData(
        small,
        big,
        {x: x for x in small.objects},
        {m: m for m in small.morphisms()},
        name="skel01-into-fs012",
    )
    return small, big, incl


def table_copy(sets):
    """An explicit-table full subcategory of finite sets on the given carriers,
    the carrier s named "S" followed by the sorted reprs of its elements
    joined by "_".

    Returns (cat, obj_of_set, mor_of_map) where mor_of_map translates a
    SetMap between listed carriers into a table morphism id.
    """
    sets = list(dict.fromkeys(frozenset(s) for s in sets))
    names = {s: "S" + "_".join(sorted(map(repr, s))) for s in sets}
    seen = {}
    for s in sets:
        if names[s] in seen:
            raise ValueError("carrier names collide")
        seen[names[s]] = s
    objects = [names[s] for s in sets]
    morphisms = {}
    identity = {}
    maps = {}
    for a in sets:
        for b in sets:
            for f in _FINSET.hom(a, b):
                mid = (names[a], names[b], tuple(sorted(f.mapping.items(), key=repr)))
                morphisms[mid] = (names[a], names[b])
                maps[mid] = f
                if _FINSET.is_identity(f):
                    identity[names[a]] = mid
    mor_of_map = {v: k for k, v in maps.items()}
    cat = _generated(
        objects, morphisms, identity, lambda g, f: mor_of_map[maps[g].after(maps[f])], "table-copy"
    )
    cat.set_of_obj = seen
    cat.map_of_mor = maps
    return cat, {s: names[s] for s in sets}, mor_of_map


# ---------------------------------------------------------------------------
# Groupoid and bundle fixtures (finite-sets ambient)
# ---------------------------------------------------------------------------


def pair_groupoid(points, name=""):
    """The pair groupoid: one arrow (a, b) from b to a for all points a, b."""
    from . import internal

    X0 = frozenset(points)
    X1 = frozenset((a, b) for a in X0 for b in X0)
    return internal.make_groupoid(
        _FINSET, X0, X1, lambda m: m[1], lambda m: m[0], lambda x: (x, x),
        lambda g, h: (g[0], h[1]), lambda m: (m[1], m[0]), name=name,
    )


def cyclic_groupoid(n, name=""):
    """Z/n as a groupoid on the one object "*"."""
    from . import internal

    return internal.make_groupoid(
        _FINSET, {"*"}, range(n), lambda g: "*", lambda g: "*", lambda x: 0,
        lambda g, h: (g + h) % n, lambda g: -g % n, name=name,
    )


def standard_groupoids():
    """FIX-PAIR2, FIX-Z2GPD, FIX-TRIV1 and FIX-Z2BUNDLE."""
    from . import internal

    two, point = frozenset({0, 1}), frozenset({"*"})
    pair2 = pair_groupoid(two, "FIX-PAIR2")
    z2 = cyclic_groupoid(2, "FIX-Z2GPD")
    triv1 = cyclic_groupoid(1, "FIX-TRIV1")
    # the regular Z/2 action on a 2-element set over the point
    anchor = SetMap(two, point, {x: "*" for x in two})
    dom = _FINSET.pullback(anchor, z2.t)
    act = SetMap(dom.apex, two, {(x, g): x ^ g for (x, g) in dom.apex})
    z2bundle = internal.Bundle(z2, internal.RightAction(z2, two, anchor, act, dom), point, anchor)
    return {
        "FIX-PAIR2": pair2,
        "FIX-Z2GPD": z2,
        "FIX-TRIV1": triv1,
        "FIX-Z2BUNDLE": z2bundle,
    }


# ---------------------------------------------------------------------------
# Presheaf fixtures
# ---------------------------------------------------------------------------


def constant_presheaf(cat, elements=("a", "b"), name="K"):
    from .sheaf import Presheaf

    values = {x: tuple(elements) for x in cat.objects}
    restriction = {m: {e: e for e in elements} for m in cat.morphisms()}
    return Presheaf(cat, values, restriction, name=f"{name}{len(elements)}")


def k2(cat):
    return constant_presheaf(cat, ("a", "b"), name="K")


def shv():
    """The gluing presheaf on FIX-V: sections of the 2-point discrete space."""
    from .sheaf import Presheaf

    cat, T_op = fix_v()
    values = {
        "oE": ("*",),
        "oU": ("u0", "u1"),
        "oV": ("v0", "v1"),
        "oX": tuple((u, v) for u in ("u0", "u1") for v in ("v0", "v1")),
    }
    restriction = {}
    for m in cat.morphisms():
        a, b = cat._mor[m]
        res = {}
        for sec in values[b]:
            if a == b:
                res[sec] = sec
            elif a == "oE":
                res[sec] = "*"
            elif b == "oX":
                res[sec] = sec[0] if a == "oU" else sec[1]
            else:
                raise AssertionError
        restriction[m] = res
    return Presheaf(cat, values, restriction, name="SHV"), cat, T_op
