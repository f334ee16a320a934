"""Finite spaces shared by the test modules: the Hypothesis strategy of
random spaces with their sections presheaves, and the fixed open-cover
sites."""

import itertools

import oracles
from hypothesis import strategies as st

from finsite import catalog


def restrict(s, V):
    return tuple(p for p in s if p[0] in V)


@st.composite
def finite_spaces(draw):
    """A topology on at most 3 points, as the down-sets of a random
    preorder, with the sections presheaf of 1-3 values per point and the
    subpresheaf U -> {s|U : s in S} generated by a random set S of global
    sections; each presheaf is given as {open: sorted sections}."""
    pts = range(draw(st.integers(1, 3)))
    le = {(a, b) for a in pts for b in pts if a == b or draw(st.booleans())}
    for k in pts:
        le |= {(a, b) for a in pts for b in pts if (a, k) in le and (k, b) in le}
    subsets = [frozenset(p for p in pts if r >> p & 1) for r in range(1 << len(pts))]
    opens = [D for D in subsets if all(a in D for (a, b) in le if b in D)]
    sizes = [draw(st.integers(1, 3)) for _ in pts]

    def sections(U):
        U = sorted(U)
        return [tuple(zip(U, vs)) for vs in itertools.product(*(range(sizes[p]) for p in U))]

    full = {U: sections(U) for U in opens}
    S = draw(st.sets(st.sampled_from(full[subsets[-1]])))
    sub = {U: sorted({restrict(s, U) for s in S}) for U in opens}
    return opens, full, sub


def subsets(points):
    return [frozenset(s) for k in range(len(points) + 1) for s in itertools.combinations(points, k)]


def open_sites():
    """FIX-V, the six-open space, the discrete 3-point space and DOWN12, each
    with its open-cover topology and the open every object names."""
    cat, T = catalog.fix_v()
    yield "FIX-V", cat, T, dict(zip(("oE", "oU", "oV", "oX"), oracles.OPENS))
    six = [frozenset(s) for s in [(), (0,), (1,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]]
    down12 = [a | b for a in map(frozenset, [(), (0,), (0, 1)]) for b in subsets([2, 3])]
    for label, opens in (("six-open", six), ("discrete-3", subsets([0, 1, 2])), ("DOWN12", down12)):
        cat, T = catalog.open_poset(opens)
        yield label, cat, T, {x: frozenset(int(c) for c in x[1:]) for x in cat.objects}
