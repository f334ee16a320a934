"""The indexed cone kernel of TableCategory against the cones-at-every-object
kernel in oracles: the same apex and the same legs, or None alike, for
pullbacks, products, coproducts and coequalizers, and the same verdicts for
is_cone_pullback, is_coproduct_cocone, is_cocone_coequalizer and is_epi."""

from itertools import product as iproduct

import oracles
from hypothesis import given, settings
from spaces import finite_spaces, open_sites

from finsite import catalog
from finsite.fincat import TableCategory


class _Id:
    """A morphism id with a chosen repr, equal only to itself."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


def _relabelled(cat):
    """cat with its k-th morphism in repr order renamed to an id whose repr
    is "m" and k // 2 spaces.  Pairs of ids share a repr, and each repr is
    a prefix of the next followed by a space, so repr order, the repr order
    of leg tuples ("(m , x)" < "(m, y)") and table order all disagree."""
    ids = {m: _Id("m" + " " * (k // 2)) for k, m in enumerate(sorted(cat.morphisms(), key=repr))}
    return TableCategory(
        cat.objects,
        {ids[m]: ends for m, ends in cat._mor.items()},
        {x: ids[i] for x, i in cat._identity.items()},
        {(ids[g], ids[f]): ids[gf] for (g, f), gf in cat._comp.items()},
        name=f"relabelled {cat.name}",
    )


def _picks(cones, found):
    """Every cone at the oracle's apex, and the first cone at each other
    object: (apex, legs) pairs to ask the verdict checks about."""
    for apex, legs_list in cones.items():
        for legs in legs_list if found and apex == found[0] else legs_list[:1]:
            yield apex, legs


def _check_cones(cat, arity=2):
    """Every cospan, parallel pair, morphism and pair of objects of cat, and
    every tuple of at most arity objects for coproducts."""
    oc = oracles.table_category(cat.objects, cat._mor, cat._comp)
    for f in cat.morphisms():
        for g in cat.into(cat.tgt(f)):
            cones = oracles.cospan_cones(oc, f, g)
            want = oracles.first_universal(oc, cones)
            sq = cat.pullback(f, g)
            assert (sq and (sq.apex, (sq.to_left, sq.to_right))) == want, (cat.name, f, g)
            for apex, (p, q) in _picks(cones, want):
                assert cat.is_cone_pullback(f, g, apex, p, q) == oracles.is_universal_cone(
                    oc, cones, apex, (p, q)
                ), (cat.name, f, g, apex, p, q)
        for g in cat.hom(cat.src(f), cat.tgt(f)):
            cocones = oracles.coequalizing_cocones(oc, f, g)
            want = oracles.first_universal(oc, cocones, initial=True)
            co = cat.coequalizer(f, g)
            assert (co and (co.apex, (co.quotient,))) == want, (cat.name, f, g)
            for apex, (q,) in _picks(cocones, want):
                assert cat.is_cocone_coequalizer(f, g, apex, q) == oracles.is_universal_cone(
                    oc, cocones, apex, (q,), initial=True
                ), (cat.name, f, g, apex, q)
        assert cat.is_epi(f) == oracles.is_epi(oc, f), (cat.name, f)
    for a, b in iproduct(cat.objects, repeat=2):
        sq = cat.product(a, b)
        want = oracles.first_universal(oc, oracles.product_cones(oc, a, b))
        assert (sq and (sq.apex, (sq.to_left, sq.to_right))) == want, (cat.name, a, b)
    for objs in (objs for n in range(arity + 1) for objs in iproduct(cat.objects, repeat=n)):
        cocones = oracles.coproduct_cocones(oc, objs)
        want = oracles.first_universal(oc, cocones, initial=True)
        co = cat.coproduct(objs)
        assert (co and (co.apex, co.injections)) == want, (cat.name, objs)
        for apex, legs in _picks(cocones, want):
            assert cat.is_coproduct_cocone(apex, legs) == oracles.is_universal_cone(
                oc, cocones, apex, legs, initial=True
            ), (cat.name, apex, legs)


def test_cone_kernel_matches_the_oracle_on_the_finset_skeletons():
    """FIX-FS012 and every cospan of the skeleton of {0..3}, whose hom sets
    have up to 27 arrows."""
    _check_cones(catalog.fix_fs012())
    _check_cones(catalog.finset_skeleton([0, 1, 2, 3]))


def test_cone_kernel_matches_the_oracle_where_orders_matter():
    """Finite sets with isomorphic carriers, where several objects have one
    hom-count signature and object order picks the apex, and the same
    category relabelled so that only the repr order of the legs picks them."""
    cat, _, _ = catalog.table_copy([(), (0,), (1,), (0, 1), (2, 3)])
    _check_cones(cat)
    _check_cones(_relabelled(cat), arity=3)


def test_cone_kernel_matches_the_oracle_on_open_posets():
    for _, cat, _, _ in open_sites():
        _check_cones(cat)


@settings(max_examples=30, deadline=None)
@given(finite_spaces())
def test_cone_kernel_matches_the_oracle_on_random_spaces(space):
    opens, _, _ = space
    cat, _ = catalog.open_poset(opens)
    _check_cones(cat)
