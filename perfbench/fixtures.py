"""Bundle files for the benchmark, built with finsite.catalog and written
with cli.serialize_bundle_doc.

Every object and morphism id of a generated fixture is renamed through a
bijection keyed by the workload seed, so different seeds give different
inputs with the same verdicts and the same sort order inside finsite.

Run as a script it is the benchmark's set-up step: a fresh interpreter
imports finsite, builds one workload's fixtures and writes its bundles.

    python3 perfbench/fixtures.py --workload site-ladder --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import types

from speed import SpeedSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def finsite_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "finsite", "__init__.py"))


def import_finsite():
    """Import finsite from this checkout's src/, never from elsewhere."""
    if not finsite_present():
        raise SystemExit(f"finsite sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from finsite import catalog, cli, internal, sheaf, site
    from finsite.fincat import FunctorData, SetMap

    return types.SimpleNamespace(
        catalog=catalog, cli=cli, internal=internal, sheaf=sheaf, site=site,
        FunctorData=FunctorData, SetMap=SetMap,
    )


# ---------------------------------------------------------------------------
# The seeded renaming
# ---------------------------------------------------------------------------


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def rename(seed: int, scope: str, value) -> str:
    """The new id of `value` (a JSON-encoded id) inside `scope` for `seed`.

    The new id is the old one (its repr, if not a string) followed by a
    space and a seeded hash.  No id contains a space, so sorting by repr,
    as finsite does, keeps every id in its place: finsite's early exits
    depend on that order, and a shuffled order changed the time of
    is_traditional_sheaf on SEC3 by 1.9x between seeds.
    """
    base = value if isinstance(value, str) else repr(_tuples(value))
    key = json.dumps([seed, scope, value], sort_keys=True).encode()
    return f"{base} {hashlib.sha256(key).hexdigest()[:8]}"


class _Renamer:
    """rename() memoized per document, refusing collisions."""

    def __init__(self, seed):
        self.seed = seed
        self.new = {}
        self.old = {}

    def __call__(self, scope, value):
        key = (scope, json.dumps(value))
        new = self.new.get(key)
        if new is None:
            new = self.new[key] = rename(self.seed, scope, value)
            if self.old.setdefault((scope, new), key) != key:
                raise ValueError(f"renaming collision in {scope!r} at {value!r}")
        return new


def rename_doc(wire: dict, seed: int) -> dict:
    """Rename every object and morphism id of a serialized bundle document.

    Structure names and presheaf elements are kept; categories are the
    scopes of their object and morphism ids, groupoids of their X0/X1
    elements and bundles of their carrier and base elements.
    """
    r = _Renamer(seed)
    out = {}
    cats = wire.get("categories", {})
    if cats:
        out["categories"] = {}
        for n, c in cats.items():
            out["categories"][n] = {
                "objects": [r(n, x) for x in c["objects"]],
                "morphisms": [[r(n, m), r(n, a), r(n, b)] for m, a, b in c["morphisms"]],
                "identity": [[r(n, x), r(n, m)] for x, m in c["identity"]],
                "composition": [[r(n, g), r(n, f), r(n, gf)] for g, f, gf in c["composition"]],
            }
    if "topologies" in wire:
        out["topologies"] = {
            n: {
                "category": t["category"],
                "families": [
                    [r(t["category"], x), [[r(t["category"], m) for m in fam] for fam in fams]]
                    for x, fams in t["families"]
                ],
            }
            for n, t in wire["topologies"].items()
        }
    if "functors" in wire:
        out["functors"] = {
            n: {
                "source": f["source"],
                "target": f["target"],
                "on_objects": [[r(f["source"], a), r(f["target"], b)] for a, b in f["on_objects"]],
                "on_morphisms": [
                    [r(f["source"], a), r(f["target"], b)] for a, b in f["on_morphisms"]
                ],
            }
            for n, f in wire["functors"].items()
        }
    if "presheaves" in wire:
        out["presheaves"] = {
            n: {
                "category": p["category"],
                "values": [[r(p["category"], x), vs] for x, vs in p["values"]],
                "restriction": [[r(p["category"], m), res] for m, res in p["restriction"]],
            }
            for n, p in wire["presheaves"].items()
        }
    if "groupoids" in wire:
        out["groupoids"] = {}
        for n, g in wire["groupoids"].items():
            o, a = (lambda v, n=n: r(n + "/X0", v)), (lambda v, n=n: r(n + "/X1", v))
            out["groupoids"][n] = {
                "X0": [o(x) for x in g["X0"]],
                "X1": [a(x) for x in g["X1"]],
                "s": [[a(k), o(v)] for k, v in g["s"]],
                "t": [[a(k), o(v)] for k, v in g["t"]],
                "i": [[o(k), a(v)] for k, v in g["i"]],
                "comp": [[a(x), a(y), a(z)] for x, y, z in g["comp"]],
                "inv": [[a(k), a(v)] for k, v in g["inv"]],
            }
    if "bundles" in wire:
        out["bundles"] = {}
        for n, b in wire["bundles"].items():
            g = b["groupoid"]
            p, x = (lambda v, n=n: r(n + "/P", v)), (lambda v, n=n: r(n + "/X", v))
            out["bundles"][n] = {
                "groupoid": g,
                "carrier": [p(e) for e in b["carrier"]],
                "anchor": [[p(k), r(g + "/X0", v)] for k, v in b["anchor"]],
                "action": [[p(e), r(g + "/X1", h), p(eh)] for e, h, eh in b["action"]],
                "base": [x(e) for e in b["base"]],
                "projection": [[p(k), x(v)] for k, v in b["projection"]],
            }
    return out


# ---------------------------------------------------------------------------
# Fixture builders: each returns a cli.BundleDoc
# ---------------------------------------------------------------------------


def _subsets(points):
    return [frozenset(s) for k in range(len(points) + 1) for s in itertools.combinations(points, k)]


# opens of finite spaces on 4 or 3 points (see the rungs in workloads.py)
SIX_OPENS = [frozenset(s) for s in [(), (0,), (1,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]]
DOWN12_OPENS = [a | b for a in map(frozenset, [(), (0,), (0, 1)]) for b in _subsets([2, 3])]
DISC3_OPENS = _subsets([0, 1, 2])


def _doc(cli, categories=(), topologies=(), functors=(), presheaves=()):
    doc = cli.BundleDoc()
    for n, c in categories:
        doc.categories[n] = c
    for n, T, cname in topologies:
        doc.topologies[n] = T
        doc.topology_cat[n] = cname
    for n, F in functors:
        doc.functors[n] = F
    for n, P in presheaves:
        doc.presheaves[n] = P
    return doc


def build_catalog(fs):
    """The catalog bundle plus the two topologies FIX-FS01 lacks."""
    doc = fs.cli.catalog_bundle()
    small = doc.categories["FIX-FS01"]
    doc.topologies["T_indis_FS01"] = fs.site.indiscrete_topology(small)
    doc.topology_cat["T_indis_FS01"] = "FIX-FS01"
    doc.topologies["T_dis_FS01"] = fs.site.discrete_topology(small)
    doc.topology_cat["T_dis_FS01"] = "FIX-FS01"
    return doc


def build_fs(fs):
    """finset_skeleton([0,1,2]) and ([0,1,2,3]) with their standard
    topologies, the inclusion, the representables of the larger one and
    the restriction of Yo_n3."""
    fs012 = fs.catalog.fix_fs012()
    fs0123 = fs.catalog.finset_skeleton([0, 1, 2, 3])
    incl = fs.FunctorData(
        fs012,
        fs0123,
        {x: x for x in fs012.objects},
        {m: m for m in fs012.morphisms()},
        name="fs012-into-fs0123",
    )
    tops = []
    for cname, cat, suffix in (("FS012", fs012, "012"), ("FS0123", fs0123, "")):
        tops.append((f"T_can{suffix}", fs.site.canonical_topology(cat), cname))
        tops.append((f"T_indis{suffix}", fs.site.indiscrete_topology(cat), cname))
        tops.append((f"T_dis{suffix}", fs.site.discrete_topology(cat), cname))
    reps = [(f"Yo_{x}", fs.sheaf.representable(fs0123, x)) for x in fs0123.objects]
    iyo = fs.sheaf.pullback_presheaf(incl, fs.sheaf.representable(fs0123, "n3"))
    return _doc(
        fs.cli,
        categories=[("FS012", fs012), ("FS0123", fs0123)],
        topologies=tops,
        functors=[("fs012-into-fs0123", incl)],
        presheaves=reps + [("iYo_n3", iyo)],
    )


def _open_site(fs, cname, tname, opens):
    cat, T = fs.catalog.open_poset(opens)
    return _doc(fs.cli, categories=[(cname, cat)], topologies=[(tname, T, cname)])


def build_six(fs):
    return _open_site(fs, "SIX", "T_six", SIX_OPENS)


def build_down12(fs):
    return _open_site(fs, "DOWN12", "T_down", DOWN12_OPENS)


def _sections(fs, cat, k, name):
    """The presheaf of functions U -> {0..k-1} on an open poset whose
    objects are named like 'o02' for the open {0, 2}."""
    points = {x: [int(c) for c in x[1:]] for x in cat.objects}
    values = {
        x: tuple(tuple(zip(u, vs)) for vs in itertools.product(range(k), repeat=len(u)))
        for x, u in points.items()
    }
    restriction = {}
    for m in cat.morphisms():
        keep = set(points[cat.src(m)])
        restriction[m] = {s: tuple(p for p in s if p[0] in keep) for s in values[cat.tgt(m)]}
    return fs.sheaf.Presheaf(cat, values, restriction, name=name)


def build_sec(fs):
    """Sections presheaves: 3 values per point on the six-open 4-point
    space, 2 values per point on the discrete 3-point space."""
    six, t_six = fs.catalog.open_poset(SIX_OPENS)
    disc3, t_op3 = fs.catalog.open_poset(DISC3_OPENS)
    return _doc(
        fs.cli,
        categories=[("SIX", six), ("DISC3", disc3)],
        topologies=[("T_six", t_six, "SIX"), ("T_op3", t_op3, "DISC3")],
        presheaves=[("SEC3", _sections(fs, six, 3, "SEC3")), ("SEC2", _sections(fs, disc3, 2, "SEC2"))],
    )


PAIR_SIZES = (6, 9, 12)
CYCLIC_SIZES = range(6, 13)


def _pair_groupoid(fs, n, name, inv=None):
    X0 = frozenset(range(n))
    return fs.internal.make_groupoid(
        fs.catalog.finite_sets_ambient(),
        X0=X0,
        X1=frozenset((a, b) for a in X0 for b in X0),
        s=lambda m: m[1],
        t=lambda m: m[0],
        i=lambda x: (x, x),
        comp=lambda g, h: (g[0], h[1]),
        inv=inv or (lambda m: (m[1], m[0])),
        name=name,
    )


def _cyclic(fs, n, name, act=None, carrier=None):
    """Z/n as a one-object groupoid and a bundle over the point: the
    regular action on Z/n itself, or `act` on `carrier`."""
    SetMap = fs.SetMap
    amb = fs.catalog.finite_sets_ambient()
    point = frozenset({"*"})
    G = fs.internal.make_groupoid(
        amb,
        X0=point,
        X1=frozenset(range(n)),
        s=lambda g: "*",
        t=lambda g: "*",
        i=lambda x: 0,
        comp=lambda g, h: (g + h) % n,
        inv=lambda g: -g % n,
        name=name,
    )
    carrier = frozenset(range(n)) if carrier is None else frozenset(carrier)
    act = act or (lambda x, g: (x + g) % n)
    anchor = SetMap(carrier, point, {x: "*" for x in carrier})
    dom = amb.pullback(anchor, G.t)
    acted = SetMap(dom.apex, carrier, {e: act(*e) for e in dom.apex})
    action = fs.internal.RightAction(G, carrier, anchor, acted, dom)
    return G, fs.internal.Bundle(G, action, point, SetMap(carrier, point, {x: "*" for x in carrier}))


def build_gpd_pair(fs):
    doc = fs.cli.BundleDoc()
    for n in PAIR_SIZES:
        G = _pair_groupoid(fs, n, f"PAIR{n}")
        doc.groupoids[f"PAIR{n}"] = G
        doc.bundles[f"PAIRB{n}"] = fs.internal.groupoid_as_bundle(G)
    return doc


def build_gpd_cyclic(fs):
    doc = fs.cli.BundleDoc()
    for n in CYCLIC_SIZES:
        G, B = _cyclic(fs, n, f"Z{n}")
        doc.groupoids[f"Z{n}"] = G
        doc.bundles[f"ZB{n}"] = B
    return doc


def build_gpd_bad(fs):
    """A pair groupoid whose inverse is the identity, and Z/4 acting
    trivially on a point: neither validates."""
    doc = fs.cli.BundleDoc()
    doc.groupoids["BADINV4"] = _pair_groupoid(fs, 4, "BADINV4", inv=lambda m: m)
    G, B = _cyclic(fs, 4, "Z4", act=lambda x, g: x, carrier={"p"})
    doc.groupoids["Z4"] = G
    doc.bundles["TRIVACT4"] = B
    return doc


BUILDERS = {
    "catalog": build_catalog,
    "fs": build_fs,
    "six": build_six,
    "down12": build_down12,
    "sec": build_sec,
    "gpd-pair": build_gpd_pair,
    "gpd-cyclic": build_gpd_cyclic,
    "gpd-bad": build_gpd_bad,
}


def write_bundles(names, seed, out_dir):
    """Build, rename and write the named bundles as out_dir/<name>.json."""
    fs = import_finsite()
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        wire = rename_doc(fs.cli.serialize_bundle_doc(BUILDERS[name](fs)), seed)
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump(wire, fh)


def main(argv=None):
    """Build and write one workload's bundles, sampling the machine's speed
    from before finsite is imported until the files are written; the last
    line of stdout is {"samples": [...], "in_handler": seconds}."""
    with SpeedSampler() as speed:
        from workloads import WORKLOADS

        ap = argparse.ArgumentParser(description="build and write one workload's bundle files")
        ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--out", required=True)
        ns = ap.parse_args(argv)
        write_bundles(WORKLOADS[ns.workload].bundles, ns.seed, ns.out)
    print(json.dumps({"samples": speed.samples, "in_handler": speed.in_handler}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
