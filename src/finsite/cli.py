"""Batch front door: parse bundle files, run named checks, run the law
suite, and emit right Kan extensions.

Bundle file format: one JSON document with named sections (categories,
topologies, functors, presheaves, groupoids, bundles).  These six kinds
are declared once, in `_kinds()`: each kind's section, parser, validator
and writer.  Parsing, writing, argument resolution, `validate` and the
`validate_*` ops of `check` read that table, and `parse_bundle_doc` is
the one place that turns a malformed entry into a `BundleError`.  Mappings
are arrays of [key, value] pairs, compositions arrays of [g, f, gf] meaning
compose(g, f) = gf, and elements are JSON scalars or arrays (arrays
decode to tuples).  A keyed list with two rows for one key is malformed,
and so is a string or object where a list of elements or of rows is
required, or where a row is.
Reports go to stdout as JSON with indent 2 and sorted keys; a human
summary goes to stderr.  Exit codes: 0 verdict-true, 1 verdict-false,
2 usage or parse error.

What does not depend on the request is paid for once per process, and
each id once per document:

- One decoder per document (`_decoder`) gives one shared object per
  string and one per array text: equal strings decode to one object, and
  so do arrays with equal JSON text.  A string id costs one C-level call,
  the decoder's `share`, made inline by the parsers' loops.
- The parser is built at import and parses one fixed command line of
  each command there (never sys.argv), so argparse's regular expressions
  are in `re`'s cache before a request process starts, forked or not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import catalog, internal, sheaf, site
from .fincat import (
    CheckReport,
    FunctorData,
    SetMap,
    TableCategory,
    is_effective_epi,
    is_extensive,
    is_universal,
    validate_category,
    validate_functor,
)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encoder():
    """An encode function with a memo of its own, for one serialization:
    tuples and lists become lists, sets lists sorted by repr, other values
    stay as they are.  Each container is encoded once, keyed by its id, so
    a value met many times becomes one shared list."""
    memo = {}
    alive = []  # every container encoded, so that no id is reused while the memo is
    containers = (tuple, list, set, frozenset)

    def encode(v):
        if not isinstance(v, containers):
            return v
        out = memo.get(id(v))
        if out is None:
            out = [encode(x) if isinstance(x, containers) else x for x in v]
            if isinstance(v, (set, frozenset)):
                out.sort(key=repr)
            memo[id(v)] = out
            alive.append(v)
        return out

    return encode


def _encode(v):
    return _encoder()(v)


def _decoder():
    """A decode function with memos of its own, for one bundle document:
    JSON arrays become tuples and other values stay as they are.  Equal
    strings decode to one shared object, and so do arrays with equal JSON
    text, so dict lookups on ids stop at identity and a repeated array
    costs one repr and one lookup.  Arrays are keyed by their repr, which
    tells types apart: [1], [1.0] and [true] stay distinct, and so do -0.0
    and 0.0.  The function's `share` is the strings memo's setdefault:
    share(v, v) is decode(v) for a string v, without a Python call, and
    the parsers' loops call it inline as
    `share(v, v) if type(v) is str else decode(v)`."""
    strings = {}
    share = strings.setdefault
    arrays = {}

    def decode(v):
        if type(v) is str:
            return share(v, v)
        if type(v) is list:
            key = repr(v)
            items = arrays.get(key)
            if items is None:
                items = arrays[key] = tuple([share(x, x) if type(x) is str else decode(x) for x in v])
            return items
        return v

    decode.share = share
    return decode


def _pairs(mapping, encode=_encode):
    return sorted(([encode(k), encode(v)] for k, v in mapping.items()), key=repr)


def _keyed(table, rows, what, decode, key=0):
    """table, built with one entry per row of rows, each keyed by row[key];
    where two rows share a key the table kept only the last, so ValueError
    names the first key repeated."""
    if len(table) != len(rows):
        seen = set()
        repeat = next(k for k in (decode(row[key]) for row in rows) if k in seen or seen.add(k))
        raise ValueError(f"{what} rows repeat the key {repeat!r}")
    return table


def _unpairs(pairs, decode, what):
    share = decode.share
    table = {
        share(k, k) if type(k) is str else decode(k):
            share(v, v) if type(v) is str else decode(v)
        for k, v in _rows(pairs, what)
    }
    return _keyed(table, pairs, what, decode)


@dataclass
class BundleDoc:
    categories: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    groupoids: dict = field(default_factory=dict)
    bundles: dict = field(default_factory=dict)
    # read by nothing in finsite (a topology's category is T.cat); kept for callers that fill it
    topology_cat: dict = field(default_factory=dict)


class BundleError(Exception):
    pass


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _names(doc: BundleDoc) -> dict:
    """id(structure) -> its name in doc, the map the writers name categories and groupoids by."""
    return {id(x): n for key, *_ in _kinds().values() for n, x in getattr(doc, key).items()}


def serialize_category(cat) -> dict:
    encode = _encoder()
    morphisms = sorted(
        ([encode(m), encode(cat.src(m)), encode(cat.tgt(m))] for m in cat.morphisms()),
        key=repr,
    )
    composition = sorted(
        ([encode(g), encode(f), encode(gf)] for (g, f), gf in cat._comp.items()), key=repr
    )
    return {
        "objects": [encode(x) for x in cat.objects],
        "morphisms": morphisms,
        "identity": _pairs({x: cat.identity(x) for x in cat.objects}, encode),
        "composition": composition,
    }


def serialize_topology(T, names) -> dict:
    encode = _encoder()
    fams = sorted(
        (
            [encode(x), sorted((sorted((encode(m) for m in fam), key=repr) for fam in fs), key=repr)]
            for x, fs in T.families.items()
        ),
        key=repr,
    )
    return {"category": names[id(T.cat)], "families": fams}


def serialize_functor(F: FunctorData, names) -> dict:
    encode = _encoder()
    return {
        "source": names[id(F.source)],
        "target": names[id(F.target)],
        "on_objects": _pairs(F.obj_map, encode),
        "on_morphisms": _pairs(F.mor_map, encode),
    }


def serialize_presheaf(P: sheaf.Presheaf, names) -> dict:
    encode = _encoder()
    return {
        "category": names[id(P.cat)],
        "values": sorted(([encode(x), [encode(v) for v in vs]] for x, vs in P.values.items()), key=repr),
        # the rows have distinct ids, so their order is that of the ids' reprs
        "restriction": sorted(
            ([encode(m), _pairs(r, encode)] for m, r in P.restriction.items()),
            key=lambda row: repr(row[0]),
        ),
    }


def serialize_groupoid(G) -> dict:
    encode = _encoder()
    g, h, gh = map(G.ambient.at, (G.X2.to_left, G.X2.to_right, G.comp))
    comp = sorted(([encode(g(w)), encode(h(w)), encode(gh(w))] for w in G.X2.apex), key=repr)
    return {
        "X0": encode(G.X0),
        "X1": encode(G.X1),
        "s": _pairs(G.s.mapping, encode),
        "t": _pairs(G.t.mapping, encode),
        "i": _pairs(G.i.mapping, encode),
        "comp": comp,
        "inv": _pairs(G.inv.mapping, encode),
    }


def serialize_bundle(B: internal.Bundle, names) -> dict:
    encode = _encoder()
    dom = B.action.dom
    x, g, xg = map(B.gpd.ambient.at, (dom.to_left, dom.to_right, B.action.act))
    action = sorted(([encode(x(e)), encode(g(e)), encode(xg(e))] for e in dom.apex), key=repr)
    return {
        "groupoid": names[id(B.gpd)],
        "carrier": encode(B.action.carrier),
        "anchor": _pairs(B.action.anchor.mapping, encode),
        "action": action,
        "base": encode(B.base),
        "projection": _pairs(B.p.mapping, encode),
    }


def serialize_bundle_doc(doc: BundleDoc) -> dict:
    names = _names(doc)
    return {
        key: {n: write(x, names) for n, x in getattr(doc, key).items()}
        for key, _, _, write in _kinds().values()
        if getattr(doc, key)
    }


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _array(v, what):
    """v, a JSON array: a string or object in its place would read as its characters or keys."""
    if type(v) is not list:
        raise TypeError(f"{what} must be a JSON array, not {type(v).__name__}")
    return v


_LIST = frozenset([list])


def _rows(rows, what):
    """rows, a JSON array of JSON arrays: a string or object row of the
    right length would unpack to its characters or keys.  The row types
    are read in one scan at C speed, with no set built."""
    if type(rows) is not list or not _LIST.issuperset(map(type, rows)):
        _array(rows, f"{what} rows")
        bad = next(type(row) for row in rows if type(row) is not list)
        raise TypeError(f"{what} rows must be JSON arrays, not {bad.__name__}")
    return rows


def parse_category(sec, doc, name, decode) -> TableCategory:
    share = decode.share
    rows = _rows(sec["morphisms"], "morphisms")
    morphisms = {
        share(m, m) if type(m) is str else decode(m): (
            share(a, a) if type(a) is str else decode(a),
            share(b, b) if type(b) is str else decode(b),
        )
        for m, a, b in rows
    }
    comp_rows = _rows(sec["composition"], "composition")
    comp = {
        (share(g, g) if type(g) is str else decode(g), share(f, f) if type(f) is str else decode(f)):
            share(gf, gf) if type(gf) is str else decode(gf)
        for g, f, gf in comp_rows
    }
    return TableCategory(
        [share(x, x) if type(x) is str else decode(x) for x in _array(sec["objects"], "objects")],
        _keyed(morphisms, rows, "morphisms", decode),
        _unpairs(sec["identity"], decode, "identity"),
        _keyed(comp, comp_rows, "composition", decode, slice(2)),
        name=name,
    )


def _families(fs, decode):
    """The set of frozensets that fs, a list of member lists, gives: every
    member is decoded in one comprehension, then cut back into families."""
    share = decode.share
    members = iter([
        share(m, m) if type(m) is str else decode(m) for fam in fs for m in _array(fam, "a family")
    ])
    return {frozenset(islice(members, len(fam))) for fam in fs}


def parse_topology(sec, doc, name, decode) -> site.Pretopology:
    share = decode.share
    rows = _rows(sec["families"], "families")
    fams = {share(x, x) if type(x) is str else decode(x): _families(fs, decode) for x, fs in rows}
    return site.Pretopology(
        doc.categories[sec["category"]], _keyed(fams, rows, "families", decode), name=name
    )


def parse_functor(sec, doc, name, decode) -> FunctorData:
    return FunctorData(
        doc.categories[sec["source"]],
        doc.categories[sec["target"]],
        _unpairs(sec["on_objects"], decode, "on_objects"),
        _unpairs(sec["on_morphisms"], decode, "on_morphisms"),
        name=name,
    )


def parse_presheaf(sec, doc, name, decode) -> sheaf.Presheaf:
    share = decode.share
    rows = _rows(sec["values"], "values")
    values = {
        share(x, x) if type(x) is str else decode(x):
            tuple([share(v, v) if type(v) is str else decode(v) for v in _array(vs, "a value list")])
        for x, vs in rows
    }
    res_rows = _rows(sec["restriction"], "restriction")
    restriction = {
        share(m, m) if type(m) is str else decode(m): _unpairs(r, decode, "restriction map")
        for m, r in res_rows
    }
    return sheaf.Presheaf(
        doc.categories[sec["category"]],
        _keyed(values, rows, "values", decode),
        _keyed(restriction, res_rows, "restriction", decode),
        name=name,
    )


def _on_apex(apex, rows, tgt, what, decode):
    """The SetMap apex -> tgt that the [x, y, z] rows give as (x, y) -> z;
    a stray, missing or repeated row raises.  Its one dict starts with the
    apex's own elements as keys, and storing under an equal pair keeps
    that key, so the map holds no pair built from the rows."""
    share = decode.share
    missing = object()
    mapping = dict.fromkeys(apex, missing)
    for x, y, z in _rows(rows, what):
        w = (share(x, x) if type(x) is str else decode(x), share(y, y) if type(y) is str else decode(y))
        mapping[w] = share(z, z) if type(z) is str else decode(z)
    if len(mapping) == len(apex) == len(rows) and missing not in mapping.values():
        return SetMap(apex, tgt, mapping)
    table = {(decode(x), decode(y)): decode(z) for x, y, z in rows}
    stray = min(_keyed(table, rows, what, decode, slice(2)).keys() ^ apex, key=repr)
    raise ValueError(f"{what} rows and the fibre product differ at {stray!r}")


def _elements(items, decode, what):
    share = decode.share
    return frozenset([share(x, x) if type(x) is str else decode(x) for x in _array(items, what)])


def parse_groupoid(sec, doc, name, decode) -> internal.InternalGroupoid:
    amb = catalog.finite_sets_ambient()
    X0 = _elements(sec["X0"], decode, "X0")
    X1 = _elements(sec["X1"], decode, "X1")
    s = SetMap(X1, X0, _unpairs(sec["s"], decode, "s"))
    t = SetMap(X1, X0, _unpairs(sec["t"], decode, "t"))
    i = SetMap(X0, X1, _unpairs(sec["i"], decode, "i"))
    inv = SetMap(X1, X1, _unpairs(sec["inv"], decode, "inv"))
    X2 = amb.pullback(s, t)
    comp = _on_apex(X2.apex, sec["comp"], X1, "comp", decode)
    return internal.InternalGroupoid(amb, X0, X1, s, t, i, comp, inv, X2, name=name)


def parse_bundle(sec, doc, name, decode) -> internal.Bundle:
    G = doc.groupoids[sec["groupoid"]]
    amb = G.ambient
    carrier = _elements(sec["carrier"], decode, "carrier")
    base = _elements(sec["base"], decode, "base")
    anchor = SetMap(carrier, G.X0, _unpairs(sec["anchor"], decode, "anchor"))
    dom = amb.pullback(anchor, G.t)
    act = _on_apex(dom.apex, sec["action"], carrier, "action", decode)
    action = internal.RightAction(G, carrier, anchor, act, dom)
    p = SetMap(carrier, base, _unpairs(sec["projection"], decode, "projection"))
    return internal.Bundle(G, action, base, p)


def _kinds():
    """The six kinds a bundle file holds, in parse order: kind ->
    (BundleDoc section, parser, validator, writer).  A parser reads one
    entry of its section, parse(entry, doc, name, decode), given the
    structures parsed before it in doc and the document's one decode
    function (`_decoder`), through which it reads every id, a string id
    through its `share`.  A writer turns one structure back into an entry,
    write(structure, names), naming the categories and groupoids it refers
    to through names (`_names`).  Built on each call, so that wrappers
    installed on the module names after import are used."""
    return {
        "category": (
            "categories", parse_category, validate_category, lambda cat, _: serialize_category(cat)
        ),
        "topology": ("topologies", parse_topology, site.validate_pretopology, serialize_topology),
        "functor": ("functors", parse_functor, validate_functor, serialize_functor),
        "presheaf": ("presheaves", parse_presheaf, sheaf.validate_presheaf, serialize_presheaf),
        "groupoid": (
            "groupoids", parse_groupoid, internal.validate_groupoid, lambda G, _: serialize_groupoid(G)
        ),
        "bundle": ("bundles", parse_bundle, internal.validate_principal_bundle, serialize_bundle),
    }


def parse_bundle_doc(doc: dict) -> BundleDoc:
    if not isinstance(doc, dict):
        raise BundleError("top-level document must be a JSON object")
    out = BundleDoc()
    decode = _decoder()
    for kind, (key, parse, _, _) in _kinds().items():
        sec = doc.get(key, {})
        if not isinstance(sec, dict):
            raise BundleError(f"section {key!r} must be a JSON object")
        for n, entry in sec.items():
            try:
                getattr(out, key)[n] = parse(entry, out, n, decode)
            except (KeyError, TypeError, ValueError) as exc:
                raise BundleError(f"malformed {kind} {n!r}: {exc}") from exc
    return out


def load_bundle(path) -> BundleDoc:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot read bundle file: {exc}") from exc
    return parse_bundle_doc(doc)


# ---------------------------------------------------------------------------
# The catalog as a bundle
# ---------------------------------------------------------------------------


def catalog_bundle() -> BundleDoc:
    out = BundleDoc()
    shv_presheaf, fv, t_op = catalog.shv()
    out.categories["FIX-V"] = fv
    out.topologies["T_op"] = t_op
    out.topologies["T_indis_V"] = site.indiscrete_topology(fv)
    out.topologies["T_dis_V"] = site.discrete_topology(fv)
    out.presheaves["SHV"] = shv_presheaf
    out.presheaves["K2_V"] = catalog.k2(fv)

    small, fs012, incl = catalog.skeleton_inclusion()
    out.categories["FIX-FS012"] = fs012
    out.topologies["T_ext"] = site.extensive_topology(fs012)
    out.presheaves["K2_FS"] = catalog.k2(fs012)

    out.categories["FIX-FS01"] = small
    out.functors["skel01-into-fs012"] = incl
    out.presheaves["Yo_n1_small"] = sheaf.pullback_presheaf(
        incl, sheaf.representable(fs012, "n1", name="Yo_n1_small")
    )

    gpds = catalog.standard_groupoids()
    out.groupoids = {n: gpds[n] for n in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")}
    out.bundles["FIX-Z2BUNDLE"] = gpds["FIX-Z2BUNDLE"]
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return repr(v)


def _report(check, inputs, result, started):
    if not isinstance(result, CheckReport):
        result = CheckReport(bool(result), check)
    return {
        "check": check,
        "inputs": list(inputs),
        "verdict": result.ok,
        "witness": _jsonable(result.witness),
        "counterexample": _jsonable(result.counterexample),
        "wall_time": round(time.monotonic() - started, 6),
    }


def _json_key(k):
    """A dict key as json.dumps turns it into a string."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _dumps(v, pad="\n"):
    """json.dumps(v, indent=2, sort_keys=True), byte for byte, without the
    pure-Python encoder that indent forces on the stdlib: containers are
    joined here level by level (pad is the newline and indent before the
    closing bracket), scalars go to the encoders json itself uses.  Each
    level joins its children within one expression, so their list dies at
    the join and no text is kept for reuse: the peak stays near twice the
    output's size.  It raises TypeError where json.dumps does; v must hold
    no cycle."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in v]) + pad + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(_json_key(k)) + ": " + _dumps(x, inner)
            for k, x in sorted(v.items())
        ]) + pad + "}"
    if type(v) is int:
        return repr(v)
    return json.dumps(v)


def _emit(report, human):
    print(_dumps(report))
    print(human, file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument resolution and the check dispatch table
# ---------------------------------------------------------------------------


def _resolve(doc: BundleDoc, kind, ref):
    """The structure of the given kind named ref; a morphism is named
    "category:morphism-id" and resolves to (category, morphism)."""
    if kind == "morphism":
        cat_name, _, mid = ref.partition(":")
        cat = _resolve(doc, "category", cat_name)
        if mid not in cat._mor:
            raise BundleError(f"unknown morphism {mid!r} in category {cat_name!r}")
        return cat, mid
    section = getattr(doc, _kinds()[kind][0])
    if ref not in section:
        raise BundleError(f"unknown {kind} {ref!r}")
    return section[ref]


def _dispatch_table(mode):
    """op -> (its argument kinds, its function); a kind's validator is the op of its name."""
    return {
        **{validate.__name__: ((kind,), validate) for kind, (_, _, validate, _) in _kinds().items()},
        "are_equivalent": (("topology", "topology"), site.are_equivalent),
        "is_coarser": (("topology", "topology"), site.is_coarser),
        "is_subcanonical": (("topology",), site.is_subcanonical),
        "is_singletonizable": (("topology",), site.is_singletonizable),
        "is_superextensive": (("topology",), site.is_superextensive),
        "is_local": (("topology",), site.is_local),
        "is_extensive": (("category",), is_extensive),
        "is_continuous": (("functor", "topology", "topology"), site.is_continuous),
        "is_cocontinuous": (("functor", "topology", "topology"), site.is_cocontinuous),
        "has_dense_image": (("functor", "topology"), site.has_dense_image),
        "is_sheaf": (("presheaf", "topology"), lambda P, T: sheaf.is_sheaf(P, T, mode)),
        "is_traditional_sheaf": (("presheaf", "topology"), sheaf.is_traditional_sheaf),
        "is_extensive_presheaf": (("presheaf",), lambda P: sheaf.is_extensive_presheaf(P, mode)),
        "comparison_sheaf_report": (
            ("presheaf", "topology"),
            lambda P, T: sheaf.comparison_sheaf_report(P, T, mode),
        ),
        "subcanonical_via_representables": (
            ("topology",),
            lambda T: sheaf.subcanonical_via_representables(T, mode),
        ),
        "is_universal": (("morphism",), lambda cm: is_universal(cm[0], cm[1])),
        "is_epi": (("morphism",), lambda cm: cm[0].is_epi(cm[1])),
        "is_effective_epi": (("morphism",), lambda cm: is_effective_epi(cm[0], cm[1])),
        "is_locally_split": (("morphism", "topology"), _is_locally_split),
    }


def _is_locally_split(cm, T):
    site._same_cat(T, cm[0], f"category {cm[0].name!r}")
    return site.is_locally_split(T, cm[1]) is not None


def cmd_check(path, op, args, mode="literal") -> int:
    started = time.monotonic()
    doc = load_bundle(path)
    table = _dispatch_table(mode)
    if op not in table:
        raise BundleError(f"unknown check {op!r}")
    kinds, fn = table[op]
    if len(args) != len(kinds):
        raise BundleError(f"check {op!r} takes {len(kinds)} argument(s), got {len(args)}")
    result = fn(*(_resolve(doc, kind, a) for kind, a in zip(kinds, args)))
    report = _report(op, args, result, started)
    _emit(report, f"{op}({', '.join(args)}): {'true' if report['verdict'] else 'false'}")
    return 0 if report["verdict"] else 1


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_all(doc: BundleDoc):
    return [
        (f"{kind} {n}", lambda validate=validate, x=x: validate(x))
        for kind, (key, _, validate, _) in _kinds().items()
        for n, x in getattr(doc, key).items()
    ]


def cmd_validate(path) -> int:
    started = time.monotonic()
    checks = _validate_all(load_bundle(path))
    for name, fn in checks:
        check_started = time.monotonic()
        result = fn()
        if not result.ok:
            # the failing structure's validator alone, as laws times each law
            report = _report(f"validate: {name}", [path], result, check_started)
            _emit(report, f"INVALID {name}")
            return 1
    report = _report("validate", [path], CheckReport(True, "validate"), started)
    _emit(report, f"all {len(checks)} structures valid")
    return 0


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def _catalog_sites():
    _, fv, t_op_v = catalog.shv()
    fs, t_op_s = catalog.fix_s()
    fs012 = catalog.fix_fs012()
    return [
        (cat, top)
        for cat, T in ((fv, t_op_v), (fs, t_op_s), (fs012, site.extensive_topology(fs012)))
        for top in (
            T, site.indiscrete_topology(cat), site.discrete_topology(cat), site.canonical_topology(cat)
        )
    ]


# what every site (cat, T) of the suite satisfies, in report order: (label, law(cat, T))
_SITE_LAWS = (
    ("pretopology axioms", lambda cat, T: site.validate_pretopology(T)),
    ("T equivalent to Uni(T)", lambda cat, T: site.are_equivalent(T, site.universal_completion(T))),
    ("Uni idempotent", lambda cat, T: site.uni_class(site.universal_completion(T)) == site.uni_class(T)),
    (
        "indiscrete coarsest, discrete finest",
        lambda cat, T: site.is_coarser(site.indiscrete_topology(cat), T)
        and site.is_coarser(T, site.discrete_topology(cat)),
    ),
    ("subcanonical iff representables are sheaves", lambda cat, T: sheaf.subcanonical_via_representables(T)),
)


def law_suite(extra_doc: BundleDoc = None):
    """(name, callable) pairs covering the per-module invariants."""
    pairs = _catalog_sites()
    if extra_doc is not None:
        pairs += [(T.cat, T) for T in extra_doc.topologies.values()]
    laws = [
        (f"{label} [{T.name}@{cat.name}]", partial(law, cat, T))
        for cat, T in pairs
        for label, law in _SITE_LAWS
    ]

    def _presheaf_laws():
        shv_presheaf, fv, t_op = catalog.shv()
        r = [
            sheaf.validate_presheaf(shv_presheaf),
            # self-coproducts in a poset rule out literal extensivity for SHV
            sheaf.is_sheaf(shv_presheaf, t_op, mode="disjoint"),
            CheckReport(not sheaf.is_sheaf(catalog.k2(fv), t_op).ok, "K2 is not a sheaf"),
        ]
        return CheckReport(all(x.ok for x in r), "presheaf fixtures")

    laws.append(("presheaf fixtures behave [catalog]", _presheaf_laws))

    def _groupoid_laws():
        gpds = catalog.standard_groupoids()
        r = [internal.validate_groupoid(gpds[n]) for n in ("FIX-PAIR2", "FIX-Z2GPD", "FIX-TRIV1")]
        r.append(internal.validate_principal_bundle(gpds["FIX-Z2BUNDLE"]))
        return CheckReport(all(x.ok for x in r), "groupoid fixtures")

    laws.append(("groupoid fixtures validate [catalog]", _groupoid_laws))

    if extra_doc is not None:
        laws += [(f"user {name} validates", fn) for name, fn in _validate_all(extra_doc)]
    return laws


def cmd_laws(path=None) -> int:
    laws = law_suite(load_bundle(path) if path else None)
    reports = []
    for name, fn in laws:
        started = time.monotonic()
        reports.append(_report(name, [], fn(), started))
    print(_dumps(reports))
    failed = [r["check"] for r in reports if not r["verdict"]]
    if failed:
        print(f"{len(failed)}/{len(reports)} laws FAILED: {failed}", file=sys.stderr)
    else:
        print(f"all {len(reports)} laws hold", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# kan
# ---------------------------------------------------------------------------


def cmd_kan(path, functor, presheaf) -> int:
    doc = load_bundle(path)
    F = _resolve(doc, "functor", functor)
    P = _resolve(doc, "presheaf", presheaf)
    ext = sheaf.right_kan_extension(F, P)
    print(_dumps({"presheaves": {ext.name: serialize_presheaf(ext, _names(doc))}}))
    sizes = {str(x): len(ext.values[x]) for x in F.target.objects}
    print(f"right Kan extension {ext.name}: value sizes {sizes}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser():
    parser = argparse.ArgumentParser(
        prog="finsite", description="checks for sites on finite categories"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate every structure in a bundle file")
    p_validate.add_argument("file")

    p_check = sub.add_parser("check", help="run one named check on bundle structures")
    p_check.add_argument("file")
    p_check.add_argument("--op", required=True)
    p_check.add_argument("--args", nargs="*", default=())
    p_check.add_argument(
        "--extensivity-mode", choices=("literal", "disjoint"), default="literal"
    )

    p_laws = sub.add_parser("laws", help="run the law suite on the catalog plus an optional bundle")
    p_laws.add_argument("file", nargs="?")

    p_kan = sub.add_parser("kan", help="emit the right Kan extension of a presheaf")
    p_kan.add_argument("file")
    p_kan.add_argument("--functor", required=True)
    p_kan.add_argument("--presheaf", required=True)
    return parser


# built once: a process that calls main() many times pays for the tree once
_PARSER = _parser()
# argparse matches arguments with regular expressions that depend on the
# parser alone; one parse of each command puts them in re's cache, so a
# process forked after import compiles none of them per request
for _argv in (
    ["validate", "bundle.json"],
    ["check", "bundle.json", "--op", "is_local", "--args", "T"],
    ["laws"],
    ["kan", "bundle.json", "--functor", "F", "--presheaf", "P"],
):
    _PARSER.parse_args(_argv)
del _argv


def main(argv=None) -> int:
    ns = _PARSER.parse_args(argv)
    try:
        if ns.command == "validate":
            return cmd_validate(ns.file)
        if ns.command == "check":
            return cmd_check(ns.file, ns.op, ns.args, ns.extensivity_mode)
        if ns.command == "laws":
            return cmd_laws(ns.file)
        return cmd_kan(ns.file, ns.functor, ns.presheaf)
    except (BundleError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
