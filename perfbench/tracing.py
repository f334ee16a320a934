"""Runtime tracing of the calls into finsite's six modules.

`install()` replaces every public function and method of cli, catalog,
fincat, site, sheaf and internal with a wrapper, in every module namespace
that binds it (a name imported with `from .fincat import is_universal` is
wrapped in site, internal and cli too).  Nothing under src/ is edited.

Each call records a span [name, start, end, parent, prims]; spans are kept
in memory by the process that made them.  The high-frequency primitives
(TableCategory.compose/hom, SetMap.after and SetMap construction) are not
spans: they are counted and their time is summed on the calling span.
Plain table accessors (src, tgt, identity, morphisms, and the presheaf and
functor lookups) are not wrapped, so their time stays in the caller.

A layer's self time is the duration of its spans minus the time covered by
their child spans and summed primitives, plus the time of its primitives.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "catalog", "fincat", "site", "sheaf", "internal")
PRIMITIVES = {
    "fincat.TableCategory.compose",
    "fincat.TableCategory.hom",
    "fincat.SetMap.after",
    "fincat.SetMap.__init__",
}
ACCESSORS = {"src", "tgt", "identity", "morphisms", "value", "res", "on_obj", "on_mor", "at"}


def layer_of(name: str) -> str:
    """'fincat.TableCategory.pullback' -> 'fincat.table'; 'site.uni_class' -> 'site'."""
    mod, _, rest = name.partition(".")
    if mod == "fincat":
        cls = rest.partition(".")[0]
        if cls == "TableCategory":
            return "fincat.table"
        if cls in ("FinSetCat", "SetMap"):
            return "fincat.finset"
    return mod


# distinct-key functions: the (category, arguments) a cache would key on
def _key_pullback(cat, f, g):
    return (cat, f, g)


def _key_is_universal(cat, f):
    return (cat, f)


def _key_uni_class(T):
    fams = getattr(T, "families", None)
    return (T.cat, frozenset(fams.items()) if fams is not None else T.kind)


KEYED = {
    "fincat.TableCategory.pullback": _key_pullback,
    "fincat.is_universal": _key_is_universal,
    "site.uni_class": _key_uni_class,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.root_prims = {}
        self.keys = defaultdict(set)
        self.in_prim = False

    def reset(self):
        """Forget everything recorded; the wrappers keep these containers."""
        self.spans.clear()
        self.stack.clear()
        self.root_prims.clear()
        self.keys.clear()
        self.in_prim = False

    def distinct(self):
        return {name: len(keys) for name, keys in self.keys.items()}

    # -- wrappers ---------------------------------------------------------

    def span(self, fn, name):
        keyfn = KEYED.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_prim:
                return fn(*args, **kwargs)
            if keyfn is not None:
                self.keys[name].add(keyfn(*args, **kwargs))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def primitive(self, fn, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                prims = rec[4]
                if prims is None:
                    prims = rec[4] = {}
            else:
                prims = self.root_prims
            slot = prims.get(name)
            if slot is None:
                slot = prims[name] = [0, 0.0]
            slot[0] += 1
            if self.in_prim:
                return fn(*args, **kwargs)
            self.in_prim = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf_counter() - t0
                self.in_prim = False

        return wrapper

    def run(self, name, fn):
        """Call fn inside a root span (the harness's own layer)."""
        return self.span(fn, name)()


def _public_members(mod):
    """(qualified name, owner, attribute, function) for every public
    function defined in mod and every public method of its public classes."""
    short = mod.__name__.rpartition(".")[2]
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", mod, attr, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, mobj in list(vars(obj).items()):
                qual = f"{short}.{attr}.{mattr}"
                if mattr in ACCESSORS or (mattr.startswith("_") and qual not in PRIMITIVES):
                    continue
                if inspect.isfunction(mobj) or isinstance(mobj, staticmethod):
                    yield qual, obj, mattr, mobj


def install(tracer: Tracer, modules):
    """Wrap every public function and method of the given finsite modules
    (a {short name: module} dict) in place.  Returns the number wrapped."""
    wrapped = {}
    count = 0
    for short in MODULES:
        for qual, owner, attr, obj in _public_members(modules[short]):
            fn = obj.__func__ if isinstance(obj, staticmethod) else obj
            make = tracer.primitive if qual in PRIMITIVES else tracer.span
            w = make(fn, qual)
            setattr(owner, attr, staticmethod(w) if isinstance(obj, staticmethod) else w)
            if owner is modules[short]:
                wrapped[id(fn)] = (fn, w)
            count += 1
    # rebind names imported into other modules (from .fincat import is_universal)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return count


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(traces):
    """Per-name [calls, inclusive_s, self_s] and per-primitive [calls, s].

    traces is a list of (spans, root_prims), one per process; spans is a
    list of [name, start, end, parent, prims] in call order, so every
    parent precedes its children.
    """
    per_name = defaultdict(lambda: [0, 0.0, 0.0])
    prim_tot = defaultdict(lambda: [0, 0.0])
    for spans, root_prims in traces:
        covered = [0.0] * len(spans)
        for name, start, end, parent, prims in spans:
            if parent >= 0:
                covered[parent] += end - start
        for pname, (c, t) in root_prims.items():
            prim_tot[pname][0] += c
            prim_tot[pname][1] += t
        for i, (name, start, end, parent, prims) in enumerate(spans):
            prim_time = 0.0
            for pname, (c, t) in (prims or {}).items():
                prim_tot[pname][0] += c
                prim_tot[pname][1] += t
                prim_time += t
            rec = per_name[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - covered[i] - prim_time
    return dict(per_name), dict(prim_tot)


def outer_inclusive(spans, prefix):
    """Inclusive time of the spans named with prefix that have no ancestor
    named with prefix."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        if name.startswith(prefix):
            if not outer:
                total += end - start
            inside[i] = True
        else:
            inside[i] = outer
    return total


def layer_self(per_name, prim_tot):
    out = defaultdict(float)
    for name, (_, _, self_s) in per_name.items():
        out[layer_of(name)] += self_s
    for name, (_, t) in prim_tot.items():
        out[layer_of(name)] += t
    return out


# Every per-layer metric and its unit; README.md says which end-to-end
# metric and workload each should move.
PER_LAYER = {
    "cli.self_s": "s",
    "cli.load_bundle.s": "s",
    "cli.load_bundle.calls": "count",
    "cli.serialize.s": "s",
    "catalog.self_s": "s",
    "catalog.calls": "count",
    "fincat.self_s": "s",
    "fincat.table.self_s": "s",
    "fincat.table.pullback.calls": "count",
    "fincat.table.pullback.self_s": "s",
    "fincat.table.pullback.distinct_ratio": "ratio",
    "fincat.table.compose.calls": "count",
    "fincat.table.hom.calls": "count",
    "fincat.table.coproduct.calls": "count",
    "fincat.table.coproduct.self_s": "s",
    "fincat.is_universal.calls": "count",
    "fincat.is_universal.distinct_ratio": "ratio",
    "fincat.universally_effective_epis.self_s": "s",
    "fincat.is_extensive.self_s": "s",
    "fincat.finset.self_s": "s",
    "fincat.finset.pullback.calls": "count",
    "fincat.finset.pullback.self_s": "s",
    "fincat.setmap.created": "count",
    "site.self_s": "s",
    "site.validate_pretopology.self_s": "s",
    "site.uni_class.calls": "count",
    "site.uni_class.self_s": "s",
    "site.uni_class.distinct_ratio": "ratio",
    "site.is_locally_split.calls": "count",
    "site.covering_families.calls": "count",
    "site.is_superextensive.self_s": "s",
    "sheaf.self_s": "s",
    "sheaf.is_traditional_sheaf.self_s": "s",
    "sheaf.is_sheaf.self_s": "s",
    "sheaf.descent_set.calls": "count",
    "sheaf.right_kan_extension.self_s": "s",
    "internal.self_s": "s",
    "internal.validate_groupoid.self_s": "s",
    "internal.validate_principal_bundle.self_s": "s",
    "trace.overhead_s": "s",
}

COUNTS = {k for k, unit in PER_LAYER.items() if unit != "s"}


def per_layer_metrics(traces, overhead_s):
    """The PER_LAYER values from a traced run: traces is a list of
    (spans, root_prims, distinct) for the set-up and every request."""
    per_name, prim_tot = aggregate([(s, r) for s, r, _ in traces])
    layers = layer_self(per_name, prim_tot)
    distinct = defaultdict(int)
    for _, _, d in traces:
        for name, n in d.items():
            distinct[name] += n

    def calls(name):
        if name in PRIMITIVES:
            return prim_tot.get(name, [0, 0.0])[0]
        return per_name.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return per_name.get(name, [0, 0.0, 0.0])[2]

    def ratio(name):
        n = calls(name)
        return distinct.get(name, 0) / n if n else 1.0

    pb, cp = "fincat.TableCategory.pullback", "fincat.TableCategory.coproduct"
    return {
        "cli.self_s": layers["cli"],
        "cli.load_bundle.s": per_name.get("cli.load_bundle", [0, 0.0])[1],
        "cli.load_bundle.calls": calls("cli.load_bundle"),
        "cli.serialize.s": sum(outer_inclusive(s, "cli.serialize_") for s, _, _ in traces),
        "catalog.self_s": layers["catalog"],
        "catalog.calls": sum(c for n, (c, _, _) in per_name.items() if layer_of(n) == "catalog"),
        "fincat.self_s": layers["fincat"] + layers["fincat.table"] + layers["fincat.finset"],
        "fincat.table.self_s": layers["fincat.table"],
        "fincat.table.pullback.calls": calls(pb),
        "fincat.table.pullback.self_s": self_s(pb),
        "fincat.table.pullback.distinct_ratio": ratio(pb),
        "fincat.table.compose.calls": calls("fincat.TableCategory.compose"),
        "fincat.table.hom.calls": calls("fincat.TableCategory.hom"),
        "fincat.table.coproduct.calls": calls(cp),
        "fincat.table.coproduct.self_s": self_s(cp),
        "fincat.is_universal.calls": calls("fincat.is_universal"),
        "fincat.is_universal.distinct_ratio": ratio("fincat.is_universal"),
        "fincat.universally_effective_epis.self_s": self_s("fincat.universally_effective_epis"),
        "fincat.is_extensive.self_s": self_s("fincat.is_extensive"),
        "fincat.finset.self_s": layers["fincat.finset"],
        "fincat.finset.pullback.calls": calls("fincat.FinSetCat.pullback"),
        "fincat.finset.pullback.self_s": self_s("fincat.FinSetCat.pullback"),
        "fincat.setmap.created": calls("fincat.SetMap.__init__"),
        "site.self_s": layers["site"],
        "site.validate_pretopology.self_s": self_s("site.validate_pretopology"),
        "site.uni_class.calls": calls("site.uni_class"),
        "site.uni_class.self_s": self_s("site.uni_class"),
        "site.uni_class.distinct_ratio": ratio("site.uni_class"),
        "site.is_locally_split.calls": calls("site.is_locally_split"),
        "site.covering_families.calls": calls("site.Pretopology.covering_families"),
        "site.is_superextensive.self_s": self_s("site.is_superextensive"),
        "sheaf.self_s": layers["sheaf"],
        "sheaf.is_traditional_sheaf.self_s": self_s("sheaf.is_traditional_sheaf"),
        "sheaf.is_sheaf.self_s": self_s("sheaf.is_sheaf"),
        "sheaf.descent_set.calls": calls("sheaf.descent_set"),
        "sheaf.right_kan_extension.self_s": self_s("sheaf.right_kan_extension"),
        "internal.self_s": layers["internal"],
        "internal.validate_groupoid.self_s": self_s("internal.validate_groupoid"),
        "internal.validate_principal_bundle.self_s": self_s("internal.validate_principal_bundle"),
        "trace.overhead_s": overhead_s,
    }
