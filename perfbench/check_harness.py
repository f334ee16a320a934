"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 perfbench/check_harness.py

They need no finsite fixtures and take a few seconds: self-time
subtraction on a synthetic span tree, the tracer's wrappers on toy
modules, quartiles and spread, the scaling to reference seconds,
exactly-once failure accounting, and the seed-independence of the
request lists.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fixtures  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Mor, Request, Workload  # noqa: E402

COMPOSE, HOM, NEW = "fincat.TableCategory.compose", "fincat.TableCategory.hom", "fincat.SetMap.__init__"

# [name, start, end, parent, prims]; children are listed after their parents
SPANS = [
    ["cli.main", 0.0, 10.0, -1, {COMPOSE: [5, 1.0]}],
    ["site.uni_class", 1.0, 6.0, 0, {HOM: [3, 0.5]}],
    ["fincat.TableCategory.pullback", 2.0, 4.0, 1, {COMPOSE: [10, 1.5]}],
    ["cli.serialize_presheaf", 7.0, 9.0, 0, None],
    ["cli.serialize_category", 7.5, 8.0, 3, None],
]
ROOT_PRIMS = {NEW: [2, 0.25]}


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children_and_primitives(self):
        per_name, prims = tracing.aggregate([(SPANS, ROOT_PRIMS)])
        self.assertAlmostEqual(per_name["cli.main"][2], 10 - (5 + 2) - 1.0)
        self.assertAlmostEqual(per_name["site.uni_class"][2], 5 - 2 - 0.5)
        self.assertAlmostEqual(per_name["fincat.TableCategory.pullback"][2], 2 - 1.5)
        self.assertAlmostEqual(per_name["cli.serialize_presheaf"][2], 2 - 0.5)
        self.assertEqual(prims[COMPOSE], [15, 2.5])
        self.assertEqual(prims[NEW], [2, 0.25])

    def test_layers_partition_the_root_span(self):
        per_name, prims = tracing.aggregate([(SPANS, ROOT_PRIMS)])
        layers = tracing.layer_self(per_name, prims)
        self.assertAlmostEqual(layers["cli"], 2.0 + 1.5 + 0.5)
        self.assertAlmostEqual(layers["site"], 2.5)
        self.assertAlmostEqual(layers["fincat.table"], 0.5 + 2.5 + 0.5)
        self.assertAlmostEqual(layers["fincat.finset"], 0.25)
        self.assertAlmostEqual(sum(layers.values()), 10.0 + 0.25)

    def test_nested_group_counted_once(self):
        self.assertAlmostEqual(tracing.outer_inclusive(SPANS, "cli.serialize_"), 2.0)

    def test_traces_of_several_processes_add_up(self):
        m = tracing.per_layer_metrics([(SPANS, ROOT_PRIMS, {"fincat.TableCategory.pullback": 1})] * 2, 0.5)
        self.assertEqual(m["fincat.table.compose.calls"], 30)
        self.assertEqual(m["fincat.table.pullback.calls"], 2)
        self.assertAlmostEqual(m["fincat.table.pullback.distinct_ratio"], 1.0)
        self.assertAlmostEqual(m["cli.serialize.s"], 4.0)
        self.assertAlmostEqual(m["fincat.self_s"], 2 * (3.5 + 0.25))
        self.assertEqual(m["trace.overhead_s"], 0.5)
        self.assertEqual(set(m), set(tracing.PER_LAYER))


def _toy_modules():
    """Stand-ins for finsite's modules: fincat defines TableCategory and
    is_universal, site imports is_universal by name."""
    mods = {short: types.ModuleType(f"toy.{short}") for short in tracing.MODULES}
    fincat, site = mods["fincat"], mods["site"]

    class TableCategory:
        def compose(self, g, f):
            return g + f

        def pullback(self, f, g):
            return self.compose(f, g) + self.compose(g, f)

    def is_universal(cat, f):
        return cat.pullback(f, f) > 0

    TableCategory.__module__ = is_universal.__module__ = "toy.fincat"
    fincat.TableCategory, fincat.is_universal = TableCategory, is_universal

    def check(cat):
        return [is_universal_in_site(cat, f) for f in (1, 2, 1)]

    check.__module__ = "toy.site"
    site.check = check
    site.is_universal = is_universal

    def is_universal_in_site(cat, f):
        return site.is_universal(cat, f)

    return mods


class Tracer(unittest.TestCase):
    def test_wrappers_rebind_imports_and_sum_primitives(self):
        mods = _toy_modules()
        tracer = tracing.Tracer()
        tracing.install(tracer, mods)
        self.assertIs(mods["site"].is_universal, mods["fincat"].is_universal)
        cat = mods["fincat"].TableCategory()
        self.assertEqual(tracer.run("harness.request", lambda: mods["site"].check(cat)), [True] * 3)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names.count("fincat.is_universal"), 3)
        self.assertEqual(names.count("fincat.TableCategory.pullback"), 3)
        per_name, prims = tracing.aggregate([(tracer.spans, tracer.root_prims)])
        self.assertEqual(prims[COMPOSE][0], 6)
        self.assertEqual(tracer.distinct()["fincat.is_universal"], 2)
        self.assertEqual(tracer.distinct()["fincat.TableCategory.pullback"], 2)
        total = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(sum(tracing.layer_self(per_name, prims).values()), total, places=9)


class Stats(unittest.TestCase):
    def test_quartiles_and_spread(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(harness.quartiles(vals), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(harness.rel_spread(vals), 5.5 / 5.5)
        self.assertEqual(harness.quartiles([3.0]), (3.0, 3.0, 3.0))


class Speed(unittest.TestCase):
    def test_reference_seconds_scale_by_the_mean_sample(self):
        slow = [2 * speed.REFERENCE_S] * 4
        self.assertAlmostEqual(speed.reference_seconds(3.0, slow), 1.5)
        mixed = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
        self.assertAlmostEqual(speed.reference_seconds(3.0, mixed), 1.5)

    def test_sampler_samples_while_running_and_times_its_handler(self):
        with speed.SpeedSampler() as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 10 * speed.SAMPLE_EVERY_S:
                pass
        self.assertGreater(len(sampler.samples), 2 * speed.EDGE_SAMPLES + 3)
        self.assertGreater(sampler.in_handler, 0.0)
        with speed.SpeedSampler(interval=False) as edges:
            time.sleep(3 * speed.SAMPLE_EVERY_S)
        self.assertEqual((len(edges.samples), edges.in_handler), (2 * speed.EDGE_SAMPLES, 0.0))


class _FakeCli:
    """main(argv) acts out argv[0]."""

    @staticmethod
    def main(argv):
        kind = argv[0]
        if kind == "raise":
            raise KeyError("dangling id")
        if kind == "sleep":
            time.sleep(30)
        if kind == "memory":
            bytearray(2 * harness.MEM_CAP_BYTES)
        if kind == "usage":
            return 2
        print(json.dumps({"verdict": True}))
        return 0


class FailureAccounting(unittest.TestCase):
    def test_each_failure_counted_once(self):
        import run

        kinds = ["ok", "raise", "sleep", "memory", "usage", "wrong"]
        reqs = tuple(Request(k, (k,), 1 if k == "wrong" else 0, "toy") for k in kinds)
        wl = Workload("toy", "toy", (), reqs)
        r = run.Run(wl, 1, {}, _FakeCli, time.perf_counter())
        limit = harness.WALL_LIMIT_S
        harness.WALL_LIMIT_S = 1.0
        try:
            r.one_pass()
        finally:
            harness.WALL_LIMIT_S = limit
        status = {name: s for name, s, _ in r.outcomes}
        self.assertEqual(len(r.outcomes), len(kinds))
        self.assertEqual(status, {"ok": "ok", "raise": "error", "sleep": "guard", "memory": "guard",
                                  "usage": "error", "wrong": "wrong"})
        self.assertEqual(len(r.failed()), 5)


class Seeds(unittest.TestCase):
    def test_renaming_is_a_seeded_bijection(self):
        ids = [f"m{i}" for i in range(500)]
        for seed in (1, 2):
            self.assertEqual(len({fixtures.rename(seed, "C", m) for m in ids}), len(ids))
        self.assertNotEqual(fixtures.rename(1, "C", "m0"), fixtures.rename(2, "C", "m0"))
        self.assertEqual(fixtures.rename(1, "C", "m0"), fixtures.rename(1, "C", "m0"))

    def test_renaming_keeps_the_sort_order(self):
        for ids, decoded in (
            (["o0", "o01", "o0_to_o01", "n2>n1:0,0", "n2>n10:0", "oE"], None),
            ([3, 10, [0, 1], [0, 10], [1, 0]], [3, 10, (0, 1), (0, 10), (1, 0)]),
        ):
            decoded = decoded or ids
            for seed in (1, 2):
                new = {repr(d): fixtures.rename(seed, "C", v) for v, d in zip(ids, decoded)}
                by_old = [new[r] for r in sorted(new)]
                self.assertEqual(by_old, sorted(new.values(), key=repr))

    def test_two_seeds_same_requests_and_answers(self):
        for wl in WORKLOADS.values():
            paths = {b: f"{b}.json" for b in wl.bundles}
            self.assertEqual(len({r.name for r in wl.requests}), len(wl.requests), wl.name)
            for r in wl.requests:
                a, b = r.expected(1), r.expected(1000)
                if r.kan_cat is None:
                    self.assertEqual(a, b)
                else:  # the same sizes, on renamed objects
                    self.assertEqual(sorted(a.values()), sorted(b.values()))
                    self.assertNotEqual(set(a), set(b))
                if any(isinstance(x, Mor) for x in r.argv):
                    self.assertNotEqual(r.command(1, paths), r.command(1000, paths))


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
