"""The four request workloads and their answer key.

A request is one `finsite` command line.  Each carries the verdict a
correct program must give, written down by hand with its mathematical
reason: a boolean for `check` (exit 0 true, 1 false), an exit code for
`laws`/`validate`, or the value sizes of a right Kan extension.  Requests
on FIX-V also name the verdict of the independent oracle in
tests/oracles.py.  The answer key is never adjusted to what finsite
prints: a disagreement is a counted failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from fixtures import PAIR_SIZES, rename


@dataclass(frozen=True)
class Mor:
    """A morphism argument `category:id`, renamed with the seed."""

    cat: str
    id: str


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple  # str, a bundle name in braces like "{fs}", or Mor
    expect: object  # exit code (int) or {object: size} for `kan`
    reason: str
    kan_cat: Optional[str] = None
    oracle: Optional[Callable] = field(default=None, compare=False)

    def command(self, seed, paths):
        out = []
        for a in self.argv:
            if isinstance(a, Mor):
                out.append(f"{a.cat}:{rename(seed, a.cat, a.id)}")
            elif a.startswith("{") and a.endswith("}"):
                out.append(paths[a[1:-1]])
            else:
                out.append(a)
        return out

    def expected(self, seed):
        if self.kan_cat is None:
            return self.expect
        return {rename(seed, self.kan_cat, x): n for x, n in self.expect.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bundles: tuple
    requests: tuple


def check(bundle, op, *args, verdict, reason, mode=None, oracle=None):
    argv = ("check", "{" + bundle + "}", "--op", op, "--args", *args)
    if mode:
        argv += ("--extensivity-mode", mode)
    shown = ", ".join(f"{a.cat}:{a.id}" if isinstance(a, Mor) else a for a in args)
    name = f"{op}({shown})" + (f" [{mode}]" if mode else "")
    return Request(name, argv, 0 if verdict else 1, reason, oracle=oracle)


def kan(bundle, functor, presheaf, cat, sizes, reason):
    argv = ("kan", "{" + bundle + "}", "--functor", functor, "--presheaf", presheaf)
    return Request(f"kan({functor}, {presheaf})", argv, sizes, reason, kan_cat=cat)


# FIX-V ids as the oracle names them
def _v(o, name):
    return {"oE": o.E, "oU": o.U, "oV": o.V, "oX": o.X}[name]


def _vm(o, mid):
    a, b = mid.split("_to_")
    return (_v(o, a), _v(o, b))


V = "FIX-V"
COMPARISON = ("(i) and (ii) fail in literal mode (self-coproducts), (iii) holds; "
              "on a singletonizable site nothing is violated")
ISO_ONLY = "in a poset of opens an open cover of X through U forces U = X, so Uni(T_op) is the isos"

CATALOG_CHECKS = (
    check("catalog", "validate_category", V, verdict=True, reason="inclusion of opens is a partial order"),
    check("catalog", "validate_category", "FIX-FS012", verdict=True,
          reason="composition of functions is associative and unital"),
    check("catalog", "validate_pretopology", "T_op", verdict=True,
          reason="isos cover, covers of covers compose, intersections pull covers back"),
    check("catalog", "validate_pretopology", "T_ext", verdict=True,
          reason="coproduct decompositions of an extensive category compose and are pullback-stable"),
    check("catalog", "validate_functor", "skel01-into-fs012", verdict=True,
          reason="the inclusion of a full subcategory is a functor"),
    check("catalog", "validate_presheaf", "SHV", verdict=True,
          reason="restriction of sections is functorial"),
    check("catalog", "validate_presheaf", "Yo_n1_small", verdict=True,
          reason="the restriction of a representable is a presheaf"),
    check("catalog", "validate_groupoid", "FIX-PAIR2", verdict=True,
          reason="(a,b)(b,c) = (a,c) is a groupoid"),
    check("catalog", "validate_groupoid", "FIX-Z2GPD", verdict=True, reason="Z/2 is a group"),
    check("catalog", "validate_principal_bundle", "FIX-Z2BUNDLE", verdict=True,
          reason="a group translating itself is principal over the point"),
    check("catalog", "are_equivalent", "T_op", "T_indis_V", verdict=True, reason=ISO_ONLY + " = Uni(T_indis)",
          oracle=lambda o: o.classification()["equivalent_to_indiscrete"]),
    check("catalog", "are_equivalent", "T_op", "T_dis_V", verdict=False,
          reason="Uni(T_dis) holds oU->oX, which no open cover splits"),
    check("catalog", "is_coarser", "T_indis_V", "T_op", verdict=True,
          reason="the indiscrete topology is the coarsest"),
    check("catalog", "is_coarser", "T_dis_V", "T_indis_V", verdict=False,
          reason="oU->oX is universal, hence in Uni(T_dis), but has no section"),
    check("catalog", "is_subcanonical", "T_op", verdict=True,
          reason=ISO_ONLY + ", and isos are universal effective epis",
          oracle=lambda o: o.classification()["subcanonical"]),
    check("catalog", "is_singletonizable", "T_op", verdict=True,
          reason="joins of opens are coproducts in a poset, so every cover has an induced map"),
    check("catalog", "is_superextensive", "T_op", verdict=True,
          reason="in a poset of opens a coproduct cocone is a family whose sources join to the target: an open cover"),
    check("catalog", "is_local", "T_op", verdict=True,
          reason=ISO_ONLY + "; a map whose pullback along an iso is an iso is an iso"),
    check("catalog", "is_local", "T_dis_V", verdict=True,
          reason="every morphism of a poset of opens is in Uni(T_dis), so locality holds trivially"),
    check("catalog", "is_extensive", V, verdict=False,
          reason="oU+oU = oU with identity injections, whose pullback oU is not initial"),
    check("catalog", "is_extensive", "FIX-FS012", verdict=True,
          reason="coproducts of finite sets are disjoint unions, stable under the pullbacks that exist"),
    check("catalog", "is_continuous", "skel01-into-fs012", "T_indis_FS01", "T_ext", verdict=True,
          reason="Uni(T_indis) on FS01 is the identities; the inclusion keeps them and pullbacks along them"),
    check("catalog", "is_cocontinuous", "skel01-into-fs012", "T_indis_FS01", "T_ext", verdict=True,
          reason="Uni(T_ext) on FS012 has only identities into n0 and n1 "
                 "(n2->n1 has no pullback along itself), and they lift"),
    check("catalog", "has_dense_image", "skel01-into-fs012", "T_ext", verdict=True,
          reason="n0, n1 and n2 = n1+n1 are coproducts of objects of FS01"),
    check("catalog", "is_sheaf", "SHV", "T_op", mode="disjoint", verdict=True,
          reason="sections of a discrete space form a sheaf"),
    check("catalog", "is_sheaf", "SHV", "T_op", verdict=False,
          reason="literal mode counts oU+oU = oU, and SHV(oU) has 2 elements, not 4"),
    check("catalog", "is_sheaf", "K2_V", "T_op", mode="disjoint", verdict=False,
          reason="K2 fails on the empty cover: K2(oE) must be a singleton"),
    check("catalog", "is_traditional_sheaf", "SHV", "T_op", verdict=True,
          reason="sections of a discrete space form a sheaf"),
    check("catalog", "is_traditional_sheaf", "K2_V", "T_op", verdict=False,
          reason="K2 fails on the empty cover: one matching family, two sections"),
    check("catalog", "is_extensive_presheaf", "SHV", mode="disjoint", verdict=True,
          reason="disjoint unions of opens go to products of sections"),
    check("catalog", "is_extensive_presheaf", "SHV", verdict=False,
          reason="literal mode counts oU+oU = oU, and SHV(oU) has 2 elements, not 4"),
    check("catalog", "comparison_sheaf_report", "SHV", "T_op", verdict=True,
          reason=COMPARISON),
    check("catalog", "subcanonical_via_representables", "T_op", verdict=True,
          reason="T_op is subcanonical and every representable is a sheaf"),
    check("catalog", "subcanonical_via_representables", "T_ext", verdict=True,
          reason="both sides of the criterion agree on an extensive topology"),
    check("catalog", "is_universal", Mor(V, "oU_to_oX"), verdict=True,
          reason="a poset of opens has all intersections",
          oracle=lambda o: o.is_universal(_vm(o, "oU_to_oX"))),
    check("catalog", "is_epi", Mor(V, "oU_to_oX"), verdict=True, reason="every morphism of a poset is epi"),
    check("catalog", "is_effective_epi", Mor(V, "oU_to_oX"), verdict=False,
          reason="its kernel pair is (id, id) on oU, coequalized by oU, not oX",
          oracle=lambda o: o.is_effective_epi(_vm(o, "oU_to_oX"))),
    check("catalog", "is_effective_epi", Mor(V, "oX_to_oX"), verdict=True,
          reason="identities are effective epis",
          oracle=lambda o: o.is_effective_epi(_vm(o, "oX_to_oX"))),
    check("catalog", "is_locally_split", Mor(V, "oU_to_oX"), "T_op", verdict=False,
          reason="no open cover of oX consists of opens inside oU",
          oracle=lambda o: o.is_locally_split(_vm(o, "oU_to_oX"))),
    check("catalog", "is_locally_split", Mor(V, "oE_to_oE"), "T_op", verdict=True,
          reason="identities are split",
          oracle=lambda o: o.is_locally_split(_vm(o, "oE_to_oE"))),
    check("catalog", "is_universal", Mor("FIX-FS012", "n2>n1:0,0"), verdict=False,
          reason="its pullback along itself has 4 elements, absent from FS012"),
)

LADDER_CHECKS = (
    check("fs", "is_epi", Mor("FS0123", "n3>n2:0,1,1"), verdict=True, reason="surjections are epi"),
    check("fs", "is_epi", Mor("FS0123", "n2>n3:0,1"), verdict=False,
          reason="two maps n3->n2 differing only at 2 agree after it"),
    check("fs", "is_epi", Mor("FS0123", "n0>n1:"), verdict=False,
          reason="all maps agree after the empty map, and n1 has two maps to n2"),
    check("fs", "is_universal", Mor("FS0123", "n2>n3:0,1"), verdict=True,
          reason="preimages in a 3-element set have at most 3 elements"),
    check("fs", "is_universal", Mor("FS0123", "n3>n1:0,0,0"), verdict=False,
          reason="its pullback along n2->n1 has 6 elements"),
    check("fs", "is_universal", Mor("FS0123", "n0>n3:"), verdict=True,
          reason="pullbacks of the empty map are empty"),
    check("fs", "is_universal", Mor("FS012", "n1>n2:0"), verdict=True,
          reason="preimages of a point have at most 2 elements"),
    check("fs", "is_effective_epi", Mor("FS0123", "n3>n2:0,1,1"), verdict=False,
          reason="its kernel pair would have 5 elements"),
    check("fs", "is_effective_epi", Mor("FS0123", "n2>n2:1,0"), verdict=True,
          reason="isos are effective epis"),
    check("fs", "is_locally_split", Mor("FS0123", "n3>n2:0,1,1"), "T_can", verdict=True,
          reason="a surjection has a section over the identity cover"),
    check("fs", "is_locally_split", Mor("FS0123", "n2>n3:0,1"), "T_can", verdict=False,
          reason="T_can covers are isos and a non-surjection has no section"),
    check("fs", "validate_presheaf", "Yo_n2", verdict=True, reason="representables are presheaves"),
    check("fs", "validate_presheaf", "iYo_n3", verdict=True,
          reason="the restriction of a representable is a presheaf"),
    check("fs", "validate_functor", "fs012-into-fs0123", verdict=True,
          reason="the inclusion of a full subcategory is a functor"),
    check("six", "is_universal", Mor("SIX", "o0_to_o01"), verdict=True,
          reason="a poset of opens has all intersections"),
    check("six", "is_effective_epi", Mor("SIX", "o0_to_o01"), verdict=False,
          reason="in a poset only isos are effective epis"),
    check("six", "is_locally_split", Mor("SIX", "o01_to_o012"), "T_six", verdict=False,
          reason="every open cover of {0,1,2} contains {0,1,2} itself"),
    check("six", "is_locally_split", Mor("SIX", "o0_to_o01"), "T_six", verdict=False,
          reason="no open cover of {0,1} lies inside {0}"),
)

CLI_SHORT = Workload(
    "cli-short",
    "short README-style requests on the catalog and ladder bundles: bundle parsing and reporting in cli dominate",
    ("catalog", "fs", "six"),
    (
        Request("laws", ("laws",), 0, "every law of the built-in catalog holds"),
        Request("validate(catalog)", ("validate", "{catalog}"), 0, "catalog structures are valid by construction"),
        kan("catalog", "skel01-into-fs012", "Yo_n1_small", "FIX-FS012", {"n0": 1, "n1": 1, "n2": 1},
            "n1 is terminal, so Yo_n1 and its right Kan extension are terminal presheaves"),
    )
    + CATALOG_CHECKS
    + LADDER_CHECKS,
)

SUBOBJECTS_ARE_FAMILIES = "in a poset of opens a coproduct cocone is exactly an open cover"
ISOS_ONLY_FS = "non-iso surjections of finite sets have no kernel pair within 3 elements, so T_can is the isos"

SITE_LADDER = Workload(
    "site-ladder",
    "topology checks on a ladder of table categories with 3 to 12 objects: fincat cone enumeration dominates",
    ("fs", "six", "sec", "down12"),
    (
        # finset_skeleton([0,1,2]): 3 objects, 11 morphisms
        check("fs", "is_local", "T_can012", verdict=True, reason=ISOS_ONLY_FS + "; isos are local"),
        check("fs", "is_coarser", "T_indis012", "T_can012", verdict=True,
              reason="the indiscrete topology is the coarsest"),
        check("fs", "subcanonical_via_representables", "T_can012", verdict=True,
              reason="T_can is subcanonical and representables are sheaves"),
        check("fs", "is_subcanonical", "T_dis012", verdict=False,
              reason="n0->n1 is universal, so in Uni(T_dis), but not a universal effective epi"),
        check("fs", "validate_pretopology", "T_can012", verdict=True,
              reason="singleton iso covers form a pretopology"),
        # finset_skeleton([0,1,2,3]): 4 objects, 60 morphisms
        check("fs", "is_local", "T_can", verdict=True, reason=ISOS_ONLY_FS + "; isos are local"),
        check("fs", "is_coarser", "T_indis", "T_can", verdict=True,
              reason="the indiscrete topology is the coarsest"),
        check("fs", "validate_pretopology", "T_can", verdict=True,
              reason="singleton iso covers form a pretopology"),
        # the open-cover site of a six-open 4-point space
        check("six", "validate_pretopology", "T_six", verdict=True, reason="open covers form a pretopology"),
        check("six", "is_superextensive", "T_six", verdict=True, reason=SUBOBJECTS_ARE_FAMILIES),
        check("six", "is_local", "T_six", verdict=True, reason=ISO_ONLY + "; isos are local"),
        # the discrete 3-point space: 8 opens, 256 families at the top
        check("sec", "is_superextensive", "T_op3", verdict=True, reason=SUBOBJECTS_ARE_FAMILIES),
        # down-sets of 0<1 on 4 points: 12 opens
        check("down12", "is_superextensive", "T_down", verdict=True, reason=SUBOBJECTS_ARE_FAMILIES),
    ),
)

REPRESENTABLE_SHEAF = "representables send coproducts to products, and descent along the isos of T_can is trivial"
SECTIONS_SHEAF = "sections of a space form a sheaf"
DISJOINT_SHEAF = "disjoint unions of opens go to products of sections, and Uni(T_op) is the isos"

SHEAF_DESCENT = Workload(
    "sheaf-descent",
    "sheaf conditions on sections presheaves of two finite spaces, representables and a Kan extension: "
    "the sheaf layer, plus fincat pullbacks for the representables",
    ("sec", "fs"),
    (
        check("sec", "validate_presheaf", "SEC3", verdict=True,
              reason="restriction of sections is functorial"),
        check("sec", "is_traditional_sheaf", "SEC3", "T_six", verdict=True, reason=SECTIONS_SHEAF),
        check("sec", "is_sheaf", "SEC3", "T_six", mode="disjoint", verdict=True, reason=DISJOINT_SHEAF),
        check("sec", "is_sheaf", "SEC3", "T_six", verdict=False,
              reason="literal mode counts o0+o0 = o0, and SEC3(o0) has 3 elements, not 9"),
        check("sec", "is_traditional_sheaf", "SEC2", "T_op3", verdict=True, reason=SECTIONS_SHEAF),
        check("sec", "comparison_sheaf_report", "SEC2", "T_op3", verdict=True, reason=COMPARISON),
        check("sec", "is_sheaf", "SEC2", "T_op3", mode="disjoint", verdict=True, reason=DISJOINT_SHEAF),
        check("sec", "is_extensive_presheaf", "SEC2", mode="disjoint", verdict=True,
              reason="disjoint unions of opens go to products of sections"),
        *(check("fs", "is_sheaf", f"Yo_n{k}", "T_can", verdict=True,
              reason=REPRESENTABLE_SHEAF) for k in (0, 3)),
        check("fs", "is_traditional_sheaf", "Yo_n3", "T_can", verdict=True,
              reason="representables are sheaves for the canonical topology"),
        kan("fs", "fs012-into-fs0123", "iYo_n3", "FS0123", {"n0": 1, "n1": 3, "n2": 9, "n3": 27},
            "Ran_i i*Yo_n3 at n_k is Nat(i*Yo_nk, i*Yo_n3) = 3^k, since n1 separates finite sets"),
    ),
)

GROUPOIDS = Workload(
    "groupoid-bundles",
    "pair groupoids, Z/n groupoids and their bundles: the finite-sets backend and internal do the work",
    ("gpd-pair", "gpd-cyclic", "gpd-bad"),
    (
        Request("validate(gpd-pair)", ("validate", "{gpd-pair}"), 0,
                "pair groupoids and their target-map bundles are valid"),
        Request("validate(gpd-cyclic)", ("validate", "{gpd-cyclic}"), 0, "Z/n and its regular action are valid"),
        Request("validate(gpd-bad)", ("validate", "{gpd-bad}"), 1,
                "BADINV4 has inverse = identity, so validate stops there"),
        *(check("gpd-pair", "validate_groupoid", f"PAIR{n}", verdict=True,
              reason="(a,b)(b,c) = (a,c) is a groupoid") for n in PAIR_SIZES),
        *(check("gpd-pair", "validate_principal_bundle", f"PAIRB{n}", verdict=True,
                reason="t: G1 -> G0 with right translation is principal") for n in PAIR_SIZES),
        *(check("gpd-cyclic", "validate_groupoid", f"Z{n}", verdict=True,
              reason="Z/n is a group") for n in (6, 9, 12)),
        *(check("gpd-cyclic", "validate_principal_bundle", f"ZB{n}", verdict=True,
                reason="a group translating itself is principal over the point") for n in (6, 9, 12)),
        check("gpd-bad", "validate_groupoid", "BADINV4", verdict=False,
              reason="inverse = identity breaks s . inv = t"),
        check("gpd-bad", "validate_principal_bundle", "TRIVACT4", verdict=False,
              reason="Z/4 acting trivially on a point is not free, so the shear map is not injective"),
    ),
)

WORKLOADS = {w.name: w for w in (CLI_SHORT, SITE_LADDER, SHEAF_DESCENT, GROUPOIDS)}
