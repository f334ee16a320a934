import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsite import catalog, cli, sheaf
from finsite.fincat import FunctorData, TableCategory


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "catalog.json"
    doc = cli.serialize_bundle_doc(cli.catalog_bundle())
    path.write_text(json.dumps(doc))
    return str(path)


def test_bundle_round_trip_is_identity():
    doc = cli.catalog_bundle()
    wire = cli.serialize_bundle_doc(doc)
    again = cli.serialize_bundle_doc(cli.parse_bundle_doc(json.loads(json.dumps(wire))))
    assert again == wire


def test_validate_exit_zero(bundle_path, capsys):
    assert cli.main(["validate", bundle_path]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["verdict"] is True


def test_validate_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["validate", str(bad)]) == 2


@pytest.mark.parametrize("doc, section", [({"categories": []}, "categories"), ({"bundles": 3}, "bundles")])
def test_section_not_an_object_exit_two(tmp_path, capsys, doc, section):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert repr(section) in err and "Traceback" not in err


def test_top_level_array_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert cli.main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "top-level document must be a JSON object\n"


def test_validate_broken_bundle_exit_one(bundle_path, tmp_path, capsys):
    doc = json.loads(Path(bundle_path).read_text())
    # break associativity: declare swap composed with itself to be the swap
    comp = doc["categories"]["FIX-FS012"]["composition"]
    for row in comp:
        if row[0] == "n2>n2:1,0" and row[1] == "n2>n2:1,0":
            row[2] = "n2>n2:1,0"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert cli.main(["validate", str(broken)]) in (1, 2)


def test_check_true_false_and_usage(bundle_path, capsys):
    assert cli.main([
        "check", bundle_path, "--op", "is_subcanonical", "--args", "T_op",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True

    assert cli.main([
        "check", bundle_path, "--op", "is_coarser", "--args", "T_dis_V", "T_indis_V",
    ]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is False

    assert cli.main([
        "check", bundle_path, "--op", "is_coarser", "--args", "T_dis_V",
    ]) == 2
    assert cli.main([
        "check", bundle_path, "--op", "no_such_op", "--args", "T_op",
    ]) == 2
    assert cli.main([
        "check", bundle_path, "--op", "is_subcanonical", "--args", "T_missing",
    ]) == 2


def test_check_morphism_args(bundle_path, capsys):
    assert cli.main([
        "check", bundle_path, "--op", "is_effective_epi",
        "--args", "FIX-FS012:n2>n2:1,0",
    ]) == 0
    capsys.readouterr()
    # the kernel pair of the fold map needs a 4-element carrier, absent here
    assert cli.main([
        "check", bundle_path, "--op", "is_effective_epi",
        "--args", "FIX-FS012:n2>n1:0,0",
    ]) == 1
    capsys.readouterr()
    assert cli.main([
        "check", bundle_path, "--op", "is_locally_split",
        "--args", "FIX-V:oU_to_oX", "T_op",
    ]) == 1
    capsys.readouterr()
    assert cli.main(["check", bundle_path, "--op", "is_universal", "--args", "FIX-V:oX_to_oU"]) == 2
    assert capsys.readouterr().err == "unknown morphism 'oX_to_oU' in category 'FIX-V'\n"


def test_check_extensivity_mode(bundle_path, capsys):
    base = ["check", bundle_path, "--op", "is_sheaf", "--args", "SHV", "T_op"]
    assert cli.main(base + ["--extensivity-mode", "disjoint"]) == 0
    capsys.readouterr()
    assert cli.main(base + ["--extensivity-mode", "literal"]) == 1
    capsys.readouterr()


def test_laws_catalog_only(capsys):
    assert cli.main(["laws"]) == 0
    laws = json.loads(capsys.readouterr().out)
    assert isinstance(laws, list) and len(laws) == 62
    assert all(law["verdict"] for law in laws)


SITE_LAWS = [
    "pretopology axioms",
    "T equivalent to Uni(T)",
    "Uni idempotent",
    "indiscrete coarsest, discrete finest",
    "subcanonical iff representables are sheaves",
]


def test_each_site_gets_the_five_site_laws():
    """The catalog's 12 sites get the five site laws each, in order, then the
    presheaf and groupoid fixtures; a bundle adds five laws per topology and
    one per structure."""
    catalog_names = [name for name, _ in cli.law_suite()]
    tags = [name.rpartition(" [")[2] for name in catalog_names[:60:5]]
    assert catalog_names == [f"{label} [{tag}" for tag in tags for label in SITE_LAWS] + [
        "presheaf fixtures behave [catalog]",
        "groupoid fixtures validate [catalog]",
    ]
    doc = cli.parse_bundle_doc(_one_char_doc())
    names = [name for name, _ in cli.law_suite(doc)]
    assert names[60:65] == [f"{label} [T@D]" for label in SITE_LAWS]
    assert names[:60] + names[65:67] == catalog_names
    assert names[67:] == [
        "user category D validates",
        "user topology T validates",
        "user functor F validates",
        "user presheaf P validates",
        "user groupoid G validates",
        "user bundle B validates",
    ]


def test_every_law_has_its_own_name(capsys):
    """A failing law can be told apart by its name: the catalog's sites
    name their categories, so FIX-V and FIX-S, both open posets, differ."""
    assert cli.main(["laws"]) == 0
    names = [law["check"] for law in json.loads(capsys.readouterr().out)]
    assert len(set(names)) == len(names) == 62
    names = [name for name, _ in cli.law_suite(cli.parse_bundle_doc(_one_char_doc()))]
    assert len(set(names)) == len(names)


def test_laws_with_broken_user_topology(bundle_path, tmp_path, capsys):
    doc = json.loads(Path(bundle_path).read_text())
    fams = doc["topologies"]["T_op"]["families"]
    for obj, fam_list in fams:
        if obj == "oX":
            fam_list[:] = [["oU_to_oX"]]  # not stable, oV pullback missing cover
    broken = tmp_path / "badlaws.json"
    broken.write_text(json.dumps(doc))
    assert cli.main(["laws", str(broken)]) == 1


def test_kan_happy_path(bundle_path, capsys):
    rc = cli.main([
        "kan", bundle_path, "--functor", "skel01-into-fs012",
        "--presheaf", "Yo_n1_small",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    (ext,) = report["presheaves"].values()
    values = dict((k, v) for k, v in ext["values"])
    assert {k: len(v) for k, v in values.items()} == {"n0": 1, "n1": 1, "n2": 1}


def test_kan_unresolved_names(bundle_path, capsys):
    assert cli.main([
        "kan", bundle_path, "--functor", "nope", "--presheaf", "Yo_n1_small",
    ]) == 2
    assert cli.main([
        "kan", bundle_path, "--functor", "skel01-into-fs012", "--presheaf", "SHV",
    ]) == 2


def test_laws_time_each_law(capsys):
    started = time.perf_counter()
    assert cli.main(["laws"]) == 0
    elapsed = time.perf_counter() - started
    laws = json.loads(capsys.readouterr().out)
    assert sum(law["wall_time"] for law in laws) <= elapsed


def _write_variant(bundle_path, tmp_path, edit):
    doc = json.loads(Path(bundle_path).read_text())
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_dangling_composition_row_exit_two(bundle_path, tmp_path, capsys):
    path = _write_variant(
        bundle_path,
        tmp_path,
        lambda doc: doc["categories"]["FIX-V"]["composition"].append(
            ["oU_to_oX", "NOPE", "oU_to_oX"]
        ),
    )
    assert cli.main(["validate", path]) == 2
    assert "NOPE" in capsys.readouterr().err


def test_dangling_morphism_endpoint_exit_two(bundle_path, tmp_path, capsys):
    path = _write_variant(
        bundle_path,
        tmp_path,
        lambda doc: doc["categories"]["FIX-V"]["morphisms"].append(["stray", "oU", "oNOPE"]),
    )
    assert cli.main(["validate", path]) == 2
    assert "stray" in capsys.readouterr().err


def test_dangling_family_member_exit_two(bundle_path, tmp_path, capsys):
    def edit(doc):
        for obj, fams in doc["topologies"]["T_op"]["families"]:
            if obj == "oX":
                fams.append(["ghost_mor"])

    path = _write_variant(bundle_path, tmp_path, edit)
    assert cli.main(["validate", path]) == 2
    assert "ghost_mor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "op, args",
    [
        ("is_traditional_sheaf", ["K2_FS", "T_op"]),
        ("is_sheaf", ["K2_FS", "T_dis_V"]),
        ("is_continuous", ["skel01-into-fs012", "T_op", "T_ext"]),
        ("is_continuous", ["skel01-into-fs012", "T_ext", "T_op"]),
        ("has_dense_image", ["skel01-into-fs012", "T_op"]),
        ("is_locally_split", ["FIX-FS012:n0>n1:", "T_op"]),
        ("is_cocontinuous", ["skel01-into-fs012", "T_op", "T_ext"]),
    ],
)
def test_sheaf_check_across_categories_exit_two(bundle_path, capsys, op, args):
    assert cli.main(["check", bundle_path, "--op", op, "--args", *args]) == 2
    assert "different categories" in capsys.readouterr().err


def test_kan_across_categories_exit_two(bundle_path, capsys):
    """K2_FS lives on FIX-FS012, the target of the functor, not its source."""
    argv = ["kan", bundle_path, "--functor", "skel01-into-fs012", "--presheaf", "K2_FS"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "live on different categories" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("groupoid", lambda doc: doc["groupoids"]["FIX-Z2GPD"].pop("inv")),
        ("bundle", lambda doc: doc["bundles"]["FIX-Z2BUNDLE"].__setitem__("groupoid", "NOPE")),
        ("topology", lambda doc: doc["topologies"]["T_op"].__setitem__("category", "NOPE")),
    ],
)
def test_malformed_entry_names_its_kind(bundle_path, tmp_path, capsys, kind, edit):
    path = _write_variant(bundle_path, tmp_path, edit)
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"malformed {kind}" in err and "Traceback" not in err


def _one_char_doc():
    """A valid bundle of one structure per kind whose elements are all
    one-character strings, so that every list of elements, written as the
    string of its elements, spells the same elements character by character."""
    return {
        "categories": {"D": {
            "objects": ["a", "b"],
            "morphisms": [["1", "a", "a"], ["2", "b", "b"]],
            "identity": [["a", "1"], ["b", "2"]],
            "composition": [["1", "1", "1"], ["2", "2", "2"]],
        }},
        "topologies": {"T": {"category": "D", "families": [["a", [["1"]]], ["b", [["2"]]]]}},
        "functors": {"F": {
            "source": "D", "target": "D", "on_objects": [["a", "a"], ["b", "b"]],
            "on_morphisms": [["1", "1"], ["2", "2"]],
        }},
        "presheaves": {"P": {
            "category": "D",
            "values": [["a", ["p", "q"]], ["b", ["p"]]],
            "restriction": [["1", [["p", "p"], ["q", "q"]]], ["2", [["p", "p"]]]],
        }},
        "groupoids": {"G": {
            "X0": ["*"], "X1": ["e"], "s": [["e", "*"]], "t": [["e", "*"]], "i": [["*", "e"]],
            "comp": [["e", "e", "e"]], "inv": [["e", "e"]],
        }},
        "bundles": {"B": {
            "groupoid": "G", "carrier": ["x"], "anchor": [["x", "*"]], "action": [["x", "e", "x"]],
            "base": ["b"], "projection": [["x", "b"]],
        }},
    }


@pytest.mark.parametrize(
    "kind, name, edit",
    [
        ("category", "D", lambda doc: doc["categories"]["D"].__setitem__("objects", "ab")),
        # the family [["1"]] of a written as ["1"]: its one member list is the string "1"
        ("topology", "T", lambda doc: doc["topologies"]["T"]["families"][0].__setitem__(1, ["1"])),
        ("presheaf", "P", lambda doc: doc["presheaves"]["P"]["values"][0].__setitem__(1, "pq")),
        ("groupoid", "G", lambda doc: doc["groupoids"]["G"].__setitem__("X0", "*")),
        ("groupoid", "G", lambda doc: doc["groupoids"]["G"].__setitem__("X1", "e")),
        ("bundle", "B", lambda doc: doc["bundles"]["B"].__setitem__("carrier", "x")),
        ("bundle", "B", lambda doc: doc["bundles"]["B"].__setitem__("base", "b")),
    ],
)
def test_string_for_element_list_is_malformed(tmp_path, capsys, kind, name, edit):
    """A string where a list of elements is required is not read as its
    characters, even where they would name the right elements."""
    path = tmp_path / "one-char.json"
    path.write_text(json.dumps(_one_char_doc()))
    assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()
    doc = _one_char_doc()
    edit(doc)
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"malformed {kind} {name!r}: ") and "JSON array" in err and "Traceback" not in err


# every list of rows in _one_char_doc: (kind, section, name, the keys down to the list)
ROW_LISTS = [
    ("category", "categories", "D", ("morphisms",)),
    ("category", "categories", "D", ("identity",)),
    ("category", "categories", "D", ("composition",)),
    ("topology", "topologies", "T", ("families",)),
    ("functor", "functors", "F", ("on_objects",)),
    ("functor", "functors", "F", ("on_morphisms",)),
    ("presheaf", "presheaves", "P", ("values",)),
    ("presheaf", "presheaves", "P", ("restriction",)),
    ("presheaf", "presheaves", "P", ("restriction", 0, 1)),
    ("groupoid", "groupoids", "G", ("s",)),
    ("groupoid", "groupoids", "G", ("t",)),
    ("groupoid", "groupoids", "G", ("i",)),
    ("groupoid", "groupoids", "G", ("comp",)),
    ("groupoid", "groupoids", "G", ("inv",)),
    ("bundle", "bundles", "B", ("anchor",)),
    ("bundle", "bundles", "B", ("action",)),
    ("bundle", "bundles", "B", ("projection",)),
]
ROW_IDS = ["/".join(map(str, (name,) + keys)) for _, _, name, keys in ROW_LISTS]


def _row_list(doc, section, name, keys):
    rows = doc[section][name]
    for k in keys:
        rows = rows[k]
    return rows


def _assert_malformed(tmp_path, capsys, doc, kind, name):
    path = tmp_path / "one-char.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"malformed {kind} {name!r}: ") and "JSON array" in err and "Traceback" not in err


@pytest.mark.parametrize("kind, section, name, keys", ROW_LISTS, ids=ROW_IDS)
def test_string_or_object_for_a_row_is_malformed(tmp_path, capsys, kind, section, name, keys):
    """A row given as a string of its one-character elements (a list in it
    as one more character), or as an object, would unpack to its
    characters or keys, which name the right elements where the row's own
    do; either is malformed, in every list of rows."""
    row = _row_list(_one_char_doc(), section, name, keys)[0]
    as_string = "".join(x if isinstance(x, str) else "?" for x in row)
    # an object whose keys, in order, are the row's elements, where they are distinct strings
    as_object = dict.fromkeys(as_string) if len(set(as_string)) == len(row) else {"k": 0}
    for written in (as_string, as_object):
        doc = _one_char_doc()
        _row_list(doc, section, name, keys)[0] = written
        _assert_malformed(tmp_path, capsys, doc, kind, name)


@pytest.mark.parametrize("kind, section, name, keys", ROW_LISTS, ids=ROW_IDS)
def test_object_for_a_list_of_rows_is_malformed(tmp_path, capsys, kind, section, name, keys):
    """A list of rows given as an object, whose one key is its first row as
    a string, would iterate to that key and unpack it."""
    doc = _one_char_doc()
    rows = _row_list(doc, section, name, keys[:-1])
    row = rows[keys[-1]][0]
    rows[keys[-1]] = {"".join(x if isinstance(x, str) else "?" for x in row): 0}
    _assert_malformed(tmp_path, capsys, doc, kind, name)


def test_check_offers_one_validate_op_per_kind(tmp_path, capsys):
    """Each kind of bundle structure has one validate op, which takes one
    structure of that kind."""
    ops = {op: kinds for op, (kinds, _) in cli._dispatch_table("literal").items() if op.startswith("validate_")}
    assert ops == {
        "validate_category": ("category",),
        "validate_pretopology": ("topology",),
        "validate_functor": ("functor",),
        "validate_presheaf": ("presheaf",),
        "validate_groupoid": ("groupoid",),
        "validate_principal_bundle": ("bundle",),
    }
    assert sorted(ops.values()) == sorted((kind,) for kind in cli._kinds())
    path = tmp_path / "one-char.json"
    path.write_text(json.dumps(_one_char_doc()))
    for op, name in [
        ("validate_category", "D"),
        ("validate_pretopology", "T"),
        ("validate_functor", "F"),
        ("validate_presheaf", "P"),
        ("validate_groupoid", "G"),
        ("validate_principal_bundle", "B"),
    ]:
        assert cli.main(["check", str(path), "--op", op, "--args", name]) == 0
        assert json.loads(capsys.readouterr().out)["check"] == op
        # a name of another kind does not resolve
        assert cli.main(["check", str(path), "--op", op, "--args", "D" if name != "D" else "T"]) == 2
        capsys.readouterr()


def _repeat_row(section, name, key, pick=lambda rows: rows[0]):
    """An edit that appends to a keyed list a row repeating pick(rows)'s key."""

    def edit(doc):
        rows = doc[section][name][key]
        rows.append(pick(rows))

    return edit


def _swapped_morphism(rows):
    return next([m, b, a] for m, a, b in rows if a != b)


@pytest.mark.parametrize(
    "kind, name, edit",
    [
        pytest.param("category", "FIX-V", _repeat_row("categories", "FIX-V", "objects"), id="objects"),
        pytest.param(
            "category", "FIX-V", _repeat_row("categories", "FIX-V", "morphisms", _swapped_morphism),
            id="morphisms-swapped",
        ),
        pytest.param("category", "FIX-V", _repeat_row("categories", "FIX-V", "identity"), id="identity"),
        pytest.param(
            "category", "FIX-V", _repeat_row("categories", "FIX-V", "composition"), id="composition"
        ),
        pytest.param("topology", "T_op", _repeat_row("topologies", "T_op", "families"), id="families"),
        pytest.param(
            "functor", "skel01-into-fs012",
            _repeat_row("functors", "skel01-into-fs012", "on_objects"), id="on_objects",
        ),
        pytest.param(
            "functor", "skel01-into-fs012",
            _repeat_row("functors", "skel01-into-fs012", "on_morphisms"), id="on_morphisms",
        ),
        pytest.param("presheaf", "SHV", _repeat_row("presheaves", "SHV", "values"), id="values"),
        pytest.param(
            "presheaf", "SHV", _repeat_row("presheaves", "SHV", "restriction"), id="restriction"
        ),
        pytest.param(
            "presheaf", "SHV",
            lambda doc: doc["presheaves"]["SHV"]["restriction"][0][1].append(
                doc["presheaves"]["SHV"]["restriction"][0][1][0]
            ),
            id="restriction-pairs",
        ),
        *(
            pytest.param("groupoid", "FIX-PAIR2", _repeat_row("groupoids", "FIX-PAIR2", key), id=key)
            for key in ("s", "t", "i", "inv", "comp")
        ),
        *(
            pytest.param("bundle", "FIX-Z2BUNDLE", _repeat_row("bundles", "FIX-Z2BUNDLE", key), id=key)
            for key in ("anchor", "action", "projection")
        ),
    ],
)
def test_repeated_key_is_malformed(bundle_path, tmp_path, capsys, kind, name, edit):
    """A keyed list with two rows for one key is refused, where a table
    built from it would keep the last row only."""
    path = _write_variant(bundle_path, tmp_path, edit)
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"malformed {kind} {name!r}" in err and "repeat" in err and "Traceback" not in err


def _restriction_row(doc, m):
    return next(r for k, r in doc["presheaves"]["SHV"]["restriction"] if k == m)


def _drop_composition_row(doc):
    comp = doc["categories"]["FIX-V"]["composition"]
    comp[:] = [row for row in comp if row[:2] != ["oU_to_oX", "oE_to_oU"]]


def _drop_value_set(obj):
    def edit(doc):
        values = doc["presheaves"]["SHV"]["values"]
        values[:] = [row for row in values if row[0] != obj]

    return edit


KAN = ["kan", "--functor", "skel01-into-fs012", "--presheaf", "Yo_n1_small"]
SHEAF = ["check", "--op", "is_sheaf", "--args", "SHV", "T_op", "--extensivity-mode", "disjoint"]


@pytest.mark.parametrize(
    "edit, command",
    [
        pytest.param(
            lambda doc: doc["functors"]["skel01-into-fs012"]["on_morphisms"][0].__setitem__(1, "ghost"),
            KAN,
            id="functor-image-ghost",
        ),
        pytest.param(
            lambda doc: doc["functors"]["skel01-into-fs012"]["on_objects"].pop(),
            KAN,
            id="functor-missing-object",
        ),
        pytest.param(
            lambda doc: doc["presheaves"]["K2_V"]["restriction"].append(["ghost", [["a", "a"]]]),
            ["validate"],
            id="restriction-ghost",
        ),
        pytest.param(
            lambda doc: doc["presheaves"]["SHV"]["restriction"].pop(0),
            ["validate"],
            id="restriction-row-missing",
        ),
        *(
            pytest.param(_drop_value_set(obj), SHEAF, id=f"SHV-without-{obj}")
            for obj in ("oE", "oU", "oV", "oX")
        ),
        *(
            pytest.param(
                lambda doc: _restriction_row(doc, "oE_to_oU")[0].__setitem__(1, "zzz"),
                command,
                id=f"restriction-leaves-values-{command[0]}",
            )
            for command in (["validate"], SHEAF)
        ),
        *(
            pytest.param(
                lambda doc: _restriction_row(doc, "oE_to_oE").pop(0),
                command,
                id=f"restriction-misses-element-{command[0]}",
            )
            for command in (["validate"], SHEAF)
        ),
        pytest.param(
            lambda doc: _restriction_row(doc, "oU_to_oX").pop(0),
            SHEAF,
            id="restriction-misses-element-oU_to_oX",
        ),
        pytest.param(
            _drop_composition_row,
            ["check", "--op", "is_local", "--args", "T_op"],
            id="composition-row-missing",
        ),
    ],
)
def test_unknown_functor_and_presheaf_ids_exit_two(bundle_path, tmp_path, capsys, edit, command):
    path = _write_variant(bundle_path, tmp_path, edit)
    assert cli.main([command[0], path, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "Traceback" not in err


def _functor_wrong_endpoints(doc):
    """Send the identity of n0 to the swap on n2, which is no morphism n0 -> n0."""
    doc["functors"]["skel01-into-fs012"]["on_morphisms"][0][1] = "n2>n2:1,0"


def _drop_identity_row(doc):
    identity = doc["categories"]["FIX-V"]["identity"]
    identity[:] = [row for row in identity if row[0] != "oU"]


@pytest.mark.parametrize(
    "edit, command",
    [
        pytest.param(_functor_wrong_endpoints, KAN, id="functor-wrong-endpoints"),
        pytest.param(_drop_identity_row, SHEAF, id="identity-row-missing"),
    ],
)
def test_law_breaking_bundle_exit_two(bundle_path, tmp_path, capsys, edit, command):
    path = _write_variant(bundle_path, tmp_path, edit)
    assert cli.main([command[0], path, *command[1:]]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        KAN,
        ["check", "--op", "has_dense_image", "--args", "skel01-into-fs012", "T_ext"],
        ["check", "--op", "validate_functor", "--args", "skel01-into-fs012"],
        ["validate"],
    ],
    ids=["kan", "has_dense_image", "validate_functor", "validate"],
)
def test_functor_wrong_endpoints_is_malformed(bundle_path, tmp_path, capsys, command):
    """A functor map that sends a morphism to one with other endpoints is
    rejected when the bundle loads, whatever the command asks about."""
    path = _write_variant(bundle_path, tmp_path, _functor_wrong_endpoints)
    assert cli.main([command[0], path, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "malformed functor 'skel01-into-fs012'" in err and "Traceback" not in err


def _mistyped_fix_v(doc):
    for row in doc["categories"]["FIX-V"]["composition"]:
        if row[:2] == ["oU_to_oX", "oE_to_oU"]:
            row[2] = "oX_to_oX"  # should be oE -> oX


@pytest.mark.parametrize(
    "command",
    [SHEAF, ["check", "--op", "is_local", "--args", "T_op"], KAN, ["validate"]],
    ids=["is_sheaf", "is_local", "kan", "validate"],
)
def test_ill_typed_category_exit_two(bundle_path, tmp_path, capsys, command):
    """A composition row with the wrong endpoints makes the whole bundle
    malformed, whatever the command asks about."""
    path = _write_variant(bundle_path, tmp_path, _mistyped_fix_v)
    assert cli.main([command[0], path, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "malformed category 'FIX-V'" in err and "Traceback" not in err


def _ids(value, path=()):
    """The path to and the value of each id (a string or number) in a JSON value."""
    if isinstance(value, list):
        for k, v in enumerate(value):
            yield from _ids(v, (*path, k))
    else:
        yield path, value


def _mutate(doc, data):
    """Mutate one entry of doc: drop one of its keys, set it to null, 7 or [],
    or retarget one id of one row to an undeclared id or to another id declared
    in the document (an entry's name or an id in the same section)."""
    edit = data.draw(st.sampled_from(["drop", None, 7, [], "retarget"]))
    keys = [(sec, n, k) for sec in sorted(doc) for n in sorted(doc[sec]) for k in sorted(doc[sec][n])]
    if edit == "retarget":
        keys = [key for key in keys if any(_ids(doc[key[0]][key[1]][key[2]]))]
    sec, n, k = data.draw(st.sampled_from(keys))
    entry = doc[sec][n]
    if edit == "drop":
        del entry[k]
    elif edit != "retarget":
        entry[k] = edit
    else:
        path, old = data.draw(st.sampled_from(list(_ids(entry[k], (k,)))))
        declared = {v for e in doc[sec].values() for value in e.values() for _, v in _ids(value)}
        declared |= {name for section in doc.values() for name in section}
        row = entry
        for step in path[:-1]:
            row = row[step]
        row[path[-1]] = data.draw(st.sampled_from(["ghost", *sorted(declared - {old}, key=repr)]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_mutated_catalog_bundle_exits_cleanly(bundle_path, data):
    """validate on the catalog bundle with one entry mutated exits 0, 1 or 2
    and raises nothing."""
    doc = json.loads(Path(bundle_path).read_text())
    _mutate(doc, data)
    path = Path(bundle_path).with_name("mutated.json")
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) in (0, 1, 2)


def _non_composable_comp_row(doc):
    """A comp row on declared arrows (g, h) of FIX-PAIR2 with s(g) != t(h)."""
    gpd = doc["groupoids"]["FIX-PAIR2"]
    s = {json.dumps(g): x for g, x in gpd["s"]}
    t = {json.dumps(h): x for h, x in gpd["t"]}
    g, h = next(
        (g, h) for g in gpd["X1"] for h in gpd["X1"] if s[json.dumps(g)] != t[json.dumps(h)]
    )
    gpd["comp"].append([g, h, g])


@pytest.mark.parametrize(
    "kind, edit",
    [
        pytest.param(
            "groupoid",
            lambda doc: doc["groupoids"]["FIX-PAIR2"]["s"].append(["ghost", 0]),
            id="s-row",
        ),
        pytest.param("groupoid", _non_composable_comp_row, id="comp-row"),
        pytest.param(
            "bundle",
            lambda doc: doc["bundles"]["FIX-Z2BUNDLE"]["action"].append(["ghost", "ghost", "ghost"]),
            id="action-row",
        ),
    ],
)
def test_stray_table_row_exit_two(bundle_path, tmp_path, capsys, kind, edit):
    """A row outside the domain of s, comp or the action is an error, not dropped."""
    path = _write_variant(bundle_path, tmp_path, edit)
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"malformed {kind}" in err and "Traceback" not in err


def _old_restriction_order(P):
    return sorted(([_old_encode(m), _old_pairs(r)] for m, r in P.restriction.items()), key=repr)


def test_serialized_restriction_rows_keep_the_whole_row_order():
    """Rows sorted by the repr of their id come out as sorting whole rows did."""
    presheaves = list(cli.catalog_bundle().presheaves.values())
    fs = catalog.finset_skeleton([0, 1, 2, 3])
    presheaves += [sheaf.representable(fs, x) for x in fs.objects]
    for P in presheaves:
        assert cli.serialize_presheaf(P, {id(P.cat): "C"})["restriction"] == _old_restriction_order(P)


def _recursive_decode(v):
    """The decoder before ids were shared: arrays to tuples, recursively."""
    if isinstance(v, list):
        return tuple(_recursive_decode(x) for x in v)
    return v


def _same_values_and_types(a, b):
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same_values_and_types, a, b))
    return a == b


_json_ids = st.recursive(
    st.sampled_from([1, 1.0, True, False, None, 0, 0.0, "a", "1", "true"]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(_json_ids, max_size=6))
def test_decoder_matches_the_recursive_decoder(values):
    decode = cli._decoder()
    wire = json.loads(json.dumps(values))
    assert _same_values_and_types(decode(wire), _recursive_decode(wire))


def test_decoder_shares_ids_by_value_and_arrays_by_items():
    decode = cli._decoder()
    got = decode(json.loads('[1, true, 1.0, [1, 2], [true, 2], ["a", 2], ["a", 2], "a"]'))
    assert _same_values_and_types(got, (1, True, 1.0, (1, 2), (True, 2), ("a", 2), ("a", 2), "a"))
    assert got[5] is got[6] and got[5][0] is got[7]
    assert got[3] is not got[4]


def test_families_of_arrays_ints_and_bools_parse_as_before():
    """Each member of a family is the object decode gives for it, so [1],
    1 and true stay a tuple, an int and a bool, next to a string."""

    def reprs(fams):
        return sorted(sorted(map(repr, fam)) for fam in fams)

    for fs in ([["a"], ["a", "b"], []], [[[1]]], [[1]], [[True]], [["a", [1, "a"]], [True, "b"]]):
        wire = json.loads(json.dumps(fs))
        decode = cli._decoder()
        got = cli._families(wire, decode)
        assert reprs(got) == reprs({frozenset(map(_recursive_decode, fam)) for fam in wire}), fs
        assert {id(m) for fam in got for m in fam} == {id(decode(m)) for fam in wire for m in fam}, fs


def test_a_family_written_as_a_string_is_malformed(tmp_path, capsys):
    doc = _one_char_doc()
    doc["topologies"]["T"]["families"][0][1] = ["1", "1"]
    path = tmp_path / "string-family.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed topology 'T': ") and "a family must be a JSON array" in err


def test_topology_members_are_the_category_ids(bundle_path):
    """Every member of a parsed topology is the very string object its
    category's morphism table holds."""
    doc = cli.load_bundle(bundle_path)
    assert doc.topologies
    for T in doc.topologies.values():
        ids = {id(m) for m in T.cat.morphisms()}
        assert all(id(m) in ids for fams in T.families.values() for fam in fams for m in fam), T.name


def test_presheaves_on_ints_and_bools_round_trip():
    """Values [0, 1] and [false, true] in one bundle stay ints and bools."""
    cat = TableCategory(["x"], {"1x": ("x", "x")}, {"x": "1x"}, {("1x", "1x"): "1x"}, name="ONE")
    doc = cli.BundleDoc(categories={"ONE": cat})
    for name, (a, b) in (("INTS", (0, 1)), ("BOOLS", (False, True))):
        doc.presheaves[name] = sheaf.Presheaf(cat, {"x": (a, b)}, {"1x": {a: a, b: b}}, name=name)
    wire = json.loads(json.dumps(cli.serialize_bundle_doc(doc)))
    parsed = cli.parse_bundle_doc(wire)
    assert json.dumps(cli.serialize_bundle_doc(parsed)) == json.dumps(wire)
    assert [type(v) for v in parsed.presheaves["BOOLS"].values["x"]] == [bool, bool]
    assert [type(v) for v in parsed.presheaves["INTS"].values["x"]] == [int, int]


def test_parsed_groupoid_maps_are_keyed_by_its_arrows(bundle_path):
    G = cli.load_bundle(bundle_path).groupoids["FIX-PAIR2"]
    arrows = {id(g) for g in G.X1}
    assert all(id(g) in arrows for g in G.s.mapping)


def test_parsed_comp_and_action_are_keyed_by_the_apex(bundle_path):
    """comp and act hold the fibre product's own pairs as keys, not the
    equal pairs built from the bundle's rows."""
    doc = cli.load_bundle(bundle_path)
    G = doc.groupoids["FIX-PAIR2"]
    assert {id(w) for w in G.comp.mapping} == {id(w) for w in G.X2.apex}
    action = doc.bundles["FIX-Z2BUNDLE"].action
    assert {id(e) for e in action.act.mapping} == {id(e) for e in action.dom.apex}


_PARSE_EACH_COMMAND = """
import json, re, sys
from finsite import cli
compiler = getattr(re, "_compiler", None) or __import__("sre_compile")
real, patterns = compiler.compile, []
compiler.compile = lambda p, *a: patterns.append(p) or real(p, *a)
for argv in json.loads(sys.argv[1]):
    cli._PARSER.parse_args(argv)
print(json.dumps(patterns))
"""


def test_one_parser_serves_every_call(bundle_path, capsys):
    """main() reuses one parser; no option value carries over to the next
    call.  Parsing compiles no regular expression after import: argparse's
    patterns are in re's cache by then.  Counted in a fresh interpreter,
    whose cache nothing else has filled."""
    argvs = [
        ["validate", bundle_path],
        ["check", bundle_path, "--op", "is_sheaf", "--args", "SHV", "T_op", "--extensivity-mode", "disjoint"],
        ["check", bundle_path, "--op", "validate_category", "--args", "FIX-V"],
        ["laws"],
        ["laws", bundle_path],
        ["kan", bundle_path, "--functor", "skel01-into-fs012", "--presheaf", "Yo_n1_small"],
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", _PARSE_EACH_COMMAND, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(run.stdout) == []

    check = ["check", bundle_path, "--op", "is_subcanonical"]
    assert cli.main([*check, "--args", "T_op"]) == 0
    capsys.readouterr()
    assert cli.main(check) == 2
    assert "takes 1 argument(s), got 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", bundle_path])
    assert exc.value.code == 2


def test_decoder_shares_arrays_by_json_text():
    """Arrays with equal JSON text decode to one tuple across the entries of
    one document, arrays of big ints included; [1, 2], [true, 2] and
    [1.0, 2] stay apart, and so do [-0.0] and [0.0]."""
    big = [[2**80, 1], [2**80, 2]]
    cat = {"objects": ["x"], "morphisms": [["1x", "x", "x"]], "identity": [["x", "1x"]],
           "composition": [["1x", "1x", "1x"]]}
    presheaf = {"category": "ONE", "values": [["x", big]], "restriction": [["1x", [[e, e] for e in big]]]}
    wire = {"categories": {"ONE": cat}, "presheaves": {"P": presheaf, "Q": presheaf}}
    doc = cli.parse_bundle_doc(json.loads(json.dumps(wire)))
    P, Q = doc.presheaves["P"], doc.presheaves["Q"]
    shared = {id(e) for e in P.values["x"]}
    assert len(shared) == 2 and {id(e) for e in Q.values["x"]} == shared
    assert {id(e) for pair in Q.restriction["1x"].items() for e in pair} == shared

    apart = [[1, 2], [True, 2], [1.0, 2], [-0.0], [0.0]]
    got = cli._decoder()(json.loads(json.dumps(apart + apart)))
    assert _same_values_and_types(got, _recursive_decode(apart + apart))
    assert len({id(e) for e in got}) == len(apart)
    assert [math.copysign(1, e[0]) for e in got[3:5]] == [-1, 1]


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e20]),
    st.text(),
    st.sampled_from(["", "é中\U0001f600", 'quote " slash \\ tab \t nl \n nul \x00']),
)
# one key type per dict: json.dumps with sort_keys raises on str next to int
_uniform_keys = st.one_of(
    st.text(max_size=3), st.integers() | st.floats() | st.booleans(), st.none()
)


def _json_values(scalars, keys):
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            keys.flatmap(lambda key: st.dictionaries(key, inner, max_size=4)),
        ),
        max_leaves=16,
    )


def _stdlib_dumps(v):
    return json.dumps(v, indent=2, sort_keys=True)


def _outcome(dumps, v):
    try:
        return dumps(v)
    except TypeError:
        return TypeError


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_json_values(_json_scalars, _uniform_keys.map(st.just)))
def test_writer_matches_json_dumps(v):
    assert cli._dumps(v) == _stdlib_dumps(v)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    _json_values(
        _json_scalars | st.sampled_from([object(), {1, 2}, b"x"]),
        st.just(st.one_of(st.text(max_size=2), st.integers(), st.floats(), st.booleans(),
                          st.none(), st.tuples(st.integers()))),
    )
)
def test_writer_raises_where_json_does(v):
    """Mixed key types under sort_keys, a tuple key or a value json cannot
    encode raise TypeError from both; every other value writes the same."""
    assert _outcome(cli._dumps, v) == _outcome(_stdlib_dumps, v)


def _old_encode(v):
    if isinstance(v, (tuple, list)):
        return [_old_encode(x) for x in v]
    if isinstance(v, (set, frozenset)):
        return sorted((_old_encode(x) for x in v), key=repr)
    return v


def _old_pairs(mapping):
    return sorted(([_old_encode(k), _old_encode(v)] for k, v in mapping.items()), key=repr)


def _old_serialize_presheaf(P, cat_name):
    """serialize_presheaf before it shared encoded values: _encode on every
    occurrence."""
    return {
        "category": cat_name,
        "values": sorted(
            ([_old_encode(x), [_old_encode(v) for v in vs]] for x, vs in P.values.items()), key=repr
        ),
        "restriction": sorted(
            ([_old_encode(m), _old_pairs(r)] for m, r in P.restriction.items()),
            key=lambda row: repr(row[0]),
        ),
    }


def test_serialize_presheaf_matches_the_unshared_encoder():
    presheaves = list(cli.catalog_bundle().presheaves.values())
    fs012 = catalog.fix_fs012()
    fs = catalog.finset_skeleton([0, 1, 2, 3])
    presheaves += [sheaf.representable(fs, x) for x in fs.objects]
    incl = FunctorData(fs012, fs, {x: x for x in fs012.objects}, {m: m for m in fs012.morphisms()})
    presheaves.append(sheaf.right_kan_extension(incl, sheaf.pullback_presheaf(incl, presheaves[-1])))
    one = TableCategory(["x"], {"1x": ("x", "x")}, {"x": "1x"}, {("1x", "1x"): "1x"}, name="ONE")
    # a set's encoding is sorted by repr: 10, 100, 9, not in the order it
    # iterates; (1, 2) and (True, 2) are one dict key but encode apart
    values = (frozenset({9, 10, 100}), frozenset({(1, "a"), (0, "b")}), (1, 2), (True, 2))
    presheaves.append(sheaf.Presheaf(one, {"x": values}, {"1x": {v: v for v in values}}, name="MIXED"))
    for P in presheaves:
        # compared as text, where true and 1 differ
        expected = _stdlib_dumps(_old_serialize_presheaf(P, "C"))
        got = cli.serialize_presheaf(P, {id(P.cat): "C"})
        assert _stdlib_dumps(got) == expected
        assert cli._dumps(got) == expected


# scalars whose reprs sort apart from their values or from each other:
# True and 1, 1 and 10, -0.0 and 0.0, and strings holding quotes, commas and brackets
_repr_scalars = st.one_of(
    st.booleans(),
    st.integers(-12, 12),
    st.sampled_from([1, 10, -0.0, 0.0, 1.5, None]),
    st.text(alphabet="ab'\",[] ", max_size=4),
)
_hashable_values = st.recursive(
    _repr_scalars,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=8,
)
_row_values = st.recursive(
    _hashable_values,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_hashable_values, _row_values), max_size=6))
@example([(("x",), 1), (frozenset({"x"}), 10)])
@example([("k", True), ("j", 1), ((-0.0,), 0.0), ((0.0,), -0.0), ("a'", '"b",'), ("[c]", "c, d")])
def test_pairs_key_is_the_row_repr(items):
    """The memoized key of each row is the repr of the encoded row, character
    for character, for values met once or shared by many rows, so _pairs
    orders rows as sorting them by repr did.  ("x",) and frozenset({"x"})
    are two keys that both encode to ["x"]: with values 1 and 10 the row
    [["x"], 10] comes first, where sorting by the pair of the two reprs
    would put it last."""
    # two more rows hold the first row's value object, so memoized reprs are read again
    rows = items + [(("shared", i), items[0][1]) for i in range(2) if items]
    encode = cli._encoder()
    for k, v in rows:
        assert "[" + encode.rep(k) + ", " + encode.rep(v) + "]" == repr([encode(k), encode(v)])
    mapping = dict(rows)
    assert repr(cli._pairs(mapping, cli._encoder())) == repr(_old_pairs(mapping))


def test_streamed_kan_report_is_the_stdlib_encoding(tmp_path, capsys):
    """kan along the inclusion of finset_skeleton([0, 1, 2]) into
    finset_skeleton([0..3]) on the restricted Yo_n3, a report of about
    900 KB, streams out the bytes that _dumps and json.dumps give."""
    doc = cli.BundleDoc()
    small = doc.categories["FS012"] = catalog.finset_skeleton([0, 1, 2])
    big = doc.categories["FS0123"] = catalog.finset_skeleton([0, 1, 2, 3])
    incl = doc.functors["i"] = FunctorData(
        small, big, {x: x for x in small.objects}, {m: m for m in small.morphisms()}, name="i"
    )
    doc.presheaves["iYo_n3"] = sheaf.pullback_presheaf(incl, sheaf.representable(big, "n3"))
    path = tmp_path / "fs012-fs0123.json"
    path.write_text(json.dumps(cli.serialize_bundle_doc(doc)))
    assert cli.main(["kan", str(path), "--functor", "i", "--presheaf", "iYo_n3"]) == 0
    out = capsys.readouterr().out
    loaded = cli.load_bundle(path)
    ext = sheaf.right_kan_extension(loaded.functors["i"], loaded.presheaves["iYo_n3"])
    report = {"presheaves": {ext.name: cli.serialize_presheaf(ext, cli._names(loaded))}}
    assert len(out) > 900_000
    # compared as booleans: pytest's diff of two texts this long takes minutes
    as_dumps = out == cli._dumps(report) + "\n"
    as_stdlib = out == _stdlib_dumps(json.loads(out)) + "\n"
    assert as_dumps and as_stdlib


def test_kan_stdout_is_the_stdlib_encoding(bundle_path, capsys):
    assert cli.main([KAN[0], bundle_path, *KAN[1:]]) == 0
    out = capsys.readouterr().out
    assert out == _stdlib_dumps(json.loads(out)) + "\n"


def test_validate_times_the_failing_structure_alone(bundle_path, tmp_path, capsys, monkeypatch):
    """A failing structure's report counts its own validator, not the load;
    the all-valid report counts the whole command."""
    load = cli.load_bundle

    def slow_load(path):
        time.sleep(0.2)
        return load(path)

    monkeypatch.setattr(cli, "load_bundle", slow_load)
    assert cli.main(["validate", bundle_path]) == 0
    assert json.loads(capsys.readouterr().out)["wall_time"] >= 0.2

    def break_associativity(doc):
        for row in doc["categories"]["FIX-FS012"]["composition"]:
            if row[:2] == ["n2>n2:1,0", "n2>n2:1,0"]:
                row[2] = "n2>n2:1,0"

    path = _write_variant(bundle_path, tmp_path, break_associativity)
    assert cli.main(["validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["check"] == "validate: category FIX-FS012"
    assert report["wall_time"] < 0.2
