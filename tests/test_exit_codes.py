"""The exit-code contract holds on damaged documents: a crash never reads as a verdict.

Each document under ``data/`` and ``golden/prefixes/`` is damaged by one
to three edits: an entry deleted, a name swapped for another name of the
same document, an integer bumped by -1, +1 or +2, or an entry copied
under a new name.  ``validate`` runs on every damaged document that
parses, and every command below runs on each one that
:func:`cli.load_document` accepts; none may exit 3, the code of an
internal error.  Damaged documents that the checks at load once let
through, each to crash a later command, are pinned: every command exits
2 with an ``error:`` line and nothing on stdout.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zdyn import cli
from zdyn.errors import ZdynError

import golden

DOCUMENTS = {
    name: json.loads(path.read_text())
    for name, path in golden.documents().items()
    if name != "broken_syntax.json"
}

COMMANDS = (
    ["check", "closing"],
    ["check", "regulated", "--l-seq", "1,2,3"],
    ["check", "nesting"],
    ["check", "continuity"],
    ["check", "overlap"],
    ["check", "recoding", "--radius", "1"],
    ["convert", "to-bv"],
    ["convert", "to-covering"],
    ["telescope", "{}", "1,3"],
    ["telescope", "{}", "2"],
    ["straighten"],
    ["towers"],
    ["krieger"],
    ["subst"],
    ["dot"],
    ["validate"],
)

EDITS = ("delete", "swap", "bump", "copy")


def run(argv, path):
    """The exit code, stdout and stderr of ``zdyn`` on ``argv`` with the document at ``path``."""
    if "{}" in argv:
        argv = [str(path) if a == "{}" else a for a in argv]
    else:
        argv = [*argv, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def spots(doc):
    """Every ``(container, key)`` place of a JSON tree, in a fixed order."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, value in items:
            found.append((node, key))
            stack.append(value)
    return found


def names(doc):
    """Every string of a JSON tree, keys and values, sorted."""
    found = set()
    for node, key in spots(doc):
        if isinstance(node, dict):
            found.add(key)
        if isinstance(node[key], str):
            found.add(node[key])
    return sorted(found)


def mutate(doc, edit, where, which):
    """Apply one edit in place, at the ``where``-th fitting place; no place, no edit."""
    places = spots(doc)
    if edit == "delete":
        fit = places
    elif edit == "swap":
        fit = [(n, k) for n, k in places if isinstance(n, dict) or isinstance(n[k], str)]
    elif edit == "bump":
        fit = [
            (n, k) for n, k in places
            if isinstance(n[k], int) and not isinstance(n[k], bool)
        ]
    else:
        fit = [(n, k) for n, k in places if isinstance(n, dict)]
    if not fit:
        return
    node, key = fit[where % len(fit)]
    if edit == "delete":
        del node[key]
    elif edit == "swap":
        pool = names(doc)
        name = pool[which % len(pool)]
        if isinstance(node[key], str):
            node[key] = name
        else:
            node[name] = node.pop(key)
    elif edit == "bump":
        node[key] += (-1, 1, 2)[which % 3]
    else:
        node[f"{key}_copy"] = copy.deepcopy(node[key])


def loads(doc, check) -> bool:
    try:
        cli.load_document(doc, check=check)
    except ZdynError:
        return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(DOCUMENTS)),
    st.lists(
        st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=1,
        max_size=3,
    ),
)
# deletes e_b from the top level of the tail, whose repeated cover still names it
@example("fib_covering_tail13.json", [("delete", 13, 0)])
def test_damaged_documents_never_crash(name, edits):
    doc = copy.deepcopy(DOCUMENTS[name])
    for edit in edits:
        mutate(doc, *edit)
    if not loads(doc, check=False):
        return
    commands = COMMANDS if loads(doc, check=True) else (["validate"],)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        for argv in commands:
            code, _, err = run(argv, path)
            assert code != 3, (argv, err)


def emap_names_a_non_edge():
    doc = copy.deepcopy(DOCUMENTS["skew_covering.json"])
    doc["cover"]["emap"]["u"] = ["u"]
    return doc


def tail_levels_differ():
    doc = copy.deepcopy(DOCUMENTS["example2_covering_tail13.json"])
    del doc["graphs"][1]["edges"]["e_a"]
    return doc


def level_0_is_not_the_root():
    doc = copy.deepcopy(DOCUMENTS["fib_bratteli_prefix3.json"])
    doc["levels"][0] = ["r"]
    for entry in doc["edge_levels"][0].values():
        entry[0] = "r"
    return doc


def level_is_flexible():
    doc = copy.deepcopy(DOCUMENTS["fib_covering_prefix3.json"])
    level = doc["graphs"][0]
    level["kind"] = "flexible_graph"
    level["edges"] = {e: entry[:2] for e, entry in level["edges"].items()}
    return doc


def cover_of_a_basic_graph():
    doc = copy.deepcopy(DOCUMENTS["skew_covering.json"]["cover"])
    doc["version"] = cli.VERSION
    doc["domain"] = {
        "kind": "basic_graph", "vertices": ["u", "w"], "edges": [["u", "w"], ["w", "u"]]
    }
    return doc


PINNED = [
    (emap_names_a_non_edge, ["check", "regulated", "--l-seq", "1,2,3"]),
    (emap_names_a_non_edge, ["check", "recoding", "--radius", "1"]),
    (emap_names_a_non_edge, ["telescope", "{}", "1,3"]),
    (emap_names_a_non_edge, ["towers", "--level", "2"]),
    (emap_names_a_non_edge, ["validate"]),
    (tail_levels_differ, ["check", "regulated", "--l-seq", "1,2,3"]),
    (tail_levels_differ, ["telescope", "{}", "1,3"]),
    (tail_levels_differ, ["validate"]),
    (level_0_is_not_the_root, ["paths", "{}", "r", "--level", "0"]),
    (level_0_is_not_the_root, ["telescope", "{}", "1"]),
    (level_0_is_not_the_root, ["validate"]),
    (level_is_flexible, ["check", "closing"]),
    (level_is_flexible, ["validate"]),
    (cover_of_a_basic_graph, ["check", "overlap"]),
    (cover_of_a_basic_graph, ["validate"]),
]


@pytest.mark.parametrize(
    "make, argv", PINNED, ids=[f"{m.__name__}-{' '.join(a)}" for m, a in PINNED]
)
def test_pinned_damage_is_rejected_at_load(tmp_path, make, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make()))
    code, out, err = run(argv, path)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
