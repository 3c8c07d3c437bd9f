"""Rules that the library source keeps."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "zdyn"
CALLERS = [SRC, SRC.parent.parent / "perfbench"]


def test_no_assert_guards_an_invariant():
    """``python -O`` strips ``assert``, so a guard must raise instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_public_name_has_a_caller():
    """Code that nothing but its own tests calls is deleted.

    A public module-level name of ``src/zdyn`` must be read, as a name
    or an attribute, somewhere in ``src/zdyn`` or ``perfbench`` besides
    its own definition; a public method must be read as an attribute.
    """
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in CALLERS
        for path in sorted(root.glob("*.py"))
    }
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    read = names | attributes
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{path.stem}.{name}"
                for name in defined
                if not name.startswith("_") and name not in read
            ]
            if isinstance(node, ast.ClassDef):
                unread += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in attributes
                ]
    assert unread == []


def test_one_record_has_edge_ends():
    """Every graph with an edge table is one record.

    The only class of ``src/zdyn`` with both ``src`` and ``rng`` fields
    is ``graphs.Graph``: weighted, flexible and ordered graphs differ by
    its ``length`` and ``rank`` maps, not by their class.
    """
    found = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and {"src", "rng"} <= {
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
    ]
    assert found == ["graphs.Graph"]


def reads(tree) -> Counter:
    """How often each name is read, as a name or an attribute, in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def test_every_private_name_is_read_in_the_library():
    """A private helper outlives its last caller only by mistake.

    A private module-level name of ``src/zdyn`` must be read somewhere in
    ``src/zdyn`` outside its own definition, so a recursive helper that
    only calls itself is flagged too.
    """
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    total = sum(map(reads, trees.values()), Counter())
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            own = reads(node)
            unread += [
                f"{path.stem}.{name}"
                for name in defined
                if name.startswith("_")
                and not name.startswith("__")
                and total[name] == own[name]
            ]
    assert unread == []


def test_coverings_reads_no_private_bratteli_name():
    """The covering side reads the diagram through its public routines.

    Tower heights and block starts of a covering are its level lengths,
    read off the block table in ``coverings``, so ``coverings.py`` reads
    no ``bratteli._...`` name, as an attribute or as an import.
    """
    path = SRC / "coverings.py"
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "bratteli"
        and node.attr.startswith("_")
        or isinstance(node, ast.ImportFrom)
        and node.module == "bratteli"
        and any(alias.name.startswith("_") for alias in node.names)
    ]
    assert found == []
