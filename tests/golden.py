"""Recorded CLI outputs of the validation, check, recoding, conversion, telescoping, straightening, substitution, Krieger, tower, path, Vershik and DOT commands.

``golden/outputs.json`` keeps, for every document under ``data/`` and
``golden/prefixes/``, the exit code, stdout and stderr of each command in
:func:`commands`, in both output formats where the command has them;
``krieger`` runs in the human format at levels 0-3, windows 1-2 and
horizons one to three past the level; ``towers`` runs at levels 0-3 and
``check recoding`` at levels 1-2 with radius 0-2; ``subst`` prints the read
substitution and its language up to length 3; ``vershik`` and ``paths`` start
from the least level-2 vertex of the document's diagram, or from the
root of a document that has none, which exits 2.  ``golden/prefixes/``
holds two finite forms of each stationary covering under ``data/`` and of
``fib_bratteli.json``: the truncated prefix of levels 1-3 and the
telescope along the cuts 1, 3, whose last cover or edge level repeats.
``test_golden.py`` runs the commands again and compares, and writes the
prefixes afresh to check that they are up to date.
To write the prefixes and record the snapshot afresh, from the
repository root::

    PYTHONPATH=src python tests/golden.py --prefixes
    PYTHONPATH=src python tests/golden.py > tests/golden/outputs.json
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

from zdyn import bratteli, cli, coverings
from zdyn.errors import ZdynError

DATA = Path(__file__).parent / "data"
SNAPSHOT = Path(__file__).parent / "golden" / "outputs.json"
PREFIXES = SNAPSHOT.parent / "prefixes"


def documents() -> dict:
    """The recorded documents by file name."""
    paths = [*DATA.glob("*.json"), *PREFIXES.glob("*.json")]
    return {p.name: p for p in sorted(paths, key=lambda p: p.name)}


def level2_vertex(path) -> str:
    """The least level-2 vertex of a document's diagram; the root when it has none."""
    try:
        return cli._diagram_of(cli.read_document(path)).level_vertices(2)[0]
    except ZdynError:
        return bratteli.ROOT


def commands():
    """Each recorded command line, with the document by its file name."""
    for name, path in documents().items():
        yield ["validate", name]
        for fmt in ("human", "json"):
            yield ["check", "closing", name, "--format", fmt]
            yield ["check", "regulated", name, "--l-seq", "1,2,3", "--format", fmt]
            for level in ("1", "2", "3"):
                yield ["check", "nesting", name, "--level", level, "--format", fmt]
            yield ["check", "continuity", name, "--format", fmt]
            yield ["check", "overlap", name, "--format", fmt]
            for level, radius in itertools.product(("1", "2"), ("0", "1", "2")):
                yield [
                    "check", "recoding", name, "--level", level, "--radius", radius,
                    "--format", fmt,
                ]
        yield ["convert", "to-covering", name]
        yield ["convert", "to-bv", name]
        yield ["dot", name]
        for cuts in ("1,3", "2"):
            yield ["telescope", name, cuts]
        yield ["straighten", name]
        yield ["subst", name]
        yield ["subst", name, "--depth", "3"]
        for level in ("0", "1", "2", "3"):
            yield ["towers", name, "--level", level]
            yield ["towers", name, "--level", level, "--format", "json"]
        vertex = level2_vertex(path)
        yield ["vershik", name, vertex, "--level", "2", "--steps", "8"]
        yield ["paths", name, vertex, "--level", "2"]
        for n, L in itertools.product(range(4), (1, 2)):
            for horizon in range(n + 1, n + 4):
                yield [
                    "krieger", name, "--level", str(n), "--steps", str(L),
                    "--horizon", str(horizon),
                ]


def run(argv):
    """The exit code, stdout and stderr of ``zdyn`` on ``argv``."""
    paths = documents()
    argv = [str(paths[a]) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> dict:
    return {" ".join(argv): run(argv) for argv in commands()}


def finite_forms(path) -> dict:
    """The truncated prefix of levels 1-3 of a stationary document, and its telescope along 1, 3."""
    obj = cli.read_document(path)
    if isinstance(obj, bratteli.BratteliDiagram):
        prefix = bratteli.BratteliDiagram(
            levels=[obj.level_vertices(n) for n in range(4)],
            edge_levels=[obj.level_edges(n) for n in (1, 2, 3)],
        )
        return {"prefix3": prefix, "tail13": bratteli.telescope_bv(obj, [1, 3])}
    levels = [coverings.level_graph(obj, n) for n in (1, 2, 3)]
    covers = [coverings.cover_at(obj, n) for n in (2, 3)]
    return {
        "prefix3": coverings.finite_prefix_presentation(levels, covers),
        "tail13": coverings.telescope(obj, [1, 3]),
    }


def write_prefixes(directory: Path = PREFIXES) -> None:
    """Write the two finite forms of each stationary covering or diagram under ``data/``."""
    directory.mkdir(exist_ok=True)
    paths = [*DATA.glob("*_covering.json"), DATA / "fib_bratteli.json"]
    for path in sorted(paths):
        for form, obj in finite_forms(path).items():
            text = cli.dump_document(obj) + "\n"
            (directory / f"{path.stem}_{form}.json").write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] == ["--prefixes"]:
        write_prefixes()
    else:
        json.dump(record(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
