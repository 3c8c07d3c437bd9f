"""Recorded CLI outputs of the closing, regulation, nesting, conversion and Krieger commands.

``golden/outputs.json`` keeps, for every document under ``data/``, the
stdout and exit code of each command in :func:`commands`, in both
output formats where the command has them; ``krieger`` runs in the human
format at levels 0-3, windows 1-2 and horizons one to three past the
level.  ``test_golden.py`` runs the
commands again and compares.  To record the snapshot afresh, from the
repository root::

    PYTHONPATH=src python tests/golden.py > tests/golden/outputs.json
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

from zdyn import cli

DATA = Path(__file__).parent / "data"
SNAPSHOT = Path(__file__).parent / "golden" / "outputs.json"


def commands():
    """Each recorded command line, with the document by its file name."""
    for name in sorted(p.name for p in DATA.glob("*.json")):
        for fmt in ("human", "json"):
            yield ["check", "closing", name, "--format", fmt]
            yield ["check", "regulated", name, "--l-seq", "1,2,3", "--format", fmt]
            for level in ("1", "2", "3"):
                yield ["check", "nesting", name, "--level", level, "--format", fmt]
        yield ["convert", "to-covering", name]
        for n, L in itertools.product(range(4), (1, 2)):
            for horizon in range(n + 1, n + 4):
                yield [
                    "krieger", name, "--level", str(n), "--steps", str(L),
                    "--horizon", str(horizon),
                ]


def run(argv):
    """The exit code and stdout of ``zdyn`` on ``argv``; stderr is dropped."""
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def record() -> dict:
    return {" ".join(argv): run(argv) for argv in commands()}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
