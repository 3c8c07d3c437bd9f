"""The validation, check, recoding, conversion, telescoping, straightening, substitution, Krieger, tower, path, Vershik and DOT commands keep their recorded outputs.

Each row pins the exit code, stdout and stderr, so an error message
that changes, such as the level named by a depth error, fails its row.

The finite forms under ``golden/prefixes/`` are written again and must
match the committed files, so a change to telescoping or to the document
writer cannot leave them stale.
"""

import json

import pytest

import golden

SNAPSHOT = json.loads(golden.SNAPSHOT.read_text())


def test_the_snapshot_covers_every_command():
    assert sorted(SNAPSHOT) == sorted(" ".join(argv) for argv in golden.commands())


@pytest.mark.parametrize("argv", list(golden.commands()), ids=" ".join)
def test_output_matches_the_snapshot(argv):
    assert golden.run(argv) == SNAPSHOT[" ".join(argv)]


def test_the_prefix_documents_are_up_to_date(tmp_path):
    golden.write_prefixes(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in golden.PREFIXES.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden.PREFIXES / name).read_bytes(), name
