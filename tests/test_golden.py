"""The closing, regulation, nesting, conversion and Krieger commands keep their recorded outputs."""

import json

import pytest

import golden

SNAPSHOT = json.loads(golden.SNAPSHOT.read_text())


def test_the_snapshot_covers_every_command():
    assert sorted(SNAPSHOT) == sorted(" ".join(argv) for argv in golden.commands())


@pytest.mark.parametrize("argv", list(golden.commands()), ids=" ".join)
def test_output_matches_the_snapshot(argv):
    assert golden.run(argv) == SNAPSHOT[" ".join(argv)]
