"""Tests for the benchmark's oracles and generated inputs.

Run with ``python3 -m pytest perfbench``.  The oracles are checked
against brute force, never against ``zdyn``; the input tests only ask
``zdyn`` whether it accepts the documents the workloads generate.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

import oracles
import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))

from zdyn import cli  # noqa: E402
from zdyn.errors import DocumentSemanticError, ZdynError  # noqa: E402

FIB = workloads.fixture("fib_covering.json")


def fib_tables():
    """The stationary diagram of the Fibonacci covering, written by hand."""
    first = {"a<1": ("v0", "a", 1), "b<1": ("v0", "b", 1)}
    rest = {
        "a>a:1": ("a", "a", 1), "b>a:2": ("b", "a", 2), "a>a:3": ("a", "a", 3),
        "a>b:1": ("a", "b", 1), "b>b:2": ("b", "b", 2),
    }
    return first, rest


def fib_towers(n):
    doc = {"cover": {"emap": {"a": ["a", "b", "a"], "b": ["a", "b"]}}, "multiplicities": {"a": 1, "b": 1}}
    return oracles.Towers(*fib_tables(), oracles.height_table(doc, n))


def brute_force_paths(first, rest, v, n):
    """All root paths into ``v``, sorted by the ranks read from the top."""
    table = lambda k: first if k == 1 else rest  # noqa: E731
    paths = [(e,) for e in first]
    for k in range(2, n + 1):
        paths = [p + (e,) for p in paths for e, (s, _, _) in rest.items() if s == table(k - 1)[p[-1]][1]]
    into = [p for p in paths if table(n)[p[-1]][1] == v]
    return sorted(into, key=lambda p: [table(k)[e][2] for k, e in reversed(list(enumerate(p, 1)))])


def test_heights_follow_the_expansion_walks():
    assert [oracles.covering_heights(FIB, n)["e_a"] for n in range(1, 8)] == [1, 3, 8, 21, 55, 144, 377]
    assert oracles.height_table(FIB, 2)[0] == {oracles.ROOT: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("v", ["a", "b"])
def test_index_is_the_position_in_brute_force_order(v, n):
    towers = fib_towers(n)
    paths = brute_force_paths(*fib_tables(), v, n)
    assert len(paths) == towers.height(v, n)
    for i, p in enumerate(paths):
        assert towers.index(p) == i
        assert towers.path_at(v, n, i) == p


def test_index_rejects_broken_paths():
    with pytest.raises(ValueError):
        fib_towers(2).index(("b<1", "a>a:1"))
    with pytest.raises(ValueError):
        fib_towers(2).path_at("a", 2, 3)


def test_language_matches_a_long_iterate():
    rules = {"a": ["a", "b", "a"], "b": ["a", "b"]}
    assert oracles.language(rules, 2) == {("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a")}
    long_word = oracles.iterate_rules(rules, ("a",), 12)
    for depth in (1, 3, 5, 8):
        factors = {long_word[i : i + k] for k in range(1, depth + 1) for i in range(len(long_word) - k + 1)}
        assert oracles.language(rules, depth) == factors


def test_unrank_permutation_follows_itertools_order():
    for n in (1, 3, 5):
        perms = list(itertools.permutations(range(n)))
        assert [tuple(oracles.unrank_permutation(n, r)) for r in range(len(perms))] == perms


def test_structure_bijection():
    p = workloads.prefixed(workloads.eloop(5), "p_")
    q = workloads.prefixed(workloads.eloop(5), "q_")
    vmap = {"p_v": "q_v"}
    emap = {f"p_e00{i}": f"q_e00{i}" for i in range(5)}
    assert oracles.is_structure_bijection(p, q, vmap, emap)
    swapped = dict(emap, p_e001="q_e002", p_e002="q_e001")
    assert not oracles.is_structure_bijection(p, q, vmap, swapped)
    q["multiplicities"]["q_e004"] += 1
    assert not oracles.is_structure_bijection(p, q, vmap, emap)


def load(doc):
    return cli.parse_document(json.dumps(doc))


@pytest.mark.parametrize("edges", [7, 16, 128])
def test_generated_loops_load(edges):
    load(workloads.eloop(edges))
    load(workloads.eloop_bratteli(edges))


def test_the_symmetric_loop_family_is_rejected():
    doc = workloads.eloop(8)
    names = sorted(doc["cover"]["emap"])
    doc["cover"]["emap"] = {e: [e, names[(i + 1) % 8], e] for i, e in enumerate(names)}
    with pytest.raises(DocumentSemanticError):
        load(doc)


@pytest.mark.parametrize("name", sorted(os.listdir(workloads.DATA)))
def test_relabelling_keeps_a_fixture_valid_or_invalid(name):
    if name == "broken_syntax.json":
        return
    doc = workloads.fixture(name)
    try:
        kind = type(load(doc))
    except ZdynError:
        with pytest.raises(ZdynError):
            load(workloads.prefixed(doc, "x1_"))
        return
    assert type(load(workloads.prefixed(doc, "x1_"))) is kind
