"""The adjacency index against brute-force scans of the raw tables.

The oracles here read ``mono.src/rng/rank`` and ``edge_levels`` directly
and never touch the index: in-edges by scanning and sorting a level,
tower heights by recursion, and path fibers by recursive enumeration.
"""

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, graphs, stationary
from zdyn.bratteli import MAXIMAL, MINIMAL, ROOT

from helpers import example2_cover, example2_unit, skew_fixed_edge_cover
from test_cli import DATA
from test_properties import loop_covers, mono_graphs


# ---------------------------------------------------------------------------
# oracles


def raw_table(d, n):
    """The level-n edge table, read off the diagram's fields."""
    if d.kind == "stationary":
        if n == 1:
            return {
                f"{v}<{i}": (ROOT, v, i)
                for v in sorted(d.mono.vertices)
                for i in range(1, d.multiplicities[v] + 1)
            }
        m = d.mono
        return {e: (m.src[e], m.rng[e], m.rank[e]) for e in m.edges}
    return d.edge_levels[n - 1]


def scan_in_edges(d, n, v):
    table = raw_table(d, n)
    return sorted(
        (e for e, (_, r, _) in table.items() if r == v), key=lambda e: table[e][2]
    )


def recursive_count(d, v, n):
    if n == 0:
        return 1
    table = raw_table(d, n)
    return sum(recursive_count(d, table[e][0], n - 1) for e in scan_in_edges(d, n, v))


def oracle_paths(d, v, n):
    if n == 0:
        return [()]
    table = raw_table(d, n)
    return [
        q + (e,)
        for e in scan_in_edges(d, n, v)
        for q in oracle_paths(d, table[e][0], n - 1)
    ]


def pairwise_directionality(c):
    """The +/- directionality flags by comparing every pair of edges."""
    dom = c.domain
    plus = minus = True
    edges = dom.sorted_edges()
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if dom.src[e] == dom.src[f] and c.emap[e][0] != c.emap[f][0]:
                plus = False
            if dom.rng[e] == dom.rng[f] and c.emap[e][-1] != c.emap[f][-1]:
                minus = False
    return plus, minus


def assert_matches_oracles(d, depth):
    for n in range(1, depth + 1):
        for v in d.level_vertices(n):
            assert d.in_edges(n, v) == scan_in_edges(d, n, v)
            paths = oracle_paths(d, v, n)
            assert bratteli.path_count(d, v, n) == recursive_count(d, v, n)
            assert bratteli.path_count(d, v, n) == len(paths)
            assert bratteli.enumerate_paths(d, v, n) == paths
            assert bratteli.minimal_path(d, v, n) == paths[0]
            assert bratteli.maximal_path(d, v, n) == paths[-1]
            for i, q in enumerate(paths):
                assert bratteli.path_index(d, q) == i
                after = paths[i + 1] if i + 1 < len(paths) else MAXIMAL
                before = paths[i - 1] if i > 0 else MINIMAL
                assert bratteli.vershik_successor(d, q) == after
                assert bratteli.vershik_predecessor(d, q) == before


# ---------------------------------------------------------------------------
# generators


@st.composite
def stationary_diagrams(draw):
    mono = draw(mono_graphs())
    mults = {v: draw(st.integers(1, 2)) for v in sorted(mono.vertices)}
    return bratteli.stationary_diagram(mono, mults)


@st.composite
def non_arithmetic_cuts(draw):
    cuts = draw(
        st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True).map(sorted)
    )
    K = cuts[0]
    if all(c == K * (i + 1) for i, c in enumerate(cuts)):
        cuts[-1] += 1
    return cuts


# ---------------------------------------------------------------------------
# the index against the oracles


@settings(max_examples=50, deadline=None)
@given(stationary_diagrams(), st.integers(1, 3))
def test_stationary_index_matches_the_scans(d, depth):
    assert_matches_oracles(d, depth)


@settings(max_examples=30, deadline=None)
@given(stationary_diagrams(), non_arithmetic_cuts())
def test_finite_prefix_index_matches_the_scans(d, cuts):
    t = bratteli.telescope_bv(d, cuts)
    assert t.kind == "finite_prefix"
    assert_matches_oracles(t, t.depth())


def test_fixture_diagrams_match_the_scans():
    for d in (
        bratteli.weighted_to_bv(example2_unit()),
        cli.read_document(DATA / "fib_bratteli.json"),
        cli.read_document(DATA / "non_nesting_bratteli.json"),
    ):
        assert_matches_oracles(d, d.depth() or 3)


@pytest.mark.parametrize("name", ["fib_bratteli.json", "non_nesting_bratteli.json"])
def test_level_edges_are_read_only(name):
    d = cli.read_document(DATA / name)
    for n in (1, 2):
        table = d.level_edges(n)
        with pytest.raises(TypeError):
            table["intruder"] = ("v0", "v0", 1)
        assert "intruder" not in d.level_edges(n)


def test_loading_builds_no_index():
    d = cli.read_document(DATA / "fib_bratteli.json")
    assert "_index" not in vars(d)
    assert "_index" not in vars(d.mono)
    d.in_edges(2, "e_a")
    assert "_index" in vars(d)
    # levels >= 2 of a stationary diagram share the mono-graph's entry
    assert d._index[1] is d.mono._index


def test_continuity_is_decided_once_per_diagram(monkeypatch):
    calls = []
    real = stationary.check_continuity

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(stationary, "check_continuity", counted)
    d = bratteli.weighted_to_bv(example2_unit())
    for v in d.level_vertices(2):
        assert bratteli.successor_values(d, bratteli.maximal_path(d, v, 2))[1]
        assert bratteli.predecessor_values(d, bratteli.minimal_path(d, v, 2))[1]
    assert len(calls) == 1


def test_deep_tower_coordinates_need_no_recursion():
    d = bratteli.weighted_to_bv(example2_unit())
    top = bratteli.maximal_path(d, "e_b", 3000)
    assert bratteli.path_index(d, top) == bratteli.path_count(d, "e_b", 3000) - 1
    assert bratteli.vershik_successor(d, top) == MAXIMAL


# ---------------------------------------------------------------------------
# directionality without the pairwise loop


@settings(max_examples=60, deadline=None)
@given(loop_covers())
def test_directionality_matches_the_pairwise_check(c):
    flags = graphs.check_cover(c)
    assert (flags.plus_directional, flags.minus_directional) == (
        pairwise_directionality(c)
    )
    assert flags.bidirectional == (flags.plus_directional and flags.minus_directional)


def test_directionality_on_multi_vertex_fixtures():
    for c in (example2_cover(), skew_fixed_edge_cover()):
        flags = graphs.check_cover(c)
        assert (flags.plus_directional, flags.minus_directional) == (
            pairwise_directionality(c)
        )
