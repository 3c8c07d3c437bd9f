"""Path listing against the two algorithms it replaced.

:func:`graphs.paths_into` lists the paths between two levels into each
vertex in path order, with no sort.  The oracles here are the routines
it replaced: the two-pass descent that collected a backward cone and
then built the fibers up (path enumeration), and the out-edge extension
of walks from the bottom level, grouped by end vertex and sorted by
their rank sequences read from the deep end (telescoping and mono-graph
powers).  Both read the index only through ``edges``, ``ranked`` and
``out``, never through ``paths_into``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings, graphs, stationary
from zdyn.bratteli import ROOT
from zdyn.errors import ZdynError

from test_cli import DATA
from test_index_oracles import non_arithmetic_cuts, stationary_diagrams
from test_properties import loop_presentations, mono_graphs

CUTS = ([1], [1, 3], [2, 5], [1, 2, 4], [2, 4], [3, 6, 9])


def fixture_diagrams():
    """The diagram of every ``tests/data`` document that has one."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        try:
            out.append((path.name, cli._diagram_of(cli.read_document(path))))
        except ZdynError:
            pass
    return out


FIXTURES = fixture_diagrams()
COVERINGS = [
    name for name, _ in FIXTURES
    if isinstance(cli.read_document(DATA / name), coverings.CoveringPresentation)
]


# ---------------------------------------------------------------------------
# oracles


def descent_paths(d, v, n):
    """The fiber of ``v`` at level ``n``: collect the cone, then build up."""
    if n == 0:
        return [()]
    wanted = [{v}]
    for k in range(n, 1, -1):
        level = d._level(k)
        wanted.append(
            {level.edges[e][0] for w in wanted[-1] for e in level.ranked.get(w, ())}
        )
    paths = {ROOT: [()]}
    for k in range(1, n + 1):
        level = d._level(k)
        paths = {
            w: [q + (e,) for e in level.ranked.get(w, ()) for q in paths[level.edges[e][0]]]
            for w in wanted[n - k]
        }
    return paths[v]


def ranked_walks(levels, starts):
    """Extend the one-edge walks ``starts`` over ``levels`` by out-edges.

    ``starts`` lie on ``levels[0]``.  Returns ``end -> walks``, each group
    sorted by its rank sequence read from the deep end.
    """
    walks = [(e,) for e in starts]
    for below, level in zip(levels, levels[1:]):
        walks = [
            w + (e,) for w in walks for e in level.out.get(below.edges[w[-1]][1], ())
        ]
    groups = {}
    for w in walks:
        groups.setdefault(levels[-1].edges[w[-1]][1], []).append(w)
    for group in groups.values():
        group.sort(
            key=lambda w: tuple(levels[i].edges[e][2] for i, e in enumerate(w))[::-1]
        )
    return groups


def oracle_telescope(d, cuts):
    """The finite-prefix telescope of ``d`` along ``cuts``."""
    levels, edge_levels, prev = [(ROOT,)], [], 0
    for cut in cuts:
        levels.append(tuple(d.level_vertices(cut)))
        segment = [d._level(k) for k in range(prev + 1, cut + 1)]
        first = segment[0].edges
        edge_levels.append({
            " ".join(w): (first[w[0]][0], v, i)
            for v, group in ranked_walks(segment, sorted(first)).items()
            for i, w in enumerate(group, start=1)
        })
        prev = cut
    return tuple(levels), edge_levels


def oracle_mono_power(m, K):
    groups = ranked_walks([m._index] * K, sorted(m.edges))
    return stationary.mono_graph(m.vertices, {
        " ".join(w): (m.src[w[0]], v, i)
        for v, group in groups.items()
        for i, w in enumerate(group, start=1)
    })


# ---------------------------------------------------------------------------
# checks


def assert_fibers_match(d, depth):
    for n in range(depth + 1):
        for v in d.level_vertices(n):
            assert bratteli.enumerate_paths(d, v, n) == descent_paths(d, v, n)


def assert_telescope_matches(d, cuts):
    t = bratteli.telescope_bv(d, cuts)
    if t.stationary:
        K = cuts[0]
        assert t.mono == oracle_mono_power(d.mono, K)
        return
    levels, tables = oracle_telescope(d, cuts)
    assert t.levels == tuple(map(frozenset, levels))
    assert [dict(table) for table in t.edge_levels] == tables
    if t.repeat is not None:
        # the repeated level is the telescope of the next gap, ids and all
        gap = cuts[-1] - cuts[-2]
        assert dict(t.repeat) == oracle_telescope(d, [*cuts, cuts[-1] + gap])[1][-1]


def fits(d, cuts):
    return d.depth() is None or cuts[-1] <= d.depth()


def test_every_diagram_document_is_checked():
    assert [name for name, _ in FIXTURES] == [
        "catalogue112_covering.json",
        "example2_covering.json",
        "example2_weighted_covering.json",
        "fib_bratteli.json",
        "fib_covering.json",
        "non_nesting_bratteli.json",
        "skew_covering.json",
    ]


@pytest.mark.parametrize("name, d", FIXTURES)
def test_fibers_match_the_descent_on_the_documents(name, d):
    assert_fibers_match(d, d.depth() or 5)


@pytest.mark.parametrize("name, d", FIXTURES)
def test_telescopes_match_the_sorted_walks_on_the_documents(name, d):
    for cuts in CUTS:
        if fits(d, cuts):
            assert_telescope_matches(d, cuts)


@pytest.mark.parametrize("name, d", FIXTURES)
def test_telescoped_prefixes_match_both_oracles(name, d):
    for cuts in ([1, 3], [2, 3], [1, 2, 4]):
        if fits(d, cuts):
            t = bratteli.telescope_bv(d, cuts)
            top = len(t.levels) - 1
            assert_fibers_match(t, t.depth() or top + 1)
            assert_telescope_matches(t, [1, top])


@pytest.mark.parametrize("name, d", [(n, d) for n, d in FIXTURES if d.stationary])
def test_mono_powers_match_the_sorted_walks_on_the_documents(name, d):
    for K in range(1, 5):
        assert stationary.mono_power(d.mono, K) == oracle_mono_power(d.mono, K)


@pytest.mark.parametrize("name", COVERINGS)
def test_all_paths_match_the_descent_on_the_coverings(name):
    p = cli.read_document(DATA / name)
    d = coverings._diagram(p)
    for depth in range(5):
        assert coverings.all_paths(p, depth) == tuple(
            q for v in sorted(d.level_vertices(depth)) for q in descent_paths(d, v, depth)
        )


@settings(max_examples=60, deadline=None)
@given(mono_graphs(), st.integers(1, 4))
def test_mono_powers_match_the_sorted_walks(m, K):
    assert stationary.mono_power(m, K) == oracle_mono_power(m, K)


@settings(max_examples=30, deadline=None)
@given(stationary_diagrams(), non_arithmetic_cuts())
def test_telescopes_of_random_diagrams_match(d, cuts):
    assert_telescope_matches(d, cuts)
    t = bratteli.telescope_bv(d, cuts)
    assert_fibers_match(t, t.depth() or len(t.levels))


@settings(max_examples=30, deadline=None)
@given(loop_presentations(), st.integers(0, 4))
def test_loop_presentations_match_both_oracles(p, depth):
    d = bratteli.weighted_to_bv(p)
    assert_fibers_match(d, depth)
    assert coverings.all_paths(p, depth) == tuple(
        q for v in sorted(d.level_vertices(depth)) for q in descent_paths(d, v, depth)
    )
    if depth:
        assert_telescope_matches(d, [1, depth + 1])


def test_no_levels_give_the_empty_path():
    assert graphs.paths_into([], ("a", "b")) == {"a": [()], "b": [()]}


def test_paths_into_lists_only_the_vertices_asked_for():
    # "x" feeds "a" but only itself feeds "x"
    level = graphs.index_edges({
        "a1": ("a", "a", 1), "a2": ("x", "a", 2), "x1": ("x", "x", 1),
    })
    paths = graphs.paths_into([level] * 3, ["x"])
    assert paths == {"x": [("x1", "x1", "x1")]}
