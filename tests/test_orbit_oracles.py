"""Periodic orbits on the level graph against the cycles of its basic graph.

The library finds the periodic orbits of the level-n towers as the
simple circuits of the level-n graph, an edge counting its length.  The
oracle, ``path_sets.basic_periodic_orbits``, expands that graph into its
basic graph, where an edge of length k is a chain through k - 1 interior
vertices, and lists every cycle of that relation.  Both must give the
same orbits in the same order, with the same vertices, certainty and
support, for every period bound.
"""

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import cli, coverings, graphs

from test_cli import DATA
from test_krieger_oracles import FIXTURES, spy
from test_properties import loop_presentations
import path_sets

# the oracle walks every simple path of the basic graph, so its cost
# grows exponentially; a larger level is left to the library alone
MAX_BASIC_VERTICES = 400


def basic_size(p, n):
    g = coverings.level_graph(p, n)
    return len(g.vertices) + sum(g.length[e] - 1 for e in g.edges)


def assert_orbits_match(p, n):
    """Every period bound from 1 to past the basic vertex count.

    The oracle runs once, at the largest bound: its orbits of period at
    most a bound, in their order, are its orbits at that bound.
    """
    size = basic_size(p, n)
    if size > MAX_BASIC_VERTICES:
        return False
    every = path_sets.basic_periodic_orbits(p, n, size + 2)
    for max_period in range(1, size + 3):
        got = coverings.periodic_orbits(p, n, max_period)
        assert got == [o for o in every if o.period <= max_period], max_period
    return True


def test_fixture_orbits_match_the_basic_graph():
    checked = 0
    for name in FIXTURES:
        p = cli.read_document(DATA / name)
        for n in range(7):
            checked += assert_orbits_match(p, n)
    # all but Example 2 weighted at level 6, with 555 basic vertices
    assert checked == 27


@settings(max_examples=30, deadline=None)
@given(loop_presentations())
def test_loop_orbits_match_the_basic_graph(p):
    for n in range(4):
        assert_orbits_match(p, n)


@st.composite
def unit_parallel_levels(draw):
    """One weighted level as a finite prefix, with parallel unit edges.

    Every vertex keeps an edge in and an edge out through a cycle over
    all of them; the extra edges are drawn in pairs of equal ends, so
    that parallel edges of length 1 come up often.
    """
    k = draw(st.integers(1, 4))
    vs = [f"v{i}" for i in range(k)]
    ends = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    for a, b in draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=4)):
        ends += [(a, b)] * draw(st.integers(1, 2))
    table = {
        f"e{i}": (a, b, draw(st.integers(1, 3))) for i, (a, b) in enumerate(ends)
    }
    return coverings.finite_prefix_presentation([graphs.weighted(vs, table)], [])


@settings(max_examples=150, deadline=None)
@given(unit_parallel_levels())
def test_multigraph_orbits_match_the_basic_graph(p):
    assert assert_orbits_match(p, 1)
    steps = coverings._orbit_tables(p, 1)[0]
    basic = path_sets.expand_to_basic(coverings.level_graph(p, 1)).graph
    flex = graphs.flexible(basic.vertices, {f"{u}>{w}": (u, w) for u, w in basic.edges})
    for max_len in range(1, basic_size(p, 1) + 3):
        truncated = graphs.enumerate_circuits(steps, max_len).truncated
        assert truncated == graphs.enumerate_circuits(flex, max_len).truncated


def test_parallel_unit_edges_make_one_step():
    g = graphs.weighted({"u", "w"}, {
        "q": ("u", "w", 1), "p": ("u", "w", 1), "r": ("u", "w", 2), "back": ("w", "u", 1),
    })
    p = coverings.finite_prefix_presentation([g], [])
    steps, support, _ = coverings._orbit_tables(p, 1)
    assert steps.edges == {"back", "p", "r"}
    assert support == {"back": ["back"], "p": ["p", "q"], "r": ["r"]}
    orbits = coverings.periodic_orbits(p, 1, 3)
    # each starts at its least relation id: "r#1>w", then "u>w"
    assert [(o.period, o.vertices, o.support) for o in orbits] == [
        (3, ("r#1", "w", "u"), ("back", "r")),
        (2, ("u", "w"), ("back", "p", "q")),
    ]


def test_deep_fibonacci_orbits_search_the_level_graph(monkeypatch):
    p = cli.read_document(DATA / "fib_covering.json")
    searched = spy(monkeypatch, graphs, "enumerate_circuits")
    orbits = coverings.periodic_orbits(p, 10, 10**6)
    assert [g.vertices for g, _ in searched] == [coverings.level_graph(p, 10).vertices]
    assert len(orbits) == 2
    assert sorted(o.period for o in orbits) == [4181, 6765]


# ---------------------------------------------------------------------------
# where an orbit is certified


def fixed_loop_presentation(name):
    """A loop ``name`` of multiplicity 2 that the cover fixes, and a loop b that grows."""
    g = graphs.flexible({"u"}, {name: ("u", "u"), "b": ("u", "u")})
    emap = {name: (name,), "b": (name, "b")}
    cover = graphs.Cover(domain=g, codomain=g, vmap={"u": "u"}, emap=emap)
    return coverings.stationary_presentation(cover, {name: 2, "b": 1})


def orbit_shapes(p, n, rename):
    """The orbits of ``p`` at level ``n``, names above level 0 renamed, as comparable tuples."""
    def name(x):
        head, sep, floor = x.partition("#")
        return rename.get(head, head) + sep + floor if n else x

    return sorted(
        (o.period, o.certainty, frozenset(map(name, o.vertices)), tuple(map(name, o.support)))
        for o in coverings.periodic_orbits(p, n, 3)
    )


def test_a_covering_edge_named_like_the_root_loop_certifies_nothing_at_level_0():
    # e0 is also the one edge of level 0, which has no fixed point here:
    # e0 has length 2 at every level and b grows
    p, q = fixed_loop_presentation("e0"), fixed_loop_presentation("x")
    assert coverings.validate_presentation(p) == coverings.validate_presentation(q) == []
    for n in range(4):
        assert orbit_shapes(p, n, {"e0": "x"}) == orbit_shapes(q, n, {})
    assert [o.certainty for o in coverings.periodic_orbits(p, 0, 3)] == ["POSSIBLE"]
    assert ("CERTIFIED", frozenset({"u", "x#1"})) in [
        (c, vs) for _, c, vs, _ in orbit_shapes(q, 1, {})
    ]
    for L in (1, 2):
        for horizon in range(1, 5):
            verdicts = {
                coverings.krieger_coverage(r, 0, L, horizon=horizon).verdict for r in (p, q)
            }
            assert verdicts == {"FAILS"}, (L, horizon)


@pytest.mark.parametrize("name", FIXTURES)
def test_a_repeating_tail_certifies_the_orbits_of_its_source(name):
    p = cli.read_document(DATA / name)
    tail = coverings.telescope(p, [1, 3])
    for n, m in ((1, 1), (2, 3), (3, 5)):
        assert coverings.periodic_orbits(tail, n, 8) == coverings.periodic_orbits(p, m, 8)
