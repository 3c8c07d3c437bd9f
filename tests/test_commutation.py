"""Conversion and telescoping commute on every form of a covering.

``weighted_to_bv(telescope(p, cuts))`` and ``telescope_bv(weighted_to_bv(p),
cuts)`` name their edges differently, so they are compared by what the
names stand for: the depth, the vertices of each level, the sources of
the in-edges of each vertex in rank order, and whether a level repeats.
The inputs are stationary presentations, their truncated prefixes of 3
and 5 levels, and their repeating tails along the cuts 1, 3 and 1, 2, 4.
A single cut of a prefix or a tail makes a one-level truncated prefix on
both sides.
"""

from hypothesis import given, settings

from zdyn import bratteli, cli, coverings

from test_chain_oracles import prefix
from test_cli import DATA
from test_properties import loop_presentations

CUTS = ([1, 3], [2, 5], [1, 2, 4], [2, 4], [2], [3])

# the ranked sources are compared up to this level of an unbounded diagram
TOP = 6


def ranked_sources(d, n):
    """The sources of the in-edges of each level-``n`` vertex, in rank order."""
    edges = d.level_edges(n)
    return {v: [edges[e][0] for e in d.in_edges(n, v)] for v in d.level_vertices(n)}


def assert_commutes(p, cuts):
    a = bratteli.weighted_to_bv(coverings.telescope(p, cuts))
    b = bratteli.telescope_bv(bratteli.weighted_to_bv(p), cuts)
    assert a.depth() == b.depth()
    assert (a.repeat is None) == (b.repeat is None)
    top = TOP if a.depth() is None else a.depth()
    assert a.level_vertices(0) == b.level_vertices(0)
    for n in range(1, top + 1):
        assert ranked_sources(a, n) == ranked_sources(b, n), n


def forms(p):
    """``p``, its truncated prefixes P_3 and P_5, and its tails along 1, 3 and 1, 2, 4.

    The second tail repeats its cover from level 3 on, so cuts whose last
    two lie below level 2 truncate it.
    """
    tails = [coverings.telescope(p, cuts) for cuts in ([1, 3], [1, 2, 4])]
    return [p, prefix(p, 3), prefix(p, 5), *tails]


def assert_forms_commute(p):
    for q in forms(p):
        for cuts in CUTS:
            if q.depth() is None or cuts[-1] <= q.depth():
                assert_commutes(q, cuts)


def test_conversion_commutes_with_telescoping_on_the_fixtures():
    for path in sorted(DATA.glob("*_covering.json")):
        assert_forms_commute(cli.read_document(path))


@settings(max_examples=40, deadline=None)
@given(loop_presentations())
def test_conversion_commutes_with_telescoping_on_loop_presentations(p):
    assert_forms_commute(p)
