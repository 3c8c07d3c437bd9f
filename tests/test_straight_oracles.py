"""Straightness and straightening by the extreme-source maps, against the walk oracle.

The library reads straightness and the straightening exponent off the
maps f_max and f_min of a mono-graph, and finds the constant paths of a
diagram on the cycles of the map taking a vertex with one in-edge to
that edge's source.  ``straight_oracle`` keeps the removal fixpoint, the
two-part check on the extreme edges and the power-by-power search.  Both
must give the same problems, text for text, the same verdicts, and the
same exponent and power wherever the oracle's search is cheap (K <= 6),
on random mono-graphs and on the mono-graphs of the catalogue.  The
exponent of a self-cover and that of the mono-graph of its diagram must
agree on every valid stationary presentation.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from zdyn import bratteli, coverings, graphs, stationary
from zdyn.errors import NotStraight

from helpers import (
    example2_unit,
    example2_weighted,
    fib_base_cover,
    fib_presentation,
    skew_presentation,
    unit_presentation,
)
from test_cluster_oracles import outcome
from test_chain_oracles import directional_self_covers
from test_properties import mono_graphs
import catalogue
import straight_oracle

# the oracle builds every power up to this one
ORACLE_CAP = 6


def extreme_maps(m):
    return [m.extreme_sources(last) for last in (True, False)]


def assert_straightness_matches(m):
    want = straight_oracle.straightness_violations(m)
    assert stationary.straightness_violations(m) == want
    assert stationary.is_straight(m) == (not want)
    if want:
        assert outcome(stationary.check_continuity, m) == ("NotStraight", "; ".join(want))
    # a forever walk of extreme edges runs round the cycles of f_max or f_min
    for last, f in zip((True, False), extreme_maps(m)):
        extreme = straight_oracle.extreme_edges(m, last)
        assert graphs.map_cycles(f) == straight_oracle.infinite_walk_vertices(m, extreme)
    # and a constant path round the cycles of the map to lone in-edges' sources
    ins = {v: m.in_edges(v) for v in m.vertices}
    below = {v: m.src[es[0]] for v, es in ins.items() if len(es) == 1}
    unique = straight_oracle.unique_in_edges(m)
    assert graphs.map_cycles(below) == straight_oracle.infinite_walk_vertices(m, unique)


def assert_straightening_matches(m):
    try:
        want = straight_oracle.straighten_mono(m, ORACLE_CAP)
    except NotStraight:
        K, _ = stationary._straight_power(extreme_maps(m), 24)
        assert K > ORACLE_CAP
        return
    assert stationary.straighten_mono(m) == want


def catalogue_monos():
    return [bratteli.weighted_to_bv(p).mono for p in catalogue.presentations()]


@settings(max_examples=300, deadline=None)
@given(mono_graphs())
def test_random_mono_graphs_match_the_oracle(m):
    assert_straightness_matches(m)
    assert_straightening_matches(m)


def test_catalogue_mono_graphs_match_the_oracle():
    for m in catalogue_monos():
        assert_straightness_matches(m)
        assert_straightening_matches(m)


def test_straightening_builds_one_power(monkeypatch):
    built = []
    power = stationary.mono_power

    def counted(m, K):
        built.append(K)
        return power(m, K)

    monkeypatch.setattr(stationary, "mono_power", counted)
    m = bratteli.weighted_to_bv(unit_presentation(fib_base_cover())).mono
    assert stationary.straighten_mono(m)[0] == 2
    assert built == [2]


def test_the_search_stops_at_its_cap():
    rotate = {"a": "b", "b": "c", "c": "a"}
    assert stationary._straight_power([rotate], 3)[0] == 3
    with pytest.raises(NotStraight, match="up to K=2$"):
        stationary._straight_power([rotate], 2)


# ---------------------------------------------------------------------------
# the exponent of a self-cover is that of its diagram's mono-graph


def assert_exponents_commute(p):
    a = stationary.analyze_self_cover(p.self_cover)
    K, _ = stationary.straighten_mono(bratteli.weighted_to_bv(p).mono)
    assert a.exponent == K


def test_fixture_exponents_commute():
    for p in (
        example2_unit(),
        example2_weighted(),
        fib_presentation(),
        skew_presentation(),
        unit_presentation(fib_base_cover()),
    ):
        assert_exponents_commute(p)


def test_catalogue_exponents_commute():
    for p in catalogue.presentations():
        assert_exponents_commute(p)


@settings(max_examples=100, deadline=None)
@given(directional_self_covers(), st.data())
def test_generated_exponents_commute(cover, data):
    mults = {e: data.draw(st.integers(1, 2)) for e in cover.domain.sorted_edges()}
    p = coverings.stationary_presentation(cover, mults)
    assume(not coverings.validate_presentation(p))
    assert_exponents_commute(p)
