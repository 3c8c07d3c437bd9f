"""Ordered Bratteli diagrams, successors, nesting, and conversions."""

import pytest
from hypothesis import given, settings

from zdyn import bratteli, coverings, graphs
from zdyn.bratteli import MAXIMAL, MINIMAL
from zdyn.errors import InvalidSequence, UnknownName, UnsupportedKind
from zdyn.reports import FAILS, HOLDS, UNKNOWN, Report

from helpers import (
    example2_unit,
    example2_weighted,
    fib_presentation,
    maximal_path,
    multiplicities,
    non_nesting_diagram,
    path_rng,
    skew_presentation,
)
from test_cluster_oracles import outcome
from test_properties import mono_graphs
import path_sets
import straight_oracle


def ex1_bv():
    return bratteli.weighted_to_bv(example2_unit())


def fib_bv():
    return bratteli.weighted_to_bv(fib_presentation())


# ---------------------------------------------------------------------------
# structure


def test_stationary_diagram_levels():
    d = ex1_bv()
    assert d.level_vertices(0) == ["v0"]
    assert d.level_vertices(1) == ["e_a", "e_b", "e_c", "e_d", "e_e", "e_f"]
    assert d.level_edges(1)["e_a<1"] == ("v0", "e_a", 1)
    # ranked in-edges of e_b spell out the expansion of e_b
    assert d.in_edges(2, "e_b") == [
        "e_a>e_b:1", "e_b>e_b:2", "e_d>e_b:3", "e_e>e_b:4",
    ]


def test_validate_diagram_accepts_fixtures():
    for d in (ex1_bv(), fib_bv(), non_nesting_diagram()):
        assert bratteli.validate_diagram(d) == []


def test_validate_diagram_flags_rank_gaps():
    d = bratteli.BratteliDiagram(
        levels=(("v0",), ("u",)),
        edge_levels=({"u<2": ("v0", "u", 2)},),
    )
    assert "rank gap at vertex u (level 1)" in bratteli.validate_diagram(d)


def test_tower_heights_equal_covering_lengths():
    p = example2_unit()
    d = bratteli.weighted_to_bv(p)
    for n in (1, 2, 3):
        g = coverings.level_graph(p, n)
        for e in g.edges:
            assert bratteli.path_count(d, e, n) == g.length[e]


def test_enumerate_paths_matches_path_index():
    d = ex1_bv()
    for v in d.level_vertices(3):
        paths = bratteli.enumerate_paths(d, v, 3)
        assert len(paths) == bratteli.path_count(d, v, 3)
        assert [bratteli.path_index(d, q) for q in paths] == list(
            range(len(paths))
        )


def test_minimal_and_maximal_paths_are_extreme():
    d = ex1_bv()
    for v in d.level_vertices(2):
        paths = bratteli.enumerate_paths(d, v, 2)
        assert bratteli.minimal_path(d, v, 2) == paths[0]
        assert maximal_path(d, v, 2) == paths[-1]


# ---------------------------------------------------------------------------
# the successor map


def test_orbit_enumerates_the_fiber_in_order():
    d = ex1_bv()
    for v in d.level_vertices(2):
        paths = bratteli.enumerate_paths(d, v, 2)
        orbit = bratteli.vershik_orbit(
            d, bratteli.minimal_path(d, v, 2), len(paths)
        )
        assert orbit[:-1] == paths
        assert orbit[-1] == MAXIMAL


def test_successor_and_predecessor_are_inverse():
    d = fib_bv()
    for v in d.level_vertices(3):
        for q in bratteli.enumerate_paths(d, v, 3):
            succ = bratteli.vershik_successor(d, q)
            if succ != MAXIMAL:
                assert bratteli.vershik_predecessor(d, succ) == q
    assert bratteli.vershik_predecessor(
        d, bratteli.minimal_path(d, "e_a", 3)
    ) == MINIMAL


def test_successor_values_is_a_singleton_off_the_boundary():
    d = ex1_bv()
    q = bratteli.minimal_path(d, "e_b", 2)
    values, exceptional = path_sets.successor_values(d, q)
    assert not exceptional
    assert values == frozenset({bratteli.vershik_successor(d, q)})


def test_successor_values_resolves_the_all_max_boundary():
    d = ex1_bv()
    top = maximal_path(d, "e_a", 2)
    values, exceptional = path_sets.successor_values(d, top)
    assert exceptional
    # the constant path over e_a is a fixed point of the successor
    assert bratteli.minimal_path(d, "e_a", 2) in values
    for q in values:
        assert q == bratteli.minimal_path(d, path_rng(d, q), 2)


@pytest.mark.parametrize("delta", (1, -1))
def test_boundary_targets_reject_an_unknown_vertex(delta):
    read_off = fib_bv()
    written = bratteli.stationary_diagram(read_off.mono, multiplicities(read_off))
    for d in (written, read_off):
        with pytest.raises(UnknownName, match="no vertex 'nope' at level 1"):
            bratteli.boundary_targets(d, "nope", delta)
        assert bratteli.boundary_targets(d, "e_a", delta)


def test_min_max_flags_on_example2():
    m = ex1_bv().mono
    f_min, f_max = m.extreme_sources(last=False), m.extreme_sources(last=True)
    # an all-minimal path into e_a goes on forever, along its minimal loop;
    # one into e_b has no minimal edge to go on along
    extendable = graphs.map_cycles(f_min)
    assert extendable == straight_oracle.infinite_walk_vertices(
        m, straight_oracle.extreme_edges(m, last=False)
    )
    assert "e_a" in extendable and f_min["e_a"] == "e_a"
    assert "e_b" not in extendable and f_min["e_b"] != "e_b"
    assert {v for v, u in f_max.items() if u == v} == {"e_a", "e_e", "e_f"}


# ---------------------------------------------------------------------------
# telescoping


def test_arithmetic_telescope_bv_stays_stationary():
    d = ex1_bv()
    t = bratteli.telescope_bv(d, [2, 4])
    assert t.stationary
    assert multiplicities(t) == {
        "e_a": 1, "e_b": 4, "e_c": 4, "e_d": 4, "e_e": 2, "e_f": 1,
    }
    for v in t.mono.vertices:
        assert bratteli.path_count(t, v, 1) == bratteli.path_count(d, v, 2)


def test_non_arithmetic_telescope_bv_preserves_counts():
    d = ex1_bv()
    t = bratteli.telescope_bv(d, [1, 3])
    assert not t.stationary
    assert bratteli.validate_diagram(t) == []
    for v in d.level_vertices(3):
        assert bratteli.path_count(t, v, 2) == bratteli.path_count(d, v, 3)


def test_telescoped_segments_keep_the_path_order():
    d = ex1_bv()
    t = bratteli.telescope_bv(d, [1, 3])
    for v in d.level_vertices(3):
        glued = [
            tuple(e for part in q for e in part.split(" "))
            for q in bratteli.enumerate_paths(t, v, 2)
        ]
        assert glued == bratteli.enumerate_paths(d, v, 3)


# ---------------------------------------------------------------------------
# clusters and nesting


def test_nesting_holds_exactly_on_example2():
    d = ex1_bv()
    for n in (1, 2, 3, 4):
        report = bratteli.check_nesting(d, n)
        assert report.verdict == HOLDS
        assert report.details["certainty"] == "EXACT"


def test_nesting_holds_exactly_on_fib():
    d = fib_bv()
    for n in (1, 2, 3, 4):
        assert bratteli.check_nesting(d, n).verdict == HOLDS


def test_non_nesting_fixture_fails_at_level_one():
    d = non_nesting_diagram()
    report = bratteli.check_nesting(d, 1)
    assert report.verdict == FAILS
    assert report.witnesses == ("p", "q")
    assert report.details["projections"] == {"p": ("x<1",), "q": ("y<1",)}


def test_non_nesting_witness_agrees_with_the_successor_map():
    d = non_nesting_diagram()
    # the successor of an interior extension of p's tower top lands in
    # the base of q, so p and q genuinely cluster together
    top_p = maximal_path(d, "p", 2)
    assert top_p == ("y<1", "y>p:2")
    succ = bratteli.vershik_successor(d, top_p + ("p>z1:1",))
    assert succ[:2] == bratteli.minimal_path(d, "q", 2)
    assert bratteli.minimal_path(d, "p", 2)[:1] != bratteli.minimal_path(
        d, "q", 2
    )[:1]


# ---------------------------------------------------------------------------
# conversions


def round_trip(p):
    return bratteli.bv_to_weighted(bratteli.weighted_to_bv(p))


def test_round_trip_example2_is_isomorphic():
    p = example2_unit()
    q = round_trip(p)
    iso = coverings.find_cover_isomorphism(p, q)
    assert iso is not None
    _, emap = iso
    assert emap == {e: e for e in p.self_cover.domain.edges}


def test_round_trip_fib_is_isomorphic():
    p = fib_presentation()
    q = round_trip(p)
    iso = coverings.find_cover_isomorphism(p, q)
    assert iso is not None


def test_round_trip_preserves_lengths_and_verdicts():
    p = example2_weighted()
    q = round_trip(p)
    for n in (1, 2, 3):
        g1 = coverings.level_graph(p, n)
        g2 = coverings.level_graph(q, n)
        assert sorted(g1.length.values()) == sorted(g2.length.values())
    assert coverings.check_closing(q).verdict == HOLDS


def test_bv_to_weighted_rejects_finite_prefixes():
    with pytest.raises(UnsupportedKind):
        bratteli.bv_to_weighted(non_nesting_diagram())


# ---------------------------------------------------------------------------
# closing and regulation on the diagram side


def test_closing_bv_matches_the_covering_side():
    assert bratteli.check_closing_bv(ex1_bv()).verdict == HOLDS
    report = bratteli.check_closing_bv(fib_bv())
    assert report.verdict == HOLDS
    assert report.details["reason"] == "no constant paths"


def test_closing_bv_fails_on_the_skew_fixture():
    d = bratteli.weighted_to_bv(skew_presentation())
    report = bratteli.check_closing_bv(d)
    assert report.verdict == FAILS
    assert report.witnesses == (("x", (), ("x",)),)


def test_closing_bv_is_unknown_on_finite_prefixes():
    assert bratteli.check_closing_bv(non_nesting_diagram()).verdict == UNKNOWN


def unique_in_chain_heads(m):
    """Vertices heading an infinite path of unique in-edges above them.

    The one-step relation ``v -> w`` holds when the only in-edge of ``w``
    starts at ``v``; a vertex stays while it steps to one that stays.
    """
    step = {v: set() for v in m.vertices}
    for w in m.vertices:
        ranked = m.in_edges(w)
        if len(ranked) == 1:
            step[m.src[ranked[0]]].add(w)
    alive = set(m.vertices)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not (step[v] & alive):
                alive.discard(v)
                changed = True
    return alive


@settings(max_examples=200, deadline=None)
@given(mono_graphs())
def test_constant_path_heads_are_infinite_unique_in_walks(m):
    heads = straight_oracle.infinite_walk_vertices(m, straight_oracle.unique_in_edges(m))
    assert heads == unique_in_chain_heads(m)
    # closing holds vacuously exactly when no constant path exists
    d = bratteli.stationary_diagram(m, dict.fromkeys(m.vertices, 1))
    report = outcome(bratteli.check_closing_bv, d)
    vacuous = isinstance(report, Report) and report.details.get("reason") == "no constant paths"
    assert vacuous == (not heads)


def test_regulated_bv_matches_the_covering_side():
    d = bratteli.weighted_to_bv(example2_weighted())
    assert bratteli.check_regulated_bv(d, [1, 2, 3], 3).verdict == HOLDS
    assert bratteli.check_regulated_bv(ex1_bv(), [1, 2, 3], 3).verdict == FAILS
    with pytest.raises(InvalidSequence):
        bratteli.check_regulated_bv(ex1_bv(), [2, 2], 2)
