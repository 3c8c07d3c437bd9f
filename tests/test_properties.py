"""Randomized invariants over generated covers, diagrams, and windows."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings, graphs, stationary, substitution as subs
from zdyn.bratteli import MAXIMAL
from zdyn.errors import NestingViolation, UndefinedVershik
from zdyn.graphs import Cover, flexible, identity_cover
from zdyn.reports import HOLDS

from helpers import example2_unit, example2_weighted, fib_presentation


# ---------------------------------------------------------------------------
# generators


@st.composite
def loop_covers(draw):
    """A flexible self-cover on a single vertex: any edge word is a walk."""
    k = draw(st.integers(1, 3))
    edges = [f"e{i}" for i in range(k)]
    g = flexible({"v"}, {e: ("v", "v") for e in edges})
    emap = {
        e: tuple(
            draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3))
        )
        for e in edges
    }
    return Cover(domain=g, codomain=g, vmap={"v": "v"}, emap=emap)


@st.composite
def loop_presentations(draw):
    cover = draw(loop_covers())
    mults = {e: draw(st.integers(1, 2)) for e in cover.domain.edges}
    return coverings.stationary_presentation(cover, mults)


@st.composite
def weighted_loop_covers(draw):
    """Like :func:`loop_covers` but +directional and edge-surjective.

    On a single vertex every pair of edges is co-sourced, so the image
    words must all start with one shared first letter; appending the
    letters that would otherwise be missed keeps edge-surjectivity.
    """
    k = draw(st.integers(1, 3))
    edges = [f"e{i}" for i in range(k)]
    g = flexible({"v"}, {e: ("v", "v") for e in edges})
    first = draw(st.sampled_from(edges))
    emap = {
        e: (first,)
        + tuple(
            draw(st.lists(st.sampled_from(edges), min_size=0, max_size=2))
        )
        for e in edges
    }
    missing = sorted(set(edges) - {x for w in emap.values() for x in w})
    emap[edges[0]] = emap[edges[0]] + tuple(missing)
    return Cover(domain=g, codomain=g, vmap={"v": "v"}, emap=emap)


@st.composite
def mono_graphs(draw):
    k = draw(st.integers(1, 4))
    letters = [f"v{i}" for i in range(k)]
    table = {}
    for v in letters:
        for i in range(1, draw(st.integers(1, 4)) + 1):
            table[f"{v}~{i}"] = (draw(st.sampled_from(letters)), v, i)
    return stationary.mono_graph(letters, table)


# ---------------------------------------------------------------------------
# cover composition laws


@settings(max_examples=40, deadline=None)
@given(loop_covers())
def test_identity_is_neutral_for_composition(c):
    ident = identity_cover(c.domain)
    assert graphs.compose_covers(c, ident) == c
    assert graphs.compose_covers(ident, c) == c


@settings(max_examples=40, deadline=None)
@given(loop_covers())
def test_composition_is_associative(c):
    cc = graphs.compose_covers(c, c)
    assert graphs.compose_covers(cc, c) == graphs.compose_covers(c, cc)
    assert graphs.compose_covers(cc, c) == graphs.cover_power(c, 3)


# ---------------------------------------------------------------------------
# the graph record: documents and read-only maps


@settings(max_examples=40, deadline=None)
@given(st.one_of(loop_covers(), weighted_loop_covers()))
def test_covers_round_trip_through_documents(c):
    assert cli.load_document(cli.to_document(c)) == c


@settings(max_examples=30, deadline=None)
@given(loop_presentations(), st.integers(1, 3))
def test_level_graphs_and_covers_round_trip_through_documents(p, n):
    for x in (coverings.level_graph(p, n), coverings.cover_at(p, n)):
        assert cli.load_document(cli.to_document(x)) == x


def assert_maps_read_only(record, names):
    for name in names:
        mapping = getattr(record, name)
        with pytest.raises(TypeError):
            mapping["intruder"] = None
        assert "intruder" not in mapping


@settings(max_examples=30, deadline=None)
@given(loop_presentations(), st.integers(1, 3))
def test_every_map_of_a_graph_cover_and_mono_graph_is_read_only(p, n):
    assert_maps_read_only(p.self_cover.domain, ("src", "rng"))
    assert_maps_read_only(coverings.level_graph(p, n), ("src", "rng", "length"))
    for c in (p.self_cover, coverings.cover_at(p, n)):
        assert_maps_read_only(c, ("vmap", "emap"))
    assert_maps_read_only(bratteli.weighted_to_bv(p).mono, ("src", "rng", "rank"))


# ---------------------------------------------------------------------------
# length bookkeeping


@settings(max_examples=40, deadline=None)
@given(loop_presentations(), st.integers(1, 3))
def test_lengths_satisfy_the_expansion_recursion(p, n):
    low = coverings.level_graph(p, n)
    high = coverings.level_graph(p, n + 1)
    emap = coverings.cover_at(p, n + 1).emap
    for e in high.edges:
        assert high.length[e] == sum(low.length[x] for x in emap[e])


@settings(max_examples=30, deadline=None)
@given(loop_presentations())
def test_arithmetic_telescoping_reindexes_lengths(p):
    q = coverings.telescope(p, [2, 4])
    assert q.kind == "stationary"
    for n in (1, 2):
        assert (
            coverings.level_graph(q, n).length
            == coverings.level_graph(p, 2 * n).length
        )


@settings(max_examples=30, deadline=None)
@given(loop_presentations(), st.integers(1, 3))
def test_tower_heights_are_lengths_and_floors_partition(p, n):
    g = coverings.level_graph(p, n)
    depth = n + 1
    cells = coverings.tower_floor_sets(p, n, depth)
    seen = []
    for (e, i), paths in cells.items():
        assert 0 <= i < g.length[e]
        seen.extend(paths)
    everything = coverings.evaluate_set(p, ("all",), depth)
    assert sorted(seen) == sorted(everything)
    assert len(seen) == len(set(seen))


@settings(max_examples=20, deadline=None)
@given(loop_presentations(), st.integers(1, 2))
def test_shift_moves_floors_up_the_tower(p, n):
    depth = n + 1
    g = coverings.level_graph(p, n)
    cells = coverings.tower_floor_sets(p, n, depth)
    for e in g.sorted_edges():
        for i in range(g.length[e] - 1):
            moved, exceptional = coverings._step_set(
                p, cells[(e, i)], forward=True
            )
            if not exceptional:
                assert moved == cells[(e, i + 1)]


# ---------------------------------------------------------------------------
# successor order and conversions


@settings(max_examples=50, deadline=None)
@given(mono_graphs(), st.integers(1, 3), st.data())
def test_successor_orbit_is_the_path_enumeration(mono, depth, data):
    mults = {
        v: data.draw(st.integers(1, 2), label=f"mult({v})")
        for v in sorted(mono.vertices)
    }
    d = bratteli.stationary_diagram(mono, mults)
    v = data.draw(st.sampled_from(sorted(mono.vertices)), label="vertex")
    expected = bratteli.enumerate_paths(d, v, depth)
    path = bratteli.minimal_path(d, v, depth)
    for want in expected:
        assert path == want
        path = bratteli.vershik_successor(d, path)
    assert path == MAXIMAL


@settings(max_examples=40, deadline=None)
@given(loop_presentations())
def test_round_trip_presents_the_same_diagram(p):
    d = bratteli.weighted_to_bv(p)
    try:
        q = bratteli.bv_to_weighted(d)
    except (NestingViolation, UndefinedVershik):
        return  # the conversion honestly refuses degenerate diagrams
    d2 = bratteli.weighted_to_bv(q)
    for n in (1, 2, 3):
        counts = sorted(
            bratteli.path_count(d, v, n) for v in d.level_vertices(n)
        )
        counts2 = sorted(
            bratteli.path_count(d2, v, n) for v in d2.level_vertices(n)
        )
        assert counts == counts2


@settings(max_examples=40, deadline=None)
@given(loop_presentations(), st.integers(1, 2))
def test_straight_continuous_diagrams_nest(p, n):
    d = bratteli.weighted_to_bv(p)
    if not stationary.is_straight(d.mono):
        return
    if stationary.check_continuity(d.mono).verdict != HOLDS:
        return
    assert bratteli.check_nesting(d, n).verdict == HOLDS


@settings(max_examples=40, deadline=None)
@given(weighted_loop_covers())
def test_straightening_is_idempotent(c):
    a = stationary.analyze_self_cover(c)
    assert stationary.analyze_self_cover(a.cover).exponent == 1


# ---------------------------------------------------------------------------
# substitutions


@settings(max_examples=40, deadline=None)
@given(loop_presentations(), st.integers(1, 3))
def test_unit_lengths_count_substitution_letters(p, n):
    unit = coverings.stationary_presentation(
        p.self_cover, {e: 1 for e in p.self_cover.domain.edges}
    )
    try:
        s = subs.read_substitution(unit.self_cover)
    except subs.EmptyGrowingSet:
        return
    g = coverings.level_graph(unit, n)
    for e in g.edges:
        assert g.length[e] == len(s.iterate((e,), n - 1))


@settings(max_examples=30, deadline=None)
@given(loop_covers(), st.integers(1, 4))
def test_language_is_factor_closed(c, bound):
    try:
        s = subs.read_substitution(c)
        words = subs.language(s, bound)
    except subs.EmptyGrowingSet:
        return
    for w in words:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert w[i:j] in words


def test_recoding_stays_determined_at_larger_radii():
    p = example2_unit()
    for radius in (2, 3, 4):
        assert subs.check_recoding(p, 1, radius).verdict == "DETERMINED"


# ---------------------------------------------------------------------------
# fixture-level spot invariants that complement the random ones


def test_telescoped_example2_still_nests():
    q = coverings.telescope(example2_weighted(), [2, 4])
    d = bratteli.weighted_to_bv(q)
    for n in (1, 2):
        assert bratteli.check_nesting(d, n).verdict == HOLDS


def test_random_windows_over_the_fixtures():
    rng = random.Random(7)
    for p in (example2_unit(), fib_presentation()):
        g2 = coverings.level_graph(p, 2)
        emap2 = coverings.cover_at(p, 2).emap
        loops = {
            v: next(
                e for e in g2.sorted_edges()
                if g2.src[e] == v and g2.rng[e] == v
            )
            for v in g2.vertices
            if any(
                g2.src[e] == v and g2.rng[e] == v for e in g2.edges
            )
        }
        for _ in range(20):
            u = rng.choice(sorted(loops))
            core = []
            here = u
            for _ in range(rng.randint(0, 2)):
                e = rng.choice(sorted(g2.out_edges(here)))
                core.append(e)
                here = g2.rng[e]
            if here not in loops:
                continue
            seed = subs.SeedRow(
                level=2,
                left=(loops[u],),
                core=tuple(core),
                right=(loops[here],),
            )
            lo = rng.randint(-6, 0)
            w = subs.array_window(p, seed, 2, (lo, lo + rng.randint(4, 12)))
            assert w.cuts[2] <= w.cuts[1]
            for c in sorted(w.cuts[2]):
                e = w.cells[(2, c)]
                if c + g2.length[e] - 1 > w.hi:
                    continue
                segment = tuple(
                    w.cells[(1, q)]
                    for q in range(c, c + g2.length[e])
                    if q in w.cuts[1]
                )
                assert segment == emap2[e]
