"""The adjacency index against brute-force scans of the raw tables.

The oracles here read ``edge_levels`` and ``repeat`` directly and never
touch the index: in-edges by scanning and sorting a level,
out-edges by scanning and sorting the sources, tower heights by
recursion or by filling whole levels, and path fibers by recursive
enumeration.  The index read off the expansion walks is checked against
the eager builder it replaced, which formats every id up front.
"""

import contextlib
import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings, graphs, stationary
from zdyn.bratteli import MAXIMAL, MINIMAL, ROOT
from zdyn.errors import InvalidParameter, NameCollision, UnknownName, ZdynError

from helpers import (
    example2_cover,
    example2_unit,
    maximal_path,
    path_rng,
    skew_fixed_edge_cover,
)
from test_cli import DATA
from test_cluster_oracles import outcome
from test_properties import loop_covers, loop_presentations, mono_graphs
import catalogue
import path_sets

COVERING_FIXTURES = (
    "example2_covering.json",
    "example2_weighted_covering.json",
    "fib_covering.json",
    "skew_covering.json",
)
DIAGRAM_FIXTURES = COVERING_FIXTURES + ("fib_bratteli.json", "non_nesting_bratteli.json")


# ---------------------------------------------------------------------------
# oracles


def raw_table(d, n):
    """The level-n edge table, read off the diagram's fields."""
    return d.edge_levels[n - 1] if n <= len(d.edge_levels) else d.repeat


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


def scan_out_edges(d, n, v):
    return sorted(e for e, (s, _, _) in raw_table(d, n).items() if s == v)


def whole_level_heights(d, n):
    """Tower heights up to level ``n``, every vertex of every level."""
    heights = [{ROOT: 1}]
    for k in range(1, n + 1):
        level = {}
        for s, r, _ in raw_table(d, k).values():
            level[r] = level.get(r, 0) + heights[-1][s]
        heights.append(level)
    return heights


def oracle_floor(d, p, heights):
    """The floor of ``p``: the towers under its lower-ranked siblings."""
    floor = 0
    for k, e in enumerate(p, start=1):
        table = raw_table(d, k)
        _, r, rank = table[e]
        floor += sum(heights[k - 1][s] for s, w, i in table.values() if w == r and i < rank)
    return floor


def scan_graph_edges(g, v, end):
    """The edges of ``g`` whose ``end`` ("src" or "rng") is ``v``, sorted."""
    return sorted(e for e in g.edges if getattr(g, end)[e] == v)


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
        out = d._level(n).out
        for u in d.level_vertices(n - 1):
            assert out.get(u, ()) == tuple(scan_out_edges(d, n, u))
        for v in d.level_vertices(n):
            assert d.in_edges(n, v) == scan_in_edges(d, n, v)
            paths = oracle_paths(d, v, n)
            assert bratteli.path_count(d, v, n) == recursive_count(d, v, n)
            assert bratteli.path_count(d, v, n) == len(paths)
            assert bratteli.enumerate_paths(d, v, n) == paths
            assert bratteli.minimal_path(d, v, n) == paths[0]
            assert maximal_path(d, v, n) == paths[-1]
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
def random_graphs(draw):
    """A weighted or flexible multigraph; any vertex may lack edges."""
    vertices = [f"u{i}" for i in range(draw(st.integers(1, 4)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    table = {
        f"x{i}": pair
        for i, pair in enumerate(draw(st.lists(ends, min_size=1, max_size=9)))
    }
    if draw(st.booleans()):
        return graphs.flexible(vertices, table)
    return graphs.weighted(
        vertices, {e: pair + (draw(st.integers(1, 3)),) for e, pair in table.items()}
    )


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
    assert not t.stationary
    assert_matches_oracles(t, t.depth() or len(t.levels))


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
    assert "_index" not in vars(d) and "mono" not in vars(d)
    d.in_edges(2, "e_a")
    assert "_index" in vars(d) and "mono" not in vars(d)
    # levels >= 2 of a stationary diagram share the mono-graph's entry
    assert d._index[1] is d.mono._index


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_graph_adjacency_matches_the_scans(g):
    assert "_index" not in vars(g)
    for v in sorted(g.vertices):
        assert list(g._index.ranked.get(v, ())) == scan_graph_edges(g, v, "rng")
        assert g._index.out.get(v, ()) == tuple(scan_graph_edges(g, v, "src"))


def test_loading_a_graph_builds_no_index():
    g = cli.read_document(DATA / "fib_weighted_level2.json")
    p = cli.read_document(DATA / "example2_covering.json")
    for graph in (g, p.self_cover.domain, p.self_cover.codomain):
        assert "_index" not in vars(graph)
    assert g._index.out.get("v", ()) == ("e_a", "e_b")
    assert "_index" in vars(g)


def test_continuity_is_decided_once_per_diagram(monkeypatch):
    calls = []
    real = stationary.check_continuity

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(stationary, "check_continuity", counted)
    d = bratteli.weighted_to_bv(example2_unit())
    for v in d.level_vertices(2):
        assert path_sets.successor_values(d, maximal_path(d, v, 2))[1]
        assert path_sets.predecessor_values(d, bratteli.minimal_path(d, v, 2))[1]
    assert len(calls) == 1


def test_deep_tower_coordinates_need_no_recursion():
    for d, v in (
        (bratteli.weighted_to_bv(example2_unit()), "e_b"),
        (cli.read_document(DATA / "fib_bratteli.json"), "e_a"),
    ):
        top = maximal_path(d, v, 3000)
        assert bratteli.path_index(d, top) == bratteli.path_count(d, v, 3000) - 1
        assert bratteli.vershik_successor(d, top) == MAXIMAL
        bottom = bratteli.minimal_path(d, v, 3000)
        assert bratteli.path_index(d, bottom) == 0
        assert bratteli.vershik_predecessor(d, bottom) == MINIMAL


# ---------------------------------------------------------------------------
# tower heights over backward cones


def fixture_diagram(name):
    """A diagram fixture, or the diagram of a covering fixture."""
    doc = cli.read_document(DATA / name)
    if isinstance(doc, bratteli.BratteliDiagram):
        return doc
    return bratteli.weighted_to_bv(doc)


def sample_paths(d, n):
    """The least, a middle and the greatest path of every level-n tower."""
    out = []
    for v in d.level_vertices(n):
        paths = oracle_paths(d, v, n)
        out.extend({paths[0], paths[len(paths) // 2], paths[-1]})
    return out


def assert_memo_is_exact(d, want):
    for k, level in enumerate(d._heights):
        for v, h in level.items():
            assert h == want[k][v], (k, v)


def assert_cone_fill_matches(d, n):
    """Cone fills and whole-level fills, in both orders, against the oracle."""
    want = whole_level_heights(d, n)
    paths = sample_paths(d, n)
    floors = [oracle_floor(d, q, want) for q in paths]

    partial_first = dataclasses.replace(d)
    assert [bratteli.path_index(partial_first, q) for q in paths] == floors
    assert_memo_is_exact(partial_first, want)
    for k in range(n + 1):
        for v in d.level_vertices(k):
            assert bratteli.path_count(partial_first, v, k) == want[k].get(v, 0)
    assert_memo_is_exact(partial_first, want)

    whole_first = dataclasses.replace(d)
    for k in range(n, -1, -1):
        level = bratteli._tower_heights(whole_first, k, d.level_vertices(k))[k]
        assert level == {v: want[k][v] for v in d.level_vertices(k)}
    assert [bratteli.path_index(whole_first, q) for q in paths] == floors
    assert_memo_is_exact(whole_first, want)


@settings(max_examples=40, deadline=None)
@given(stationary_diagrams(), st.integers(1, 3))
def test_cone_fill_matches_whole_levels_on_stationary_diagrams(d, n):
    assert_cone_fill_matches(d, n)


@settings(max_examples=25, deadline=None)
@given(stationary_diagrams(), non_arithmetic_cuts())
def test_cone_fill_matches_whole_levels_on_finite_prefixes(d, cuts):
    t = bratteli.telescope_bv(d, cuts)
    assert_cone_fill_matches(t, t.depth() or len(t.levels))


@settings(max_examples=25, deadline=None)
@given(loop_presentations(), st.integers(1, 3))
def test_cone_fill_matches_whole_levels_on_loop_presentations(p, n):
    assert_cone_fill_matches(bratteli.weighted_to_bv(p), n)


def test_cone_fill_matches_whole_levels_on_the_fixtures():
    for name in DIAGRAM_FIXTURES:
        d = fixture_diagram(name)
        assert_cone_fill_matches(d, d.depth() or 3)


def loop_covering(edges):
    """One vertex, loops ``e_i -> e_0 e_i e_(i+1)`` (indices mod ``edges``)."""
    name = [f"e{i:02d}" for i in range(edges)]
    g = graphs.flexible({"v"}, {e: ("v", "v") for e in name})
    emap = {name[i]: (name[0], name[i], name[(i + 1) % edges]) for i in range(edges)}
    cover = graphs.Cover(domain=g, codomain=g, vmap={"v": "v"}, emap=emap)
    return coverings.stationary_presentation(cover, {e: 1 for e in name})


def test_path_index_fills_only_the_backward_cone():
    n = 9
    d = bratteli.weighted_to_bv(loop_covering(64))
    q = maximal_path(d, "e05", n)
    assert bratteli.path_index(d, q) == bratteli.path_count(d, "e05", n) - 1
    # e_i at level k has in-neighbours e_0, e_i and e_(i+1) at level k - 1
    for k in range(n + 1):
        assert 1 <= len(d._heights[k]) <= 2 * (n - k) + 2, k
    assert bratteli.path_count(d, "e05", n) == whole_level_heights(d, n)[n]["e05"]


# ---------------------------------------------------------------------------
# floors read back as paths by descent


def assert_path_at_inverts_the_fibers(d, depth):
    for n in range(depth + 1):
        for v in d.level_vertices(n):
            for i, q in enumerate(bratteli.enumerate_paths(d, v, n)):
                assert bratteli.path_at(d, v, n, i) == q


@pytest.mark.parametrize("name", DIAGRAM_FIXTURES)
def test_path_at_matches_the_fibers_on_the_fixtures(name):
    d = fixture_diagram(name)
    assert_path_at_inverts_the_fibers(d, d.depth() or 4)


@settings(max_examples=40, deadline=None)
@given(loop_presentations(), st.integers(1, 4))
def test_path_at_matches_the_fibers_on_loop_presentations(p, depth):
    assert_path_at_inverts_the_fibers(bratteli.weighted_to_bv(p), depth)


def spread_floors(height, rng):
    """Both ends, both sides of the middle and a few random floors."""
    floors = {0, 1, height // 3, height // 2, height - 2, height - 1}
    floors.update(rng.randrange(height) for _ in range(4))
    return sorted(f for f in floors if 0 <= f < height)


def test_path_at_inverts_path_index_on_deep_fibonacci_towers():
    d = fixture_diagram("fib_covering.json")
    rng = random.Random(160)
    for v in d.level_vertices(160):
        height = bratteli.path_count(d, v, 160)
        assert height > 2**100
        for i in spread_floors(height, rng):
            q = bratteli.path_at(d, v, 160, i)
            assert len(q) == 160 and bratteli.path_index(d, q) == i
        top = bratteli.path_at(d, v, 160, height - 1)
        assert top == maximal_path(d, v, 160)
        assert bratteli.path_at(d, v, 160, 0) == bratteli.minimal_path(d, v, 160)


def test_path_at_on_512_loops_fills_only_the_backward_cone():
    n = 9
    d = bratteli.weighted_to_bv(loop_covering(512))
    rng = random.Random(512)
    for v in ("e00", "e05", "e511"):
        height = bratteli.path_count(d, v, n)
        for i in spread_floors(height, rng):
            assert bratteli.path_index(d, bratteli.path_at(d, v, n, i)) == i
    # e_i at level k has in-neighbours e_0, e_i and e_(i+1) at level k - 1
    for k in range(1, n + 1):
        assert len(d._heights[k]) <= 3 * (2 * (n - k) + 2), k
    assert "mono" not in vars(d)


@pytest.mark.parametrize("name", DIAGRAM_FIXTURES)
def test_path_at_rejects_a_floor_outside_the_tower(name):
    d = fixture_diagram(name)
    v = d.level_vertices(2)[0]
    height = bratteli.path_count(d, v, 2)
    for i in (-1, height, height + 7):
        with pytest.raises(InvalidParameter, match=f"floor {i} "):
            bratteli.path_at(d, v, 2, i)
    with pytest.raises(InvalidParameter):
        bratteli.path_at(d, ROOT, 0, 1)
    assert bratteli.path_at(d, ROOT, 0, 0) == ()
    # a level-2 vertex is not a vertex of level 0, and the root not of level 1
    with pytest.raises(UnknownName):
        bratteli.path_at(d, v, 0, 0)
    with pytest.raises(UnknownName, match=repr(ROOT)):
        bratteli.path_at(d, ROOT, 1, 0)
    assert issubclass(InvalidParameter, ZdynError)


# ---------------------------------------------------------------------------
# out-edges built on first read


def test_walks_leave_the_out_edges_unbuilt():
    d = bratteli.weighted_to_bv(cli.read_document(DATA / "example2_covering.json"))
    q = bratteli.minimal_path(d, "e_d", 6)
    assert bratteli.path_index(d, q) == 0
    for _ in range(50):
        q = bratteli.vershik_successor(d, q)
    assert bratteli.path_index(d, q) == 50
    assert all("out" not in vars(index) for index in d._index)
    for n, index in enumerate(d._index, start=1):
        assert dict(index.out) == {
            v: tuple(scan_out_edges(d, n, v)) for v in d.level_vertices(n - 1)
        }
        assert "out" in vars(index)
        with pytest.raises(TypeError):
            index.out["intruder"] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.out = {}


# ---------------------------------------------------------------------------
# names outside the diagram


@pytest.mark.parametrize("name", DIAGRAM_FIXTURES)
def test_names_outside_the_diagram_raise_unknown_name(name):
    d = fixture_diagram(name)
    n = min(3, d.depth() or 3)
    calls = [
        lambda: bratteli.path_count(d, "nope", n),
        lambda: bratteli.path_count(d, "nope", 0),
        lambda: bratteli.path_index(d, ("nope",)),
        lambda: bratteli.path_index(d, bratteli.minimal_path(d, d.level_vertices(1)[0], 1) + ("nope",)),
        lambda: bratteli.vershik_successor(d, ("nope", "x")),
        lambda: bratteli.vershik_predecessor(d, ("nope", "x")),
        lambda: bratteli.minimal_path(d, "nope", n),
        lambda: maximal_path(d, "nope", n),
        lambda: bratteli.enumerate_paths(d, "nope", n),
        lambda: bratteli.enumerate_paths(d, "nope", 0),
        lambda: bratteli.path_at(d, "nope", n, 0),
        lambda: bratteli.path_at(d, "nope", 0, 0),
    ]
    for call in calls:
        with pytest.raises(UnknownName, match="'nope'"):
            call()
    assert issubclass(UnknownName, ZdynError)
    assert all(not level for level in d._heights[1:])


@pytest.mark.parametrize("name", DIAGRAM_FIXTURES)
def test_an_extreme_path_at_level_0_starts_at_the_root(name):
    d = fixture_diagram(name)
    assert bratteli.minimal_path(d, ROOT, 0) == maximal_path(d, ROOT, 0) == ()
    for extreme in (bratteli.minimal_path, maximal_path):
        for v in ("nope", d.level_vertices(1)[0]):
            with pytest.raises(UnknownName, match=f"^no vertex {v!r} at level 0$"):
                extreme(d, v, 0)


def test_a_broken_path_raises_unknown_name():
    d = bratteli.weighted_to_bv(example2_unit())
    good = bratteli.minimal_path(d, "e_b", 2)
    # e_a at level 1 is not a source of e_b's in-edges at level 2
    other = bratteli.minimal_path(d, "e_f", 2)
    broken = good[:1] + other[1:]
    assert path_rng(d, good[:1]) != d.level_edges(2)[other[1]][0]
    with pytest.raises(UnknownName, match="do not form a path"):
        bratteli.path_index(d, broken)


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


# ---------------------------------------------------------------------------
# the index read off the expansion walks


def eager_tables(p):
    """The edge tables of ``weighted_to_bv(p)``, every id formatted at once.

    This is the builder the walk-read index replaced: level 1 (for a
    stationary ``p``) and then each deeper level, in sorted vertex order.
    """
    if p.stationary:
        g, walks = p.graphs[0], p.self_cover.emap
        first = {
            f"{v}<{i}": (ROOT, v, i)
            for v in sorted(g.edges)
            for i in range(1, g.length[v] + 1)
        }
        deeper = {}
        for w in sorted(g.edges):
            for i, q in enumerate(walks[w], start=1):
                deeper[f"{q}>{w}:{i}"] = (q, w, i)
        return [first, deeper]
    tables = []
    for n in range(1, p.depth() + 1):
        g = coverings.level_graph(p, n)
        table = {}
        for w in sorted(g.edges):
            if n == 1:
                for i in range(1, g.length[w] + 1):
                    table[f"{w}<{i}"] = (ROOT, w, i)
            else:
                for i, q in enumerate(coverings.cover_at(p, n).emap[w], start=1):
                    table[f"{q}>{w}:{i}"] = (q, w, i)
        tables.append(table)
    return tables


def stray_ids(table):
    """Strings close to the ids of ``table`` that name no edge of it."""
    out = {"nope", "", "<", ">", ":", "<1", ">:1", ROOT}
    for e, (q, w, i) in list(table.items())[:5]:
        sep = ":" if ":" in e else "<"
        head = e[: e.rindex(sep) + 1]
        out.update(
            {
                e + "0",
                head + "0",
                head + f"0{i}",
                head + f"+{i}",
                head + f" {i}",
                head + str(i + 100),
                " " + e,
                f"{w}>{q}:{i}" if sep == ":" else f"{w}<{i}<{i}",
                f"{q}>{q}>{w}:{i}",
                w,
            }
        )
    return sorted(out - set(table))


def filled(view):
    """The number of entries behind a read-only view, without filling it."""
    (table,) = gc.get_referents(view)
    return dict.__len__(table)


@contextlib.contextmanager
def read_lazily(lazy=True):
    """Index levels of every size vertex by vertex while the block runs."""
    small = graphs._SMALL_LEVEL
    graphs._SMALL_LEVEL = -1 if lazy else small
    try:
        yield
    finally:
        graphs._SMALL_LEVEL = small


def assert_walk_index_matches_the_eager_tables(p, rng, lazy):
    """Single reads in a seeded order, then whole reads in another."""
    with read_lazily(lazy):
        d = bratteli.weighted_to_bv(p)
    tables = eager_tables(p)
    oracles = [graphs.index_edges(table) for table in tables]
    if p.stationary:
        separator = any(">" in w for w in p.self_cover.domain.edges)
        assert (filled(d._index[0].ranked) == 0) == lazy
        assert (filled(d._index[1].ranked) == 0) == (lazy and not separator)
    levels = list(zip(d._index, oracles, tables))
    singles = []
    for k, (_, want, table) in enumerate(levels):
        singles += [("ranked", k, v) for v in want.ranked]
        singles += [(kind, k, e) for e in table for kind in ("edges", "place")]
        singles += [(kind, k, x) for x in stray_ids(table) for kind in ("get", "in", "[]")]
    rng.shuffle(singles)
    for kind, k, x in singles[: rng.randint(0, len(singles))]:
        index, want, table = levels[k]
        if kind == "ranked":
            assert index.ranked[x] == want.ranked[x]
        elif kind == "edges":
            assert index.edges[x] == table[x]
        elif kind == "place":
            _, r, rank = index.edges[x]
            assert index.ranked[r][rank - 1] == x
        elif kind == "get":
            assert index.edges.get(x) is None
            assert index.ranked.get(x, ()) == want.ranked.get(x, ())
        elif kind == "in":
            assert x not in index.edges
        else:
            with pytest.raises(KeyError):
                index.edges[x]
    vertices = sorted(p.self_cover.domain.edges) if p.stationary else None

    def whole_reads(index, want, table):
        yield lambda: len(index.edges) == len(table) and len(index.ranked) == len(want.ranked)
        yield lambda: list(index.edges) == list(table)
        yield lambda: dict(index.edges.items()) == table and index.edges == table
        yield lambda: dict(index.ranked) == dict(want.ranked)
        yield lambda: all(
            index.ranked[r][rank - 1] == e for e, (_, r, rank) in index.edges.items()
        )
        yield lambda: index.out == want.out
        yield lambda: all(index.edges.get(e) == t and e in index.edges for e, t in table.items())
        yield lambda: all(x not in index.edges for x in stray_ids(table))

    checks = [check for level in levels for check in whole_reads(*level)]
    depth = d.depth() or 3
    checks += [
        lambda n=n: dict(d.level_edges(n)) == tables[min(n, len(tables)) - 1]
        for n in range(1, depth + 1)
    ]
    checks.append(lambda: dict(d.edge_levels[0]) == tables[0])
    if vertices is not None:
        eager = bratteli.stationary_diagram(
            stationary.mono_graph(vertices, tables[1]), p.graphs[0].length
        )
        checks += [
            lambda: d.mono == eager.mono and d.mono._index is d._index[1],
            lambda: d == eager and hash(d) == hash(eager),
            lambda: d.level_vertices(2) == vertices,
        ]
    else:
        checks.append(lambda: [dict(t) for t in d.edge_levels] == tables)
    rng.shuffle(checks)
    for check in checks:
        assert check()
    # single reads after the whole ones
    for index, want, table in levels:
        for e in rng.sample(sorted(table), min(5, len(table))):
            assert index.edges[e] == table[e]
            assert index.ranked[table[e][1]][table[e][2] - 1] == e
            assert index.ranked[table[e][1]] == want.ranked[table[e][1]]


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", COVERING_FIXTURES)
def test_walk_index_matches_the_eager_tables_on_the_fixtures(name, seed, lazy):
    p = cli.read_document(DATA / name)
    assert_walk_index_matches_the_eager_tables(p, random.Random(seed), lazy)


@settings(max_examples=60, deadline=None)
@given(loop_presentations(), st.randoms(use_true_random=False), st.booleans())
def test_walk_index_matches_the_eager_tables_on_loop_presentations(p, rng, lazy):
    assert_walk_index_matches_the_eager_tables(p, rng, lazy)


@pytest.mark.parametrize("seed", range(3))
def test_finite_prefix_tables_match_the_eager_builder(seed):
    p = coverings.telescope(example2_unit(), [1, 3])
    q = coverings.finite_prefix_presentation(p.graphs, p.covers)
    assert_walk_index_matches_the_eager_tables(q, random.Random(seed), False)


def test_only_a_large_level_is_read_vertex_by_vertex():
    small = graphs._SMALL_LEVEL
    for edges, lazy in ((small, False), (small + 1, True)):
        d = bratteli.weighted_to_bv(loop_covering(edges))
        assert all((filled(index.ranked) == 0) == lazy for index in d._index)


def test_converting_a_stationary_presentation_reads_no_level():
    p = loop_covering(512)
    d = bratteli.weighted_to_bv(p)
    # the vertex sets are the covering's own, unsorted, and no table is filled
    assert d.levels[1] is p.graphs[0].edges and d.repeat is d._index[1].edges
    assert "mono" not in vars(d)
    for index in d._index:
        assert filled(index.edges) == filled(index.ranked) == 0


def test_a_walk_fills_only_the_vertices_it_reads():
    n = 9
    d = bratteli.weighted_to_bv(loop_covering(512))
    q = bratteli.minimal_path(d, "e05", n)
    for _ in range(12):
        q = bratteli.vershik_successor(d, q)
    assert bratteli.path_index(d, q) == 12
    for _ in range(12):
        q = bratteli.vershik_predecessor(d, q)
    assert bratteli.path_index(d, q) == 0
    assert q == bratteli.minimal_path(d, "e05", n)
    assert "mono" not in vars(d)
    for index in d._index:
        assert 1 <= filled(index.ranked) <= 2 * n + 2
        assert filled(index.edges) <= 3 * (2 * n + 2)


def test_names_with_a_separator_are_all_formatted_at_once():
    g = graphs.flexible({"v"}, {e: ("v", "v") for e in ("a", "a>b", "c")})
    emap = {"a": ("a", "c"), "a>b": ("a", "a>b"), "c": ("a", "c", "a>b")}
    cover = graphs.Cover(domain=g, codomain=g, vmap={"v": "v"}, emap=emap)
    p = coverings.stationary_presentation(cover, {"a": 1, "a>b": 2, "c": 1})
    with read_lazily():
        d = bratteli.weighted_to_bv(p)
    assert filled(d._index[1].edges) == 7 and filled(d._index[0].edges) == 0
    assert d.level_edges(2)["a>b>a>b:2"] == ("a>b", "a>b", 2)
    assert_walk_index_matches_the_eager_tables(p, random.Random(0), True)


def colliding_cover():
    """Walks whose ids ``a>b>c:2`` name both (a, b>c, 2) and (a>b, c, 2)."""
    g = graphs.flexible({"v"}, {e: ("v", "v") for e in ("a", "a>b", "b>c", "c")})
    emap = {"a": ("a", "b>c"), "a>b": ("a", "c"), "b>c": ("a", "a"), "c": ("a", "a>b")}
    return graphs.Cover(domain=g, codomain=g, vmap={"v": "v"}, emap=emap)


def test_colliding_ids_raise_instead_of_dropping_an_edge():
    mults = {e: 1 for e in ("a", "a>b", "b>c", "c")}
    p = coverings.stationary_presentation(colliding_cover(), mults)
    assert not coverings.validate_presentation(p)
    q = coverings.finite_prefix_presentation(
        [coverings.level_graph(p, 1), coverings.level_graph(p, 2)],
        [coverings.cover_at(p, 2)],
    )
    assert not coverings.validate_presentation(q)
    for x in (p, q):
        with pytest.raises(NameCollision) as err:
            bratteli.weighted_to_bv(x)
        message = str(err.value)
        assert "'a>b>c:2'" in message
        assert "('a', 'b>c', 2)" in message and "('a>b', 'c', 2)" in message
    assert issubclass(NameCollision, ZdynError)


def test_convert_rejects_colliding_ids(tmp_path, capsys):
    mults = {e: 1 for e in ("a", "a>b", "b>c", "c")}
    p = coverings.stationary_presentation(colliding_cover(), mults)
    doc = tmp_path / "colliding.json"
    doc.write_text(cli.dump_document(p))
    assert cli.main(["convert", "to-bv", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "'a>b>c:2'" in err


# ---------------------------------------------------------------------------
# Vershik steps on tuples that are not paths


def test_a_step_rejects_a_tuple_that_is_not_a_path():
    d = bratteli.weighted_to_bv(cli.read_document(DATA / "example2_covering.json"))
    broken = ("e_a<1", "e_e>e_d:2")
    assert d.level_edges(2)["e_e>e_d:2"][0] != d.level_edges(1)["e_a<1"][1]
    for step in (bratteli.vershik_successor, bratteli.vershik_predecessor):
        with pytest.raises(UnknownName, match="do not form a path"):
            step(d, broken)
    with pytest.raises(UnknownName, match="do not form a path"):
        bratteli.path_index(d, broken)


def test_a_step_checks_the_junction_above_the_bumped_edge():
    d = bratteli.weighted_to_bv(example2_unit())
    q = bratteli.minimal_path(d, "e_c", 3)
    # the level-2 edge has a sibling, so it bumps; the edge above starts elsewhere
    here = d.level_edges(2)[q[1]][1]
    assert len(d.in_edges(1, d.level_edges(1)[q[0]][1])) == 1
    assert len(d.in_edges(2, here)) > 1
    stranger = min(e for e, (s, _, _) in d.level_edges(3).items() if s != here)
    broken = q[:2] + (stranger,)
    with pytest.raises(UnknownName, match="do not form a path"):
        bratteli.vershik_successor(d, broken)
    assert bratteli.vershik_successor(d, q) != MAXIMAL


def test_an_orbit_checks_its_start_once():
    d = bratteli.weighted_to_bv(example2_unit())
    q = bratteli.minimal_path(d, "e_b", 3)
    top = maximal_path(d, "e_f", 3)
    broken = q[:2] + top[2:]
    for steps in (0, 1, 5):
        with pytest.raises(UnknownName, match="do not form a path"):
            bratteli.vershik_orbit(d, broken, steps)
    with pytest.raises(UnknownName, match="'nope'"):
        bratteli.vershik_orbit(d, q[:2] + ("nope",), 3)
    assert bratteli.vershik_orbit(d, q, 2)[0] == q


# ---------------------------------------------------------------------------
# a rank is the edge's place among the in-edges of its range


def gapped(table, rng):
    """``table`` with its entries shuffled and each rank r moved into [10r, 10r + 9]."""
    items = list(table.items())
    rng.shuffle(items)
    return {e: (s, r, 10 * rank + rng.randrange(10)) for e, (s, r, rank) in items}


def test_index_edges_ranks_each_edge_by_its_place():
    table = {
        "a": ("u", "w", 7),
        "b": ("w", "w", -2),
        "c": ("u", "w", 30),
        "d": ("w", "u", 5),
    }
    index = graphs.index_edges(table)
    assert index.ranked == {"w": ("b", "a", "c"), "u": ("d",)}
    assert index.edges == {
        "a": ("u", "w", 2),
        "b": ("w", "w", 1),
        "c": ("u", "w", 3),
        "d": ("w", "u", 1),
    }
    assert list(index.edges) == list(table)


@settings(max_examples=60, deadline=None)
@given(mono_graphs(), st.randoms(use_true_random=False))
def test_gapped_ranks_index_as_their_places(m, rng):
    table = {e: (m.src[e], m.rng[e], m.rank[e]) for e in m.edges}
    index = graphs.index_edges(gapped(table, rng))
    assert dict(index.edges) == table
    assert dict(index.ranked) == dict(graphs.index_edges(table).ranked)
    assert all(index.ranked[r][rank - 1] == e for e, (_, r, rank) in index.edges.items())


def assert_gapped_twin_agrees(m, rng):
    """A mono-graph and a diagram with gapped ranks act as their renumbered twins."""
    table = {e: (m.src[e], m.rng[e], m.rank[e]) for e in m.edges}
    g = stationary.mono_graph(m.vertices, gapped(table, rng))
    assert all(g.serial(e) == m.serial(e) for e in m.edges)
    for last in (True, False):
        assert g.extreme_sources(last) == m.extreme_sources(last)
    assert outcome(stationary.check_continuity, g) == outcome(stationary.check_continuity, m)
    (K, power), (L, twin_power) = map(stationary.straighten_mono, (g, m))
    assert K == L and power.src == twin_power.src
    assert all(power.in_edges(v) == twin_power.in_edges(v) for v in m.vertices)
    counts = {v: 1 + i % 2 for i, v in enumerate(sorted(m.vertices))}
    twin = bratteli.stationary_diagram(m, counts)
    d = bratteli.BratteliDiagram(
        levels=twin.levels,
        edge_levels=(gapped(twin.edge_levels[0], rng),),
        repeat=gapped(table, rng),
    )
    for n in (1, 2, 3):
        for v in d.level_vertices(n):
            paths = bratteli.enumerate_paths(twin, v, n)
            assert bratteli.enumerate_paths(d, v, n) == paths
            for p in paths:
                assert bratteli.path_index(d, p) == bratteli.path_index(twin, p)
                for step in (bratteli.vershik_successor, bratteli.vershik_predecessor):
                    assert step(d, p) == step(twin, p)
    for v in sorted(m.vertices):
        for delta in (1, -1):
            assert outcome(bratteli.boundary_targets, d, v, delta) == outcome(
                bratteli.boundary_targets, twin, v, delta
            )


@settings(max_examples=60, deadline=None)
@given(mono_graphs(), st.randoms(use_true_random=False))
def test_gapped_mono_graphs_act_as_their_twins(m, rng):
    assert_gapped_twin_agrees(m, rng)


def test_gapped_fixture_and_catalogue_mono_graphs_act_as_their_twins():
    monos = [
        cli.read_document(DATA / "fib_bratteli.json").mono,
        *(bratteli.weighted_to_bv(cli.read_document(DATA / name)).mono for name in COVERING_FIXTURES),
        *(bratteli.weighted_to_bv(p).mono for p in catalogue.presentations()),
    ]
    rng = random.Random(0)
    for m in monos:
        assert_gapped_twin_agrees(m, rng)
