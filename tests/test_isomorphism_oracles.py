"""Cover isomorphism by forced images against the permutation scan.

``scan_isomorphism`` is the search ``coverings.find_cover_isomorphism``
used to run: it tries every permutation of the edges in lexicographic
order and returns the first one that passes the structure check.  The
search, one colour refinement and then forced images, must return
exactly its answer, map for map, in the same insertion order.  The
refinement alone must settle the 512-loop successor pairs, and the
large one-vertex loop pairs, whose automorphism groups are large, and
the misfit pairs, whose loops pair in 12! ways, must each be settled in
well under a second.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zdyn
from zdyn import bratteli, cli, coverings
from zdyn.errors import UnsupportedKind
from zdyn.graphs import Cover, flexible

from helpers import example2_unit
from test_cli import DATA
from test_krieger_oracles import FIXTURES
from test_properties import loop_presentations


# ---------------------------------------------------------------------------
# oracles


def scan_isomorphism(p, q):
    """The first edge permutation, in lexicographic order, that is an isomorphism."""
    g1, g2 = p.self_cover.domain, q.self_cover.domain
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    edges1 = g1.sorted_edges()
    for perm in itertools.permutations(g2.sorted_edges()):
        emap = dict(zip(edges1, perm))
        if any(p.graphs[0].length[e] != q.graphs[0].length[emap[e]] for e in edges1):
            continue
        vmap = {}
        ok = True
        for e in edges1:
            for a, b in ((g1.src[e], g2.src[emap[e]]), (g1.rng[e], g2.rng[emap[e]])):
                if vmap.setdefault(a, b) != b:
                    ok = False
                    break
            if not ok:
                break
        if not ok or len(set(vmap.values())) != len(vmap):
            continue
        if all(
            tuple(emap[x] for x in p.self_cover.emap[e]) == q.self_cover.emap[emap[e]]
            for e in edges1
        ):
            return vmap, emap
    return None


def is_structure_bijection(p, q, vmap, emap):
    """Whether both maps are bijections carrying every part of ``p`` onto ``q``."""
    g1, g2 = p.self_cover.domain, q.self_cover.domain
    if sorted(vmap) != sorted(g1.vertices) or sorted(vmap.values()) != sorted(g2.vertices):
        return False
    if sorted(emap) != sorted(g1.edges) or sorted(emap.values()) != sorted(g2.edges):
        return False
    return all(
        vmap[g1.src[e]] == g2.src[f]
        and vmap[g1.rng[e]] == g2.rng[f]
        and p.graphs[0].length[e] == q.graphs[0].length[f]
        and tuple(emap[x] for x in p.self_cover.emap[e]) == tuple(q.self_cover.emap[f])
        for e, f in emap.items()
    )


def assert_matches_scan(p, q):
    found = coverings.find_cover_isomorphism(p, q)
    expected = scan_isomorphism(p, q)
    assert found == expected
    if found is not None:
        # the same maps, built in the same order
        assert list(found[0].items()) == list(expected[0].items())
        assert list(found[1].items()) == list(expected[1].items())
        assert is_structure_bijection(p, q, *found)
    return found


# ---------------------------------------------------------------------------
# presentations


def presentation(vertices, ends, walks, mults):
    g = flexible(vertices, ends)
    cover = Cover(domain=g, codomain=g, vmap={v: v for v in vertices}, emap=walks)
    return coverings.stationary_presentation(cover, mults)


def renamed(p, edge_name, vertex_name=lambda v: "w" + v):
    """``p`` with every edge and vertex renamed."""
    g = p.self_cover.domain
    return presentation(
        {vertex_name(v) for v in g.vertices},
        {edge_name(e): (vertex_name(g.src[e]), vertex_name(g.rng[e])) for e in g.edges},
        {
            edge_name(e): tuple(edge_name(x) for x in w)
            for e, w in p.self_cover.emap.items()
        },
        {edge_name(e): m for e, m in p.graphs[0].length.items()},
    )


def shuffled_names(p, order):
    """A renaming that sends the i-th edge of ``p`` to the ``order[i]``-th name."""
    edges = p.self_cover.domain.sorted_edges()
    names = {e: f"r{j}" for e, j in zip(edges, order)}
    return names.__getitem__


def eloop(edges, successor=None, prefix="e"):
    """One vertex, loops ``e_i -> e_0 e_i e_t(i)`` with t = ``successor``."""
    successor = successor or (lambda i: (i + 1) % edges)
    names = [f"{prefix}{i:03d}" for i in range(edges)]
    return presentation(
        {"v"},
        {e: ("v", "v") for e in names},
        {names[i]: (names[0], names[i], names[successor(i)]) for i in range(edges)},
        {e: 1 for e in names},
    )


def split_eloop(edges, prefix="f"):
    """Like :func:`eloop`, but the successor map has two cycles."""
    cut = edges // 2
    return eloop(
        edges,
        lambda i: 0 if i == cut - 1 else cut if i == edges - 1 else i + 1,
        prefix,
    )


def relabelled_eloop(edges, seed):
    p = eloop(edges)
    order = list(range(edges))
    random.Random(seed).shuffle(order)
    return p, renamed(p, shuffled_names(p, order))


@st.composite
def renamed_pairs(draw):
    p = draw(loop_presentations(max_edges=7))
    order = draw(st.permutations(range(len(p.self_cover.domain.edges))))
    return p, renamed(p, shuffled_names(p, order))


@st.composite
def perturbed_pairs(draw):
    """A renamed pair whose second side has one word or multiplicity changed."""
    p, q = draw(renamed_pairs())
    edges = q.self_cover.domain.sorted_edges()
    e = draw(st.sampled_from(edges))
    walks, mults = dict(q.self_cover.emap), dict(q.graphs[0].length)
    if draw(st.booleans()):
        mults[e] = 3 - mults[e]
    else:
        word = list(walks[e])
        i = draw(st.integers(0, len(word)))
        if i < len(word) and draw(st.booleans()):
            word[i] = draw(st.sampled_from(edges))
        else:
            word.insert(i, draw(st.sampled_from(edges)))
        walks[e] = tuple(word)
    g = q.self_cover.domain
    return p, presentation(g.vertices, {x: (g.src[x], g.rng[x]) for x in g.edges}, walks, mults)


@st.composite
def symmetric_pairs(draw):
    """A loop presentation with an edge swap as automorphism, and a renaming.

    Edges ``a_i`` and ``b_i`` are two copies; the word of ``b_i`` is the
    word of ``a_i`` with the copies swapped, and so are the
    multiplicities.  An optional fixed edge ``c`` has a swap-invariant word.
    """
    k = draw(st.integers(1, 3))
    a, b = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
    swap = dict(zip(a + b, b + a))
    fixed = draw(st.booleans())
    walks, mults = {}, {}
    for x, y in zip(a, b):
        word = draw(st.lists(st.sampled_from(a + b), min_size=1, max_size=3))
        walks[x], walks[y] = tuple(word), tuple(swap[z] for z in word)
        mults[x] = mults[y] = draw(st.integers(1, 2))
    if fixed:
        swap["c"] = "c"
        half = draw(st.lists(st.sampled_from(a + b + ["c"]), min_size=0, max_size=2))
        walks["c"] = ("c", *half, *(swap[z] for z in half))
        mults["c"] = draw(st.integers(1, 2))
    p = presentation({"v"}, {e: ("v", "v") for e in walks}, walks, mults)
    order = draw(st.permutations(range(len(walks))))
    return p, draw(st.sampled_from([p, renamed(p, shuffled_names(p, order))]))


# ---------------------------------------------------------------------------
# the search returns the scan's answer


@settings(max_examples=120, deadline=None)
@given(renamed_pairs())
def test_renamed_pairs_match_the_scan(pair):
    assert assert_matches_scan(*pair) is not None


@settings(max_examples=120, deadline=None)
@given(perturbed_pairs())
def test_perturbed_pairs_match_the_scan(pair):
    assert_matches_scan(*pair)


@settings(max_examples=120, deadline=None)
@given(symmetric_pairs())
def test_pairs_with_automorphisms_match_the_scan(pair):
    p, q = pair
    assert assert_matches_scan(p, q) is not None
    assert assert_matches_scan(q, p) is not None


def fixture_family():
    """The stationary fixtures, their BV round trips and renamed copies."""
    family = {}
    for name in FIXTURES:
        p = cli.read_document(DATA / name)
        family[name] = p
        family[f"{name} round trip"] = bratteli.bv_to_weighted(bratteli.weighted_to_bv(p))
        order = list(range(len(p.self_cover.domain.edges)))
        random.Random(name).shuffle(order)
        family[f"{name} renamed"] = renamed(p, shuffled_names(p, order))
    return family


def test_fixtures_and_round_trips_match_the_scan():
    family = fixture_family()
    found = {}
    for (a, p), (b, q) in itertools.product(family.items(), repeat=2):
        found[a, b] = assert_matches_scan(p, q)
    # every fixture is isomorphic to its round trip and its renaming only
    for (a, b), iso in found.items():
        assert (iso is not None) == (a.split()[0] == b.split()[0]), (a, b)
    fib, ex2 = "fib_covering.json", "example2_covering.json"
    assert found[ex2, fib] is None and found[f"{ex2} round trip", fib] is None


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_shaped_pairs_match_the_scan(seed):
    p, q = relabelled_eloop(7, seed)
    assert assert_matches_scan(p, q) is not None
    assert assert_matches_scan(eloop(7), split_eloop(7)) is None


# ---------------------------------------------------------------------------
# large loop pairs


def test_512_loop_pairs_answer_in_under_a_second():
    p, q = relabelled_eloop(512, 1)
    started = time.perf_counter()
    iso = coverings.find_cover_isomorphism(p, q)
    assert time.perf_counter() - started < 1.0
    assert iso is not None and is_structure_bijection(p, q, *iso)

    started = time.perf_counter()
    assert coverings.find_cover_isomorphism(eloop(512), split_eloop(512)) is None
    assert time.perf_counter() - started < 1.0


def test_refinement_alone_settles_the_512_loop_pairs():
    # the successor cycle is read off where each edge occurs in the words
    colours1, colours2 = coverings._edge_colours(*relabelled_eloop(512, 2))
    assert len(set(colours1.values())) == 512
    assert sorted(colours1.values()) == sorted(colours2.values())
    assert coverings._edge_colours(eloop(512), split_eloop(512)) is None


def prefix_loops(names, extra=None):
    """One vertex, loops ``e_i -> e_0 e_i``, and the ``extra`` edges.

    Without extra edges, every permutation fixing ``e_0`` is an automorphism.
    """
    walks = {**{e: (names[0], e) for e in names}, **(extra or {})}
    return presentation(
        {"v"}, {e: ("v", "v") for e in walks}, walks, {e: 1 for e in walks}
    )


def test_512_prefix_loops_answer_in_under_a_second():
    p = prefix_loops([f"e{i:03d}" for i in range(512)])
    order = list(range(512))
    random.Random(3).shuffle(order)
    q = prefix_loops([f"r{j}" for j in order])
    for a, b in ((p, p), (p, q), (q, p)):
        started = time.perf_counter()
        iso = coverings.find_cover_isomorphism(a, b)
        assert time.perf_counter() - started < 1.0
        assert iso is not None and is_structure_bijection(a, b, *iso)
    vmap, emap = coverings.find_cover_isomorphism(p, p)
    assert vmap == {"v": "v"} and all(e == f for e, f in emap.items())


@pytest.mark.parametrize(
    "extra1, extra2",
    [
        ({"z": ("e00", "z", "z")}, {"z": ("e00", "z")}),  # walk lengths differ
        ({"z": ("e00", "z", "e01")}, {"z": ("e00", "e01", "z")}),  # places differ
        # equal multiplicities, walk lengths and places, told apart a step further
        (
            {"x": ("e00",), "y": ("x", "z"), "z": ("e00", "y")},
            {"x": ("e00", "x"), "y": ("e00", "y"), "z": ("z",)},
        ),
    ],
)
def test_misfit_edges_after_many_loops_answer_none_in_under_a_second(extra1, extra2):
    # the loops pair in 12! ways, and each way fails only at the misfits
    names = [f"e{i:02d}" for i in range(13)]
    p, q = prefix_loops(names, extra1), prefix_loops(names, extra2)
    for a, b in ((p, q), (q, p)):
        started = time.perf_counter()
        assert coverings.find_cover_isomorphism(a, b) is None
        assert time.perf_counter() - started < 1.0


def test_vertex_ids_that_are_edge_ids_match_the_scan():
    # on both sides the vertex ids are edge ids too, and the map pairs
    # vertex "a" and edge "a" with different images
    p = presentation(
        {"a", "b"},
        {"a": ("a", "b"), "b": ("b", "a"), "c": ("a", "a"), "d": ("b", "b")},
        {"a": ("c", "a"), "b": ("d", "b"), "c": ("c",), "d": ("b", "c", "a")},
        {"a": 1, "b": 1, "c": 1, "d": 2},
    )
    q = presentation(
        {"b", "d"},
        {"a": ("b", "b"), "b": ("d", "b"), "c": ("b", "d"), "d": ("d", "d")},
        {"a": ("a",), "b": ("d", "b"), "c": ("a", "c"), "d": ("b", "a", "c")},
        {"a": 1, "b": 1, "c": 1, "d": 2},
    )
    vmap, emap = assert_matches_scan(p, q)
    assert list(vmap.items()) == [("a", "b"), ("b", "d")]
    assert list(emap.items()) == [("a", "c"), ("b", "b"), ("c", "a"), ("d", "d")]
    assert_matches_scan(q, p)
    assert assert_matches_scan(p, p) is not None


# ---------------------------------------------------------------------------
# kinds and determinism


def test_finite_prefixes_are_not_guessed():
    t = coverings.telescope(example2_unit(), [1, 3])
    assert not t.stationary
    with pytest.raises(UnsupportedKind):
        coverings.find_cover_isomorphism(t, t)
    with pytest.raises(UnsupportedKind):
        coverings.find_cover_isomorphism(example2_unit(), t)


HASHED_MAPS = """
import json
from zdyn import bratteli, cli, coverings
from zdyn.graphs import Cover, flexible
p = cli.read_document({path!r})
q = bratteli.bv_to_weighted(bratteli.weighted_to_bv(p))
g = flexible({{"u", "w"}}, {{"x": ("u", "u"), "y": ("w", "w"), "s": ("u", "w"), "t": ("w", "u")}})
walks = {{"x": ("x", "s", "t"), "y": ("y", "t", "s"), "s": ("s",), "t": ("t",)}}
mirror = coverings.stationary_presentation(
    Cover(domain=g, codomain=g, vmap={{"u": "u", "w": "w"}}, emap=walks),
    {{"x": 1, "y": 1, "s": 2, "t": 2}},
)
maps = []
for a, b in ((p, q), (q, p), (mirror, mirror)):
    vmap, emap = coverings.find_cover_isomorphism(a, b)
    maps.append([list(vmap.items()), list(emap.items())])
print(json.dumps(maps))
"""


def test_maps_do_not_depend_on_the_hash_seed():
    # the two-vertex mirror has the swap of u and w as an automorphism;
    # the least map is still the identity
    script = HASHED_MAPS.format(path=str(DATA / "example2_covering.json"))
    src = str(Path(zdyn.__file__).parent.parent)
    outputs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    maps = json.loads(outputs.pop())
    for vmap, emap in maps:
        assert [a for a, _ in emap] == sorted(a for a, _ in emap)
        assert all(a == b for a, b in emap)
    assert maps[2][0] == [["u", "u"], ["w", "w"]]
