"""Constant chains and regulation on cycles of the repeated cover, against the closure search.

The library reads an infinitely constantly covered edge as one on a
cycle of the single-image relation and runs a stationary presentation
as a self-cover repeated from level 1.  The oracle, ``chain_oracle``,
closes the covered set upward from the cycles and gives a stationary
presentation its own branch.  Both must give the same chains,
regulation reports and covers, on stationary presentations and on their
repeating and truncated telescopes, and the same closing reports but on
a truncated prefix, where the oracle's within-prefix FAILS is the
library's UNKNOWN with the same witnesses.

The pinned cases at the top reach the paths no fixture reaches: a cycle
of two edges, a repeating tail whose top edge lies on no cycle, a
one-level prefix, a within-prefix chain that one more level ends, a
vertex that no edge touches and regulation on truncated prefixes.  The
continuation tests at the end check that a verdict settled on a
truncated prefix holds for every continuation that the fixtures and the
catalogue of small self-covers offer, on the covering side and on the
diagram side.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings
from zdyn.coverings import ConstantChain
from zdyn.graphs import Cover, flexible
from zdyn.reports import FAILS, HOLDS, UNKNOWN, Report

from helpers import (
    example2_unit,
    example2_weighted,
    fib_base_cover,
    fib_presentation,
    skew_presentation,
    unit_presentation,
)
from test_cli import DATA
from test_cluster_oracles import outcome
from test_properties import loop_presentations
import catalogue
import chain_oracle

CUTS = ([1, 3], [2, 3], [1, 2, 4], [2, 5], [1, 4])

THRESHOLDS = ([1, 2, 3], [2, 4, 8, 16], [1, 2, 3, 4, 5, 6])


def swap_cover():
    """Loops x at u and y at w, swapped by the cover, each the other's single image."""
    g = flexible(
        {"u", "w"},
        {"x": ("u", "u"), "y": ("w", "w"), "s": ("u", "w"), "t": ("w", "u")},
    )
    return Cover(
        domain=g,
        codomain=g,
        vmap={"u": "w", "w": "u"},
        emap={"x": ("y",), "y": ("x",), "s": ("y", "t"), "t": ("x", "s")},
    )


def feeder_cover():
    """The loop a has the single image b, a fixed loop, but lies on no cycle."""
    g = flexible({"v"}, {"a": ("v", "v"), "b": ("v", "v"), "c": ("v", "v")})
    return Cover(
        domain=g,
        codomain=g,
        vmap={"v": "v"},
        emap={"a": ("b",), "b": ("b",), "c": ("b", "a", "c")},
    )


def dying_chain_cover():
    """Level 2 maps t onto x alone, but no edge maps onto t alone."""
    g = flexible(
        {"u", "w"},
        {"x": ("u", "w"), "t": ("u", "w"), "y": ("w", "u"), "l": ("u", "u")},
    )
    return Cover(
        domain=g,
        codomain=g,
        vmap={"u": "u", "w": "w"},
        emap={"x": ("x", "y", "t"), "t": ("x",), "y": ("y", "l"), "l": ("x", "y")},
    )


def isolated_cover():
    """The swap cover with a vertex z that no edge touches, fixed by the vertex map."""
    c = swap_cover()
    g = c.domain
    g = flexible(g.vertices | {"z"}, {e: (g.src[e], g.rng[e]) for e in g.edges})
    return Cover(domain=g, codomain=g, vmap={**c.vmap, "z": "z"}, emap=c.emap)


def truncated(p, cuts):
    q = coverings.telescope(p, cuts)
    return coverings.finite_prefix_presentation(q.graphs, q.covers)


def prefix(p, k):
    """The truncated prefix of the levels 1 to ``k`` of ``p``."""
    return coverings.finite_prefix_presentation(
        [coverings.level_graph(p, n) for n in range(1, k + 1)],
        [coverings.cover_at(p, n) for n in range(2, k + 1)],
    )


def levels(report):
    return [(x["level"], x["verdict"], x["witnesses"]) for x in report.details["levels"]]


# ---------------------------------------------------------------------------
# pinned cases


def test_the_pinned_covers_are_valid():
    for c in (swap_cover(), feeder_cover(), dying_chain_cover()):
        assert coverings.validate_presentation(unit_presentation(c)) == []


def test_a_cycle_of_two_loops_is_one_chain_per_edge():
    p = unit_presentation(swap_cover())
    assert coverings.find_constant_chains(p) == [
        ConstantChain("x", (), ("y", "x")),
        ConstantChain("y", (), ("x", "y")),
    ]
    assert coverings.check_closing(p).details == {"reason": "all chains are circuits"}
    q = coverings.telescope(p, [2, 3])
    assert coverings.find_constant_chains(q) == [
        ConstantChain("y", (), ("y", "x")),
        ConstantChain("x", (), ("x", "y")),
    ]
    q = coverings.telescope(p, [1, 2, 4])
    assert coverings.find_constant_chains(q) == [
        ConstantChain("y", ("x",), ("x",)),
        ConstantChain("x", ("y",), ("y",)),
    ]
    assert coverings.check_closing(q).verdict == HOLDS


def test_a_repeating_tail_skips_a_top_edge_off_every_cycle():
    p = unit_presentation(feeder_cover())
    assert coverings.find_constant_chains(p) == [ConstantChain("b", (), ("b",))]
    for cuts in ([1, 3], [2, 3]):
        q = coverings.telescope(p, cuts)
        # a descends to b under the repeated cover but lies on no cycle
        assert coverings.find_constant_chains(q) == [ConstantChain("b", (), ("b",))]
    report = coverings.check_regulated(coverings.telescope(p, [1, 3]), [1, 2, 3], 3)
    assert report.verdict == FAILS
    assert levels(report) == [(1, FAILS, ("a", "c")), (2, FAILS, ("a",)), (3, FAILS, ("a",))]


def test_a_one_level_prefix_leaves_closing_unknown():
    one = prefix(example2_weighted(), 1)
    # every level-1 edge reaches the top
    assert coverings.find_constant_chains(one) == [
        ConstantChain(e, (), (), exact=False)
        for e in ("e_a", "e_b", "e_c", "e_d", "e_e", "e_f")
    ]
    report = coverings.check_closing(one)
    assert report.verdict == UNKNOWN
    assert report.witnesses == tuple((e, (), ()) for e in ("e_b", "e_c", "e_d", "e_e"))
    assert report.details == {"reason": "truncated prefix: chains not extendable"}
    empty = coverings.finite_prefix_presentation([], [])
    assert coverings.check_closing(empty).verdict == UNKNOWN
    report = coverings.check_regulated(one, [1], 1)
    assert report.verdict == UNKNOWN
    assert levels(report) == [(1, UNKNOWN, ())]


def test_a_chain_that_one_more_level_ends_settles_nothing():
    p = unit_presentation(dying_chain_cover())
    assert coverings.check_closing(p).details == {"reason": "no constant chains"}
    reports = [coverings.check_closing(prefix(p, k)) for k in (1, 2, 3)]
    assert [r.verdict for r in reports] == [UNKNOWN, UNKNOWN, HOLDS]
    # the within-prefix chain t -> x dies at level 3
    assert reports[1].witnesses == (("x", ("t",), ()),)
    assert reports[2].details == {"reason": "no constant chains"}


def test_an_isolated_vertex_matches_the_oracle():
    # the generated self-covers touch every vertex, so this one is pinned
    p = unit_presentation(isolated_cover())
    assert "level 1: no outgoing edge at z" in coverings.validate_presentation(p)
    assert_telescopes_match_the_oracle(p)
    assert_telescopes_match_the_oracle(
        coverings.stationary_presentation(p.self_cover, {"x": 1, "y": 2, "s": 2, "t": 1})
    )


def test_regulation_on_truncated_prefixes():
    report = coverings.check_regulated(truncated(example2_weighted(), [1, 3]), [1, 2], 2)
    assert report.verdict == UNKNOWN
    assert levels(report) == [(1, UNKNOWN, ()), (2, UNKNOWN, ())]
    report = coverings.check_regulated(truncated(example2_unit(), [1, 3]), [1, 2], 2)
    assert report.verdict == FAILS
    assert levels(report) == [(1, FAILS, ("e_b", "e_c", "e_d", "e_e")), (2, UNKNOWN, ())]
    assert report.witnesses == ((1, "e_b"), (1, "e_c"), (1, "e_d"), (1, "e_e"))
    report = coverings.check_regulated(truncated(fib_presentation(), [1, 3]), [1, 2], 2)
    assert levels(report) == [(1, FAILS, ("e_a", "e_b")), (2, HOLDS, ())]
    assert report.details["asymptotic"] == {"verdict": UNKNOWN, "witnesses": ()}


# ---------------------------------------------------------------------------
# the oracle


def cover_maps(c):
    return c.domain, c.codomain, dict(c.vmap), dict(c.emap)


def within_prefix(report):
    """The oracle's closing report as the library gives it on a truncated prefix."""
    if report.verdict == HOLDS:
        return report
    reason = "truncated prefix: chains not extendable"
    return replace(report, verdict=UNKNOWN, details={"reason": reason})


def assert_matches_the_oracle(p):
    assert outcome(coverings.find_constant_chains, p) == chain_oracle.find_constant_chains(p)
    closing = chain_oracle.check_closing(p)
    if p.self_cover is None:
        closing = within_prefix(closing)
    assert outcome(coverings.check_closing, p) == closing
    depth = p.depth()
    for seq in THRESHOLDS:
        n_max = len(seq) if depth is None else min(len(seq), depth)
        got = outcome(coverings.check_regulated, p, seq, n_max)
        assert got == outcome(chain_oracle.check_regulated, p, seq, n_max)
    for n in range(1, 5 if depth is None else depth + 1):
        assert cover_maps(coverings.cover_at(p, n)) == cover_maps(chain_oracle.cover_at(p, n))


def assert_telescopes_match_the_oracle(p):
    assert_matches_the_oracle(p)
    assert coverings._circuit_chain_edges(p.self_cover) == chain_oracle.circuit_chain_edges(
        p.self_cover
    )
    for cuts in CUTS:
        assert_matches_the_oracle(coverings.telescope(p, cuts))
        assert_matches_the_oracle(truncated(p, cuts))


def fixture_presentations():
    docs = [cli.read_document(path) for path in sorted(DATA.glob("*_covering.json"))]
    fib_bv = cli.read_document(DATA / "fib_bratteli.json")
    return docs + [
        example2_unit(),
        example2_weighted(),
        fib_presentation(),
        skew_presentation(),
        unit_presentation(fib_base_cover()),
        unit_presentation(swap_cover()),
        unit_presentation(feeder_cover()),
        bratteli.bv_to_weighted(fib_bv),
    ]


def test_fixture_chains_match_the_oracle():
    for p in fixture_presentations():
        assert p.stationary
        assert_telescopes_match_the_oracle(p)


@settings(max_examples=60, deadline=None)
@given(loop_presentations())
def test_loop_chains_match_the_oracle(p):
    assert_telescopes_match_the_oracle(p)


def walks(g, a, b, length):
    """Every walk of ``length`` edges from ``a`` to ``b`` in ``g``, in id order."""
    found = [((), a)]
    for _ in range(length):
        found = [
            (w + (e,), g.rng[e])
            for w, here in found
            for e in g.sorted_edges()
            if g.src[e] == here
        ]
    return [w for w, here in found if here == b]


@st.composite
def self_covers(draw):
    """A self-cover on 1-3 vertices whose edge images are walks, often single edges.

    The edge set is closed under the vertex map, so every edge has a
    one-edge image to draw; some edges take a longer walk instead.  Every
    vertex is an end of an edge: the vertex that no edge touches is a
    pinned case.
    """
    k = draw(st.integers(1, 3))
    vertices = [f"u{i}" for i in range(k)]
    vmap = {v: draw(st.sampled_from(vertices)) for v in vertices}
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    pairs = set(draw(st.lists(ends, min_size=1, max_size=4)))
    while True:
        closed = pairs | {(vmap[a], vmap[b]) for a, b in pairs}
        if closed == pairs:
            break
        pairs = closed
    # the closed pairs' ends are closed under vmap; other vertices are dropped
    touched = {v for pair in pairs for v in pair}
    vmap = {v: vmap[v] for v in touched}
    table = {}
    for i, pair in enumerate(sorted(pairs)):
        for j in range(draw(st.integers(1, 2))):
            table[f"e{i}{'ab'[j]}"] = pair
    g = flexible(touched, table)
    emap = {}
    for e in g.sorted_edges():
        a, b = vmap[g.src[e]], vmap[g.rng[e]]
        options = walks(g, a, b, draw(st.sampled_from([1, 1, 1, 2, 3]))) or walks(g, a, b, 1)
        emap[e] = draw(st.sampled_from(options))
    return Cover(domain=g, codomain=g, vmap=vmap, emap=emap)


@settings(max_examples=100, deadline=None)
@given(self_covers(), st.data())
def test_generated_chains_match_the_oracle(cover, data):
    mults = {e: data.draw(st.integers(1, 2)) for e in cover.domain.sorted_edges()}
    assert_telescopes_match_the_oracle(coverings.stationary_presentation(cover, mults))



# ---------------------------------------------------------------------------
# continuation: a verdict settled on a truncated prefix holds for every
# continuation, here the source and the prefix one level deeper

TAIL_CUTS = ([1, 3], [2, 5], [1, 2, 4])


def source_level(cuts, i):
    """The level of the source under level ``i`` of its telescope along ``cuts``."""
    if i <= len(cuts):
        return cuts[i - 1]
    # the repeated cover spans the last gap
    return cuts[-1] + (i - len(cuts)) * (cuts[-1] - cuts[-2])


def verdicts(p, thresholds):
    """The closing verdict and the per-level regulation verdicts of ``p``."""
    report = coverings.check_regulated(p, thresholds, len(thresholds))
    levels = [x["verdict"] for x in report.details["levels"]]
    return coverings.check_closing(p).verdict, levels


def assert_settled_agree(got, want):
    """Every settled verdict in ``got`` equals the one in ``want`` at its place."""
    (closing, levels), (closing_w, levels_w) = got, want
    assert closing in (UNKNOWN, closing_w)
    for verdict, verdict_w in zip(levels, levels_w):
        assert verdict in (UNKNOWN, verdict_w)


def assert_prefixes_continue(p, thresholds):
    """The prefixes of levels 1 to 5 of ``p`` against ``p`` and each other."""
    source = verdicts(p, thresholds)
    deeper = verdicts(prefix(p, 6), thresholds[:6])
    for k in range(5, 0, -1):
        here = verdicts(prefix(p, k), thresholds[:k])
        assert_settled_agree(here, source)
        assert_settled_agree(here, deeper)
        deeper = here


def assert_continuations_agree(p):
    """Prefixes of ``p`` and of its repeating tails, and the tails themselves."""
    assert_prefixes_continue(p, list(range(1, 7)))
    regulated = coverings.check_regulated(p, range(1, 30), 29)
    for cuts in TAIL_CUTS:
        q = coverings.telescope(p, cuts)
        thresholds = [source_level(cuts, i) for i in range(1, 7)]
        want = [regulated.details["levels"][n - 1]["verdict"] for n in thresholds]
        # a repeating tail settles everything, each level as its source level
        assert verdicts(q, thresholds) == (coverings.check_closing(p).verdict, want)
        report = coverings.check_regulated(q, thresholds, 6)
        assert report.details["asymptotic"] == regulated.details["asymptotic"]
        assert_prefixes_continue(q, thresholds)
        # a telescope of the tail keeps its repeated cover and its verdicts
        r = coverings.telescope(q, [2, 4])
        deeper = [thresholds[source_level([2, 4], i) - 1] for i in range(1, 4)]
        want = [regulated.details["levels"][n - 1]["verdict"] for n in deeper]
        assert r.self_cover is r.covers[-1]
        assert verdicts(r, deeper) == (coverings.check_closing(p).verdict, want)
        report = coverings.check_regulated(r, deeper, 3)
        assert report.details["asymptotic"] == regulated.details["asymptotic"]
        assert_prefixes_continue(r, deeper)


def test_fixture_prefixes_settle_only_what_holds_on():
    for p in [*fixture_presentations(), unit_presentation(dying_chain_cover())]:
        assert_continuations_agree(p)


def test_catalogue_prefixes_settle_only_what_holds_on():
    presentations = catalogue.presentations()
    assert len(presentations) == 186
    for p in presentations:
        assert coverings.validate_presentation(p) == []
        assert_continuations_agree(p)


@settings(max_examples=60, deadline=None)
@given(loop_presentations())
def test_loop_prefixes_settle_only_what_holds_on(p):
    assert_continuations_agree(p)


# ---------------------------------------------------------------------------
# continuation on the diagram side: nesting, closing and regulation of the
# diagram of a truncated prefix


def diagram_verdicts(d):
    """Nesting at levels 0-4, then closing and regulation, of the diagram ``d``.

    A verdict is None where the check stops with an error: nesting past
    the top of a prefix, or on a stationary diagram without a continuous
    successor.
    """
    def verdict(fn, *args):
        report = outcome(fn, d, *args)
        return report.verdict if isinstance(report, Report) else None

    nesting = [verdict(bratteli.check_nesting, n) for n in range(5)]
    regulated = verdict(bratteli.check_regulated_bv, [1, 2, 3], 3)
    return [*nesting, verdict(bratteli.check_closing_bv), regulated]


def assert_diagram_prefixes_continue(p):
    """Every settled verdict on the diagram of P_k equals the source's and P_(k+1)'s.

    Returns the number of settled verdicts met.
    """
    source = diagram_verdicts(bratteli.weighted_to_bv(p))
    deeper = diagram_verdicts(bratteli.weighted_to_bv(prefix(p, 6)))
    settled = 0
    for k in range(5, 0, -1):
        here = diagram_verdicts(bratteli.weighted_to_bv(prefix(p, k)))
        for verdict, deep, want in zip(here, deeper, source):
            if verdict not in (UNKNOWN, None):
                settled += 1
                assert deep == verdict and want in (verdict, None)
        deeper = here
    return settled


def assert_diagram_continuations_agree(p):
    """The diagram prefixes of ``p`` and of its repeating tails."""
    settled = assert_diagram_prefixes_continue(p)
    for cuts in TAIL_CUTS:
        settled += assert_diagram_prefixes_continue(coverings.telescope(p, cuts))
    return settled


def test_fixture_diagram_prefixes_settle_only_what_holds_on():
    for p in [*fixture_presentations(), unit_presentation(dying_chain_cover())]:
        assert_diagram_continuations_agree(p)


def test_catalogue_diagram_prefixes_settle_only_what_holds_on():
    for p in catalogue.presentations():
        assert_diagram_continuations_agree(p)


def test_loop_diagram_prefixes_settle_only_what_holds_on():
    settled = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(loop_presentations())
    def continue_prefixes(p):
        settled.append(assert_diagram_continuations_agree(p))

    continue_prefixes()
    # the gate means something only if some prefix settles a verdict
    assert sum(settled) > 0
