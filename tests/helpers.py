"""Shared fixture builders for the test suite."""

from zdyn import bratteli, coverings, graphs
from zdyn.graphs import Cover, flexible, weighted


def fib_graph():
    """One vertex, two self-loops."""
    return flexible({"v"}, {"e_a": ("v", "v"), "e_b": ("v", "v")})


def fib_base_cover():
    """The two-letter self-cover whose square is straight."""
    g = fib_graph()
    return Cover(
        domain=g,
        codomain=g,
        vmap={"v": "v"},
        emap={"e_a": ("e_a", "e_b"), "e_b": ("e_a",)},
    )


def fib_cover():
    """The straight self-cover: e_a -> e_a e_b e_a, e_b -> e_a e_b."""
    g = fib_graph()
    return Cover(
        domain=g,
        codomain=g,
        vmap={"v": "v"},
        emap={"e_a": ("e_a", "e_b", "e_a"), "e_b": ("e_a", "e_b")},
    )


def example2_graph():
    return flexible(
        {"v_l", "v_m", "v_r"},
        {
            "e_a": ("v_l", "v_l"),
            "e_b": ("v_l", "v_m"),
            "e_c": ("v_m", "v_l"),
            "e_d": ("v_m", "v_r"),
            "e_e": ("v_r", "v_m"),
            "e_f": ("v_r", "v_r"),
        },
    )


EXAMPLE2_EMAP = {
    "e_a": ("e_a",),
    "e_b": ("e_a", "e_b", "e_d", "e_e"),
    "e_c": ("e_d", "e_e", "e_c", "e_a"),
    "e_d": ("e_d", "e_e", "e_d", "e_f"),
    "e_e": ("e_f", "e_e"),
    "e_f": ("e_f",),
}


def example2_cover():
    g = example2_graph()
    return Cover(
        domain=g,
        codomain=g,
        vmap={"v_l": "v_l", "v_m": "v_m", "v_r": "v_r"},
        emap=dict(EXAMPLE2_EMAP),
    )


def skew_fixed_edge_cover():
    """A self-cover fixing an edge that is not a loop.

    The fixed edge heads an infinite constant chain whose edges are not
    circuits, so any covering built on this cover cannot be closing.
    """
    g = flexible({"u", "w"}, {"x": ("u", "w"), "y": ("w", "u")})
    return Cover(
        domain=g,
        codomain=g,
        vmap={"u": "u", "w": "w"},
        emap={"x": ("x",), "y": ("y", "x", "y")},
    )


def weighted_level(cover, n):
    """Weighted copy of a flexible self-cover's graph at level ``n``.

    Level-1 lengths are all 1; deeper levels sum lengths along the
    expansion walks.  This mirrors the length propagation used by
    stationary covering presentations with unit multiplicities.
    """
    g = cover.domain
    lengths = {e: 1 for e in g.edges}
    for _ in range(n - 1):
        lengths = {
            e: sum(lengths[f] for f in cover.emap[e]) for e in g.edges
        }
    return weighted(
        g.vertices, {e: (g.src[e], g.rng[e], lengths[e]) for e in g.edges}
    )


def weighted_cover(cover, n):
    """The level n+1 -> n cover of the induced weighted graphs."""
    return Cover(
        domain=weighted_level(cover, n + 1),
        codomain=weighted_level(cover, n),
        vmap=dict(cover.vmap),
        emap={e: tuple(w) for e, w in cover.emap.items()},
    )


def sink_graph():
    """Invalid: vertex t has no outgoing edge."""
    return flexible({"s", "t"}, {"x": ("s", "t"), "y": ("s", "s")})


def unit_presentation(cover):
    """Stationary presentation with unit level-1 multiplicities."""
    mults = {e: 1 for e in cover.domain.edges}
    return coverings.stationary_presentation(cover, mults)


def example2_unit():
    return unit_presentation(example2_cover())


def example2_weighted():
    """Example-2 self-cover with multiplicity 2 on the growing edges.

    With these level-1 lengths the short edges at every level are
    exactly the copies of e_a and e_f, which makes the presentation
    periodicity-regulated for l_n = n.
    """
    mults = {"e_a": 1, "e_b": 2, "e_c": 2, "e_d": 2, "e_e": 2, "e_f": 1}
    return coverings.stationary_presentation(example2_cover(), mults)


def fib_presentation():
    return unit_presentation(fib_cover())


def skew_presentation():
    return unit_presentation(skew_fixed_edge_cover())


def non_nesting_diagram():
    """Finite-prefix diagram whose level-2 cluster straddles two bases.

    The tower tops over p and q both send successors into the other
    base, so {p, q} clusters together, yet their minimal paths already
    differ at level 1.
    """
    return bratteli.BratteliDiagram(
        levels=(("v0",), ("x", "y"), ("p", "q"), ("z1", "z2", "z3")),
        edge_levels=(
            {"x<1": ("v0", "x", 1), "y<1": ("v0", "y", 1)},
            {
                "x>p:1": ("x", "p", 1),
                "y>p:2": ("y", "p", 2),
                "y>q:1": ("y", "q", 1),
                "x>q:2": ("x", "q", 2),
            },
            {
                "p>z1:1": ("p", "z1", 1),
                "q>z1:2": ("q", "z1", 2),
                "q>z2:1": ("q", "z2", 1),
                "p>z2:2": ("p", "z2", 2),
                "p>z3:1": ("p", "z3", 1),
                "p>z3:2": ("p", "z3", 2),
            },
        ),
    )


def maximal_path(d, v, n):
    """The greatest path from the root to ``v`` at level ``n``."""
    return bratteli._extreme_path(d, v, n, last=True)


def path_rng(d, p):
    """The vertex a path ends at: the range of its last edge, the root for ()."""
    return d.level_edges(len(p))[p[-1]][1] if p else bratteli.ROOT


def multiplicities(d):
    """The number of root edges into each level-1 vertex of a diagram."""
    return {v: len(d.in_edges(1, v)) for v in d.level_vertices(1)}
