"""Clopen sets as sets of depth-D path prefixes, the oracle of the tests.

The library keeps a clopen set in tower coordinates and reads a path
tuple by descent only for what it reports.  Here a floor of a level-n
tower is the frozenset of depth-D paths through it, built by
enumeration, and a shift steps every path of a set through
:func:`successor_values`.  The tests state the paper's
properties on these sets (the floors of a level partition the space,
the tower bases and the junction sets are nested) and compare the
library's tower-coordinate answers with them.

The basic cover of a weighted cover, with its directionality flags,
states one more: a weighted cover expands to a +directional cover of
the basic graphs.  The basic graph of a weighted graph also gives the
oracle of the periodic orbits: the library finds them as circuits of
the level graph, and here they are the cycles of its basic relation.
"""

from dataclasses import dataclass, field

from zdyn import bratteli, coverings, graphs
from zdyn.bratteli import MAXIMAL, MINIMAL
from zdyn.errors import CoverViolation

from helpers import path_rng


@coverings._kept_on_presentation
def floor_paths(p, n, e, floor, depth):
    """Depth-``depth`` paths on the given floor of a level-n tower.

    At level 0 the one tower is the singleton graph's loop, whose floor
    is the root.
    """
    prefix = bratteli.enumerate_paths(coverings._diagram(p), e, n)[floor] if n else ()
    return frozenset(q for q in coverings.all_paths(p, depth) if q[:n] == prefix)


def evaluate_set(p, desc, depth):
    """Evaluate a clopen descriptor as a set of depth-``depth`` paths.

    Descriptor forms: ("all",), ("floor", n, e, i), ("fiber", n, e),
    ("junction", n, v), ("vbar", n), ("union", (desc, ...)), and
    ("image", k, desc) for the k-th shift image (k may be negative).
    """
    kind = desc[0]
    if kind == "all":
        return frozenset(coverings.all_paths(p, depth))
    if kind == "floor":
        _, n, e, i = desc
        return floor_paths(p, n, e, i, depth)
    if kind == "union":
        return frozenset().union(*(evaluate_set(p, inner, depth) for inner in desc[1]))
    if kind == "image":
        _, k, inner = desc
        paths = evaluate_set(p, inner, depth)
        for _ in range(abs(k)):
            paths, _ = step_set(p, paths, forward=k > 0)
        return paths
    n = desc[1]
    g = coverings.level_graph(p, n)
    if kind == "fiber":
        cells = [(desc[2], i) for i in range(g.length[desc[2]])]
    elif kind == "junction":
        cells = [(e, 0) for e in g.edges if g.src[e] == desc[2]]
    elif kind == "vbar":
        cells = [(e, 0) for e in g.edges]
    else:
        raise ValueError(f"unknown descriptor {desc!r}")
    return frozenset().union(*(floor_paths(p, n, e, i, depth) for e, i in cells))


def successor_values(d, p):
    """Depth-D truncations of successors of all points extending ``p``.

    Returns ``(values, exceptional)``.  For a non-maximal prefix the
    successor is determined by the prefix itself and the set is a
    singleton.  An all-maximal prefix is resolved exactly on straight
    stationary diagrams with the continuity condition: bumping each
    one-level-deeper extension, with the constant max column closed
    through psi.
    """
    return step_values(d, p, 1)


def predecessor_values(d, p):
    """The dual of :func:`successor_values` for the inverse map."""
    return step_values(d, p, -1)


def step_values(d, p, delta):
    """:func:`successor_values` for ``delta = 1``, its dual for ``delta = -1``.

    Past the boundary, the values are the extreme paths into the vertices
    :func:`bratteli.boundary_targets` names.
    """
    nxt = bratteli._step(d, p, delta)
    if nxt not in (MAXIMAL, MINIMAL):
        return frozenset({nxt}), False
    targets = bratteli.boundary_targets(d, path_rng(d, p), delta)
    last = delta < 0
    return frozenset(bratteli._extreme_path(d, u, len(p), last=last) for u in targets), True


def step_set(p, paths, forward):
    """One shift of every path of ``paths``, and whether one crossed a tower end."""
    d = coverings._diagram(p)
    step = successor_values if forward else predecessor_values
    out = set()
    exceptional = False
    for q in paths:
        values, exc = step(d, q)
        out |= values
        exceptional = exceptional or exc
    return frozenset(out), exceptional


def tower_floor_sets(p, n, depth):
    """All (edge, floor) cells at level n as depth-``depth`` path sets."""
    g = coverings.level_graph(p, n)
    return {
        (e, i): floor_paths(p, n, e, i, depth)
        for e in g.sorted_edges()
        for i in range(g.length[e])
    }


# ---------------------------------------------------------------------------
# basic graphs and covers


@dataclass(frozen=True)
class BasicExpansion:
    """A weighted graph rewritten as a basic graph.

    Each weighted edge ``e`` of length ``k`` becomes a chain of ``k``
    relation edges through ``k - 1`` interior vertices.  ``chains[e]``
    lists the ``k + 1`` chain vertices in order, starting at the source of
    ``e``.  Parallel length-1 edges between the same vertex pair collapse
    onto a single relation edge.
    """

    graph: graphs.BasicGraph
    chains: dict = field(hash=False)


def expand_to_basic(g):
    """Expand a weighted graph into its basic graph."""
    vertices = set(g.vertices)
    edges = set()
    chains = {}
    for e in g.sorted_edges():
        k = g.length[e]
        chain = [g.src[e], *(f"{e}#{i}" for i in range(1, k)), g.rng[e]]
        chains[e] = tuple(chain)
        vertices.update(chain)
        for a, b in zip(chain, chain[1:]):
            edges.add((a, b))
    basic = graphs.BasicGraph(vertices=frozenset(vertices), edges=frozenset(edges))
    return BasicExpansion(graph=basic, chains=chains)


def basic_periodic_orbits(p, n, max_period):
    """``coverings.periodic_orbits`` as cycles of the depth-n basic relation.

    Each relation step ``(a, b)`` is a flexible edge named ``a>b``; every
    circuit of at most ``max_period`` steps is an orbit, starting at its
    least step id, and its support is every edge whose chain takes one of
    its steps.
    """
    p._check_depth(n)
    exp = expand_to_basic(coverings.level_graph(p, n))
    step_support = {}
    for e, chain in exp.chains.items():
        for a, b in zip(chain, chain[1:]):
            step_support.setdefault((a, b), set()).add(e)
    # an edge is certified at a level n >= 1 that only the repeated cover covers
    repeated = p.self_cover is not None and n >= max(1, len(p.graphs) - 1)
    good = coverings._circuit_chain_edges(p.self_cover) if repeated else set()
    basic = exp.graph
    flex = graphs.flexible(basic.vertices, {f"{u}>{w}": (u, w) for u, w in basic.edges})
    orbits = []
    for circuit in graphs.enumerate_circuits(flex, max_period).circuits:
        steps = [(flex.src[eid], flex.rng[eid]) for eid in circuit]
        support = sorted(set().union(*(step_support[s] for s in steps)))
        certified = len(support) == 1 and support[0] in good
        orbits.append(
            coverings.PeriodicOrbit(
                period=len(circuit),
                vertices=tuple(u for (u, _) in steps),
                certainty="CERTIFIED" if certified else "POSSIBLE",
                support=tuple(support),
            )
        )
    return orbits


@dataclass(frozen=True)
class BasicCover:
    """A vertex map that is a homomorphism of basic-graph relations."""

    domain: graphs.BasicGraph
    codomain: graphs.BasicGraph
    vmap: dict = field(hash=False)


@dataclass(frozen=True)
class BasicCoverFlags:
    homomorphism: bool
    edge_surjective: bool
    plus_directional: bool
    minus_directional: bool
    bidirectional: bool


def check_basic_cover(c):
    hom = all((c.vmap[u], c.vmap[w]) in c.codomain.edges for (u, w) in c.domain.edges)
    covered = {(c.vmap[u], c.vmap[w]) for (u, w) in c.domain.edges}
    plus = minus = True
    for u, w in c.domain.edges:
        for u2, w2 in c.domain.edges:
            if u == u2 and c.vmap[w] != c.vmap[w2]:
                plus = False
            if w == w2 and c.vmap[u] != c.vmap[u2]:
                minus = False
    return BasicCoverFlags(
        homomorphism=hom,
        edge_surjective=covered == set(c.codomain.edges),
        plus_directional=plus,
        minus_directional=minus,
        bidirectional=plus and minus,
    )


def expand_basic_cover(c):
    """Turn a weighted cover into a basic cover of the expanded graphs.

    The interior vertex at offset ``i`` along an edge ``e`` is sent to the
    chain vertex at the same length offset along the image walk of ``e``.
    Raises :class:`CoverViolation` unless the input is a weighted cover
    (+directional and edge-surjective), which makes the map well defined.
    """
    if not graphs.check_cover(c).weighted:
        raise CoverViolation("input is not a weighted cover")
    dome, code = expand_to_basic(c.domain), expand_to_basic(c.codomain)
    vmap = {v: c.vmap[v] for v in c.domain.vertices}
    for e in c.domain.sorted_edges():
        # the chain vertices of the image walk, one per length offset
        along = [code.chains[c.emap[e][0]][0]]
        for q in c.emap[e]:
            along.extend(code.chains[q][1:])
        for i in range(1, c.domain.length[e]):
            vmap[dome.chains[e][i]] = along[i]
    return BasicCover(domain=dome.graph, codomain=code.graph, vmap=vmap)
