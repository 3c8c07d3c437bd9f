"""Straightness by walks and by trying powers, the oracle of the tests.

The library reads straightness off the extreme-source maps of a
mono-graph, each vertex to the source of its maximal or minimal in-edge:
the graph is straight when both are idempotent, and its straightening
exponent is the least power at which both are.  Here the vertices that
start a forever walk inside a set of edges come from a removal fixpoint,
straightness is checked in its two parts on the extreme edges, and the
exponent is found by building each power in turn and testing it.
"""

from zdyn import stationary
from zdyn.errors import NotStraight


def infinite_walk_vertices(m, subgraph: frozenset) -> set:
    """Vertices from which some infinite walk inside ``subgraph`` starts."""
    alive = set(m.vertices)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not any(m.src[e] == v and m.rng[e] in alive for e in subgraph):
                alive.discard(v)
                changed = True
    return alive


def extreme_edges(m, last: bool) -> frozenset:
    """The maximal (``last``) or minimal in-edge of every vertex."""
    return frozenset(m.in_edges(v)[-1 if last else 0] for v in m.vertices)


def extreme_loop_vertices(m, last: bool) -> frozenset:
    """Sources of maximal (``last``) or minimal self-loops."""
    return frozenset(m.src[e] for e in extreme_edges(m, last) if m.src[e] == m.rng[e])


def unique_in_edges(m) -> frozenset:
    """The edges that are the only in-edge of their range."""
    return frozenset(e for e in m.edges if len(m.in_edges(m.rng[e])) == 1)


def straightness_violations(m) -> list[str]:
    """Empty iff the mono-graph is straight.

    Straightness has two parts: every infinite walk of extreme (max or
    min) edges must be constant, i.e. a repeated self-loop, and every
    extreme in-edge must have its source at a vertex that already carries
    an extreme self-loop.
    """
    problems = []
    for label, last in (("max", True), ("min", False)):
        extreme = extreme_edges(m, last)
        loops = extreme_loop_vertices(m, last)
        alive = infinite_walk_vertices(m, extreme)
        for e in sorted(extreme):
            if m.rng[e] in alive and m.src[e] != m.rng[e]:
                problems.append(f"non-constant infinite {label} walk via {e}")
        for v in sorted(m.vertices):
            if m.src[m.in_edges(v)[-1 if last else 0]] not in loops:
                problems.append(
                    f"{label} in-edge of {v} starts outside the {label}-loop vertices"
                )
    return problems


def straighten_mono(m, cap: int = 24):
    """Smallest power K <= ``cap`` with ``mono_power(m, K)`` straight, tried one by one."""
    for K in range(1, cap + 1):
        powered = stationary.mono_power(m, K)
        if not straightness_violations(powered):
            return K, powered
    raise NotStraight(f"no straight power found up to K={cap}")
