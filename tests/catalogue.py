"""Every small valid self-cover, enumerated in a fixed order.

The catalogue holds each weighted self-cover (+directional and
edge-surjective) on one or two vertices, with one to three edges and
every edge image a walk of one or two edges, whose graph passes
``graphs.validate_graph``: 186 covers.  A graph takes its edges as a
multiset of vertex pairs, named ``e0``, ``e1``, ... in pair order, so
graphs that differ only in edge names are listed once; covers that
differ by a relabelling of the vertices are all listed.  With four edges
the catalogue would hold 1,420 covers and take seconds to build.
"""

import itertools

from zdyn import graphs
from zdyn.graphs import Cover, flexible

from helpers import unit_presentation


def _self_covers(max_edges):
    for k in (1, 2):
        vertices = [f"u{i}" for i in range(k)]
        pairs = list(itertools.product(vertices, vertices))
        for n in range(1, max_edges + 1):
            for shape in itertools.combinations_with_replacement(pairs, n):
                g = flexible(set(vertices), {f"e{i}": p for i, p in enumerate(shape)})
                if graphs.validate_graph(g):
                    continue
                edges = g.sorted_edges()
                walks = [(e,) for e in edges]
                walks += [(a, b) for a in edges for b in edges if g.rng[a] == g.src[b]]
                for images in itertools.product(vertices, repeat=k):
                    vmap = dict(zip(vertices, images))
                    options = [
                        [
                            w for w in walks
                            if g.src[w[0]] == vmap[g.src[e]]
                            and g.rng[w[-1]] == vmap[g.rng[e]]
                        ]
                        for e in edges
                    ]
                    for choice in itertools.product(*options):
                        c = Cover(domain=g, codomain=g, vmap=vmap, emap=dict(zip(edges, choice)))
                        if graphs.cover_flags(c).weighted:
                            yield c


COVERS = tuple(_self_covers(3))


def presentations():
    """The stationary presentation of each catalogued cover, multiplicities 1."""
    return [unit_presentation(c) for c in COVERS]
