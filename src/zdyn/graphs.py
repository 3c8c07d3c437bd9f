"""Finite directed graphs with edge lengths, walks, and covers.

One frozen record, :class:`Graph`, is every multigraph of the toolkit:
its ``src``, ``rng`` and ``length`` maps are read-only, and ``length`` is
None for a flexible graph.  Its adjacency is one :class:`EdgeIndex`, the
index mono-graphs and diagrams use too.  ``BasicGraph`` is a plain
relation on vertices, the form of an expanded weighted graph.

A *cover* maps edges of one graph to walks of another so that endpoints
match and, for weighted graphs, lengths are preserved; its maps are
read-only too, so covers and level graphs share them instead of copying.
Covers are the single building block for the covering sequences in
:mod:`zdyn.coverings`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import DomainMismatch, HomomorphismViolation, CoverViolation


# ---------------------------------------------------------------------------
# graph types


def read_only_fields(record, *names: str) -> None:
    """Make the named mapping fields of a frozen record read-only views.

    A read-only view is shared as it is; any other mapping is copied first.
    """
    for name in names:
        value = getattr(record, name)
        if value is not None and not isinstance(value, MappingProxyType):
            object.__setattr__(record, name, MappingProxyType(dict(value)))


@dataclass(frozen=True, slots=True)
class EdgeIndex:
    """The ranked adjacency of one edge table, every part read-only.

    ``edges`` maps edge id to ``(src, rng, rank)``; ``ranked`` maps a
    vertex to its in-edges in rank order and ``position`` an edge to its
    place among them; ``out`` maps a vertex to its out-edges in id order.
    """

    edges: Mapping
    ranked: Mapping
    position: Mapping
    out: Mapping


def index_edges(table) -> EdgeIndex:
    """Index an ``id -> (src, rng, rank)`` table in one pass."""
    table = dict(table)
    ranked: dict[str, list[str]] = {}
    out: dict[str, list[str]] = {}
    for e, (s, r, _) in table.items():
        ranked.setdefault(r, []).append(e)
        out.setdefault(s, []).append(e)
    ranked = {
        v: tuple(sorted(es, key=lambda e: table[e][2])) for v, es in ranked.items()
    }
    return EdgeIndex(
        edges=MappingProxyType(table),
        ranked=MappingProxyType(ranked),
        position=MappingProxyType(
            {e: i for es in ranked.values() for i, e in enumerate(es)}
        ),
        out=MappingProxyType({v: tuple(sorted(es)) for v, es in out.items()}),
    )


@dataclass(frozen=True)
class BasicGraph:
    """A surjective edge relation on a finite vertex set."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class Graph:
    """A finite directed multigraph with read-only edge maps.

    ``length`` gives each edge a positive length, or is None for a
    flexible graph.  The adjacency index is built on first use.
    """

    vertices: frozenset[str]
    edges: frozenset[str]
    src: Mapping = field(hash=False)
    rng: Mapping = field(hash=False)
    length: Mapping | None = field(default=None, hash=False)

    def __post_init__(self):
        read_only_fields(self, "src", "rng", "length")

    @cached_property
    def _index(self) -> EdgeIndex:
        # each edge ranks by its own id, so in-edges come in id order
        return index_edges({e: (self.src[e], self.rng[e], e) for e in self.edges})

    def sorted_edges(self) -> list[str]:
        return sorted(self.edges)

    def out_edges(self, v: str) -> list[str]:
        return list(self._index.out.get(v, ()))

    def in_edges(self, v: str) -> list[str]:
        return list(self._index.ranked.get(v, ()))


def weighted(vertices, edge_table) -> Graph:
    """Convenience constructor.

    ``edge_table`` maps edge id to ``(src, rng, length)``.
    """
    return Graph(
        vertices=frozenset(vertices),
        edges=frozenset(edge_table),
        src={e: t[0] for e, t in edge_table.items()},
        rng={e: t[1] for e, t in edge_table.items()},
        length={e: t[2] for e, t in edge_table.items()},
    )


def flexible(vertices, edge_table) -> Graph:
    """``edge_table`` maps edge id to ``(src, rng)``."""
    return Graph(
        vertices=frozenset(vertices),
        edges=frozenset(edge_table),
        src={e: t[0] for e, t in edge_table.items()},
        rng={e: t[1] for e, t in edge_table.items()},
    )


def singleton_graph(vertex: str = "v0", edge: str = "e0") -> Graph:
    """The one-vertex, one-self-loop weighted graph with length 1."""
    return weighted({vertex}, {edge: (vertex, vertex, 1)})


# ---------------------------------------------------------------------------
# validation


def validate_graph(g: Graph | BasicGraph) -> list[str]:
    """Return a list of violated invariants; an empty list means valid."""
    problems: list[str] = []
    if isinstance(g, BasicGraph):
        outgoing = {u for (u, _) in g.edges}
        incoming = {w for (_, w) in g.edges}
        for u, w in sorted(g.edges):
            if u not in g.vertices or w not in g.vertices:
                problems.append(f"edge ({u},{w}) touches an unknown vertex")
        for v in sorted(g.vertices):
            if v not in outgoing:
                problems.append(f"no outgoing edge at {v}")
            if v not in incoming:
                problems.append(f"no incoming edge at {v}")
        return problems

    for e in g.sorted_edges():
        if g.src[e] not in g.vertices:
            problems.append(f"edge {e} has unknown source {g.src[e]}")
        if g.rng[e] not in g.vertices:
            problems.append(f"edge {e} has unknown range {g.rng[e]}")
    if g.length is not None:
        for e in g.sorted_edges():
            length = g.length[e]
            if not isinstance(length, int) or length < 1:
                problems.append(f"edge {e} has non-positive length {length}")
    sources = {g.src[e] for e in g.edges}
    ranges = {g.rng[e] for e in g.edges}
    for v in sorted(g.vertices):
        if v not in sources:
            problems.append(f"no outgoing edge at {v}")
        if v not in ranges:
            problems.append(f"no incoming edge at {v}")
    return problems


# ---------------------------------------------------------------------------
# walks


def is_walk(g, edges: tuple[str, ...]) -> bool:
    if not edges:
        return False
    if any(e not in g.edges for e in edges):
        return False
    return all(g.rng[a] == g.src[b] for a, b in zip(edges, edges[1:]))


def walk_src(g, edges: tuple[str, ...]) -> str:
    return g.src[edges[0]]


def walk_rng(g, edges: tuple[str, ...]) -> str:
    return g.rng[edges[-1]]


def walk_length(g: Graph, edges: tuple[str, ...]) -> int:
    """Total length of a walk in a weighted graph."""
    return sum(g.length[e] for e in edges)


# ---------------------------------------------------------------------------
# covers


@dataclass(frozen=True)
class Cover:
    """A graph homomorphism sending edges to walks.

    ``vmap`` maps domain vertices to codomain vertices and ``emap`` maps
    each domain edge to a walk (tuple of edge ids) in the codomain; the
    record keeps both maps read-only.
    """

    domain: Graph
    codomain: Graph
    vmap: Mapping = field(hash=False)
    emap: Mapping = field(hash=False)

    def __post_init__(self):
        read_only_fields(self, "vmap", "emap")


@dataclass(frozen=True)
class CoverFlags:
    edge_surjective: bool
    plus_directional: bool
    minus_directional: bool
    bidirectional: bool


def cover_violations(c: Cover) -> list[str]:
    """Check the homomorphism invariants of a cover."""
    problems: list[str] = []
    dom, cod = c.domain, c.codomain
    for v in sorted(dom.vertices):
        if c.vmap.get(v) not in cod.vertices:
            problems.append(f"vertex {v} maps outside the codomain")
    for e in dom.sorted_edges():
        w = c.emap.get(e)
        if not w or not is_walk(cod, tuple(w)):
            problems.append(f"edge {e} does not map to a walk")
            continue
        w = tuple(w)
        if c.vmap[dom.src[e]] != walk_src(cod, w):
            problems.append(f"edge {e}: source mismatch")
        if c.vmap[dom.rng[e]] != walk_rng(cod, w):
            problems.append(f"edge {e}: range mismatch")
        if dom.length is not None and cod.length is not None:
            if walk_length(cod, w) != dom.length[e]:
                problems.append(f"edge {e}: length not preserved")
    return problems


def check_cover(c: Cover) -> CoverFlags:
    """Classify a cover: edge-surjectivity and +/- directionality.

    Raises :class:`HomomorphismViolation` when the basic invariants fail.
    """
    problems = cover_violations(c)
    if problems:
        raise HomomorphismViolation("; ".join(problems))
    dom, cod = c.domain, c.codomain
    covered = set()
    for e in dom.edges:
        covered.update(c.emap[e])
    edge_surjective = covered == set(cod.edges)

    # +directional: co-sourced edges share their first image edge;
    # -directional: co-ranged edges share their last one
    firsts: dict[str, set] = {}
    lasts: dict[str, set] = {}
    for e in dom.edges:
        firsts.setdefault(dom.src[e], set()).add(c.emap[e][0])
        lasts.setdefault(dom.rng[e], set()).add(c.emap[e][-1])
    plus = all(len(images) == 1 for images in firsts.values())
    minus = all(len(images) == 1 for images in lasts.values())
    return CoverFlags(
        edge_surjective=edge_surjective,
        plus_directional=plus,
        minus_directional=minus,
        bidirectional=plus and minus,
    )


def is_weighted_cover(c: Cover) -> bool:
    """A weighted cover is +directional and edge-surjective."""
    flags = check_cover(c)
    return flags.plus_directional and flags.edge_surjective


def identity_cover(g: Graph) -> Cover:
    return Cover(
        domain=g,
        codomain=g,
        vmap={v: v for v in g.vertices},
        emap={e: (e,) for e in g.edges},
    )


def compose_covers(outer: Cover, inner: Cover) -> Cover:
    """Compose two covers; ``inner`` maps into ``outer``'s domain.

    The result maps ``inner.domain`` into ``outer.codomain``: an edge is
    first expanded by ``inner`` and every edge of that walk is then
    expanded by ``outer``, concatenating the pieces.
    """
    if inner.codomain != outer.domain:
        raise DomainMismatch("inner codomain differs from outer domain")
    vmap = {v: outer.vmap[inner.vmap[v]] for v in inner.domain.vertices}
    emap = {}
    for e in inner.domain.edges:
        walk: list[str] = []
        for f in inner.emap[e]:
            walk.extend(outer.emap[f])
        emap[e] = tuple(walk)
    return Cover(domain=inner.domain, codomain=outer.codomain, vmap=vmap, emap=emap)


def cover_power(c: Cover, k: int) -> Cover:
    """k-fold composition of a self-cover with itself."""
    if c.domain != c.codomain:
        raise DomainMismatch("cover_power needs a self-cover")
    result = identity_cover(c.domain)
    for _ in range(k):
        result = compose_covers(result, c)
    return result


# ---------------------------------------------------------------------------
# basic expansion


@dataclass(frozen=True)
class BasicExpansion:
    """A weighted graph rewritten as a basic graph.

    Each weighted edge ``e`` of length ``k`` becomes a chain of ``k``
    relation edges through ``k - 1`` interior vertices.  ``chains[e]``
    lists the ``k + 1`` chain vertices in order, starting at the source of
    ``e``.  Parallel length-1 edges between the same vertex pair collapse
    onto a single relation edge; ``merges`` records which weighted edges
    share each collapsed relation edge.
    """

    source: Graph
    graph: BasicGraph
    chains: dict = field(hash=False)
    merges: dict = field(hash=False)

    def chain_vertex(self, e: str, i: int) -> str:
        return self.chains[e][i]

    def walk_vertex(self, walk: tuple[str, ...], offset: int) -> str:
        """The chain vertex at a length offset along an expanded walk."""
        g = self.source
        j = offset
        for e in walk:
            if j <= g.length[e]:
                return self.chains[e][j]
            j -= g.length[e]
        raise ValueError("offset beyond the walk length")


def interior_vertex(edge: str, i: int) -> str:
    return f"{edge}#{i}"


def expand_to_basic(g: Graph) -> BasicExpansion:
    """Expand a weighted graph into its basic graph."""
    vertices = set(g.vertices)
    edges: set[tuple[str, str]] = set()
    chains: dict[str, tuple[str, ...]] = {}
    merges: dict[tuple[str, str], list[str]] = {}
    for e in g.sorted_edges():
        k = g.length[e]
        chain = [g.src[e]]
        for i in range(1, k):
            chain.append(interior_vertex(e, i))
        chain.append(g.rng[e])
        chains[e] = tuple(chain)
        vertices.update(chain)
        for a, b in zip(chain, chain[1:]):
            edges.add((a, b))
        if k == 1:
            merges.setdefault((g.src[e], g.rng[e]), []).append(e)
    merges = {pair: sorted(ids) for pair, ids in merges.items() if len(ids) > 1}
    basic = BasicGraph(vertices=frozenset(vertices), edges=frozenset(edges))
    return BasicExpansion(source=g, graph=basic, chains=chains, merges=merges)


@dataclass(frozen=True)
class BasicCover:
    """A vertex map that is a homomorphism of basic-graph relations."""

    domain: BasicGraph
    codomain: BasicGraph
    vmap: dict = field(hash=False)


@dataclass(frozen=True)
class BasicCoverFlags:
    homomorphism: bool
    edge_surjective: bool
    plus_directional: bool
    minus_directional: bool
    bidirectional: bool


def check_basic_cover(c: BasicCover) -> BasicCoverFlags:
    hom = all(
        (c.vmap[u], c.vmap[w]) in c.codomain.edges for (u, w) in c.domain.edges
    )
    covered = {(c.vmap[u], c.vmap[w]) for (u, w) in c.domain.edges}
    edge_surjective = covered == set(c.codomain.edges)
    plus = True
    minus = True
    for u, w in c.domain.edges:
        for u2, w2 in c.domain.edges:
            if u == u2 and c.vmap[w] != c.vmap[w2]:
                plus = False
            if w == w2 and c.vmap[u] != c.vmap[u2]:
                minus = False
    return BasicCoverFlags(
        homomorphism=hom,
        edge_surjective=edge_surjective,
        plus_directional=plus,
        minus_directional=minus,
        bidirectional=plus and minus,
    )


def expand_basic_cover(
    c: Cover,
    domain_expansion: BasicExpansion | None = None,
    codomain_expansion: BasicExpansion | None = None,
) -> BasicCover:
    """Turn a weighted cover into a basic cover of the expanded graphs.

    The interior vertex at offset ``i`` along an edge ``e`` is sent to the
    chain vertex at the same length offset along the image walk of ``e``.
    Raises :class:`CoverViolation` unless the input is a weighted cover
    (+directional and edge-surjective), which makes the map well defined.
    """
    if not is_weighted_cover(c):
        raise CoverViolation("input is not a weighted cover")
    dome = domain_expansion or expand_to_basic(c.domain)
    code = codomain_expansion or expand_to_basic(c.codomain)
    vmap: dict[str, str] = {v: c.vmap[v] for v in c.domain.vertices}
    for e in c.domain.sorted_edges():
        walk = tuple(c.emap[e])
        for i in range(1, c.domain.length[e]):
            vmap[dome.chain_vertex(e, i)] = code.walk_vertex(walk, i)
    return BasicCover(domain=dome.graph, codomain=code.graph, vmap=vmap)


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class CircuitReport:
    circuits: tuple[tuple[str, ...], ...]
    truncated: bool


def enumerate_circuits(g, max_len: int) -> CircuitReport:
    """All circuits of at most ``max_len`` edges, lexicographically.

    A circuit can visit each vertex at most once, so the enumeration is
    complete whenever ``max_len`` reaches the vertex count; otherwise the
    report is flagged truncated.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    found: list[tuple[str, ...]] = []

    def extend(start: str, here: str, walk: list[str], seen: set[str]) -> None:
        for e in g.out_edges(here):
            nxt = g.rng[e]
            walk.append(e)
            if nxt == start:
                found.append(tuple(walk))
            if len(walk) < max_len and nxt != start and nxt not in seen:
                seen.add(nxt)
                extend(start, nxt, walk, seen)
                seen.discard(nxt)
            walk.pop()

    for v in sorted(g.vertices):
        extend(v, v, [], {v})
    # each circuit is found once per vertex on it; keep one canonical copy
    canonical = sorted({min(rotations(w)) for w in found})
    return CircuitReport(
        circuits=tuple(canonical), truncated=max_len < len(g.vertices)
    )


def rotations(walk: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [walk[i:] + walk[:i] for i in range(len(walk))]
