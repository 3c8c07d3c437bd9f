"""Finite directed graphs with edge lengths, walks, and covers.

One frozen record, :class:`Graph`, is every multigraph of the toolkit:
its ``src``, ``rng`` and ``length`` maps are read-only, and ``length`` is
None for a flexible graph.  Its adjacency is one :class:`EdgeIndex`, the
index mono-graphs and diagrams use too.  A circuit of a graph counts
the lengths of its edges.  ``BasicGraph`` is a plain relation on
vertices, a document kind of the command line.

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

from .errors import DomainMismatch, HomomorphismViolation, NameCollision


# ---------------------------------------------------------------------------
# graph types


def read_only(mapping: Mapping | None) -> Mapping | None:
    """A read-only view of ``mapping``.

    A read-only view is shared as it is; any other mapping is copied first.
    """
    if mapping is None or isinstance(mapping, MappingProxyType):
        return mapping
    return MappingProxyType(dict(mapping))


def read_only_fields(record, *names: str) -> None:
    """Make the named mapping fields of a frozen record read-only views."""
    for name in names:
        object.__setattr__(record, name, read_only(getattr(record, name)))


@dataclass(frozen=True)
class EdgeIndex:
    """The ranked adjacency of one edge table, every part read-only.

    ``edges`` maps edge id to ``(src, rng, rank)``, the rank being the
    edge's place, from 1, among the in-edges of its range; ``ranked``
    maps a vertex to those in-edges in rank order, so an edge is
    ``ranked[rng][rank - 1]``.  ``out`` maps a vertex to its out-edges in
    id order; it is built from ``edges`` when first read, since paths and
    Vershik steps only go down the in-edges.  The maps of an index from
    :func:`walk_index` fill themselves as they are read.
    """

    edges: Mapping
    ranked: Mapping

    @cached_property
    def out(self) -> Mapping:
        out: dict[str, list[str]] = {}
        for e, (s, _, _) in self.edges.items():
            out.setdefault(s, []).append(e)
        for es in out.values():
            es.sort()
        return MappingProxyType({v: tuple(es) for v, es in out.items()})


def index_edges(table) -> EdgeIndex:
    """Index an ``id -> (src, rng, rank)`` table in one pass.

    An edge's rank in the index is its place among the in-edges of its
    range sorted by the table's ranks, which may have gaps.
    """
    table = dict(table)
    ranked: dict[str, list[str]] = {}
    for e, (_, r, _) in table.items():
        ranked.setdefault(r, []).append(e)
    for v, es in ranked.items():
        es.sort(key=lambda e: table[e][2])
        ranked[v] = es = tuple(es)
        for i, e in enumerate(es, start=1):
            table[e] = (table[e][0], v, i)
    return EdgeIndex(edges=MappingProxyType(table), ranked=MappingProxyType(ranked))


class _ReadThrough(dict):
    """A table that enters a missing key from ``find`` on first read.

    A read of the whole table (its length, iteration, views, copies and
    comparisons) first replaces the entries with ``whole()``, in that
    order; after that a missing key is absent.  A key read stays a plain
    dict lookup once entered.  ``find(table, key)`` gets the table with
    the key, so it can fill it whole without keeping a reference to it,
    and raises ``KeyError`` for a key the table lacks.
    """

    __slots__ = ("_find", "_whole")

    def __init__(self, find, whole):
        self._find = find
        self._whole = whole

    def __missing__(self, key):
        if self._whole is None:
            raise KeyError(key)
        value = self[key] = self._find(self, key)
        return value

    def _fill(self) -> dict:
        if self._whole is not None:
            table = self._whole()
            self._find = self._whole = None
            dict.clear(self)
            dict.update(self, table)
        return self

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key):
        try:
            self[key]
        except KeyError:
            return False
        return True

    def __len__(self):
        return dict.__len__(self._fill())

    def __iter__(self):
        return dict.__iter__(self._fill())

    def __reversed__(self):
        return dict.__reversed__(self._fill())

    def keys(self):
        return dict.keys(self._fill())

    def values(self):
        return dict.values(self._fill())

    def items(self):
        return dict.items(self._fill())

    def copy(self):
        return dict.copy(self._fill())

    def __or__(self, other):
        return dict.copy(self._fill()) | other

    def __ror__(self, other):
        return other | dict.copy(self._fill())

    def __eq__(self, other):
        if isinstance(other, _ReadThrough):
            other._fill()
        return dict.__eq__(self._fill(), other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self):
        return dict.__repr__(self._fill())


def walk_tables(vertices, sources, names) -> tuple[dict, dict]:
    """The edge table and ranked in-edges given by walks.

    The i-th in-edge of ``w`` comes from ``sources(w)[i - 1]`` and is
    named ``names(w)[i - 1]``.  One pass over the vertices in sorted
    order builds ``id -> (src, rng, rank)`` and ``w -> ids`` in rank
    order.  Two in-edges with one name raise :class:`NameCollision`.
    """
    edges, ranked = {}, {}
    size = 0
    for w in sorted(vertices):
        ids = names(w)
        if ids:
            ranked[w] = ids
            size += len(ids)
            for i, (q, e) in enumerate(zip(sources(w), ids), start=1):
                edges[e] = (q, w, i)
    if len(edges) < size:
        for w in sorted(vertices):
            for i, (q, e) in enumerate(zip(sources(w), names(w)), start=1):
                if edges[e] != (q, w, i):
                    raise NameCollision(
                        f"edge id {e!r} names both {(q, w, i)} and {edges[e]}"
                    )
    return edges, ranked


# A level of at most this many vertices is indexed whole at once: a walk
# reads most of so small a level anyway, and one pass over it costs less
# than entering it vertex by vertex.
_SMALL_LEVEL = 64


def walk_index(vertices, sources, names, split=None) -> EdgeIndex:
    """The index of :func:`walk_tables`, filled one vertex at a time.

    The first read of ``ranked[w]`` enters the in-edges of ``w`` in
    ``edges`` too.  An id read before its vertex is resolved by
    ``split``, which cuts it into the strings ``(w, i)``; it maps only if
    it is the i-th name of ``w``.  Each vertex is named once, whichever
    map reads it first.  A whole read builds both tables in one pass,
    and the other map then fills whole at its first miss.  Besides the
    walks, ``ranked`` refers to ``edges``, never back, so an index is
    freed without a garbage-collector pass.
    Without ``split``, or for a small level, the index is built whole at
    once, which also detects a name collision.
    """
    if split is None or len(vertices) <= _SMALL_LEVEL:
        return EdgeIndex(*map(MappingProxyType, walk_tables(vertices, sources, names)))
    named: dict = {}
    built: list = []

    def ids_of(w):
        ids = named.get(w)
        if ids is None:
            ids = named[w] = names(w)
        return ids

    def whole(part):
        if not built:
            built.extend(walk_tables(vertices, sources, ids_of))
        table, built[part] = built[part], None
        return table

    def find_edge(table, e):
        if built:
            return table._fill()[e]
        try:
            w, i = split(e)
            i = int(i)
        except (AttributeError, TypeError, ValueError):
            raise KeyError(e) from None
        if w in vertices:
            ids = ids_of(w)
            if 0 < i <= len(ids) and ids[i - 1] == e:
                return sources(w)[i - 1], w, i
        raise KeyError(e)

    def find_ranked(table, w):
        if built:
            return table._fill()[w]
        ids = ids_of(w) if w in vertices else ()
        if not ids:
            raise KeyError(w)
        for i, (q, e) in enumerate(zip(sources(w), ids), start=1):
            dict.__setitem__(edges, e, (q, w, i))
        return ids

    edges = _ReadThrough(find_edge, lambda: whole(0))
    ranked = _ReadThrough(find_ranked, lambda: whole(1))
    return EdgeIndex(edges=MappingProxyType(edges), ranked=MappingProxyType(ranked))


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


def weighted(vertices, edge_table) -> Graph:
    """Convenience constructor.

    ``edge_table`` maps edge id to ``(src, rng, length)``.
    """
    return Graph(
        vertices=frozenset(vertices),
        edges=frozenset(edge_table),
        src=MappingProxyType({e: t[0] for e, t in edge_table.items()}),
        rng=MappingProxyType({e: t[1] for e, t in edge_table.items()}),
        length=MappingProxyType({e: t[2] for e, t in edge_table.items()}),
    )


def flexible(vertices, edge_table) -> Graph:
    """``edge_table`` maps edge id to ``(src, rng)``."""
    return Graph(
        vertices=frozenset(vertices),
        edges=frozenset(edge_table),
        src=MappingProxyType({e: t[0] for e, t in edge_table.items()}),
        rng=MappingProxyType({e: t[1] for e, t in edge_table.items()}),
    )


def singleton_graph() -> Graph:
    """The one-vertex, one-self-loop weighted graph with length 1."""
    return weighted({"v0"}, {"e0": ("v0", "v0", 1)})


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


def paths_into(levels, vertices) -> dict:
    """The paths through ``levels`` into each of ``vertices``, in path order.

    ``levels`` holds one :class:`EdgeIndex` per edge level, bottom first;
    a path takes one edge of each, each edge leaving the vertex the one
    below enters.  Paths into ``w`` compare by the rank of their edges at
    the deepest level where they differ.  The in-edges are walked down
    over the backward cone of ``vertices``, and the lists are built up
    from the bottom: the paths into ``w`` take its in-edges in rank order
    and, under each edge, every path into that edge's source, so they
    come out in path order.  With no levels, each vertex has the empty
    path.
    """
    cone = [set(vertices)]
    for level in reversed(levels):
        edges, ranked = level.edges, level.ranked
        cone.append({edges[e][0] for w in cone[-1] for e in ranked.get(w, ())})
    paths = {u: [()] for u in cone.pop()}
    for level in levels:
        edges, ranked = level.edges, level.ranked
        paths = {
            w: [q + (e,) for e in ranked.get(w, ()) for q in paths[edges[e][0]]]
            for w in cone.pop()
        }
    return paths


def map_cycles(f: Mapping) -> set:
    """The elements on a cycle of the partial map ``f``.

    Iterating ``f`` from any element either leaves its domain or runs
    into a cycle, and a walk stops at the first element an earlier walk
    settled, so each element is visited once.
    """
    on_cycle, done = set(), set()
    for start in f:
        walk, here = [], start
        while here in f and here not in done:
            done.add(here)
            walk.append(here)
            here = f[here]
        if here in walk:
            on_cycle.update(walk[walk.index(here):])
    return on_cycle


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

    @property
    def weighted(self) -> bool:
        """A weighted cover is +directional and edge-surjective."""
        return self.plus_directional and self.edge_surjective


def cover_violations(c: Cover) -> list[str]:
    """Check the homomorphism invariants of a cover."""
    problems: list[str] = []
    dom, cod = c.domain, c.codomain
    for v in sorted(dom.vertices):
        if c.vmap.get(v) not in cod.vertices:
            problems.append(f"vertex {v} maps outside the codomain")
    for e in sorted(c.emap.keys() - dom.edges):
        problems.append(f"edge map names {e}, which is not a domain edge")
    for e in dom.sorted_edges():
        w = tuple(c.emap.get(e) or ())
        # every letter is a codomain edge before its ends are read
        if (
            not w
            or any(x not in cod.edges for x in w)
            or any(cod.rng[a] != cod.src[b] for a, b in zip(w, w[1:]))
        ):
            problems.append(f"edge {e} does not map to a walk")
            continue
        if c.vmap.get(dom.src[e]) != cod.src[w[0]]:
            problems.append(f"edge {e}: source mismatch")
        if c.vmap.get(dom.rng[e]) != cod.rng[w[-1]]:
            problems.append(f"edge {e}: range mismatch")
        if dom.length is not None and cod.length is not None:
            if sum(cod.length[x] for x in w) != dom.length[e]:
                problems.append(f"edge {e}: length not preserved")
    return problems


def check_cover(c: Cover) -> CoverFlags:
    """Classify a cover: edge-surjectivity and +/- directionality.

    Raises :class:`HomomorphismViolation` when the basic invariants fail.
    """
    problems = cover_violations(c)
    if problems:
        raise HomomorphismViolation("; ".join(problems))
    return cover_flags(c)


def cover_flags(c: Cover) -> CoverFlags:
    """The flags of :func:`check_cover` for a cover without violations."""
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
# circuits


@dataclass(frozen=True)
class CircuitReport:
    circuits: tuple[tuple[str, ...], ...]
    truncated: bool


def enumerate_circuits(g, max_len: int) -> CircuitReport:
    """All circuits of total length at most ``max_len``, lexicographically.

    An edge counts its length, 1 in a flexible graph.  A circuit visits
    each vertex at most once, so the enumeration is complete whenever
    ``max_len`` reaches the vertex count plus the excess ``length - 1``
    of every edge; otherwise the report is flagged truncated.  Each
    circuit is found once, from its least vertex: the walks from a
    vertex visit only greater ones.  The search keeps its own stack of
    out-edge iterators, one per edge of the walk, so a long circuit
    needs no deep recursion.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    out, rng = g._index.out, g.rng
    length = dict.fromkeys(g.edges, 1) if g.length is None else g.length
    found: list[tuple[str, ...]] = []
    for start in sorted(g.vertices):
        walk: list[str] = []
        total = 0
        seen = {start}
        stack = [iter(out.get(start, ()))]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if walk:
                    e = walk.pop()
                    total -= length[e]
                    seen.discard(rng[e])
                continue
            nxt, reach = rng[e], total + length[e]
            if nxt == start:
                if reach <= max_len:
                    found.append((*walk, e))
            elif reach < max_len and nxt > start and nxt not in seen:
                walk.append(e)
                total = reach
                seen.add(nxt)
                stack.append(iter(out.get(nxt, ())))
    canonical = sorted(min(rotations(w)) for w in found)
    size = len(g.vertices) + sum(length[e] - 1 for e in g.edges)
    return CircuitReport(circuits=tuple(canonical), truncated=max_len < size)


def rotations(walk: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [walk[i:] + walk[:i] for i in range(len(walk))]
