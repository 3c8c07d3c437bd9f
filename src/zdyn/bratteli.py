"""Ordered Bratteli diagrams, the lexicographic successor, and the
conversions between diagrams and covering presentations.

A diagram is one record, as a covering presentation is: the vertex sets
of levels 0..N, the edge tables of levels 1..N, and perhaps an edge level
repeated above the top, forever.  A stationary diagram is the one-level
prefix, its root edges read off the multiplicities, that repeats its
mono-graph; a repeating tail repeats its last edge level; a truncated
prefix repeats nothing.
Paths are tuples of edge ids from the root; two paths into the same
vertex compare by the rank of their edges at the deepest level where they
differ.  The successor of a path is the least strictly larger one, and
iterating it from the minimal path enumerates the whole fiber.

Every adjacency read goes through one index per diagram, built on first
use and kept on the diagram: per distinct edge table, the edges and the
ranked in-edges of each vertex, both read-only, an edge's rank being its
place among its siblings; the id-ordered out-edges are built on first
read.  The repeated level's entry serves every level above the top.  A
diagram made by :func:`weighted_to_bv` reads each level off the walks of
its covering: each vertex is named and entered on first read, and the
mono-graph of its repeated level is built only when asked for.  Tower
heights are kept on the diagram as well, filled over the backward cone
of the vertices asked for: the vertex and every vertex beneath it, and
nothing else.  So a Vershik step costs the depth of its carry, and
``path_index`` and its inverse ``path_at`` the size of one cone, whatever
the number of edges, and no routine rescans a level.  A vertex or edge
the diagram lacks raises ``UnknownName``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from . import coverings, graphs, stationary
from .errors import (
    CoverViolation,
    DepthOutOfRange,
    HorizonExceeded,
    InvalidParameter,
    NestingViolation,
    UndefinedVershik,
    UnknownName,
    UnsupportedKind,
)
from .graphs import Cover, EdgeIndex, Graph, index_edges, walk_index, walk_tables
from .reports import FAILS, HOLDS, UNKNOWN, Report

MAXIMAL = "MAXIMAL"
MINIMAL = "MINIMAL"

ROOT = "v0"


def _root_edges(counts: Mapping):
    """Level 1: ``counts[v]`` in-edges ``v<1``, ``v<2``, ... from the root."""

    def sources(v):
        return (ROOT,) * counts[v]

    def names(v):
        return tuple([f"{v}<{i}" for i in range(1, counts[v] + 1)])

    return sources, names


def _walk_edges(walks: Mapping):
    """Deeper levels: ``q>w:i`` into ``w`` from the i-th place ``q`` of its walk."""

    def names(w):
        return tuple([f"{q}>{w}:{i}" for i, q in enumerate(walks[w], start=1)])

    return walks.__getitem__, names


def _split_root_edge(e: str):
    v, _, i = e.rpartition("<")
    return v, i


def _split_walk_edge(e: str):
    head, _, i = e.rpartition(":")
    return head.partition(">")[2], i


def _walk_level(cover: Cover) -> EdgeIndex:
    """An edge level read off a cover's walks, its vertices the cover's edges.

    An id splits at its last ``:`` and then at its first ``>``, which is
    unique while no covering edge has ``>`` in its name; otherwise every
    id is named at once.
    """
    vertices = cover.domain.edges
    split = None if any(">" in w for w in vertices) else _split_walk_edge
    return walk_index(vertices, *_walk_edges(cover.emap), split)


def _at(index: tuple, k: int) -> EdgeIndex:
    """Edge level ``k >= 1`` of ``index``, its last entry serving every deeper level."""
    return index[k - 1] if k <= len(index) else index[-1]


@dataclass(frozen=True)
class BratteliDiagram:
    """An ordered diagram: a finite prefix of edge levels, then perhaps a repeated one.

    ``levels[n]`` is the set of level-n vertices, n = 0..N, and
    ``edge_levels[n - 1]`` maps the level-n edge ids to ``(src, rng,
    rank)`` triples.  ``repeat``, an edge table from the top vertices to
    themselves, makes every level above N.  A repeating tail repeats its
    last edge level, the same table; a stationary diagram repeats its
    mono-graph above the root edges of level 1, which carry the
    multiplicities.  When ``repeat`` is None the prefix is truncated:
    like a truncated covering prefix it stands for every diagram that
    extends it.  Every table is read-only.
    """

    levels: tuple[frozenset, ...] = ()
    edge_levels: tuple[Mapping, ...] = field(default=(), hash=False)
    repeat: Mapping | None = field(default=None, hash=False)

    def __post_init__(self):
        tables = tuple(map(graphs.read_only, self.edge_levels))
        last = self.repeat is not None and self.repeat is self.edge_levels[-1]
        object.__setattr__(self, "levels", tuple(map(frozenset, self.levels)))
        object.__setattr__(self, "edge_levels", tables)
        repeat = tables[-1] if last else graphs.read_only(self.repeat)
        object.__setattr__(self, "repeat", repeat)

    @property
    def stationary(self) -> bool:
        """Whether one level of root edges and one repeated level make the diagram."""
        return self.repeat is not None and len(self.edge_levels) == 1

    def depth(self) -> int | None:
        return None if self.repeat is not None else len(self.levels) - 1

    def _check_depth(self, n: int) -> None:
        limit = self.depth()
        if n < 0 or (limit is not None and n > limit):
            raise DepthOutOfRange(f"level {n} not materializable")

    def _tables(self) -> tuple:
        """The distinct edge tables, bottom first; the last makes every deeper level."""
        if self.repeat is None or self.repeat is self.edge_levels[-1]:
            return self.edge_levels
        return (*self.edge_levels, self.repeat)

    @cached_property
    def _index(self) -> tuple[EdgeIndex, ...]:
        """One entry per distinct edge table; the last one serves all deeper levels."""
        return tuple(map(index_edges, self._tables()))

    @cached_property
    def mono(self) -> Graph | None:
        """The repeated level as a mono-graph sharing its index, or None."""
        if self.repeat is None:
            return None
        return graphs.indexed_mono(self.levels[-1], self._index[-1])

    @cached_property
    def _continuity(self) -> Report:
        """The continuity report of a stationary diagram, decided once."""
        return stationary.check_continuity(self.mono)

    @cached_property
    def _heights(self) -> list[dict]:
        """Tower heights by level, ``[n][v]`` = l(v), filled on demand.

        A vertex is entered only after every vertex beneath it, so each
        level holds the union of the backward cones asked for so far.
        """
        return [{ROOT: 1}]

    @cached_property
    def _boundary(self) -> dict:
        """:func:`boundary_targets` by ``(vertex, delta)``, filled on demand."""
        return {}

    def _level(self, n: int) -> EdgeIndex:
        if n < 1:
            raise DepthOutOfRange("edge levels start at 1")
        self._check_depth(n)
        return _at(self._index, n)

    def _levels(self, lo: int, hi: int) -> list[EdgeIndex]:
        """The indexes of edge levels ``lo + 1`` to ``hi``, bottom first."""
        return [self._level(k) for k in range(lo + 1, hi + 1)]

    def level_vertices(self, n: int) -> list[str]:
        self._check_depth(n)
        return sorted(self.levels[min(n, len(self.levels) - 1)])

    def level_edges(self, n: int) -> Mapping:
        """Level-n edges, read-only, as ``id -> (src, rng, rank)``; n >= 1."""
        return self._level(n).edges

    def in_edges(self, n: int, v: str) -> list[str]:
        """Level-n edges into ``v``, in rank order."""
        return list(self._level(n).ranked.get(v, ()))


def stationary_diagram(mono: Graph, multiplicities: Mapping) -> BratteliDiagram:
    """Root edges ``v<1``, ``v<2``, ... by ``multiplicities``, then ``mono`` forever."""
    vertices = mono.vertices
    first = walk_tables(vertices, *_root_edges(multiplicities))[0]
    table = {e: (mono.src[e], mono.rng[e], mono.rank[e]) for e in mono.edges}
    return BratteliDiagram(levels=({ROOT}, vertices), edge_levels=(first,), repeat=table)


def validate_diagram(d: BratteliDiagram) -> list[str]:
    """Invariant problems, read off the raw tables so loading stays index-free.

    A repeated level is read once: its table is the table of every
    deeper level.
    """
    if len(d.edge_levels) != len(d.levels) - 1:
        return ["need one edge table per level above the root"]
    if not d.edge_levels:
        return ["need at least one level above the root"]
    if d.levels[0] != {ROOT}:
        return [f"level 0 must be the root {ROOT} alone"]
    problems = []
    tables = d._tables()
    for n, table in enumerate(tables, start=1):
        below = set(d.level_vertices(n - 1))
        here = set(d.level_vertices(n))
        targets = {}
        for e, (s, r, rank) in sorted(table.items()):
            if s not in below:
                problems.append(f"level {n} edge {e} has unknown source")
            if r not in here:
                problems.append(f"level {n} edge {e} has unknown range")
            targets.setdefault(r, []).append(rank)
        for v in sorted(here):
            ranks = sorted(targets.get(v, []))
            if not ranks:
                problems.append(f"no incoming edge at {v} (level {n})")
            elif ranks != list(range(1, len(ranks) + 1)):
                problems.append(f"rank gap at vertex {v} (level {n})")
        if n < len(tables):
            srcs = {s for (s, _, _) in tables[n].values()}
            for v in sorted(here - srcs):
                problems.append(f"no outgoing edge at {v} (level {n})")
    return problems


# ---------------------------------------------------------------------------
# paths


def _tower_heights(d: BratteliDiagram, n: int, vertices) -> list[dict]:
    """The memo of tower heights, filled for ``vertices`` at level ``n``.

    Collects, level by level downwards, the in-neighbours whose heights
    are missing, down to the first level that has them all, then sums
    upwards.  So only the backward cone of ``vertices`` is filled.
    """
    d._check_depth(n)
    heights = d._heights
    while len(heights) <= n:
        heights.append({})
    index = d._index
    want = {v for v in vertices if v not in heights[n]}
    cone = []
    k = n
    while want:
        if k == 0:
            raise UnknownName(f"no vertex {min(want)!r} at level 0")
        level = _at(index, k)
        cone.append((heights[k], level, want))
        edges, ranked, below = level.edges, level.ranked, heights[k - 1]
        try:
            sources = {edges[e][0] for v in want for e in ranked[v]}
        except KeyError as exc:
            raise UnknownName(f"no vertex {exc.args[0]!r} at level {k}") from None
        want = {u for u in sources if u not in below}
        k -= 1
    for here, level, want in reversed(cone):
        edges, ranked, below = level.edges, level.ranked, heights[k]
        for v in want:
            here[v] = sum(below[edges[e][0]] for e in ranked[v])
        k += 1
    return heights


def enumerate_paths(d: BratteliDiagram, v: str, n: int) -> list[tuple[str, ...]]:
    """All paths from the root to ``v`` at level ``n``, in order."""
    _tower_heights(d, n, (v,))
    return graphs.paths_into(d._levels(0, n), (v,))[v]


def path_count(d: BratteliDiagram, v: str, n: int) -> int:
    """The tower height l(v): the number of paths from the root."""
    return _tower_heights(d, n, (v,))[n][v]


def _extreme_path(d: BratteliDiagram, v: str, n: int, last: bool) -> tuple[str, ...]:
    """The least path to ``v`` at level ``n``, or the greatest when ``last``."""
    d._check_depth(n)
    index = d._index
    pick = -1 if last else 0
    path = [""] * n
    here = v
    try:
        for k in range(n, 0, -1):
            level = _at(index, k)
            e = level.ranked[here][pick]
            path[k - 1] = e
            here = level.edges[e][0]
    except KeyError:
        raise UnknownName(f"no vertex {here!r} at level {k}") from None
    if here != ROOT:  # only a level-0 name other than the root gets here
        raise UnknownName(f"no vertex {here!r} at level 0")
    return tuple(path)


def minimal_path(d: BratteliDiagram, v: str, n: int) -> tuple[str, ...]:
    return _extreme_path(d, v, n, last=False)


def path_index(d: BratteliDiagram, p: tuple[str, ...]) -> int:
    """The floor of ``p`` inside its tower: its position in path order.

    Each level adds the heights of the towers under the edges ranked
    below the path's own edge there.  Those towers all lie in the
    backward cone of the path's end vertex, which is filled once.
    """
    if not p:
        return 0
    n = len(p)
    d._check_depth(n)
    index = d._index
    try:
        end = _at(index, n).edges[p[-1]][1]
        heights = _tower_heights(d, n, (end,))
        floor = 0
        here = ROOT
        for k, e in enumerate(p, start=1):
            level = _at(index, k)
            below = heights[k - 1]
            edges = level.edges
            s, r, rank = edges[e]
            if s != here:
                raise _not_a_path(d, p)
            here = r
            for f in level.ranked[r][: rank - 1]:
                floor += below[edges[f][0]]
    except KeyError:
        raise _not_a_path(d, p) from None
    return floor


def path_at(d: BratteliDiagram, v: str, n: int, i: int) -> tuple[str, ...]:
    """The path on floor ``i`` of the tower of ``v`` at level ``n``.

    The inverse of :func:`path_index`.  From level ``n`` down, the floor
    passes the towers under the in-edges ranked below the one that holds
    it, subtracting their heights, and the descent goes on from that
    edge's source: O(n * in-degree) steps over the backward cone of
    ``v``, which is filled once.
    """
    heights = _tower_heights(d, n, (v,))
    if not 0 <= i < heights[n][v]:
        raise InvalidParameter(
            f"floor {i} is outside the tower of {v!r} at level {n}"
            f" (height {heights[n][v]})"
        )
    index = d._index
    path = [""] * n
    here = v
    for k in range(n, 0, -1):
        level = _at(index, k)
        edges, below = level.edges, heights[k - 1]
        for e in level.ranked[here]:
            h = below[edges[e][0]]
            if i < h:
                break
            i -= h
        path[k - 1] = e
        here = edges[e][0]
    return tuple(path)


def _not_a_path(d: BratteliDiagram, p: tuple[str, ...]) -> UnknownName:
    """The error for a tuple of edge ids that is not a path of ``d``."""
    for k, e in enumerate(p, start=1):
        if e not in d._level(k).edges:
            return UnknownName(f"no edge {e!r} at level {k}")
    return UnknownName(f"the edges {' '.join(p)!r} do not form a path")


def _step(d: BratteliDiagram, p: tuple[str, ...], delta: int):
    """The path ``delta`` (+1 or -1) places from ``p`` in path order.

    Bumps the shallowest edge that has a sibling on that side and resets
    the levels below it to the extreme path on the other side; returns
    MAXIMAL or MINIMAL when no edge can move.  The junctions it reads are
    checked: every one up to the bumped edge and the one just above it,
    all of them when no edge moves.  Junctions higher up are the caller's
    responsibility, so a step costs the depth of its carry.
    """
    n = len(p)
    d._check_depth(n)
    index = d._index
    here = ROOT
    try:
        for k, e in enumerate(p, start=1):
            level = _at(index, k)
            edges = level.edges
            s, here_next, rank = edges[e]
            if s != here:
                raise _not_a_path(d, p)
            here = here_next
            siblings = level.ranked[here]
            i = rank - 1 + delta
            if 0 <= i < len(siblings):
                if k < n and _at(index, k + 1).edges[p[k]][0] != here:
                    raise _not_a_path(d, p)
                f = siblings[i]
                below = _extreme_path(d, edges[f][0], k - 1, last=delta < 0)
                return below + (f,) + p[k:]
    except KeyError:
        raise _not_a_path(d, p) from None
    return MAXIMAL if delta > 0 else MINIMAL


def vershik_successor(d: BratteliDiagram, p: tuple[str, ...]):
    """The least path strictly above ``p``, or MAXIMAL."""
    return _step(d, p, 1)


def vershik_predecessor(d: BratteliDiagram, p: tuple[str, ...]):
    """The greatest path strictly below ``p``, or MINIMAL."""
    return _step(d, p, -1)


def _continuity_psi(d: BratteliDiagram) -> dict:
    if not d.stationary:
        raise HorizonExceeded("no tower-end successor beyond the prefix of this diagram")
    report = d._continuity
    if report.verdict != HOLDS:
        raise UndefinedVershik("no continuous successor map exists")
    return report.details["psi"]


def _tower_end(d: BratteliDiagram, v: str, n: int, delta: int, psi) -> tuple[set, int]:
    """Where the step past the end of ``v``'s tower at level ``n`` lands.

    The one search for it.  Climbs the extreme in-edges above ``v``, the
    greatest for ``delta = 1`` and the least for -1, level by level.  An
    out-edge that is not the extreme in-edge of its range is bumped to
    its sibling on the ``delta`` side, and the descent from that
    sibling's source along the opposite extreme in-edges back to level
    ``n`` reaches a target.  With ``psi``, on a straight stationary
    diagram, an extreme loop closes through psi (its preimages going
    backwards); an extreme edge that is not a loop leaves a vertex with
    no extreme out-edge, so every climb ends within two levels.  Without
    ``psi`` a climb that reaches level ``n + 2``, or the top of a
    truncated prefix, stays open.  Returns the targets and the number of
    open climbs.
    """
    boundary, reset = (-1, 0) if delta > 0 else (0, -1)
    limit = d.depth()
    cap = n + 2 if limit is None else min(n + 2, limit)
    targets: set[str] = set()
    open_climbs = 0
    # each vertex on a climb has one extreme in-edge, so one way up
    pending = [(v, n)]
    while pending:
        here, k = pending.pop()
        if psi is None and k >= cap:
            open_climbs += 1
            continue
        level = d._level(k + 1)
        edges, ranked = level.edges, level.ranked
        for e in level.out.get(here, ()):
            _, w, rank = edges[e]
            if ranked[w][boundary] != e:
                u = edges[ranked[w][rank - 1 + delta]][0]
                for j in range(k, n, -1):
                    below = d._level(j)
                    u = below.edges[below.ranked[u][reset]][0]
                targets.add(u)
            elif psi is None or w != here:
                pending.append((w, k + 1))
            elif delta > 0:
                targets.add(psi[here])
            else:
                targets.update(u for u, t in psi.items() if t == here)
    return targets, open_climbs


def boundary_targets(d: BratteliDiagram, v: str, delta: int) -> frozenset[str]:
    """Where the step past the end of ``v``'s tower lands, as vertices.

    For ``delta = 1`` the successors of the points over the maximal path
    into ``v`` start with the minimal paths into these vertices; for
    ``delta = -1`` the predecessors of the points over the minimal path
    end with their maximal paths.  :func:`_tower_end` decides it on the
    straight stationary diagram, with psi closing a constant extreme
    column.  Decided once per (vertex, direction), kept on the diagram.
    """
    memo = d._boundary
    if (v, delta) not in memo:
        # a diagram without a tower-end step says so before the vertex is read
        psi = _continuity_psi(d)
        if v not in d.levels[1]:
            raise UnknownName(f"no vertex {v!r} at level 1")
        memo[v, delta] = frozenset(_tower_end(d, v, 1, delta, psi)[0])
    return memo[v, delta]


def vershik_orbit(d: BratteliDiagram, p: tuple[str, ...], steps: int) -> list:
    """Iterated successors, stopping early at MAXIMAL.

    The junctions of ``p`` are checked once; each step then keeps a path.
    """
    if steps < 0:
        raise InvalidParameter(f"the number of steps must be at least 0, got {steps}")
    here = ROOT
    for k, e in enumerate(p, start=1):
        s, r, _ = d._level(k).edges.get(e, (None, None, None))
        if s != here:
            raise _not_a_path(d, p)
        here = r
    orbit = [p]
    for _ in range(steps):
        nxt = vershik_successor(d, orbit[-1])
        orbit.append(nxt)
        if nxt == MAXIMAL:
            break
    return orbit


# ---------------------------------------------------------------------------
# telescoping


def telescope_bv(d: BratteliDiagram, cut_points: list[int]) -> BratteliDiagram:
    """Telescope a diagram along increasing cut points.

    Stationary diagrams with arithmetic cuts K, 2K, ... stay stationary
    with the K-step power of the mono-graph.  Any other cut list yields a
    prefix whose level-i edges are the old paths between consecutive
    cuts, ordered lexicographically.  Its last level repeats, as
    :func:`coverings.telescope` repeats its last cover, when ``d``
    repeats a level and the last two cuts lie where that level repeats:
    the paths between them are then the paths of every later gap.
    """
    cuts = coverings._checked_cuts(cut_points, d.depth())
    if d.stationary:
        K = cuts[0]
        if all(c == K * (i + 1) for i, c in enumerate(cuts)):
            mult = {v: path_count(d, v, K) for v in d.mono.vertices}
            return stationary_diagram(stationary.mono_power(d.mono, K), mult)

    levels = [(ROOT,)]
    edge_levels = []
    prev = 0
    for cut in cuts:
        tops = d.level_vertices(cut)
        levels.append(tops)
        first = d._level(prev + 1).edges
        paths = graphs.paths_into(d._levels(prev, cut), tops)
        edge_levels.append({
            " ".join(w): (first[w[0]][0], v, i)
            for v in tops
            for i, w in enumerate(paths[v], start=1)
        })
        prev = cut
    repeats = d.repeat is not None and len(cuts) > 1 and cuts[-2] >= len(d._tables()) - 1
    return BratteliDiagram(
        levels=tuple(levels),
        edge_levels=tuple(edge_levels),
        repeat=edge_levels[-1] if repeats else None,
    )


# ---------------------------------------------------------------------------
# clusters and nesting


@dataclass(frozen=True)
class ClusterPartition:
    level: int
    clusters: tuple[frozenset, ...]
    certainty: str  # EXACT or DEPTH_LIMITED


def clusters(d: BratteliDiagram, n: int) -> ClusterPartition:
    """The partition of level-n bases glued by successor images of tops.

    Two bases join when the successor image of some tower top meets both.
    The image is where :func:`_tower_end` lands from the top.  On a
    straight stationary diagram psi closes every climb and the partition
    is EXACT.  On any other diagram a climb stops two levels up, or at
    the top of a truncated prefix; a climb still open there makes the
    partition DEPTH_LIMITED, and so does a bent stationary diagram.
    Level 0 is the root alone.
    """
    verts = d.level_vertices(n)
    if n == 0:
        return ClusterPartition(level=0, clusters=(frozenset(verts),), certainty="EXACT")
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    straight = d.stationary and stationary.is_straight(d.mono)
    certainty = "DEPTH_LIMITED" if d.stationary and not straight else "EXACT"
    psi = _continuity_psi(d) if straight else None
    for v in verts:
        hits, open_climbs = _tower_end(d, v, n, 1, psi)
        if open_climbs:
            certainty = "DEPTH_LIMITED"
        hits = sorted(hits)
        for a, b in zip(hits, hits[1:]):
            union(a, b)
    groups: dict[str, set] = {}
    for v in verts:
        groups.setdefault(find(v), set()).add(v)
    ordered = tuple(frozenset(groups[root]) for root in sorted(groups))
    return ClusterPartition(level=n, clusters=ordered, certainty=certainty)


def check_nesting(d: BratteliDiagram, n: int) -> Report:
    """Does every level-(n+1) cluster sit inside one level-n base?

    The clusters come from :func:`clusters`: exact on a straight
    stationary diagram, climbed two levels up otherwise.  A level-(n+1)
    base projects to the minimal path into the source of its minimal
    in-edge, itself a level-n base, so a cluster sits inside one base
    exactly when its bases share that projection.
    """
    d._check_depth(n)
    part = clusters(d, n + 1)
    for cluster in part.clusters:
        truncations = {
            v: minimal_path(d, v, n + 1)[:n] for v in sorted(cluster)
        }
        if len(set(truncations.values())) > 1:
            return Report(
                tag="nesting",
                verdict=FAILS,
                witnesses=tuple(sorted(cluster)),
                details={
                    "level": n,
                    "reason": "cluster bases project to different level-n paths",
                    "projections": truncations,
                    "certainty": part.certainty,
                },
            )
    verdict = HOLDS if part.certainty == "EXACT" else UNKNOWN
    return Report(
        tag="nesting", verdict=verdict, details={"level": n, "certainty": part.certainty}
    )


# ---------------------------------------------------------------------------
# conversions


def weighted_to_bv(p) -> BratteliDiagram:
    """Rewrite a covering presentation as an ordered Bratteli diagram.

    Level-n vertices are the level-n edges of the covering; a vertex
    gets one in-edge per position of its expansion walk, ranked by
    position, so tower heights equal edge lengths.  The i-th in-edge of
    ``w`` is named ``q>w:i`` after its source ``q``, and at level 1
    ``w<i``.  Every level is read off the walks when a vertex is first
    read, so a walk pays for what it touches.  A repeating tail repeats
    its last edge level and a stationary presentation the walks of its
    self-cover; a truncated prefix repeats nothing.  Two in-edges with
    one name raise NameCollision.
    """
    levels = [(ROOT,)]
    indexes = []
    for n in range(1, len(p.graphs) + 1):
        g = coverings.level_graph(p, n)
        levels.append(g.edges)
        if n == 1:
            level = walk_index(g.edges, *_root_edges(g.length), _split_root_edge)
        else:
            level = _walk_level(coverings.cover_at(p, n))
        indexes.append(level)
    repeat = None
    if p.self_cover is not None:
        # a tail repeats its last cover, a stationary presentation its self-cover
        if not p.covers:
            indexes.append(_walk_level(p.self_cover))
        repeat = indexes[-1].edges
    d = BratteliDiagram(
        levels=tuple(levels),
        edge_levels=tuple(level.edges for level in indexes[: len(p.graphs)]),
        repeat=repeat,
    )
    # the walk indexes fill as they are read, so the diagram keeps them
    vars(d)["_index"] = tuple(indexes)
    return d


def bv_to_weighted(d: BratteliDiagram):
    """Rewrite a stationary diagram as a stationary covering presentation.

    Needs the nesting property at level 1, which only a straight diagram
    has; on a straight diagram the clusters and the projections of the
    bases are the same at every level from 1 on, so level 1 decides them
    all.  Covering vertices are the level-1 base clusters,
    covering edges are the diagram vertices, and the expansion of an edge
    lists the sources of its ranked in-edges.  An edge runs from the
    cluster of its own base to the cluster where the step past its tower
    top lands, as :func:`boundary_targets` decides it.
    """
    if not d.stationary:
        raise UnsupportedKind(
            "only stationary diagrams convert back to covering presentations"
        )
    report = check_nesting(d, 1)
    if report.verdict == FAILS:
        raise NestingViolation(f"nesting fails at level 1: {report.witnesses}")
    if report.verdict == UNKNOWN:
        raise UndefinedVershik("cluster resolution is depth-limited at level 1")
    part = clusters(d, 1)
    name = {v: "+".join(sorted(c)) for c in part.clusters for v in c}
    m = d.mono
    edge_table = {}
    for v in sorted(m.vertices):
        targets = boundary_targets(d, v, 1)
        if not targets:
            raise NestingViolation(f"tower top of {v} escapes every base")
        # the clusters glue all the targets of a top together
        edge_table[v] = (name[v], name[min(targets)])
    g = graphs.flexible(set(name.values()), edge_table)
    emap = {
        v: tuple(m.src[e] for e in m.in_edges(v)) for v in m.vertices
    }
    # a level-2 base sits over the level-1 base its minimal in-edge leaves
    vmap = {name[v]: name[u] for v, u in m.extreme_sources(last=False).items()}
    cover = graphs.Cover(domain=g, codomain=g, vmap=vmap, emap=emap)
    problems = graphs.cover_violations(cover)
    if problems or not graphs.cover_flags(cover).weighted:
        raise CoverViolation(
            "recovered self-cover is not a flexible cover: " + "; ".join(problems)
        )
    multiplicities = {v: path_count(d, v, 1) for v in m.vertices}
    return coverings.stationary_presentation(cover, multiplicities)


# ---------------------------------------------------------------------------
# closing and regulation on the diagram side


def check_closing_bv(d: BratteliDiagram) -> Report:
    """Closing on the diagram side.

    Translates to the covering-side chain test when the diagram converts
    (nesting holds); without a conversion the verdict can still be HOLDS
    vacuously when no constant path exists, and is UNKNOWN otherwise.
    """
    if not d.stationary:
        return Report(
            tag="closing",
            verdict=UNKNOWN,
            details={"reason": "finite prefixes cannot certify closing"},
        )
    m = d.mono
    # a constant path climbs edges that are the only in-edge of their range;
    # read downward their sources form a map, and the path goes on forever
    # only round one of its cycles
    ins = {v: m.in_edges(v) for v in m.vertices}
    below = {v: m.src[es[0]] for v, es in ins.items() if len(es) == 1}
    if not graphs.map_cycles(below):
        return Report(
            tag="closing", verdict=HOLDS, details={"reason": "no constant paths"}
        )
    try:
        p = bv_to_weighted(d)
    except (NestingViolation, UndefinedVershik, CoverViolation) as exc:
        return Report(
            tag="closing", verdict=UNKNOWN, details={"reason": str(exc)}
        )
    inner = coverings.check_closing(p)
    return Report(
        tag="closing",
        verdict=inner.verdict,
        witnesses=inner.witnesses,
        details={"via": "covering conversion", **inner.details},
    )


def check_regulated_bv(d: BratteliDiagram, l_seq, n_max: int) -> Report:
    """Periodicity regulation on the diagram side (see check_closing_bv)."""
    seq = coverings._checked_l_seq(l_seq, n_max)
    if not d.stationary:
        return Report(
            tag="regulated",
            verdict=UNKNOWN,
            details={"reason": "finite prefixes cannot certify regulation"},
        )
    try:
        p = bv_to_weighted(d)
    except (NestingViolation, UndefinedVershik, CoverViolation) as exc:
        short_exists = any(
            path_count(d, v, n) <= seq[n - 1]
            for n in range(1, n_max + 1)
            for v in d.level_vertices(n)
        )
        if not short_exists:
            return Report(
                tag="regulated",
                verdict=HOLDS,
                details={"reason": "no vertex is short enough to need an orbit"},
            )
        return Report(tag="regulated", verdict=UNKNOWN, details={"reason": str(exc)})
    inner = coverings.check_regulated(p, seq, n_max)
    return Report(
        tag="regulated",
        verdict=inner.verdict,
        witnesses=inner.witnesses,
        details={"via": "covering conversion", **inner.details},
    )
