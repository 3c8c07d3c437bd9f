"""Ordered Bratteli diagrams, the lexicographic successor, and the
conversions between diagrams and covering presentations.

A diagram is either a finite prefix given level by level or a stationary
diagram generated by a mono-graph together with level-1 multiplicities.
Paths are tuples of edge ids from the root; two paths into the same
vertex compare by the rank of their edges at the deepest level where they
differ.  The successor of a path is the least strictly larger one, and
iterating it from the minimal path enumerates the whole fiber.

Every adjacency read goes through one index per diagram, built on first
use and kept on the diagram: per edge level, the edge table, the ranked
in-edges and the id-ordered out-edges of each vertex, and the position
of each edge among its siblings, all read-only.  A stationary diagram
indexes level 1 and shares one entry, its mono-graph's, among all deeper
levels.  Tower heights are kept on the diagram as well, level by level.
So a Vershik step costs the depth of its carry, whatever the number of
edges, and no routine rescans a level.
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
    NestingViolation,
    UndefinedVershik,
    UnsupportedKind,
)
from .graphs import EdgeIndex, index_edges
from .reports import FAILS, HOLDS, UNKNOWN, Report
from .stationary import MonoGraph

MAXIMAL = "MAXIMAL"
MINIMAL = "MINIMAL"

ROOT = "v0"


@dataclass(frozen=True)
class BratteliDiagram:
    """An ordered Bratteli diagram.

    ``kind`` is ``stationary`` (mono-graph template plus per-vertex
    level-1 multiplicities) or ``finite_prefix`` (explicit levels).  For
    finite prefixes ``levels[n]`` lists the level-n vertices and
    ``edge_levels[n - 1]`` maps the level-n edge ids to
    ``(src, rng, rank)`` triples.
    """

    kind: str
    mono: MonoGraph | None = None
    multiplicities: dict | None = field(default=None, hash=False)
    levels: tuple[tuple[str, ...], ...] = ()
    edge_levels: tuple[dict, ...] = field(default=(), hash=False)

    def depth(self) -> int | None:
        if self.kind == "stationary":
            return None
        return len(self.levels) - 1

    def _check_depth(self, n: int) -> None:
        limit = self.depth()
        if n < 0 or (limit is not None and n > limit):
            raise DepthOutOfRange(f"level {n} not materializable")

    def _table(self, n: int) -> dict:
        """The level-n edge table read off the fields, without the index."""
        if self.kind == "stationary":
            if n == 1:
                return {
                    f"{v}<{i}": (ROOT, v, i)
                    for v in sorted(self.mono.vertices)
                    for i in range(1, self.multiplicities[v] + 1)
                }
            m = self.mono
            return {e: (m.src[e], m.rng[e], m.rank[e]) for e in m.edges}
        return self.edge_levels[n - 1]

    @cached_property
    def _index(self) -> tuple[EdgeIndex, ...]:
        """One entry per edge level; the last one serves all deeper levels."""
        if self.kind == "stationary":
            return (index_edges(self._table(1)), self.mono._index)
        return tuple(index_edges(table) for table in self.edge_levels)

    @cached_property
    def _continuity(self) -> Report:
        """The continuity report of a stationary diagram, decided once."""
        return stationary.check_continuity(self.mono)

    @cached_property
    def _heights(self) -> list[dict]:
        """Tower heights by level, ``[n][v]`` = l(v), extended on demand."""
        return [{ROOT: 1}]

    @cached_property
    def _boundary(self) -> dict:
        """:func:`boundary_targets` by ``(vertex, delta)``, filled on demand."""
        return {}

    def _level(self, n: int) -> EdgeIndex:
        if n < 1:
            raise DepthOutOfRange("edge levels start at 1")
        self._check_depth(n)
        index = self._index
        return index[min(n, len(index)) - 1]

    def level_vertices(self, n: int) -> list[str]:
        self._check_depth(n)
        if n == 0:
            return [ROOT]
        if self.kind == "stationary":
            return sorted(self.mono.vertices)
        return sorted(self.levels[n])

    def level_edges(self, n: int) -> Mapping:
        """Level-n edges, read-only, as ``id -> (src, rng, rank)``; n >= 1."""
        return self._level(n).edges

    def in_edges(self, n: int, v: str) -> list[str]:
        """Level-n edges into ``v``, in rank order."""
        return list(self._level(n).ranked.get(v, ()))

    def edge_rng(self, n: int, e: str) -> str:
        return self._level(n).edges[e][1]


def stationary_diagram(mono: MonoGraph, multiplicities: dict) -> BratteliDiagram:
    return BratteliDiagram(
        kind="stationary", mono=mono, multiplicities=dict(multiplicities)
    )


def validate_diagram(d: BratteliDiagram, depth: int = 3) -> list[str]:
    """Invariant problems, read off the raw tables so loading stays index-free."""
    problems = []
    limit = d.depth()
    top = limit if limit is not None else depth
    for n in range(1, top + 1):
        table = d._table(n)
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
        if n < top:
            srcs = {s for (s, _, _) in d._table(n + 1).values()}
            for v in sorted(here - srcs):
                problems.append(f"no outgoing edge at {v} (level {n})")
    return problems


# ---------------------------------------------------------------------------
# paths


def _tower_heights(d: BratteliDiagram, n: int) -> list[dict]:
    """The memo of tower heights, filled level by level up to ``n``."""
    d._check_depth(n)
    heights = d._heights
    while len(heights) <= n:
        level = d._level(len(heights))
        below = heights[-1]
        heights.append(
            {
                v: sum(below[level.edges[e][0]] for e in ranked)
                for v, ranked in level.ranked.items()
            }
        )
    return heights


def enumerate_paths(d: BratteliDiagram, v: str, n: int) -> list[tuple[str, ...]]:
    """All paths from the root to ``v`` at level ``n``, in order."""
    d._check_depth(n)
    if n == 0:
        return [()]
    wanted = [{v}]
    for k in range(n, 1, -1):
        level = d._level(k)
        wanted.append(
            {level.edges[e][0] for w in wanted[-1] for e in level.ranked.get(w, ())}
        )
    paths = {ROOT: [()]}
    for k in range(1, n + 1):
        level = d._level(k)
        paths = {
            w: [
                q + (e,)
                for e in level.ranked.get(w, ())
                for q in paths[level.edges[e][0]]
            ]
            for w in wanted[n - k]
        }
    return paths[v]


def path_count(d: BratteliDiagram, v: str, n: int) -> int:
    """The tower height l(v): the number of paths from the root."""
    return _tower_heights(d, n)[n][v]


def path_rng(d: BratteliDiagram, p: tuple[str, ...]) -> str:
    if not p:
        return ROOT
    return d.edge_rng(len(p), p[-1])


def _extreme_path(d: BratteliDiagram, v: str, n: int, last: bool) -> tuple[str, ...]:
    """The least path to ``v`` at level ``n``, or the greatest when ``last``."""
    pick = -1 if last else 0
    path = [""] * n
    here = v
    for k in range(n, 0, -1):
        level = d._level(k)
        e = level.ranked.get(here, ())[pick]
        path[k - 1] = e
        here = level.edges[e][0]
    return tuple(path)


def minimal_path(d: BratteliDiagram, v: str, n: int) -> tuple[str, ...]:
    return _extreme_path(d, v, n, last=False)


def maximal_path(d: BratteliDiagram, v: str, n: int) -> tuple[str, ...]:
    return _extreme_path(d, v, n, last=True)


def path_index(d: BratteliDiagram, p: tuple[str, ...]) -> int:
    """The floor of ``p`` inside its tower: its position in path order.

    Each level adds the heights of the towers under the edges ranked
    below the path's own edge there.
    """
    if not p:
        return 0
    heights = _tower_heights(d, len(p) - 1)
    floor = 0
    for k, e in enumerate(p, start=1):
        level = d._level(k)
        below = heights[k - 1]
        edges = level.edges
        for f in level.ranked[edges[e][1]][: level.position[e]]:
            floor += below[edges[f][0]]
    return floor


def _step(d: BratteliDiagram, p: tuple[str, ...], delta: int):
    """The path ``delta`` (+1 or -1) places from ``p`` in path order.

    Bumps the shallowest edge that has a sibling on that side and resets
    the levels below it to the extreme path on the other side; returns
    MAXIMAL or MINIMAL when no edge can move.
    """
    for k, e in enumerate(p, start=1):
        level = d._level(k)
        siblings = level.ranked[level.edges[e][1]]
        i = level.position[e] + delta
        if 0 <= i < len(siblings):
            f = siblings[i]
            below = _extreme_path(d, level.edges[f][0], k - 1, last=delta < 0)
            return below + (f,) + p[k:]
    return MAXIMAL if delta > 0 else MINIMAL


def vershik_successor(d: BratteliDiagram, p: tuple[str, ...]):
    """The least path strictly above ``p``, or MAXIMAL."""
    return _step(d, p, 1)


def vershik_predecessor(d: BratteliDiagram, p: tuple[str, ...]):
    """The greatest path strictly below ``p``, or MINIMAL."""
    return _step(d, p, -1)


def _continuity_psi(d: BratteliDiagram) -> dict:
    if d.kind != "stationary":
        raise HorizonExceeded("no successor beyond the prefix of a finite diagram")
    report = d._continuity
    if report.verdict != HOLDS:
        raise UndefinedVershik("the diagram carries no continuous successor map")
    return report.details["psi"]


def successor_values(d: BratteliDiagram, p: tuple[str, ...]):
    """Depth-D truncations of successors of all points extending ``p``.

    Returns ``(values, exceptional)``.  For a non-maximal prefix the
    successor is determined by the prefix itself and the set is a
    singleton.  An all-maximal prefix is resolved exactly on straight
    stationary diagrams with the continuity condition: bumping each
    one-level-deeper extension, with the constant max column closed
    through psi.
    """
    return _step_values(d, p, 1)


def predecessor_values(d: BratteliDiagram, p: tuple[str, ...]):
    """The dual of :func:`successor_values` for the inverse map."""
    return _step_values(d, p, -1)


def _step_values(d: BratteliDiagram, p: tuple[str, ...], delta: int):
    """:func:`successor_values` for ``delta = 1``, its dual for ``delta = -1``.

    Past the boundary, each extension along the extreme edges is bumped
    to its neighbour on the ``delta`` side at the first edge that has
    one, with everything below reset to the opposite extreme; a constant
    extreme column closes through psi (its preimages going backwards).
    """
    nxt = _step(d, p, delta)
    if nxt not in (MAXIMAL, MINIMAL):
        return frozenset({nxt}), False
    targets = boundary_targets(d, path_rng(d, p), delta)
    return frozenset(_extreme_path(d, u, len(p), last=delta < 0) for u in targets), True


def boundary_targets(d: BratteliDiagram, v: str, delta: int) -> frozenset[str]:
    """Where the step past the end of ``v``'s tower lands, as vertices.

    For ``delta = 1`` the successors of the points over the maximal path
    into ``v`` start with the minimal paths into these vertices; for
    ``delta = -1`` the predecessors of the points over the minimal path
    end with their maximal paths.  Each extension along the extreme edges
    is bumped to its neighbour on the ``delta`` side at the first edge
    that has one, with everything below reset to the opposite extreme; a
    constant extreme column closes through psi (its preimages going
    backwards).  Decided once per (vertex, direction), kept on the diagram.
    """
    memo = d._boundary
    if (v, delta) in memo:
        return memo[v, delta]
    psi = _continuity_psi(d)
    forward = delta > 0
    boundary, reset = (-1, 0) if forward else (0, -1)
    m = d.mono
    ranked, position, out = m._index.ranked, m._index.position, m._index.out
    targets: set[str] = set()
    # each branch carries its own depth r and the vertices on its way up
    pending = [(v, 0, frozenset({v}))]
    while pending:
        here, r, seen = pending.pop()
        for e in out.get(here, ()):
            w = m.rng[e]
            if ranked[w][boundary] == e:
                if w == here:
                    if forward:
                        targets.add(psi[here])
                    else:
                        targets.update(u for u, t in psi.items() if t == here)
                elif w not in seen:
                    pending.append((w, r + 1, seen | {w}))
            else:
                u = m.src[ranked[w][position[e] + delta]]
                for _ in range(r):
                    u = m.src[ranked[u][reset]]
                targets.add(u)
    memo[v, delta] = frozenset(targets)
    return memo[v, delta]


def vershik_orbit(d: BratteliDiagram, p: tuple[str, ...], steps: int) -> list:
    """Iterated successors, stopping early at MAXIMAL."""
    orbit = [p]
    for _ in range(steps):
        nxt = vershik_successor(d, orbit[-1])
        orbit.append(nxt)
        if nxt == MAXIMAL:
            break
    return orbit


@dataclass(frozen=True)
class ExtremePrefix:
    path: tuple[str, ...]
    vertex: str
    extendable: bool
    straight: bool | None  # None when the diagram is not stationary


def min_max_paths(d: BratteliDiagram, n: int):
    """All-minimal and all-maximal depth-n prefixes with straightness flags.

    A prefix is extendable when it continues to an infinite extreme path;
    for stationary diagrams the flag is exact and ``straight`` marks the
    vertices whose extreme in-edge is a self-loop, so the continuation
    can repeat one edge forever.
    """

    def classify(kind: str) -> list[ExtremePrefix]:
        out = []
        last = kind == "max"
        pick = -1 if last else 0
        if d.kind == "stationary":
            m = d.mono
            extreme = m.max_edges() if last else m.min_edges()
            alive = stationary._infinite_walk_vertices(m, extreme)
            loops = m.max_loop_vertices() if last else m.min_loop_vertices()
        for v in d.level_vertices(n):
            path = _extreme_path(d, v, n, last)
            if d.kind == "stationary":
                out.append(
                    ExtremePrefix(path, v, extendable=v in alive, straight=v in loops)
                )
            else:
                limit = d.depth()
                here, ok = v, True
                for k in range(n + 1, (limit or n) + 1):
                    level = d._level(k)
                    nxt = [
                        e
                        for e in level.out.get(here, ())
                        if level.ranked[level.edges[e][1]][pick] == e
                    ]
                    if not nxt:
                        ok = False
                        break
                    here = level.edges[nxt[0]][1]
                out.append(ExtremePrefix(path, v, extendable=ok, straight=None))
        return out

    return classify("min"), classify("max")


# ---------------------------------------------------------------------------
# walks


def extend_walks(d: BratteliDiagram, walks, lo: int, hi: int) -> list:
    """Extend walks whose last edge sits at level ``lo`` up to level ``hi``.

    Each walk branches over the out-edges of its end vertex, in id order,
    one level at a time; the empty walk ends at the root.  Extensions
    keep the order of the walks they grow from.
    """
    walks = list(walks)
    for k in range(lo + 1, hi + 1):
        out = d._level(k).out
        if k == 1:
            walks = [w + (e,) for w in walks for e in out.get(ROOT, ())]
            continue
        edges = d._level(k - 1).edges
        walks = [w + (e,) for w in walks for e in out.get(edges[w[-1]][1], ())]
    return walks


# ---------------------------------------------------------------------------
# telescoping


def telescope_bv(d: BratteliDiagram, cut_points: list[int]) -> BratteliDiagram:
    """Telescope a diagram along increasing cut points.

    Stationary diagrams with arithmetic cuts K, 2K, ... stay stationary
    with the K-step power of the mono-graph; any other cut list yields a
    finite prefix whose level-i edges are the old paths between
    consecutive cuts, ordered lexicographically.
    """
    cuts = coverings._checked_cuts(cut_points, d.depth())
    if d.kind == "stationary":
        K = cuts[0]
        if all(c == K * (i + 1) for i, c in enumerate(cuts)):
            powered = stationary.mono_power(d.mono, K)
            mult = {
                v: path_count(d, v, K) for v in d.mono.vertices
            }
            return stationary_diagram(powered, mult)

    levels = [(ROOT,)]
    edge_levels = []
    prev = 0
    for cut in cuts:
        levels.append(tuple(d.level_vertices(cut)))
        table = {}
        # walks from level prev to level cut
        first = d._level(prev + 1).edges
        walks = extend_walks(d, [(e,) for e in first], prev + 1, cut)
        top = d._level(cut).edges
        by_target: dict[str, list] = {}
        for w in walks:
            by_target.setdefault(top[w[-1]][1], []).append(w)
        for v, group in by_target.items():
            group.sort(key=lambda w: _segment_rank_key(d, prev, w))
            for i, w in enumerate(group, start=1):
                table[" ".join(w)] = (first[w[0]][0], v, i)
        edge_levels.append(table)
        prev = cut
    return BratteliDiagram(
        kind="finite_prefix", levels=tuple(levels), edge_levels=tuple(edge_levels)
    )


def _segment_rank_key(d: BratteliDiagram, lo: int, w):
    return tuple(
        d._level(lo + 1 + i).edges[e][2] for i, e in enumerate(w)
    )[::-1]


# ---------------------------------------------------------------------------
# clusters and nesting


@dataclass(frozen=True)
class ClusterPartition:
    level: int
    clusters: tuple[frozenset, ...]
    certainty: str  # EXACT or DEPTH_LIMITED

    def cluster_of(self, v: str) -> frozenset:
        for c in self.clusters:
            if v in c:
                return c
        raise KeyError(v)


def _successor_projections(
    d: BratteliDiagram, prefix: tuple[str, ...], n: int, depth: int
) -> tuple[set, int]:
    """Depth-n truncations of successors of all extensions of ``prefix``.

    ``prefix`` must be all-maximal up to its own depth.  Returns the set
    of resolved truncations plus the number of extensions still maximal
    at ``depth``.
    """
    k = len(prefix)
    if k >= depth:
        return set(), 1
    resolved = set()
    unresolved = 0
    level = d._level(k + 1)
    for e in level.out.get(path_rng(d, prefix), ()):
        ext = prefix + (e,)
        if level.ranked[level.edges[e][1]][-1] == e:
            deeper, stuck = _successor_projections(d, ext, n, depth)
            resolved |= deeper
            unresolved += stuck
        else:
            succ = vershik_successor(d, ext)
            resolved.add(succ[:n])
    return resolved, unresolved


def _max_tail_targets(d: BratteliDiagram, v: str, n: int) -> set:
    """Successor images of the all-maximal points above vertex ``v``.

    Only available for straight stationary diagrams whose mono-graph has
    the continuity condition; the image of the all-max point through a
    max self-loop at ``v`` is the all-min point through psi(v).
    """
    report = d._continuity
    if report.verdict != HOLDS:
        raise UndefinedVershik("no continuous successor map exists")
    psi = report.details["psi"]
    if v not in psi:
        raise UndefinedVershik(f"no successor for the maximal point over {v}")
    return {minimal_path(d, psi[v], n)}


def clusters(d: BratteliDiagram, n: int, depth: int | None = None) -> ClusterPartition:
    """The partition of level-n bases glued by successor images of tops.

    Two bases join when the successor image of some tower top meets both.
    Resolution probes extensions up to ``depth``; for straight stationary
    diagrams with the continuity condition the all-maximal leftovers are
    resolved exactly and the partition is EXACT.
    """
    depth = depth if depth is not None else n + 2
    limit = d.depth()
    if limit is not None:
        depth = min(depth, limit)
    verts = d.level_vertices(n)
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

    minpaths = {v: minimal_path(d, v, n) for v in verts}
    certainty = "EXACT"
    stationary_straight = (
        d.kind == "stationary" and stationary.is_straight(d.mono)
    )
    for v in verts:
        top = maximal_path(d, v, n)
        projections, unresolved = _successor_projections(d, top, n, depth)
        if unresolved:
            if stationary_straight:
                projections |= _max_tail_targets(d, v, n)
            else:
                certainty = "DEPTH_LIMITED"
        hit = [w for w in verts if minpaths[w] in projections]
        for a, b in zip(hit, hit[1:]):
            union(a, b)
    groups: dict[str, set] = {}
    for v in verts:
        groups.setdefault(find(v), set()).add(v)
    ordered = tuple(
        frozenset(groups[root]) for root in sorted(groups)
    )
    if d.kind == "stationary" and not stationary_straight:
        certainty = "DEPTH_LIMITED"
    return ClusterPartition(level=n, clusters=ordered, certainty=certainty)


def check_nesting(d: BratteliDiagram, n: int, depth: int | None = None) -> Report:
    """Does every level-(n+1) cluster sit inside one level-n base?"""
    part = clusters(d, n + 1, depth)
    for cluster in part.clusters:
        truncations = {
            v: minimal_path(d, v, n + 1)[:n] for v in sorted(cluster)
        }
        distinct = set(truncations.values())
        witnesses = tuple(sorted(cluster))
        if len(distinct) > 1:
            return Report(
                tag="nesting",
                verdict=FAILS,
                witnesses=witnesses,
                details={
                    "level": n,
                    "reason": "cluster bases project to different level-n paths",
                    "projections": truncations,
                    "certainty": part.certainty,
                },
            )
        q = distinct.pop()
        host = path_rng(d, q)
        if q != minimal_path(d, host, n):
            return Report(
                tag="nesting",
                verdict=FAILS,
                witnesses=witnesses,
                details={
                    "level": n,
                    "reason": "cluster sits inside a tower interior, not a base",
                    "projection": q,
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
    position, so tower heights equal edge lengths.  A finite prefix whose
    last cover repeats has no diagram form and raises UnsupportedKind.
    """
    if p.kind == "stationary":
        g = p.self_cover.domain
        table = {}
        for w in sorted(g.edges):
            walk = p.self_cover.emap[w]
            for i, q in enumerate(walk, start=1):
                table[f"{q}>{w}:{i}"] = (q, w, i)
        mono = stationary.mono_graph(g.edges, table)
        return stationary_diagram(mono, dict(p.multiplicities))
    top = p.depth()
    if top is None:
        raise UnsupportedKind(
            "no diagram form for a covering whose last cover repeats"
        )
    levels = [(ROOT,)]
    edge_levels = []
    for n in range(1, top + 1):
        g = coverings.level_graph(p, n)
        levels.append(tuple(sorted(g.edges)))
        table = {}
        cov = coverings.cover_at(p, n)
        if n == 1:
            for e in sorted(g.edges):
                for i in range(1, g.length[e] + 1):
                    table[f"{e}<{i}"] = (ROOT, e, i)
        else:
            for w in sorted(g.edges):
                for i, q in enumerate(cov.emap[w], start=1):
                    table[f"{q}>{w}:{i}"] = (q, w, i)
        edge_levels.append(table)
    return BratteliDiagram(
        kind="finite_prefix", levels=tuple(levels), edge_levels=tuple(edge_levels)
    )


def bv_to_weighted(d: BratteliDiagram, probe_levels: int = 3):
    """Rewrite a stationary diagram as a stationary covering presentation.

    Needs the nesting property at the probed levels.  Covering vertices
    are the base clusters, covering edges are the diagram vertices, and
    the expansion of an edge lists the sources of its ranked in-edges.
    """
    if d.kind != "stationary":
        raise UnsupportedKind(
            "only stationary diagrams convert back to covering presentations"
        )
    for n in range(1, probe_levels + 1):
        report = check_nesting(d, n)
        if report.verdict == FAILS:
            raise NestingViolation(f"nesting fails at level {n}: {report.witnesses}")
        if report.verdict == UNKNOWN:
            raise UndefinedVershik(
                f"cluster resolution is depth-limited at level {n}"
            )
    parts = [clusters(d, n) for n in range(1, probe_levels + 1)]
    partition = {
        frozenset(c) for c in parts[0].clusters
    }
    for part in parts[1:]:
        if {frozenset(c) for c in part.clusters} != partition:
            raise UndefinedVershik("cluster partition is not level-stationary")

    def cluster_name(c: frozenset) -> str:
        return "+".join(sorted(c))

    m = d.mono
    n0 = 1
    part = parts[0]
    minpaths = {v: minimal_path(d, v, n0) for v in d.level_vertices(n0)}
    src_cluster = {v: cluster_name(part.cluster_of(v)) for v in m.vertices}
    rng_cluster = {}
    for v in sorted(m.vertices):
        top = maximal_path(d, v, n0)
        projections, unresolved = _successor_projections(d, top, n0, n0 + 2)
        if unresolved:
            projections |= _max_tail_targets(d, v, n0)
        hits = {w for w in m.vertices if minpaths[w] in projections}
        if not hits:
            raise NestingViolation(f"tower top of {v} escapes every base")
        host_clusters = {cluster_name(part.cluster_of(w)) for w in hits}
        if len(host_clusters) > 1:
            raise NestingViolation(f"tower top of {v} lands in two clusters")
        rng_cluster[v] = host_clusters.pop()

    vertices = {cluster_name(frozenset(c)) for c in partition}
    edge_table = {
        v: (src_cluster[v], rng_cluster[v]) for v in m.vertices
    }
    g = graphs.flexible(vertices, edge_table)
    emap = {
        v: tuple(m.src[e] for e in m.in_edges(v)) for v in m.vertices
    }
    vmap = {}
    for c in partition:
        v = sorted(c)[0]
        q = minimal_path(d, v, n0 + 1)[:n0]
        host = path_rng(d, q)
        vmap[cluster_name(c)] = cluster_name(part.cluster_of(host))
    cover = graphs.Cover(domain=g, codomain=g, vmap=vmap, emap=emap)
    problems = graphs.cover_violations(cover)
    if problems or not graphs.is_weighted_cover(cover):
        raise CoverViolation(
            "recovered self-cover is not a flexible cover: " + "; ".join(problems)
        )
    multiplicities = {v: path_count(d, v, 1) for v in m.vertices}
    return coverings.stationary_presentation(cover, multiplicities)


# ---------------------------------------------------------------------------
# closing and regulation on the diagram side


def _unique_in_chain_heads(d: BratteliDiagram) -> tuple[set, dict]:
    """Vertices heading an infinite path of unique in-edges above them.

    Returns the set of such vertices and the one-step relation
    ``v -> w`` meaning the only in-edge of ``w`` starts at ``v``.
    """
    m = d.mono
    step: dict[str, set] = {v: set() for v in m.vertices}
    for w in m.vertices:
        ranked = m.in_edges(w)
        if len(ranked) == 1:
            step[m.src[ranked[0]]].add(w)
    alive = set(m.vertices)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not (step[v] & alive):
                alive.discard(v)
                changed = True
    return alive, step


def check_closing_bv(d: BratteliDiagram) -> Report:
    """Closing on the diagram side.

    Translates to the covering-side chain test when the diagram converts
    (nesting holds); without a conversion the verdict can still be HOLDS
    vacuously when no constant path exists, and is UNKNOWN otherwise.
    """
    if d.kind != "stationary":
        return Report(
            tag="closing",
            verdict=UNKNOWN,
            details={"reason": "finite prefixes cannot certify closing"},
        )
    heads, _ = _unique_in_chain_heads(d)
    if not heads:
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
    if d.kind != "stationary":
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
