"""Clusters found by a depth-limited successor search, the oracle of the tests.

The library decides where the step past a tower top lands in one climb
of vertices over the levels, ``bratteli._tower_end``, on every diagram.
Here the image is searched for over paths instead: every extension of
the top, a tuple of edge ids, is followed two levels deep and bumped
with :func:`bratteli.vershik_successor`, and an extension still maximal
there, a constant max column, lands where psi sends the top's vertex.  The nesting check and the
back-conversion to a covering are rebuilt on these clusters, the
conversion with its ranges read off the same search.
"""

from zdyn import bratteli, coverings, graphs, stationary
from zdyn.bratteli import ClusterPartition, minimal_path
from zdyn.errors import CoverViolation, NestingViolation, UndefinedVershik, UnsupportedKind
from zdyn.reports import FAILS, HOLDS, UNKNOWN, Report

from helpers import maximal_path, path_rng


def successor_projections(d, prefix, n, depth):
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
            deeper, stuck = successor_projections(d, ext, n, depth)
            resolved |= deeper
            unresolved += stuck
        else:
            resolved.add(bratteli.vershik_successor(d, ext)[:n])
    return resolved, unresolved


def max_tail_targets(d, v, n):
    """The successor image of the all-maximal point over ``v``: psi(v)'s base."""
    report = d._continuity
    if report.verdict != HOLDS:
        raise UndefinedVershik("no continuous successor map exists")
    psi = report.details["psi"]
    if v not in psi:
        raise UndefinedVershik(f"no successor for the maximal point over {v}")
    return {minimal_path(d, psi[v], n)}


def top_images(d, v, n, straight):
    """The searched successor truncations of ``v``'s top, and whether exact."""
    limit = d.depth()
    depth = n + 2 if limit is None else min(n + 2, limit)
    projections, unresolved = successor_projections(d, maximal_path(d, v, n), n, depth)
    if unresolved and straight:
        return projections | max_tail_targets(d, v, n), True
    return projections, not unresolved


def clusters(d, n):
    verts = d.level_vertices(n)
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    minpaths = {v: minimal_path(d, v, n) for v in verts}
    straight = d.stationary and stationary.is_straight(d.mono)
    certainty = "EXACT"
    for v in verts:
        projections, exact = top_images(d, v, n, straight)
        if not exact:
            certainty = "DEPTH_LIMITED"
        hit = [w for w in verts if minpaths[w] in projections]
        for a, b in zip(hit, hit[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in verts:
        groups.setdefault(find(v), set()).add(v)
    if d.stationary and not straight:
        certainty = "DEPTH_LIMITED"
    ordered = tuple(frozenset(groups[root]) for root in sorted(groups))
    return ClusterPartition(level=n, clusters=ordered, certainty=certainty)


def check_nesting(d, n):
    d._check_depth(n)
    part = clusters(d, n + 1)
    for cluster in part.clusters:
        truncations = {v: minimal_path(d, v, n + 1)[:n] for v in sorted(cluster)}
        distinct = set(truncations.values())
        witnesses = tuple(sorted(cluster))
        details = {"level": n}
        if len(distinct) > 1:
            details["reason"] = "cluster bases project to different level-n paths"
            details["projections"] = truncations
        else:
            q = distinct.pop()
            if q == minimal_path(d, path_rng(d, q), n):
                continue
            details["reason"] = "cluster sits inside a tower interior, not a base"
            details["projection"] = q
        details["certainty"] = part.certainty
        return Report(tag="nesting", verdict=FAILS, witnesses=witnesses, details=details)
    verdict = HOLDS if part.certainty == "EXACT" else UNKNOWN
    return Report(
        tag="nesting", verdict=verdict, details={"level": n, "certainty": part.certainty}
    )


def cluster_of(part, v):
    """The cluster of ``part`` that holds ``v``."""
    for c in part.clusters:
        if v in c:
            return c
    raise KeyError(v)


def bv_to_weighted(d):
    """The back-conversion on the searched clusters, checked at levels 1-3."""
    if not d.stationary:
        raise UnsupportedKind(
            "only stationary diagrams convert back to covering presentations"
        )
    for n in range(1, 4):
        report = check_nesting(d, n)
        if report.verdict == FAILS:
            raise NestingViolation(f"nesting fails at level {n}: {report.witnesses}")
        if report.verdict == UNKNOWN:
            raise UndefinedVershik(f"cluster resolution is depth-limited at level {n}")
    parts = [clusters(d, n) for n in range(1, 4)]
    partition = set(parts[0].clusters)
    if any(set(part.clusters) != partition for part in parts[1:]):
        raise UndefinedVershik("cluster partition is not level-stationary")
    part = parts[0]

    def cluster_name(c):
        return "+".join(sorted(c))

    m = d.mono
    minpaths = {v: minimal_path(d, v, 1) for v in d.level_vertices(1)}
    edge_table = {}
    for v in sorted(m.vertices):
        projections, _ = top_images(d, v, 1, True)
        hits = {w for w in m.vertices if minpaths[w] in projections}
        if not hits:
            raise NestingViolation(f"tower top of {v} escapes every base")
        hosts = {cluster_name(cluster_of(part, w)) for w in hits}
        if len(hosts) > 1:
            raise NestingViolation(f"tower top of {v} lands in two clusters")
        edge_table[v] = (cluster_name(cluster_of(part, v)), hosts.pop())
    g = graphs.flexible({cluster_name(c) for c in partition}, edge_table)
    emap = {v: tuple(m.src[e] for e in m.in_edges(v)) for v in m.vertices}
    vmap = {}
    for c in partition:
        host = path_rng(d, minimal_path(d, sorted(c)[0], 2)[:1])
        vmap[cluster_name(c)] = cluster_name(cluster_of(part, host))
    cover = graphs.Cover(domain=g, codomain=g, vmap=vmap, emap=emap)
    problems = graphs.cover_violations(cover)
    if problems or not graphs.cover_flags(cover).weighted:
        raise CoverViolation(
            "recovered self-cover is not a flexible cover: " + "; ".join(problems)
        )
    multiplicities = {v: bratteli.path_count(d, v, 1) for v in m.vertices}
    return coverings.stationary_presentation(cover, multiplicities)
