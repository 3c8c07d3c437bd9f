"""Straightening, continuity, and the overlap criterion.

A mono-graph is the one-level template behind a stationary ordered
Bratteli diagram: a :class:`~zdyn.graphs.Graph` whose ``rank`` orders
the in-edges at each vertex, an order repeated at every level.  The
module decides when such a template is *straight* (all extreme infinite
paths level-constant), finds the telescoping power that makes it
straight, and decides the continuity condition that is equivalent to the
diagram carrying a continuous successor map.

The second half of the module analyzes flexible self-covers: limit
vertices and limit first/last edges, constant sequences, and the overlap
search that certifies bijectivity of the canonical row-1 injection.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from . import graphs
from .errors import CoverViolation, DomainMismatch, InvalidParameter, NotStraight
from .graphs import Cover, Graph, cover_power, mono_graph, read_only_fields
from .reports import FAILS, HOLDS, UNKNOWN, Report


# ---------------------------------------------------------------------------
# straightness


def straightness_violations(m: Graph) -> list[str]:
    """Empty iff the mono-graph is straight.

    Straight means that every extreme (max or min) in-edge starts at a
    vertex carrying an extreme self-loop: the extreme-source maps
    f_max and f_min of :meth:`Graph.extreme_sources` are idempotent.
    A forever walk of extreme edges runs round the cycle vertices of f,
    which idempotence makes fixed, so it is a repeated loop.  For max,
    then min, the problems name the extreme in-edges of cycle vertices
    that are not loops, then the vertices whose extreme in-edge starts
    outside the loop vertices.
    """
    problems = []
    for label, last in (("max", True), ("min", False)):
        f = m.extreme_sources(last)
        walks = sorted(
            m.in_edges(v)[-1 if last else 0]
            for v in graphs.map_cycles(f)
            if f[v] != v
        )
        problems += [f"non-constant infinite {label} walk via {e}" for e in walks]
        problems += [
            f"{label} in-edge of {v} starts outside the {label}-loop vertices"
            for v in sorted(m.vertices)
            if f[f[v]] != f[v]
        ]
    return problems


def is_straight(m: Graph) -> bool:
    return all(_idempotent(m.extreme_sources(last)) for last in (True, False))


def _idempotent(f: Mapping) -> bool:
    return all(f[y] == y for y in f.values())


def _straight_power(maps, cap: int) -> tuple[int, list[dict]]:
    """The least K <= ``cap`` whose K-th powers of ``maps`` are all idempotent.

    Returns K and those powers.  Maps of a finite set into itself have
    idempotent powers, so K exists; the cap only guards against runaway
    search.
    """
    powers = [dict(f) for f in maps]
    for K in range(1, cap + 1):
        if all(map(_idempotent, powers)):
            return K, powers
        powers = [{x: f[y] for x, y in p.items()} for f, p in zip(maps, powers)]
    raise NotStraight(f"no straight power found up to K={cap}")


def mono_power(m: Graph, K: int) -> Graph:
    """The mono-graph whose edges are K-step walks of ``m``.

    Edge ids join the constituent edge ids with spaces.  A walk ranks by
    its place among the walks into its end in path order, which compares
    their rank sequences from the deep end: the lexicographic path order
    of the generated diagram.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if K == 1:
        return m
    walks = graphs.paths_into([m._index] * K, m.vertices)
    table = {
        " ".join(w): (m.src[w[0]], v, i)
        for v, group in sorted(walks.items())
        for i, w in enumerate(group, start=1)
    }
    return mono_graph(m.vertices, table)


def straighten_mono(m: Graph) -> tuple[int, Graph]:
    """Smallest power K with ``mono_power(m, K)`` straight, and that power.

    The maximal (minimal) walk of K steps into a vertex starts at the
    K-th image of the vertex under f_max (f_min), so the extreme-source
    maps of the K-th power are the K-th powers of those of ``m``; K is
    found on the maps, up to 24, and only that power is built.
    """
    K, _ = _straight_power([m.extreme_sources(last) for last in (True, False)], 24)
    return K, mono_power(m, K)


# ---------------------------------------------------------------------------
# continuity condition


def check_continuity(m: Graph) -> Report:
    """Decide whether a straight mono-graph has the continuity condition.

    The condition asks for a surjective map ``psi`` from max-loop
    vertices to min-loop vertices with
    ``psi(max(s(e))) = min(s(serial(e)))`` for every non-maximal edge
    ``e``.  Existence of such a map is exactly what lets the stationary
    diagram carry a continuous successor map.
    """
    if not is_straight(m):
        raise NotStraight("; ".join(straightness_violations(m)))
    f_max, f_min = m.extreme_sources(last=True), m.extreme_sources(last=False)
    vmax1 = {v for v, u in f_max.items() if u == v}
    vmin1 = {v for v, u in f_min.items() if u == v}
    psi: dict[str, str] = {}
    for e in sorted(m.edges):
        nxt = m.serial(e)
        if nxt is None:
            continue
        key = f_max[m.src[e]]
        val = f_min[m.src[nxt]]
        if key in psi and psi[key] != val:
            return Report(
                tag="continuity",
                verdict=FAILS,
                witnesses=((key, psi[key], val),),
                details={"reason": "conflicting serial-edge constraints"},
            )
        psi[key] = val
    free = sorted(vmax1 - set(psi))
    missing = sorted(vmin1 - set(psi.values()))
    if len(missing) > len(free):
        return Report(
            tag="continuity",
            verdict=FAILS,
            witnesses=tuple(missing),
            details={"reason": "no surjection onto the min-loop vertices"},
        )
    for key, val in zip(free, missing):
        psi[key] = val
    fallback = min(vmin1) if vmin1 else None
    for key in free[len(missing):]:
        psi[key] = fallback
    return Report(tag="continuity", verdict=HOLDS, details={"psi": dict(sorted(psi.items()))})


# ---------------------------------------------------------------------------
# self-cover analysis


@dataclass(frozen=True)
class SelfCoverAnalysis:
    """A flexible self-cover raised to its straightening power.

    ``cover`` is the straight power; ``lim_v``, ``lim_f`` and ``lim_l``
    are the read-only idempotent limit maps on vertices, first edges, and
    last edges, with image sets exposed separately.
    """

    base: Cover
    exponent: int
    cover: Cover
    lim_v: Mapping = field(hash=False)
    lim_f: Mapping = field(hash=False)
    lim_l: Mapping = field(hash=False)

    def __post_init__(self):
        read_only_fields(self, "lim_v", "lim_f", "lim_l")

    @property
    def graph(self) -> Graph:
        return self.cover.domain

    @property
    def lim_vertices(self) -> frozenset[str]:
        return frozenset(self.lim_v.values())

    @property
    def lim_first(self) -> frozenset[str]:
        return frozenset(self.lim_f.values())

    @property
    def lim_last(self) -> frozenset[str]:
        return frozenset(self.lim_l.values())


def analyze_self_cover(cover: Cover) -> SelfCoverAnalysis:
    """Straighten a flexible self-cover.

    Finds the least exponent K, up to 256, for which the K-th powers of
    the vertex map, the first-edge map, and the last-edge map are all
    idempotent; the K-th power of the cover is then straight and the
    images of those idempotent maps are the limit vertex and edge sets.
    """
    if cover.domain != cover.codomain:
        raise DomainMismatch("analyze_self_cover needs a self-cover")
    if not graphs.check_cover(cover).weighted:
        raise CoverViolation("not a flexible cover")
    first = {e: cover.emap[e][0] for e in cover.domain.edges}
    last = {e: cover.emap[e][-1] for e in cover.domain.edges}
    K, (lim_v, lim_f, lim_l) = _straight_power((cover.vmap, first, last), 256)
    return SelfCoverAnalysis(
        base=cover,
        exponent=K,
        cover=cover_power(cover, K),
        lim_v=lim_v,
        lim_f=lim_f,
        lim_l=lim_l,
    )


# ---------------------------------------------------------------------------
# constant sequences


@dataclass(frozen=True)
class ConstantSequence:
    """A vertex itinerary through edges fixed by the self-cover.

    Length-1 sequences carry an empty walk; longer ones list the fixed
    edges connecting consecutive vertices.  The walk is unique for its
    vertex sequence because co-sourced fixed edges would break the
    +directionality of the cover.
    """

    vertices: tuple[str, ...]
    walk: tuple[str, ...]


@dataclass(frozen=True)
class ConstantFamily:
    """An unbounded family of constant sequences over a fixed-edge cycle."""

    cycle: tuple[str, ...]


@dataclass(frozen=True)
class ConstantSequenceReport:
    sequences: tuple[ConstantSequence, ...]
    families: tuple[ConstantFamily, ...]
    fixed_edges: frozenset[str]


def constant_sequences(a: SelfCoverAnalysis, k_max: int) -> ConstantSequenceReport:
    """All constant sequences of length at most ``k_max``."""
    if k_max < 1:
        raise InvalidParameter(f"k_max must be at least 1, got {k_max}")
    g = a.graph
    fixed = frozenset(e for e in g.edges if a.cover.emap[e] == (e,))
    next_edge = {g.src[e]: e for e in fixed}
    sequences: list[ConstantSequence] = []
    for v in sorted(a.lim_vertices):
        vertices = [v]
        walk: list[str] = []
        sequences.append(ConstantSequence((v,), ()))
        here = v
        while len(vertices) < k_max and here in next_edge:
            e = next_edge[here]
            walk.append(e)
            here = g.rng[e]
            vertices.append(here)
            sequences.append(ConstantSequence(tuple(vertices), tuple(walk)))
    sequences.sort(key=lambda s: (len(s.vertices), s.vertices))
    report = graphs.enumerate_circuits(
        graphs.flexible(g.vertices, {e: (g.src[e], g.rng[e]) for e in fixed}),
        max_len=max(1, len(g.vertices)),
    ) if fixed else None
    families = tuple(
        ConstantFamily(c) for c in (report.circuits if report else ())
    )
    return ConstantSequenceReport(tuple(sequences), families, fixed)


# ---------------------------------------------------------------------------
# overlap


def _contains(word: tuple[str, ...], pattern: tuple[str, ...]) -> bool:
    n, k = len(word), len(pattern)
    return any(word[i : i + k] == pattern for i in range(n - k + 1))


def _max_flanked_run(
    word: tuple[str, ...], e0: str, cycle: tuple[str, ...], ek: str
) -> int:
    """Largest j with ``e0 cycle^j ek`` a factor of ``word``."""
    j = 1
    while _contains(word, (e0,) + cycle * j + (ek,)):
        j += 1
    return j - 1


def check_overlap(
    a: SelfCoverAnalysis, k_max: int = 4, depth_max: int = 6
) -> Report:
    """Search expansions for every extreme flanking of a constant sequence.

    A sequence with vertex itinerary v1..vk is overlapped once, for every
    limit-last edge e0 into v1 and the unique limit-first edge ek out of
    vk, the word e0 (walk) ek occurs inside some iterated expansion.
    Families over fixed cycles are certified by a strictly growing
    flanked run.  The overall verdict is BIJECTIVE only when everything
    is witnessed; the search never extrapolates beyond ``depth_max``.
    The expansion at depth n is built when a search first reads it, each
    word from the words of the depth before, so a shallow witness builds
    no deeper word.
    """
    if depth_max < 1:
        raise InvalidParameter(f"depth_max must be at least 1, got {depth_max}")
    g = a.graph
    report = constant_sequences(a, k_max)
    emap = a.cover.emap
    expansions = [{e: tuple(emap[e]) for e in g.edges}]

    def expansion(n: int) -> dict[str, tuple[str, ...]]:
        while len(expansions) < n:
            words = expansions[-1]
            expansions.append(
                {e: tuple(f for x in words[e] for f in emap[x]) for e in g.edges}
            )
        return expansions[n - 1]

    first_out = {}
    for e in sorted(a.lim_first):
        first_out.setdefault(g.src[e], e)

    results = []
    unwitnessed = []
    for seq in report.sequences:
        v1, vk = seq.vertices[0], seq.vertices[-1]
        ek = first_out.get(vk)
        for e0 in sorted(e for e in a.lim_last if g.rng[e] == v1):
            pattern = (e0,) + seq.walk + (ek,)
            hit = None
            for n in range(1, depth_max + 1):
                for e in sorted(g.edges):
                    if _contains(expansion(n)[e], pattern):
                        hit = {"edge": e, "depth": n}
                        break
                if hit:
                    break
            entry = {
                "sequence": seq.vertices,
                "e0": e0,
                "ek": ek,
                "verdict": "OVERLAPPED" if hit else UNKNOWN,
                "witness": hit,
            }
            results.append(entry)
            if not hit:
                unwitnessed.append((seq.vertices, e0, ek))

    family_results = []
    for family in report.families:
        cycle = family.cycle
        v1 = g.src[cycle[0]]
        vk = g.rng[cycle[-1]]
        ek = first_out.get(vk)
        for e0 in sorted(e for e in a.lim_last if g.rng[e] == v1):
            hit = None
            for n in range(1, depth_max):
                for e in sorted(g.edges):
                    run = _max_flanked_run(expansion(n)[e], e0, cycle, ek)
                    if run >= 2:
                        deeper = _max_flanked_run(
                            expansion(n + 1)[e], e0, cycle, ek
                        )
                        if deeper > run:
                            hit = {
                                "edge": e,
                                "depth": n,
                                "run": run,
                                "deeper_run": deeper,
                            }
                            break
                if hit:
                    break
            entry = {
                "cycle": cycle,
                "e0": e0,
                "ek": ek,
                "verdict": "CERTIFIED" if hit else UNKNOWN,
                "witness": hit,
            }
            family_results.append(entry)
            if not hit:
                unwitnessed.append((cycle, e0, ek))

    overall = "BIJECTIVE" if not unwitnessed else UNKNOWN
    return Report(
        tag="overlap",
        verdict=overall,
        witnesses=tuple(unwitnessed),
        details={"sequences": results, "families": family_results},
    )
