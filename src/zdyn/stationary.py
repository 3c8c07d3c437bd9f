"""Mono-graphs, straightening, continuity, and the overlap criterion.

A mono-graph is the one-level template behind a stationary ordered
Bratteli diagram: its in-edges at each vertex carry a rank order that is
repeated at every level.  The module decides when such a template is
*straight* (all extreme infinite paths level-constant), finds the
telescoping power that makes it straight, and decides the continuity
condition that is equivalent to the diagram carrying a continuous
successor map.

The second half of the module analyzes flexible self-covers: limit
vertices and limit first/last edges, constant sequences, and the overlap
search that certifies bijectivity of the canonical row-1 injection.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from . import graphs
from .errors import NotStraight
from .graphs import Cover, EdgeIndex, Graph, cover_power, index_edges, read_only_fields
from .reports import FAILS, HOLDS, UNKNOWN, Report


# ---------------------------------------------------------------------------
# mono-graphs


@dataclass(frozen=True)
class MonoGraph:
    """A finite ordered graph with ranked in-edges at every vertex.

    The record keeps ``src``, ``rng`` and ``rank`` read-only; adjacency
    reads go through one :class:`EdgeIndex`, built on first use.
    """

    vertices: frozenset[str]
    edges: frozenset[str]
    src: Mapping = field(hash=False)
    rng: Mapping = field(hash=False)
    rank: Mapping = field(hash=False)

    def __post_init__(self):
        read_only_fields(self, "src", "rng", "rank")

    @cached_property
    def _index(self) -> EdgeIndex:
        return index_edges(
            {e: (self.src[e], self.rng[e], self.rank[e]) for e in self.edges}
        )

    def in_edges(self, v: str) -> list[str]:
        """In-edges of ``v`` in rank order."""
        return list(self._index.ranked.get(v, ()))

    def out_edges(self, v: str) -> list[str]:
        return list(self._index.out.get(v, ()))

    def e_max(self, v: str) -> str:
        return self._index.ranked.get(v, ())[-1]

    def e_min(self, v: str) -> str:
        return self._index.ranked.get(v, ())[0]

    def max_edges(self) -> frozenset[str]:
        return frozenset(self.e_max(v) for v in self.vertices)

    def min_edges(self) -> frozenset[str]:
        return frozenset(self.e_min(v) for v in self.vertices)

    def serial(self, e: str) -> str | None:
        """The next-ranked in-edge after ``e``, or None for a maximal edge."""
        index = self._index
        ranked = index.ranked[self.rng[e]]
        i = index.position[e] + 1
        return ranked[i] if i < len(ranked) else None

    def max_loop_vertices(self) -> frozenset[str]:
        """Sources of maximal self-loops."""
        return frozenset(
            self.src[e]
            for e in self.max_edges()
            if self.src[e] == self.rng[e]
        )

    def min_loop_vertices(self) -> frozenset[str]:
        return frozenset(
            self.src[e]
            for e in self.min_edges()
            if self.src[e] == self.rng[e]
        )

    def max_of(self, v: str) -> str:
        return self.src[self.e_max(v)]

    def min_of(self, v: str) -> str:
        return self.src[self.e_min(v)]


def mono_graph(vertices, edge_table) -> MonoGraph:
    """``edge_table`` maps edge id to ``(src, rng, rank)``."""
    return MonoGraph(
        vertices=frozenset(vertices),
        edges=frozenset(edge_table),
        src={e: t[0] for e, t in edge_table.items()},
        rng={e: t[1] for e, t in edge_table.items()},
        rank={e: t[2] for e, t in edge_table.items()},
    )


def validate_mono(m: MonoGraph, surjective: bool = True) -> list[str]:
    problems = []
    sources = {m.src[e] for e in m.edges}
    ranks_at: dict[str, list[int]] = {}
    for e in m.edges:
        ranks_at.setdefault(m.rng[e], []).append(m.rank[e])
    for v in sorted(m.vertices):
        ranks = sorted(ranks_at.get(v, ()))
        if not ranks:
            problems.append(f"no incoming edge at {v}")
            continue
        if ranks != list(range(1, len(ranks) + 1)):
            problems.append(f"rank gap at vertex {v}")
        if surjective and v not in sources:
            problems.append(f"no outgoing edge at {v}")
    return problems


# ---------------------------------------------------------------------------
# straightness


def _infinite_walk_vertices(m: MonoGraph, subgraph: frozenset[str]) -> set[str]:
    """Vertices from which some infinite walk inside ``subgraph`` starts."""
    alive = set(m.vertices)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not any(
                m.src[e] == v and m.rng[e] in alive for e in subgraph
            ):
                alive.discard(v)
                changed = True
    return alive


def straightness_violations(m: MonoGraph) -> list[str]:
    """Empty iff the mono-graph is straight.

    Straightness has two parts: every infinite walk of extreme (max or
    min) edges must be constant, i.e. a repeated self-loop, and every
    extreme in-edge must have its source at a vertex that already carries
    an extreme self-loop.
    """
    problems = []
    for label, extreme, loops in (
        ("max", m.max_edges(), m.max_loop_vertices()),
        ("min", m.min_edges(), m.min_loop_vertices()),
    ):
        alive = _infinite_walk_vertices(m, extreme)
        for e in sorted(extreme):
            if m.rng[e] in alive and m.src[e] != m.rng[e]:
                problems.append(f"non-constant infinite {label} walk via {e}")
        for v in sorted(m.vertices):
            e = m.e_max(v) if label == "max" else m.e_min(v)
            if m.src[e] not in loops:
                problems.append(
                    f"{label} in-edge of {v} starts outside the {label}-loop vertices"
                )
    return problems


def is_straight(m: MonoGraph) -> bool:
    return not straightness_violations(m)


def mono_power(m: MonoGraph, K: int) -> MonoGraph:
    """The mono-graph whose edges are K-step walks of ``m``.

    Edge ids join the constituent edge ids with spaces.  Ranks compare
    walks by their rank sequences read from the deep end, which is the
    lexicographic path order of the generated diagram.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if K == 1:
        return m
    out = m._index.out
    walks: list[tuple[str, ...]] = [(e,) for e in sorted(m.edges)]
    for _ in range(K - 1):
        walks = [w + (e,) for w in walks for e in out.get(m.rng[w[-1]], ())]
    table = {}
    by_target: dict[str, list[tuple[str, ...]]] = {}
    for w in walks:
        by_target.setdefault(m.rng[w[-1]], []).append(w)
    for v, group in by_target.items():
        group.sort(key=lambda w: tuple(m.rank[e] for e in reversed(w)))
        for i, w in enumerate(group, start=1):
            table[" ".join(w)] = (m.src[w[0]], v, i)
    return mono_graph(m.vertices, table)


def straighten_mono(m: MonoGraph, cap: int = 24) -> tuple[int, MonoGraph]:
    """Smallest power K with ``mono_power(m, K)`` straight.

    Extreme-edge successor maps on a finite vertex set are eventually
    periodic, so a straight power always exists; ``cap`` only guards
    against runaway search on adversarial inputs.
    """
    for K in range(1, cap + 1):
        powered = mono_power(m, K)
        if is_straight(powered):
            return K, powered
    raise NotStraight(f"no straight power found up to K={cap}")


# ---------------------------------------------------------------------------
# continuity condition


def check_continuity(m: MonoGraph) -> Report:
    """Decide whether a straight mono-graph has the continuity condition.

    The condition asks for a surjective map ``psi`` from max-loop
    vertices to min-loop vertices with
    ``psi(max(s(e))) = min(s(serial(e)))`` for every non-maximal edge
    ``e``.  Existence of such a map is exactly what lets the stationary
    diagram carry a continuous successor map.
    """
    if not is_straight(m):
        raise NotStraight("; ".join(straightness_violations(m)))
    vmax1 = m.max_loop_vertices()
    vmin1 = m.min_loop_vertices()
    psi: dict[str, str] = {}
    for e in sorted(m.edges):
        nxt = m.serial(e)
        if nxt is None:
            continue
        key = m.max_of(m.src[e])
        val = m.min_of(m.src[nxt])
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
    are the idempotent limit maps on vertices, first edges, and last
    edges, with image sets exposed separately.
    """

    base: Cover
    exponent: int
    cover: Cover
    lim_v: dict = field(hash=False)
    lim_f: dict = field(hash=False)
    lim_l: dict = field(hash=False)

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


def _idempotent_power(mapping: dict) -> bool:
    return all(mapping[mapping[x]] == mapping[x] for x in mapping)


def _power_map(mapping: dict, k: int) -> dict:
    result = {x: x for x in mapping}
    for _ in range(k):
        result = {x: mapping[result[x]] for x in result}
    return result


def analyze_self_cover(cover: Cover, cap: int = 256) -> SelfCoverAnalysis:
    """Straighten a flexible self-cover.

    Finds the least exponent K for which the K-th powers of the vertex
    map, the first-edge map, and the last-edge map are all idempotent;
    the K-th power of the cover is then straight and the images of those
    idempotent maps are the limit vertex and edge sets.
    """
    if cover.domain != cover.codomain:
        raise ValueError("analyze_self_cover needs a self-cover")
    if not graphs.is_weighted_cover(cover):
        raise graphs.CoverViolation("not a flexible cover")
    vmap = dict(cover.vmap)
    first = {e: cover.emap[e][0] for e in cover.domain.edges}
    last = {e: cover.emap[e][-1] for e in cover.domain.edges}
    for K in range(1, cap + 1):
        if all(
            _idempotent_power(_power_map(f, K)) for f in (vmap, first, last)
        ):
            return SelfCoverAnalysis(
                base=cover,
                exponent=K,
                cover=cover_power(cover, K),
                lim_v=_power_map(vmap, K),
                lim_f=_power_map(first, K),
                lim_l=_power_map(last, K),
            )
    raise NotStraight(f"no straight power found up to K={cap}")


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
    """
    g = a.graph
    report = constant_sequences(a, k_max)
    expansions: list[dict[str, tuple[str, ...]]] = []
    power = a.cover
    for _ in range(depth_max + 1):
        expansions.append({e: tuple(power.emap[e]) for e in g.edges})
        power = graphs.compose_covers(a.cover, power)

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
                    if _contains(expansions[n - 1][e], pattern):
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
                    run = _max_flanked_run(expansions[n - 1][e], e0, cycle, ek)
                    if run >= 2:
                        deeper = _max_flanked_run(
                            expansions[n][e], e0, cycle, ek
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
