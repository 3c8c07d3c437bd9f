"""Covering presentations, their towers, and the closing/regulation checks.

A covering is a sequence of weighted covers descending to the singleton
graph.  Two presentations are supported: an explicit finite prefix of
levels and a stationary presentation generated by a flexible self-cover
together with level-1 multiplicities, from which weighted levels are
expanded on demand by length propagation.

Finite approximations of the inverse limit (points, towers, marker sets)
are evaluated as sets of depth-D path prefixes of the associated ordered
Bratteli diagram; the shift map becomes the lexicographic successor.  The
marker checks name each depth-D cylinder by its tower coordinates
(vertex, floor) instead, so that a shift moves one floor.  Derived values
(the diagram, path sets, basic expansions) are memoised on the
presentation they come from.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from . import graphs
from .errors import (
    DepthOutOfRange,
    HomomorphismViolation,
    HorizonExceeded,
    InvalidSequence,
    UnsettledResidual,
)
from .graphs import Cover, Graph, singleton_graph
from .reports import FAILS, HOLDS, UNKNOWN, Report

TRUNCATED = "truncated"
REPEAT = "repeat_last_as_stationary"


@dataclass(frozen=True)
class CoveringPresentation:
    """A covering sequence, stationary or a finite prefix.

    Stationary: ``self_cover`` is a flexible self-cover and
    ``multiplicities`` gives the level-1 length of each edge.  Finite
    prefix: ``graphs`` lists the weighted levels G1..GN and ``covers``
    the weighted covers G2 -> G1, ..., GN -> GN-1; ``tail`` says whether
    the sequence simply stops or repeats its last cover forever.
    """

    kind: str
    self_cover: Cover | None = None
    multiplicities: dict | None = field(default=None, hash=False)
    graphs: tuple = ()
    covers: tuple = ()
    tail: str = TRUNCATED

    def depth(self) -> int | None:
        """Largest materializable level, or None when unbounded."""
        if self.kind == "stationary" or self.tail == REPEAT:
            return None
        return len(self.graphs)

    def _check_depth(self, n: int) -> None:
        limit = self.depth()
        if n < 0 or (limit is not None and n > limit):
            raise DepthOutOfRange(f"level {n} not materializable")

    @functools.cached_property
    def _lengths(self) -> list:
        """Stationary edge lengths by level, read-only, extended on demand."""
        return [MappingProxyType(dict(self.multiplicities))]

    @functools.cached_property
    def _memo(self) -> dict:
        """Values derived from this presentation, by routine and arguments."""
        return {}


def _kept_on_presentation(fn):
    """Memoise ``fn(p, *args)`` on the presentation ``p`` itself.

    The values live as long as the presentation and equal presentations
    share none of them.
    """

    @functools.wraps(fn)
    def memoised(p: CoveringPresentation, *args):
        memo = p._memo
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(p, *args)
        return memo[key]

    return memoised


def stationary_presentation(cover: Cover, multiplicities: dict) -> CoveringPresentation:
    if cover.domain != cover.codomain:
        raise HomomorphismViolation("a stationary presentation needs a self-cover")
    return CoveringPresentation(
        kind="stationary", self_cover=cover, multiplicities=dict(multiplicities)
    )


def finite_prefix_presentation(
    level_graphs, level_covers, tail: str = TRUNCATED
) -> CoveringPresentation:
    if tail not in (TRUNCATED, REPEAT):
        raise ValueError(f"unknown tail {tail!r}")
    return CoveringPresentation(
        kind="finite_prefix",
        graphs=tuple(level_graphs),
        covers=tuple(level_covers),
        tail=tail,
    )


def validate_presentation(p: CoveringPresentation) -> list[str]:
    problems = []
    if p.kind == "stationary":
        problems.extend(graphs.cover_violations(p.self_cover))
        if not problems and not graphs.is_weighted_cover(p.self_cover):
            problems.append("self-cover is not +directional and edge-surjective")
        for e in p.self_cover.domain.sorted_edges():
            if p.multiplicities.get(e, 0) < 1:
                problems.append(f"edge {e} lacks a positive multiplicity")
        return problems
    if len(p.covers) != max(len(p.graphs) - 1, 0):
        problems.append("need exactly one cover between consecutive levels")
        return problems
    if p.tail == REPEAT:
        if not p.covers:
            problems.append("repeating tail needs at least one cover")
        elif p.covers[-1].domain.edges != p.covers[-1].codomain.edges:
            problems.append("repeating tail needs a self-cover at the top")
    for n in range(1, len(p.graphs) + 1):
        problems.extend(
            f"level {n}: {msg}" for msg in graphs.validate_graph(level_graph(p, n))
        )
        cov = cover_at(p, n)
        bad = graphs.cover_violations(cov)
        problems.extend(f"cover {n}: {msg}" for msg in bad)
        if not bad and not graphs.is_weighted_cover(cov):
            problems.append(f"cover {n} is not a weighted cover")
    return problems


# ---------------------------------------------------------------------------
# levels and covers


def _stationary_lengths(p: CoveringPresentation, n: int):
    """Level-n edge lengths of a stationary presentation, read-only.

    Computed level by level and kept on the presentation.
    """
    lengths = p._lengths
    emap = p.self_cover.emap
    while len(lengths) < n:
        below = lengths[-1]
        lengths.append(
            MappingProxyType({e: sum(below[q] for q in emap[e]) for e in emap})
        )
    return lengths[n - 1]


def level_graph(p: CoveringPresentation, n: int) -> Graph:
    """The weighted graph at level ``n`` (level 0 is the singleton).

    It shares the read-only maps of its shape and the memoised lengths.
    """
    p._check_depth(n)
    if n == 0:
        return singleton_graph()
    if p.kind == "stationary":
        g = p.self_cover.domain
        lengths = _stationary_lengths(p, n)
    elif n <= len(p.graphs):
        return p.graphs[n - 1]
    else:
        # the repeating tail keeps the top shape and propagates lengths
        g = p.graphs[-1]
        emap = p.covers[-1].emap
        lengths = g.length
        for _ in range(n - len(p.graphs)):
            lengths = {e: sum(lengths[q] for q in emap[e]) for e in g.edges}
        lengths = MappingProxyType(lengths)
    return Graph(
        vertices=g.vertices, edges=g.edges, src=g.src, rng=g.rng, length=lengths
    )


def cover_at(p: CoveringPresentation, n: int) -> Cover:
    """The weighted cover from level ``n`` down to level ``n - 1``.

    Above level 1 it shares the read-only maps of the cover it repeats.
    """
    if n < 1:
        raise DepthOutOfRange("covers start at level 1")
    p._check_depth(n)
    dom = level_graph(p, n)
    if n == 1:
        return Cover(
            domain=dom,
            codomain=level_graph(p, 0),
            vmap=MappingProxyType({v: "v0" for v in dom.vertices}),
            emap=MappingProxyType({e: ("e0",) * dom.length[e] for e in dom.edges}),
        )
    if p.kind == "stationary":
        base = p.self_cover
    elif n <= len(p.graphs):
        base = p.covers[n - 2]
    else:
        base = p.covers[-1]
    return Cover(
        domain=dom, codomain=level_graph(p, n - 1), vmap=base.vmap, emap=base.emap
    )


def compose_range(p: CoveringPresentation, m: int, n: int) -> Cover:
    """The composed cover from level ``n`` down to level ``m`` (m < n)."""
    if not 0 <= m < n:
        raise DepthOutOfRange("need 0 <= m < n")
    result = cover_at(p, m + 1)
    for k in range(m + 2, n + 1):
        result = graphs.compose_covers(result, cover_at(p, k))
    return result


def _checked_cuts(cut_points, limit: int | None) -> list:
    """The cut points as a list, strictly increasing, >= 1 and <= ``limit``."""
    cuts = list(cut_points)
    if not cuts or cuts[0] < 1 or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise DepthOutOfRange("cut points must be strictly increasing and >= 1")
    if limit is not None and cuts[-1] > limit:
        raise DepthOutOfRange("cut beyond the available depth")
    return cuts


def telescope(p: CoveringPresentation, cut_points) -> CoveringPresentation:
    """Telescope the covering along increasing cut points.

    Stationary presentations with arithmetic cuts K, 2K, ... remain
    stationary (self-cover raised to the K-th power, level-K lengths as
    the new multiplicities).  Other cuts on a stationary input produce a
    finite prefix whose last cover repeats; cuts on a finite prefix
    produce a truncated finite prefix.
    """
    cuts = _checked_cuts(cut_points, p.depth())
    if p.kind == "stationary":
        K = cuts[0]
        if all(c == K * (i + 1) for i, c in enumerate(cuts)):
            return stationary_presentation(
                graphs.cover_power(p.self_cover, K), _stationary_lengths(p, K)
            )
    if len(cuts) < 2:
        raise DepthOutOfRange("non-arithmetic telescoping needs two cut points")
    level_graphs = [level_graph(p, c) for c in cuts]
    level_covers = [compose_range(p, a, b) for a, b in zip(cuts, cuts[1:])]
    tail = REPEAT if p.kind == "stationary" else TRUNCATED
    return finite_prefix_presentation(level_graphs, level_covers, tail)


# ---------------------------------------------------------------------------
# basic expansions and points


@_kept_on_presentation
def level_expansion(p: CoveringPresentation, n: int) -> graphs.BasicExpansion:
    return graphs.expand_to_basic(level_graph(p, n))


@_kept_on_presentation
def basic_cover_at(p: CoveringPresentation, n: int) -> graphs.BasicCover:
    return graphs.expand_basic_cover(
        cover_at(p, n),
        domain_expansion=level_expansion(p, n),
        codomain_expansion=level_expansion(p, n - 1),
    )


@dataclass(frozen=True)
class LevelPoint:
    """A depth-n approximation of a point: compatible basic vertices."""

    depth: int
    vertices: tuple[str, ...]


def enumerate_points(p: CoveringPresentation, n: int) -> list[LevelPoint]:
    """All compatible basic-vertex sequences down from depth ``n``."""
    p._check_depth(n)
    vmaps = [basic_cover_at(p, k).vmap for k in range(1, n + 1)]
    points = []
    for v in sorted(level_expansion(p, n).graph.vertices):
        chain = [v]
        for vmap in reversed(vmaps):
            chain.append(vmap[chain[-1]])
        points.append(LevelPoint(depth=n, vertices=tuple(reversed(chain))))
    return points


# ---------------------------------------------------------------------------
# constant chains, closing, regulation


@dataclass(frozen=True)
class ConstantChain:
    """An infinite constant covering, eventually periodic.

    The chain above ``edge`` reads ``transient`` from the level just
    above upward and then repeats ``cycle`` forever.  For truncated
    prefixes ``exact`` is False: the chain is only a within-prefix
    witness and ``cycle`` is empty.
    """

    edge: str
    transient: tuple[str, ...]
    cycle: tuple[str, ...]
    exact: bool = True

    def edges(self) -> frozenset:
        return (
            frozenset({self.edge})
            | frozenset(self.transient)
            | frozenset(self.cycle)
        )


def _single_image_relation(cover: Cover) -> dict:
    """Maps e' -> e whenever the expansion of e' is the single edge e."""
    return {
        e: cover.emap[e][0] for e in cover.domain.edges if len(cover.emap[e]) == 1
    }


def _relation_cycles(rel: dict) -> set:
    """Edges lying on a cycle of the (functional) relation."""
    on_cycle = set()
    for start in rel:
        seen = []
        here = start
        while here in rel and here not in seen:
            seen.append(here)
            here = rel[here]
        if here in seen:
            on_cycle.update(seen[seen.index(here):])
    return on_cycle


def _icc_edges(rel: dict, cycles: set) -> set:
    """Edges with arbitrarily long constant chains above them."""
    covered = set(cycles)
    changed = True
    while changed:
        changed = False
        for src, dst in rel.items():
            if src in covered and dst not in covered:
                covered.add(dst)
                changed = True
    return covered


def _chain_description(rel: dict, cycles: set, covered: set, e: str):
    """The (transient, cycle) witness above an infinitely covered edge.

    ``transient`` lists the chain edges strictly above ``e`` up to the
    cycle entry (exclusive); ``cycle`` lists the repeating cycle in
    covering order.
    """
    up = [e]
    while up[-1] not in cycles:
        up.append(min(q for q in rel if rel[q] == up[-1] and q in covered))
    entry = up[-1]
    cyc = [entry]
    here = rel[entry]
    while here != entry:
        cyc.append(here)
        here = rel[here]
    cyc.reverse()
    transient = tuple(q for q in up[1:] if q not in cycles)
    return transient, tuple(cyc)


def find_constant_chains(p: CoveringPresentation) -> list[ConstantChain]:
    """All infinitely constantly covered level-1 edges with witnesses.

    On a truncated prefix the returned chains are within-prefix
    witnesses only (``exact`` is False).
    """
    if p.kind == "stationary":
        rel = _single_image_relation(p.self_cover)
        cycles = _relation_cycles(rel)
        covered = _icc_edges(rel, cycles)
        return [
            ConstantChain(e, *_chain_description(rel, cycles, covered, e))
            for e in sorted(covered)
        ]
    top = len(p.graphs)
    if top < 2:
        return []
    # follow single-edge images downward from the top level
    descents = {e: [e] for e in sorted(level_graph(p, top).edges)}
    for n in range(top, 1, -1):
        cov = cover_at(p, n)
        descents = {
            e: chain + [cov.emap[chain[-1]][0]]
            for e, chain in descents.items()
            if len(cov.emap[chain[-1]]) == 1
        }
    chains = []
    if p.tail == REPEAT:
        rel = _single_image_relation(p.covers[-1])
        cycles = _relation_cycles(rel)
        covered = _icc_edges(rel, cycles)
        for e_top, chain in sorted(descents.items()):
            if e_top not in covered:
                continue
            upward = list(reversed(chain))  # levels 1 .. top
            trans_top, cyc = _chain_description(rel, cycles, covered, e_top)
            above = upward[1:]
            if e_top in set(cyc):
                above = above[:-1]
            chains.append(ConstantChain(upward[0], tuple(above) + trans_top, cyc))
    else:
        for e_top, chain in sorted(descents.items()):
            upward = list(reversed(chain))
            chains.append(
                ConstantChain(upward[0], tuple(upward[1:]), (), exact=False)
            )
    return chains


def _is_circuit_edge(g, e: str) -> bool:
    return g.src[e] == g.rng[e]


def _chain_is_circuits(p: CoveringPresentation, chain: ConstantChain) -> bool:
    if p.kind == "stationary":
        g = p.self_cover.domain
        return all(_is_circuit_edge(g, e) for e in chain.edges())
    top = len(p.graphs)
    placed = [(1, chain.edge)]
    placed += [(min(i + 2, top), e) for i, e in enumerate(chain.transient)]
    placed += [(top, e) for e in chain.cycle]
    return all(_is_circuit_edge(level_graph(p, n), e) for n, e in placed)


def check_closing(p: CoveringPresentation) -> Report:
    """Every infinite constant covering must consist of circuits."""
    chains = find_constant_chains(p)
    bad = [c for c in chains if not _chain_is_circuits(p, c)]
    if bad:
        return Report(
            tag="closing",
            verdict=FAILS,
            witnesses=tuple((c.edge, c.transient, c.cycle) for c in bad),
            details={"reason": "constant chain through a non-circuit edge"},
        )
    if any(not c.exact for c in chains):
        return Report(
            tag="closing",
            verdict=UNKNOWN,
            details={"reason": "truncated prefix: chains not extendable"},
        )
    reason = "no constant chains" if not chains else "all chains are circuits"
    return Report(tag="closing", verdict=HOLDS, details={"reason": reason})


def _circuit_chain_edges(cover: Cover) -> set:
    """Edges of a self-cover infinitely constantly covered by circuits."""
    rel = _single_image_relation(cover)
    g = cover.domain
    loop_rel = {
        a: b
        for a, b in rel.items()
        if _is_circuit_edge(g, a) and _is_circuit_edge(g, b)
    }
    return _icc_edges(loop_rel, _relation_cycles(loop_rel))


def _bounded_edges(cover: Cover) -> set:
    """Edges whose level-n length stays bounded as n grows.

    The length of an edge grows without bound exactly when its
    membership closure under the expansion map reaches an edge that
    lies on a membership cycle and expands to two or more edges.
    """
    emap = cover.emap
    reach = {e: set(emap[e]) for e in emap}
    changed = True
    while changed:
        changed = False
        for r in reach.values():
            extra = set().union(*(set(emap[q]) for q in r)) - r
            if extra:
                r |= extra
                changed = True
    pumping = {q for q in emap if q in reach[q] and len(emap[q]) >= 2}
    return {e for e in emap if not (({e} | reach[e]) & pumping)}


def _prefix_chain_support(p: CoveringPresentation, n: int):
    """Level-n circuit edges with all-circuit constant chains in a prefix.

    Returns ``(supported, undecided)``: supported edges are certified
    infinitely constantly covered by circuits (repeating tails only);
    undecided edges carry a within-prefix all-circuit chain to the top
    of a truncated prefix.  Everything else is certified uncovered.
    """
    top = len(p.graphs)
    g = level_graph(p, n)
    alive = {e: e for e in g.edges if _is_circuit_edge(g, e)}
    for k in range(n + 1, top + 1):
        cov = cover_at(p, k)
        gk = level_graph(p, k)
        alive = {
            e2: bottom
            for e, bottom in alive.items()
            for e2 in gk.edges
            if cov.emap[e2] == (e,) and _is_circuit_edge(gk, e2)
        }
    if p.tail == REPEAT:
        good_top = _circuit_chain_edges(p.covers[-1])
        return {alive[e] for e in alive if e in good_top}, set()
    return set(), set(alive.values())


def _checked_l_seq(l_seq, n_max: int) -> list:
    """The thresholds as a list, strictly increasing, positive, >= n_max long."""
    seq = list(l_seq)
    if any(x < 1 for x in seq) or any(b <= a for a, b in zip(seq, seq[1:])):
        raise InvalidSequence("l_seq must be strictly increasing and positive")
    if len(seq) < n_max:
        raise InvalidSequence("l_seq shorter than n_max")
    return seq


def check_regulated(p: CoveringPresentation, l_seq, n_max: int) -> Report:
    """Short edges at each level must be constantly covered by circuits.

    ``l_seq`` is the increasing threshold sequence, consulted at levels
    1..n_max.  For stationary presentations the report also carries an
    asymptotic verdict about the edges of bounded length, which stay
    short forever; edges of unbounded length are listed as undecided
    since a finite threshold sequence cannot constrain their tail.
    """
    seq = _checked_l_seq(l_seq, n_max)
    p._check_depth(n_max)
    if p.kind == "stationary":
        good = _circuit_chain_edges(p.self_cover)
    levels = []
    overall = HOLDS
    for n in range(1, n_max + 1):
        g = level_graph(p, n)
        short = sorted(e for e in g.edges if g.length[e] <= seq[n - 1])
        if p.kind == "stationary":
            bad = [e for e in short if e not in good]
            verdict = FAILS if bad else HOLDS
        else:
            supported, undecided = _prefix_chain_support(p, n)
            bad = [e for e in short if e not in supported and e not in undecided]
            if bad:
                verdict = FAILS
            elif any(e in undecided for e in short):
                verdict = UNKNOWN
            else:
                verdict = HOLDS
        levels.append({"level": n, "verdict": verdict, "witnesses": tuple(bad)})
        if verdict == FAILS:
            overall = FAILS
        elif verdict == UNKNOWN and overall == HOLDS:
            overall = UNKNOWN
    details = {"levels": levels}
    if p.kind == "stationary":
        bounded = _bounded_edges(p.self_cover)
        stray = sorted(bounded - good)
        details["asymptotic"] = {
            "verdict": FAILS if stray else HOLDS,
            "witnesses": tuple(stray),
            "undecided": sorted(
                e
                for e in p.self_cover.domain.edges
                if e not in bounded and e not in good
            ),
        }
        if stray:
            overall = FAILS
    else:
        details["asymptotic"] = {"verdict": UNKNOWN, "witnesses": ()}
        if overall == HOLDS:
            overall = UNKNOWN
    witnesses = tuple(
        (entry["level"], e) for entry in levels for e in entry["witnesses"]
    )
    return Report(
        tag="regulated", verdict=overall, witnesses=witnesses, details=details
    )


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass(frozen=True)
class PeriodicOrbit:
    period: int
    vertices: tuple[str, ...]
    certainty: str  # CERTIFIED or POSSIBLE
    support: tuple[str, ...]


def _basic_as_flexible(bg: graphs.BasicGraph) -> Graph:
    return graphs.flexible(bg.vertices, {f"{u}>{w}": (u, w) for (u, w) in bg.edges})


def periodic_orbits(
    p: CoveringPresentation, n: int, max_period: int
) -> list[PeriodicOrbit]:
    """Cycles of the depth-n basic relation, flagged by chain support.

    An orbit is CERTIFIED when it traces the chain of a single edge
    that is infinitely constantly covered by circuits, which pins an
    actual periodic point inside that tower; everything else is merely
    POSSIBLE at this depth.
    """
    p._check_depth(n)
    exp = level_expansion(p, n)
    flex = _basic_as_flexible(exp.graph)
    report = graphs.enumerate_circuits(flex, max_period)
    step_support: dict[tuple[str, str], set] = {}
    for e, chain in exp.chains.items():
        for a, b in zip(chain, chain[1:]):
            step_support.setdefault((a, b), set()).add(e)
    good = _circuit_chain_edges(p.self_cover) if p.kind == "stationary" else set()
    orbits = []
    for circuit in report.circuits:
        steps = [(flex.src[eid], flex.rng[eid]) for eid in circuit]
        support = sorted(set().union(*(step_support[s] for s in steps)))
        certified = len(support) == 1 and support[0] in good
        orbits.append(
            PeriodicOrbit(
                period=len(circuit),
                vertices=tuple(u for (u, _) in steps),
                certainty="CERTIFIED" if certified else "POSSIBLE",
                support=tuple(support),
            )
        )
    return orbits


# ---------------------------------------------------------------------------
# clopen evaluation on diagram prefixes


@_kept_on_presentation
def _diagram(p: CoveringPresentation):
    from . import bratteli

    return bratteli.weighted_to_bv(p)


@_kept_on_presentation
def all_paths(p: CoveringPresentation, depth: int) -> tuple:
    from . import bratteli

    d = _diagram(p)
    out = []
    for v in sorted(d.level_vertices(depth)):
        out.extend(bratteli.enumerate_paths(d, v, depth))
    return tuple(out)


@_kept_on_presentation
def floor_paths(
    p: CoveringPresentation, n: int, e: str, floor: int, depth: int
) -> frozenset:
    """Depth-``depth`` paths sitting on the given floor of a level-n tower."""
    from . import bratteli

    d = _diagram(p)
    prefix = bratteli.enumerate_paths(d, e, n)[floor]
    return frozenset(bratteli.extend_walks(d, [prefix], n, depth))


def evaluate_set(p: CoveringPresentation, desc: tuple, depth: int) -> frozenset:
    """Evaluate a clopen descriptor as a set of depth-``depth`` paths.

    Descriptor forms: ("all",), ("floor", n, e, i), ("fiber", n, e),
    ("junction", n, v), ("vbar", n), ("union", (desc, ...)), and
    ("image", k, desc) for the k-th shift image (k may be negative).
    """
    kind = desc[0]
    if kind == "all":
        return frozenset(all_paths(p, depth))
    if kind == "floor":
        _, n, e, i = desc
        return floor_paths(p, n, e, i, depth)
    if kind == "fiber":
        _, n, e = desc
        g = level_graph(p, n)
        return frozenset().union(
            *(floor_paths(p, n, e, i, depth) for i in range(g.length[e]))
        )
    if kind == "junction":
        _, n, v = desc
        g = level_graph(p, n)
        return frozenset().union(
            frozenset(),
            *(floor_paths(p, n, e, 0, depth) for e in g.edges if g.src[e] == v),
        )
    if kind == "vbar":
        _, n = desc
        g = level_graph(p, n)
        return frozenset().union(
            frozenset(), *(floor_paths(p, n, e, 0, depth) for e in g.edges)
        )
    if kind == "union":
        return frozenset().union(
            frozenset(), *(evaluate_set(p, inner, depth) for inner in desc[1])
        )
    if kind == "image":
        _, k, inner = desc
        paths = evaluate_set(p, inner, depth)
        for _ in range(abs(k)):
            paths, _ = _step_set(p, paths, forward=k > 0)
        return paths
    raise ValueError(f"unknown descriptor {desc!r}")


def _step_set(p: CoveringPresentation, paths, forward: bool):
    from . import bratteli

    d = _diagram(p)
    out = set()
    exceptional = False
    for q in paths:
        values, exc = (
            bratteli.successor_values(d, q)
            if forward
            else bratteli.predecessor_values(d, q)
        )
        out |= values
        exceptional = exceptional or exc
    return frozenset(out), exceptional


def v_infinity_approx(p: CoveringPresentation, n: int) -> tuple:
    """The depth-n cylinder descriptor of the junction set."""
    p._check_depth(n)
    if n == 0:
        return ("all",)
    return ("vbar", n)


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class Tower:
    edge: str
    height: int
    base: tuple  # clopen descriptor


@dataclass(frozen=True)
class TowerDecomposition:
    level: int
    towers: tuple


def tower_decomposition(p: CoveringPresentation, n: int) -> TowerDecomposition:
    """Natural bases for the level-n towers.

    Towers of height at least two base at their first floor.  A
    height-1 tower collects pieces from the level-(n+1) towers whose
    expansions pass through it: whole junctions below covering edges of
    length one, and single floors below the longer ones.
    """
    p._check_depth(n + 1)
    g = level_graph(p, n)
    gup = level_graph(p, n + 1)
    cov = cover_at(p, n + 1)
    towers = []
    for e in g.sorted_edges():
        if g.length[e] >= 2:
            base = ("floor", n, e, 0)
        else:
            pieces = []
            for e2 in gup.sorted_edges():
                walk = cov.emap[e2]
                if e not in walk:
                    continue
                if gup.length[e2] == 1:
                    pieces.append(("junction", n + 1, gup.src[e2]))
                else:
                    offset = 0
                    for q in walk:
                        if q == e:
                            pieces.append(("floor", n + 1, e2, offset))
                        offset += g.length[q]
            base = ("union", tuple(pieces))
        towers.append(Tower(edge=e, height=g.length[e], base=base))
    return TowerDecomposition(level=n, towers=tuple(towers))


def tower_floor_sets(p: CoveringPresentation, n: int, depth: int) -> dict:
    """All (edge, floor) cells at level n as depth-``depth`` path sets."""
    g = level_graph(p, n)
    return {
        (e, i): floor_paths(p, n, e, i, depth)
        for e in g.sorted_edges()
        for i in range(g.length[e])
    }


# ---------------------------------------------------------------------------
# marker sets


@dataclass(frozen=True)
class MarkerSet:
    level: int
    L: int
    horizon: int
    J: tuple
    P: tuple
    k: dict = field(hash=False)
    F: frozenset = field(hash=False, default=frozenset())
    E: frozenset = field(hash=False, default=frozenset())
    atoms: tuple = ()


class _Cylinders:
    """The depth-``horizon`` cylinders of a presentation in tower coordinates.

    A cylinder is named ``(v, f)``: the level-``horizon`` diagram vertex
    its paths run through and its floor in that tower, the position of its
    prefix in path order.  A shift moves a cylinder one floor up (or down)
    and branches only past the end of a tower, onto the far ends of the
    towers that :func:`bratteli.boundary_targets` names.  ``order`` lists
    the cylinders in :func:`all_paths` order, ``path`` maps each to its
    prefix, ``cell`` to the level-``n`` (edge, floor) cell holding it, and
    ``members`` lists the cylinders of each cell.
    """

    def __init__(self, p: CoveringPresentation, n: int, horizon: int):
        from . import bratteli

        d = self.diagram = _diagram(p)
        self.heights = {
            v: bratteli.path_count(d, v, horizon) for v in d.level_vertices(horizon)
        }
        self.order = [(v, f) for v, h in self.heights.items() for f in range(h)]
        self.path = dict(zip(self.order, all_paths(p, horizon)))
        # the level-n vertices of the diagram are the level-n edges, except
        # that at level 0 the root stands for the singleton graph's loop e0
        below = {
            q: (e if n else "e0", i)
            for e in d.level_vertices(n)
            for i, q in enumerate(bratteli.enumerate_paths(d, e, n))
        }
        self.cell = {c: below[q[:n]] for c, q in self.path.items()}
        self.members: dict[tuple, list] = {}
        for c, cell in self.cell.items():
            self.members.setdefault(cell, []).append(c)

    def step(self, cylinders, forward: bool):
        """The cylinders one shift of ``cylinders`` meets.

        Returns ``(cylinders, exceptional)`` like :func:`_step_set`, the
        flag telling whether some cylinder crossed the end of its tower.
        """
        heights = self.heights
        delta = 1 if forward else -1
        out = set()
        exceptional = False
        for v, f in cylinders:
            if 0 <= f + delta < heights[v]:
                out.add((v, f + delta))
                continue
            from . import bratteli

            exceptional = True
            for u in bratteli.boundary_targets(self.diagram, v, delta):
                out.add((u, 0 if forward else heights[u] - 1))
        return frozenset(out), exceptional


def _shifts(cyl: _Cylinders, start: tuple, forward: bool):
    """The cylinders the points over ``start`` meet after 1, 2, ... shifts.

    At most one tower end may be crossed along the chain; the second
    crossing raises HorizonExceeded.
    """
    current = frozenset({start})
    budget = 1
    while True:
        current, exceptional = cyl.step(current, forward)
        if exceptional:
            budget -= 1
            if budget < 0:
                raise HorizonExceeded("two boundary resolutions in one chain")
        yield current


def _lands_in(cyl: _Cylinders, start: tuple, L: int, target) -> bool:
    """Whether after some i <= L shifts all points over ``start`` are in ``target``.

    ``target`` is a set of cylinders.  Mixed answers across boundary
    branches raise HorizonExceeded.
    """
    if start in target:
        return True
    for current in itertools.islice(_shifts(cyl, start, True), L):
        inside = current & target
        if inside and inside != current:
            raise HorizonExceeded("membership splits a horizon cylinder")
        if inside:
            return True
    return False


def krieger_markers(
    p: CoveringPresentation, n: int, L: int, horizon: int
) -> MarkerSet:
    """The marker construction at level ``n`` with window ``L``.

    Towers of height above ``L`` contribute every (L+1)-th floor as a
    marker; when the last marked floor sits more than L+1 below the top,
    the points of the next candidate floor that dodge the marked floors
    for L steps are added too.  ``F`` comes back as a set of
    depth-``horizon`` path prefixes, with its first L forward iterates
    checked pairwise disjoint.

    The work runs on tower coordinates: each depth-``horizon`` cylinder
    is a (vertex, floor) pair of the diagram, and a shift moves it one
    floor, branching only past the end of a tower.  Path tuples appear
    only in the result.  When the horizon cannot sort the points of a
    residual floor (a chain crosses two tower ends, or the points of one
    cylinder land on both sides), :class:`UnsettledResidual` names the
    level-n edge and floor.
    """
    return _krieger_markers(p, n, L, horizon)[0]


def _krieger_markers(p: CoveringPresentation, n: int, L: int, horizon: int):
    """:func:`krieger_markers`, its cylinders, and ``F`` as cylinders."""
    if L < 1:
        raise ValueError("L must be positive")
    if horizon < n + 1:
        raise HorizonExceeded("horizon must reach past the level")
    g = level_graph(p, n)
    Lp = L + 1
    J = sorted(e for e in g.edges if g.length[e] >= Lp)
    P = sorted(e for e in g.edges if g.length[e] <= L)
    k = {}
    for e in J:
        ln = g.length[e]
        ke = (ln - Lp) // Lp
        if not ln - 2 * Lp < Lp * ke <= ln - Lp:
            raise AssertionError("k(e) window is empty")
        k[e] = ke
    cyl = _Cylinders(p, n, horizon)
    atoms = []
    E = set()
    for e in J:
        floors = [Lp * i for i in range(k[e] + 1)]
        for i in floors:
            E.update(cyl.members.get((e, i), ()))
        atoms.extend({"kind": "E", "level": n, "edge": e, "floor": i} for i in floors)
    F = set(E)
    for e in J:
        if Lp * k[e] == g.length[e] - Lp:
            continue
        residual_floor = Lp * (k[e] + 1)
        candidates = sorted(cyl.members.get((e, residual_floor), ()), key=cyl.path.get)
        try:
            kept = [c for c in candidates if not _lands_in(cyl, c, L, E)]
        except HorizonExceeded as exc:
            raise UnsettledResidual(e, residual_floor, str(exc)) from exc
        if kept:
            F.update(kept)
            atoms.append(
                {
                    "kind": "residual",
                    "level": horizon,
                    "edge": e,
                    "floor": residual_floor,
                    "paths": tuple(cyl.path[c] for c in kept),
                }
            )
    F = frozenset(F)
    iterates = [F]
    for _ in range(L):
        iterates.append(cyl.step(iterates[-1], forward=True)[0])
    for a, b in itertools.combinations(iterates, 2):
        if a & b:
            raise AssertionError("marker iterates are not disjoint")
    markers = MarkerSet(
        level=n,
        L=L,
        horizon=horizon,
        J=tuple(J),
        P=tuple(P),
        k=k,
        F=frozenset(cyl.path[c] for c in F),
        E=frozenset(cyl.path[c] for c in E),
        atoms=tuple(atoms),
    )
    return markers, cyl, F


def krieger_coverage(
    p: CoveringPresentation, n: int, L: int, horizon: int
) -> Report:
    """Brute-force check of the marker guarantees at the horizon depth.

    Every depth-horizon cylinder outside the +-L shift iterates of the
    marker set must lie in a tower of height at most L that carries a
    certified periodic orbit of period at most L.  Cylinders are the
    (vertex, floor) pairs of :func:`krieger_markers`; each one is probed
    by forward and backward chains that grow one shift per step, and a
    chain that crosses two tower ends counts as an unresolved probe and
    leaves the cylinder to the tower test.

    The verdict is UNKNOWN when the marker set itself cannot be built at
    this horizon; the witness is ``(edge, floor, reason)`` for the
    level-n residual floor that could not be settled.
    """
    try:
        markers, cyl, F = _krieger_markers(p, n, L, horizon)
    except UnsettledResidual as exc:
        return Report(
            tag="krieger",
            verdict=UNKNOWN,
            witnesses=((exc.edge, exc.floor, str(exc)),),
            details={
                "level": n,
                "L": L,
                "horizon": horizon,
                "reason": "a residual marker floor is not settled at this horizon",
            },
        )
    certified = {
        orbit.support[0]: orbit.period
        for orbit in periodic_orbits(p, n, max_period=L)
        if orbit.certainty == "CERTIFIED"
    }
    violations = []
    outside_towers = set()
    unresolved = 0
    for c in cyl.order:
        inside = c in F
        chains = [_shifts(cyl, c, True), _shifts(cyl, c, False)]
        for _ in range(L):
            if inside:
                break
            for j, chain in enumerate(chains):
                if chain is None:
                    unresolved += 1
                    continue
                try:
                    inside = not F.isdisjoint(next(chain))
                except HorizonExceeded:
                    # cannot trace this chain; fall through to the tower test
                    chains[j] = None
                    unresolved += 1
                if inside:
                    break
        if inside:
            continue
        e = cyl.cell[c][0]
        outside_towers.add(e)
        q = cyl.path[c]
        if e not in markers.P:
            violations.append({"path": q, "tower": e, "reason": "tall tower"})
        elif e not in certified:
            violations.append(
                {"path": q, "tower": e, "reason": "no certified periodic orbit"}
            )
    return Report(
        tag="krieger",
        verdict=HOLDS if not violations else FAILS,
        witnesses=tuple((v["tower"], v["reason"]) for v in violations),
        details={
            "level": n,
            "L": L,
            "horizon": horizon,
            "outside_towers": sorted(outside_towers),
            "unresolved_probes": unresolved,
            "violations": violations,
        },
    )


# ---------------------------------------------------------------------------
# isomorphism of stationary presentations


def find_cover_isomorphism(p: CoveringPresentation, q: CoveringPresentation):
    """A structure bijection between two stationary presentations.

    Returns ``(vertex_map, edge_map)`` or None.  The maps must carry
    sources, ranges, multiplicities, and the expansion walks of one
    self-cover onto the other.
    """
    if p.kind != "stationary" or q.kind != "stationary":
        return None
    g1, g2 = p.self_cover.domain, q.self_cover.domain
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    edges1 = g1.sorted_edges()
    for perm in itertools.permutations(g2.sorted_edges()):
        emap = dict(zip(edges1, perm))
        if any(p.multiplicities[e] != q.multiplicities[emap[e]] for e in edges1):
            continue
        vmap = {}
        ok = True
        for e in edges1:
            for a, b in ((g1.src[e], g2.src[emap[e]]), (g1.rng[e], g2.rng[emap[e]])):
                if vmap.setdefault(a, b) != b:
                    ok = False
                    break
            if not ok:
                break
        if not ok or len(set(vmap.values())) != len(vmap):
            continue
        if all(
            tuple(emap[x] for x in p.self_cover.emap[e]) == q.self_cover.emap[emap[e]]
            for e in edges1
        ):
            return vmap, emap
    return None
