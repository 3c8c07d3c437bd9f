"""Covering presentations, their towers, and the closing/regulation checks.

A covering is a sequence of weighted covers descending to the singleton
graph.  Two presentations are supported: an explicit finite prefix of
levels and a stationary presentation generated by a flexible self-cover
together with level-1 multiplicities, from which weighted levels are
expanded on demand by length propagation.

A clopen set of the inverse limit lives in tower coordinates: a
depth-D cylinder of the associated ordered Bratteli diagram is a
(vertex, floor) pair, its floor the position of its prefix in path
order, and the shift map moves it one floor up.  The marker checks keep
a byte per floor of each tower for the marker floors, made a level-n
block at a time, and a path tuple is read by descent only for a result
or a witness they report.  A periodic orbit is a simple circuit of a
level graph.  Derived values (the diagram, and the tower blocks and
orbit tables that serve every marker window) are memoised on the
presentation they come from.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from . import graphs
from .errors import (
    DepthOutOfRange,
    HomomorphismViolation,
    HorizonExceeded,
    InvalidParameter,
    InvalidSequence,
    UnsettledResidual,
    UnsupportedKind,
)
from .graphs import Cover, Graph, singleton_graph
from .reports import FAILS, HOLDS, UNKNOWN, Report

TRUNCATED = "truncated"
REPEAT = "repeat_last_as_stationary"


@dataclass(frozen=True)
class CoveringPresentation:
    """A covering sequence, stationary or a finite prefix.

    Stationary: ``self_cover`` is a flexible self-cover and the read-only
    ``multiplicities`` give the level-1 length of each edge.  Finite
    prefix: ``graphs`` lists the weighted levels G1..GN and ``covers``
    the weighted covers G2 -> G1, ..., GN -> GN-1; ``tail`` says whether
    the sequence simply stops or repeats its last cover forever.
    """

    kind: str
    self_cover: Cover | None = None
    multiplicities: Mapping | None = field(default=None, hash=False)
    graphs: tuple = ()
    covers: tuple = ()
    tail: str = TRUNCATED

    def __post_init__(self):
        graphs.read_only_fields(self, "multiplicities")

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
        """Edge lengths by level from the first repeated one, extended on demand.

        A stationary presentation starts at level 1, a finite prefix whose
        last cover repeats at its top level.
        """
        if self.kind == "stationary":
            return [self.multiplicities]
        return [self.graphs[-1].length]

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
        kind="stationary", self_cover=cover, multiplicities=multiplicities
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
        if not problems and not graphs.cover_flags(p.self_cover).weighted:
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
        if not bad and not graphs.cover_flags(cov).weighted:
            problems.append(f"cover {n} is not a weighted cover")
    return problems


# ---------------------------------------------------------------------------
# levels and covers


def _tail(p: CoveringPresentation) -> tuple[int, Cover | None]:
    """``(top, cover)``: from level ``top`` on, ``cover`` maps each level onto the one below.

    A stationary presentation repeats its self-cover from level 1 and a
    repeating tail its last cover from its top level.  A truncated prefix
    stops at its top level, and ``cover`` is None.
    """
    if p.kind == "stationary":
        return 1, p.self_cover
    return len(p.graphs), p.covers[-1] if p.tail == REPEAT else None


def _stationary_lengths(p: CoveringPresentation, n: int):
    """Level-n edge lengths where the covers repeat, read-only.

    That is every level of a stationary presentation, which repeats its
    self-cover from level 1, and the levels above the top of a finite
    prefix, which repeats its last cover.  Computed level by level and
    kept on the presentation.
    """
    base, cover = _tail(p)
    emap = cover.emap
    lengths = p._lengths
    while len(lengths) <= n - base:
        below = lengths[-1]
        lengths.append(
            MappingProxyType({e: sum(below[q] for q in emap[e]) for e in emap})
        )
    return lengths[n - base]


def level_graph(p: CoveringPresentation, n: int) -> Graph:
    """The weighted graph at level ``n`` (level 0 is the singleton).

    It shares the read-only maps of its shape and the memoised lengths.
    """
    p._check_depth(n)
    if n == 0:
        return singleton_graph()
    if p.kind == "stationary":
        g = p.self_cover.domain
    elif n <= len(p.graphs):
        return p.graphs[n - 1]
    else:
        # the repeating tail keeps the top shape
        g = p.graphs[-1]
    return Graph(
        vertices=g.vertices, edges=g.edges, src=g.src, rng=g.rng,
        length=_stationary_lengths(p, n),
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
    top, repeated = _tail(p)
    base = p.covers[n - 2] if n <= top else repeated
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
# constant chains, closing, regulation


@dataclass(frozen=True)
class ConstantChain:
    """An infinite constant covering, periodic from where the covers repeat.

    The chain above ``edge`` reads ``transient`` at levels 2, 3, ... and
    from there on repeats ``cycle`` forever, read upward: each edge is the
    single image of the next.  On a stationary presentation ``edge`` lies
    on its own cycle and ``transient`` is empty; on a repeating tail the
    transient runs up to the level below the top and the cycle, which
    ends with the chain's top edge, starts at the top.  For truncated
    prefixes ``exact`` is False: the chain is only a within-prefix
    witness up to the top and ``cycle`` is empty.
    """

    edge: str
    transient: tuple[str, ...]
    cycle: tuple[str, ...]
    exact: bool = True


def _single_image_relation(cover: Cover) -> dict:
    """Maps e' -> e whenever the expansion of e' is the single edge e."""
    return {
        e: cover.emap[e][0] for e in cover.domain.edges if len(cover.emap[e]) == 1
    }


def _relation_cycles(rel: dict) -> set:
    """Edges lying on a cycle of the (functional) relation.

    These are exactly the edges with arbitrarily long constant chains
    above them.  A chain that climbs forever through finitely many edges
    meets some edge twice, and that edge lies on a cycle; the edges below
    it on the chain are its images, and a function maps each of its
    cycles onto itself.  An edge on a cycle has the cycle run backwards
    above it.
    """
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


def _cycle_through(rel: dict, e: str) -> tuple[str, ...]:
    """The cycle of ``rel`` through ``e`` read upward, ending with ``e``."""
    cycle = [e]
    while rel[cycle[-1]] != e:
        cycle.append(rel[cycle[-1]])
    return tuple(reversed(cycle))


def find_constant_chains(p: CoveringPresentation) -> list[ConstantChain]:
    """All infinitely constantly covered level-1 edges with witnesses.

    A level-1 edge is covered when single-edge images lead down to it
    from a top-level edge on a cycle of the repeated cover's single-image
    relation (see :func:`_relation_cycles` and :func:`_tail`).  On a
    truncated prefix every such descent from the top is returned as a
    within-prefix witness only (``exact`` is False).
    """
    top, cover = _tail(p)
    if cover is None and top < 2:
        return []
    # follow single-edge images downward from the top level; a chain
    # lists its edges upward, from level 1 to the top
    chains = {e: (e,) for e in sorted(level_graph(p, top).edges)}
    for cov in reversed(p.covers):
        chains = {
            e: (cov.emap[c[0]][0], *c)
            for e, c in chains.items()
            if len(cov.emap[c[0]]) == 1
        }
    if cover is None:
        return [ConstantChain(c[0], c[1:], (), exact=False) for c in chains.values()]
    rel = _single_image_relation(cover)
    cycles = _relation_cycles(rel)
    return [
        ConstantChain(c[0], c[1:-1], _cycle_through(rel, e))
        for e, c in chains.items()
        if e in cycles
    ]


def _is_circuit_edge(g, e: str) -> bool:
    return g.src[e] == g.rng[e]


def _chain_is_circuits(p: CoveringPresentation, chain: ConstantChain) -> bool:
    top, _ = _tail(p)
    placed = [(1, chain.edge)]
    placed += [(i + 2, e) for i, e in enumerate(chain.transient)]
    placed += [(top, e) for e in chain.cycle]
    shape = {n: level_graph(p, n) for n in {n for n, _ in placed}}
    return all(_is_circuit_edge(shape[n], e) for n, e in placed)


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
    return _relation_cycles(loop_rel)


def growing_symbols(rules) -> frozenset:
    """Symbols whose iterated image under ``rules`` grows without bound.

    ``rules`` maps each symbol to a non-empty word: a substitution, or a
    self-cover's expansion map, whose other edges keep a bounded length.
    A symbol grows exactly when it reaches, or is, a symbol that lies on
    a reachability cycle and has an image of length two or more.
    """
    reach = {a: set(w) for a, w in rules.items()}
    for r in reach.values():
        stack = list(r)
        while stack:
            new = set(rules[stack.pop()]) - r
            r |= new
            stack.extend(new)
    pumping = {a for a, r in reach.items() if a in r and len(rules[a]) >= 2}
    return frozenset(a for a, r in reach.items() if a in pumping or r & pumping)


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
    1..n_max.  A short edge passes when an all-circuit constant chain
    climbs from it to the top level and goes on forever under the
    repeated cover; on a truncated prefix a chain to the top leaves the
    level UNKNOWN.  For stationary presentations the report also carries
    an asymptotic verdict about the edges of bounded length, which stay
    short forever; edges of unbounded length are listed as undecided
    since a finite threshold sequence cannot constrain their tail.
    """
    seq = _checked_l_seq(l_seq, n_max)
    p._check_depth(n_max)
    _, cover = _tail(p)
    good = set() if cover is None else _circuit_chain_edges(cover)
    levels = []
    overall = HOLDS
    for n in range(1, n_max + 1):
        g = level_graph(p, n)
        short = sorted(e for e in g.edges if g.length[e] <= seq[n - 1])
        # all-circuit constant chains from level n to the top, by top edge
        chains = {e: e for e in g.edges if _is_circuit_edge(g, e)}
        for gk, cov in zip(p.graphs[n:], p.covers[n - 1:]):
            chains = {
                e: chains[cov.emap[e][0]]
                for e in gk.edges
                if len(cov.emap[e]) == 1
                and cov.emap[e][0] in chains
                and _is_circuit_edge(gk, e)
            }
        if cover is None:
            reached = set(chains.values())
        else:
            reached = {bottom for e, bottom in chains.items() if e in good}
        bad = [e for e in short if e not in reached]
        if bad:
            verdict = FAILS
        elif short and cover is None:
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
        growing = growing_symbols(p.self_cover.emap)
        stray = sorted(p.self_cover.emap.keys() - growing - good)
        details["asymptotic"] = {
            "verdict": FAILS if stray else HOLDS,
            "witnesses": tuple(stray),
            "undecided": sorted(
                e
                for e in p.self_cover.domain.edges
                if e in growing and e not in good
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


@_kept_on_presentation
def _orbit_tables(p: CoveringPresentation, n: int):
    """What :func:`periodic_orbits` reads whatever its period bound.

    The level-n graph as a weighted graph of steps, the edges each step
    takes, and the edges infinitely constantly covered by circuits.  A
    step is one edge, except that parallel length-1 edges make one step,
    named by the least of them: they take the same relation step of the
    basic graph.
    """
    g = level_graph(p, n)
    steps: dict[str, tuple] = {}
    support: dict[str, list] = {}
    unit: dict[tuple[str, str], str] = {}
    for e in g.sorted_edges():
        ends, k = (g.src[e], g.rng[e]), g.length[e]
        step = unit.setdefault(ends, e) if k == 1 else e
        if step == e:
            steps[e] = (*ends, k)
        support.setdefault(step, []).append(e)
    good = _circuit_chain_edges(p.self_cover) if p.kind == "stationary" else set()
    return graphs.weighted(g.vertices, steps), support, good


def periodic_orbits(
    p: CoveringPresentation, n: int, max_period: int
) -> list[PeriodicOrbit]:
    """Simple circuits of the level-n graph, flagged by their edges.

    A circuit's period is the sum of its edge lengths.  An orbit lists
    the circuit's basic vertices: at each edge ``e`` of length k its
    source, then the interior floors ``e#1`` to ``e#(k-1)``.  It starts
    at the least relation id ``a>b`` of two consecutive basic vertices,
    and the orbits come in the order of those id tuples.

    An orbit is CERTIFIED when it traces a single edge that is
    infinitely constantly covered by circuits, which pins an actual
    periodic point inside that tower; everything else is merely
    POSSIBLE at this depth.  The tables that do not depend on
    ``max_period`` are kept on the presentation.
    """
    p._check_depth(n)
    g, step_support, good = _orbit_tables(p, n)
    orbits = []
    for circuit in graphs.enumerate_circuits(g, max_period).circuits:
        vertices = [
            v
            for s in circuit
            for v in (g.src[s], *(f"{s}#{i}" for i in range(1, g.length[s])))
        ]
        ids = [f"{a}>{b}" for a, b in zip(vertices, vertices[1:] + vertices[:1])]
        i = ids.index(min(ids))
        support = sorted(set().union(*(step_support[s] for s in circuit)))
        certified = len(support) == 1 and support[0] in good
        orbit = PeriodicOrbit(
            period=len(vertices),
            vertices=tuple(vertices[i:] + vertices[:i]),
            certainty="CERTIFIED" if certified else "POSSIBLE",
            support=tuple(support),
        )
        orbits.append((tuple(ids[i:] + ids[:i]), orbit))
    orbits.sort(key=lambda keyed: keyed[0])
    return [orbit for _, orbit in orbits]


# ---------------------------------------------------------------------------
# towers


@_kept_on_presentation
def _diagram(p: CoveringPresentation):
    from . import bratteli

    return bratteli.weighted_to_bv(p)


@_kept_on_presentation
def all_paths(p: CoveringPresentation, depth: int) -> tuple:
    """The depth-``depth`` paths, tower by tower in name order, each tower
    floor by floor."""
    d = _diagram(p)
    tops = sorted(d.level_vertices(depth))
    paths = graphs.paths_into(d._levels(0, depth), tops)
    return tuple(q for v in tops for q in paths[v])


@dataclass(frozen=True)
class Tower:
    """A level-n tower and its base as a clopen descriptor.

    A descriptor names tower cells: ("floor", n, e, i) is floor ``i`` of
    the level-n tower of ``e``, ("junction", n, v) the first floors of the
    level-n towers starting at ``v``, and ("union", (desc, ...)) their
    union.
    """

    edge: str
    height: int
    base: tuple


@dataclass(frozen=True)
class TowerDecomposition:
    level: int
    towers: tuple


def tower_decomposition(p: CoveringPresentation, n: int) -> TowerDecomposition:
    """Natural bases for the level-n towers.

    Towers of height at least two base at their first floor.  A
    height-1 tower collects pieces from the level-(n+1) towers whose
    expansions pass through it: whole junctions below covering edges of
    length one, and single floors below the longer ones, each piece
    listed once, in first-seen order.  A first floor is left out when
    the junction of its source is listed, which holds it.  The bases
    assume a weighted presentation: a junction piece lies inside the
    tower only when the covers are +directional, which the CLI validates
    on loading.
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
            pieces = {}  # an ordered set
            for e2 in gup.sorted_edges():
                walk = cov.emap[e2]
                if e not in walk:
                    continue
                if gup.length[e2] == 1:
                    pieces[("junction", n + 1, gup.src[e2])] = None
                else:
                    offset = 0
                    for q in walk:
                        if q == e:
                            pieces[("floor", n + 1, e2, offset)] = None
                        offset += g.length[q]
            base = ("union", tuple(
                q for q in pieces
                if q[0] == "junction" or q[3]
                or ("junction", n + 1, gup.src[q[2]]) not in pieces
            ))
        towers.append(Tower(edge=e, height=g.length[e], base=base))
    return TowerDecomposition(level=n, towers=tuple(towers))


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
    towers that :func:`bratteli.boundary_targets` names; a chain of shifts
    is read off per-tower marks by :func:`_chain_events`.  :meth:`path`
    reads the prefix of a cylinder by descent through the tower heights.

    Each level-``n`` tower is one block of ``floors[e]`` floors; each
    deeper tower stacks the blocks of its in-edges' sources in rank order,
    as path order does, so ``stack[v]`` lists the level-``n`` edges of the
    blocks of ``v`` bottom to top, and marks made once per block, a byte
    per floor, are laid end to end into the marks of each tower.  This is
    the same for every marker window: :func:`_cylinders` keeps it.
    """

    def __init__(self, p: CoveringPresentation, n: int, horizon: int):
        from . import bratteli

        d = self.diagram = _diagram(p)
        self.horizon = horizon
        self._targets = functools.partial(bratteli.boundary_targets, d)
        tops = d.level_vertices(horizon)
        heights = bratteli._tower_heights(d, horizon, tops)[horizon]
        self.heights = {v: heights[v] for v in tops}
        # the level-n vertices of the diagram are the level-n edges, except
        # that at level 0 the root stands for the singleton graph's loop e0
        bases = d.level_vertices(n)
        heights = bratteli._tower_heights(d, n, bases)[n]
        self.floors = {e if n else "e0": heights[e] for e in bases}
        stack = {e: [e if n else "e0"] for e in bases}
        for k in range(n + 1, horizon + 1):
            level = d._level(k)
            edges = level.edges
            stack = {
                v: list(itertools.chain(*(stack[edges[e][0]] for e in ranked)))
                for v, ranked in level.ranked.items()
            }
        self.stack = {v: stack[v] for v in tops}

    def path(self, cylinder: tuple) -> tuple:
        """The depth-``horizon`` path prefix of ``cylinder``."""
        from . import bratteli

        v, f = cylinder
        return bratteli.path_at(self.diagram, v, self.horizon, f)

    def lay(self, marks: dict) -> dict:
        """Per tower, the ``marks`` of its level-n blocks laid end to end."""
        return {v: b"".join(map(marks.__getitem__, s)) for v, s in self.stack.items()}


@_kept_on_presentation
def _cylinders(p: CoveringPresentation, n: int, horizon: int) -> _Cylinders:
    return _Cylinders(p, n, horizon)


def _unmarked(marks, lo: int, hi: int):
    """The maximal runs ``(a, b)`` of floors in ``[lo, hi)`` marked 0."""
    a = marks.find(0, lo, hi)
    while a >= 0:
        b = marks.find(1, a, hi)
        b = hi if b < 0 else b
        yield a, b
        a = marks.find(0, b, hi)


def _cylinders_of(marks: dict):
    """The cylinders ``(v, f)`` marked 1 in the marks of each tower."""
    for v, m in marks.items():
        f = m.find(1)
        while f >= 0:
            yield v, f
            f = m.find(1, f + 1)


def _check_iterates(cyl: _Cylinders, F: dict, L: int) -> None:
    """Assert that the iterates F, TF, ..., T^L F are pairwise disjoint.

    Inside a tower two floors of F at most L apart collide, and no others
    until a shift crosses a tower top.  So only the floor of F within L
    of a top is followed past it, through the towers each crossing names,
    once per (tower, shift), and a cylinder it reaches must be met after
    one number of shifts only, counting climbs from F below it.
    """
    crossings = []
    for v, marks in F.items():
        m = int.from_bytes(marks, "little")
        if any(m & m >> 8 * d for d in range(1, L + 1)):
            raise AssertionError("marker iterates are not disjoint")
        h = len(marks)
        f = marks.find(1, max(h - L, 0))
        if f >= 0:
            crossings.append((v, h - f))
    reached: dict[tuple, set] = {}
    walked = set(crossings)
    while crossings:
        v, i = crossings.pop()
        for u in cyl._targets(v, 1):
            h = cyl.heights[u]
            for g in range(min(h, L + 1 - i)):
                reached.setdefault((u, g), set()).add(i + g)
            if i + h <= L and (u, i + h) not in walked:
                walked.add((u, i + h))
                crossings.append((u, i + h))
    for (u, g), shifts in reached.items():
        marks = F[u]
        shifts.update(g - x for x in range(max(g - L, 0), g + 1) if marks[x])
        if len(shifts) > 1:
            raise AssertionError("marker iterates are not disjoint")


def krieger_markers(
    p: CoveringPresentation, n: int, L: int, horizon: int
) -> MarkerSet:
    """The marker construction at level ``n`` with window ``L``.

    Towers of height above ``L`` contribute every (L+1)-th floor as a
    marker; when the last marked floor sits more than L+1 below the top,
    the points of the next candidate floor that dodge the marked floors
    for L steps are added too.  ``F`` comes back as a set of
    depth-``horizon`` path prefixes, with its first L forward iterates
    checked pairwise disjoint.  The work runs on per-tower floor marks
    (see :class:`_Cylinders`); the path of each cylinder of ``F`` is read
    once, by descent, for the result only.  When the horizon cannot sort
    the points of a residual floor, :class:`UnsettledResidual` names the
    level-n edge and floor, with the reason of the unsettled candidate
    whose path is least.
    """
    markers, cyl, E, F = _krieger_markers(p, n, L, horizon)
    # E and the residual atoms lie inside F
    path = {c: cyl.path(c) for c in _cylinders_of(F)}
    atoms = []
    for atom in markers.atoms:
        if atom["kind"] == "residual":
            atom = dict(atom)
            atom["paths"] = tuple(sorted(map(path.__getitem__, atom.pop("cylinders"))))
        atoms.append(atom)
    E = frozenset(map(path.__getitem__, _cylinders_of(E)))
    return replace(markers, F=frozenset(path.values()), E=E, atoms=tuple(atoms))


def _krieger_markers(p: CoveringPresentation, n: int, L: int, horizon: int):
    """:func:`krieger_markers` on per-tower floor marks.

    Returns the marker set with empty ``F`` and ``E`` and its residual
    atoms listing ``cylinders`` instead of ``paths``, the cylinders, and
    the marks of ``E`` and ``F``: per tower, a byte per floor, 1 on a
    marker floor.  A residual candidate more than L floors below its tower
    top reads the marks of the L floors above; one nearer the top reads
    its chain across the top with :func:`_chain_events`.
    """
    if L < 1:
        raise InvalidParameter(f"the window L must be at least 1, got {L}")
    if horizon < n + 1:
        raise HorizonExceeded("horizon must reach past the level")
    g = level_graph(p, n)
    Lp = L + 1
    J = sorted(e for e in g.edges if g.length[e] >= Lp)
    P = sorted(e for e in g.edges if g.length[e] <= L)
    k = {e: (g.length[e] - Lp) // Lp for e in J}
    if any(not g.length[e] - 2 * Lp < Lp * k[e] <= g.length[e] - Lp for e in J):
        raise AssertionError("k(e) window is empty")
    cyl = _cylinders(p, n, horizon)
    blank = {e: bytes(h) for e, h in cyl.floors.items()}
    # a block of a tall edge e marks every (L+1)-th floor up to Lp * k[e]
    block = dict(blank)
    for e in J:
        block[e] = (b"\x01" + bytes(L)) * (k[e] + 1)
        block[e] += bytes(g.length[e] - len(block[e]))
    atoms = [
        {"kind": "E", "level": n, "edge": e, "floor": i}
        for e in J
        for i in range(0, Lp * k[e] + 1, Lp)
    ]
    E = cyl.lay(block)
    F = {v: bytearray(m) for v, m in E.items()}
    for e in J:
        residual_floor = Lp * (k[e] + 1)
        if residual_floor == g.length[e]:
            continue
        candidates = dict(blank)
        candidates[e] = bytes(residual_floor) + b"\x01"
        candidates[e] += bytes(g.length[e] - residual_floor - 1)
        kept, unsettled = [], []
        for v, f in _cylinders_of(cyl.lay(candidates)):
            if f + L < cyl.heights[v]:
                if E[v].find(1, f, f + Lp) < 0:
                    kept.append((v, f))
                continue
            hit, fail, whole = _chain_events(cyl, (v, f), L, E, 1)
            if hit <= L and whole:
                continue  # it lands in E
            if hit <= L:
                reason = "membership splits a horizon cylinder"
            elif fail <= L:
                reason = "two boundary resolutions in one chain"
            else:
                kept.append((v, f))
                continue
            unsettled.append((cyl.path((v, f)), reason))
        if unsettled:
            # the reason is that of the unsettled candidate with the least path
            raise UnsettledResidual(e, residual_floor, min(unsettled)[1])
        if kept:
            for v, f in kept:
                F[v][f] = 1
            residual = {"kind": "residual", "level": horizon, "edge": e}
            atoms.append(residual | {"floor": residual_floor, "cylinders": tuple(kept)})
    _check_iterates(cyl, F, L)
    markers = MarkerSet(n, L, horizon, tuple(J), tuple(P), k, atoms=tuple(atoms))
    return markers, cyl, E, F


def _chain_events(cyl: _Cylinders, start: tuple, L: int, marks: dict, delta: int):
    """The rounds ``(hit, fail, whole)`` at which the chain of shifts by
    ``delta`` from ``start`` first meets a marked floor and crosses a
    second tower end, or L + 1, and whether every branch is marked at
    round ``hit`` (always so before the crossing).

    ``marks`` reads each tower in the direction of the chain: it climbs
    its tower, crosses onto the first floors of the towers the boundary
    names, and climbs those together until the shortest ends.
    """
    v, f = start
    c = len(marks[v]) - f  # the round of the crossing
    x = marks[v].find(1, f + 1, f + min(c, L + 1))
    if x >= 0 or c > L:
        return x - f if x >= 0 else L + 1, L + 1, True
    targets = cyl._targets(v, delta)
    span = min((cyl.heights[u] for u in targets), default=L + 1)
    found = [marks[u].find(1, 0, min(span, L + 1 - c)) for u in targets]
    # every branch is marked at the first marked floor x when each finds x
    x = min((y for y in found if y >= 0), default=L + 1 - c)
    return c + x, c + span, found.count(x) == len(found)


def _probe(cyl: _Cylinders, start: tuple, L: int, F: dict, back: dict):
    """Whether some shift of ``start`` by at most L either way meets ``F``.

    ``back`` reads the marks of ``F`` top to bottom.  The chains of
    :func:`_chain_events` either way grow one shift per round, forward
    first; a chain that crosses two tower ends adds an unresolved probe
    then and in every round after it until one answers.  Returns the
    answer and count.
    """
    v, f = start
    if F[v][f]:
        return True, 0
    hit_f, fail_f, _ = _chain_events(cyl, start, L, F, 1)
    hit_b, fail_b, _ = _chain_events(cyl, (v, len(F[v]) - 1 - f), L, back, -1)
    rnd, backward = min((hit_f, 0), (hit_b, 1))
    return rnd <= L, max(0, rnd - fail_f + backward) + max(0, rnd - fail_b)


def krieger_coverage(
    p: CoveringPresentation, n: int, L: int, horizon: int
) -> Report:
    """Brute-force check of the marker guarantees at the horizon depth.

    Every depth-horizon cylinder outside the +-L shift iterates of the
    marker set must lie in a tower of height at most L that carries a
    certified periodic orbit of period at most L.  A floor f of a tower of
    height h with L <= f < h - L crosses no tower end within L shifts, so
    it is covered exactly when the marks of ``F`` widened by L either way
    cover it; uncovered floors come in runs, read a level-n block at a
    time.  The floors within L of a tower end are probed by :func:`_probe`,
    which counts the unresolved probes.  Only a violation reads its path,
    and periodic orbits are enumerated only when an uncovered cylinder lies
    in a tower of height at most L.  The verdict is UNKNOWN, with witness
    ``(edge, floor, reason)``, when a residual marker floor is unsettled.
    """
    details = {"level": n, "L": L, "horizon": horizon}
    try:
        markers, cyl, _, F = _krieger_markers(p, n, L, horizon)
    except UnsettledResidual as exc:
        witness = (exc.edge, exc.floor, str(exc))
        reason = "a residual marker floor is not settled at this horizon"
        return Report("krieger", UNKNOWN, (witness,), details | {"reason": reason})
    violations, outside_towers, unresolved, certified = [], set(), 0, None
    back = {v: m[::-1] for v, m in F.items()}
    for v, h in cyl.heights.items():
        # near[f] is 1 when a floor of F lies within L of floor f
        near = m = int.from_bytes(F[v], "little")
        for d in range(1, L + 1):
            near |= m << 8 * d | m >> 8 * d
        runs = list(_unmarked(near.to_bytes(h + L, "little"), L, h - L))
        for f in itertools.chain(range(min(L, h)), range(max(L, h - L), h)):
            inside, probes = _probe(cyl, (v, f), L, F, back)
            unresolved += probes
            if not inside:
                runs.append((f, f + 1))
        stack = cyl.stack[v]
        starts = list(
            itertools.accumulate(map(cyl.floors.__getitem__, stack), initial=0)
        )
        for a, b in sorted(runs):
            j = bisect.bisect_right(starts, a) - 1
            while a < b:  # one level-n block at a time
                e, end = stack[j], min(b, starts[j + 1])
                outside_towers.add(e)
                if e not in markers.P:
                    reason = "tall tower"
                else:
                    if certified is None:
                        certified = {
                            orbit.support[0]
                            for orbit in periodic_orbits(p, n, max_period=L)
                            if orbit.certainty == "CERTIFIED"
                        }
                    reason = None if e in certified else "no certified periodic orbit"
                if reason:
                    violations.extend(
                        {"path": cyl.path((v, f)), "tower": e, "reason": reason}
                        for f in range(a, end)
                    )
                a, j = end, j + 1
    details["outside_towers"] = sorted(outside_towers)
    details["unresolved_probes"] = unresolved
    details["violations"] = violations
    witnesses = tuple((v["tower"], v["reason"]) for v in violations)
    return Report("krieger", FAILS if violations else HOLDS, witnesses, details)


# ---------------------------------------------------------------------------
# isomorphism of stationary presentations


class _Colouring:
    """One colouring of the edges and vertices of two presentations.

    Objects are numbered: the edges of ``p`` in id order, then those of
    ``q``, then the vertices of ``p`` and of ``q``, each in id order.
    ``colour[x]`` names the cell of ``x`` and ``cells`` maps a cell to its
    members, so one cell means the same thing on both sides; a cell is
    balanced when it holds as many objects of ``p`` as of ``q``.
    ``pending`` holds, in queue order, the cells that the others are not
    yet stable against.
    """

    def __init__(self, links, in_q, n_edges, colour, cells, pending, next_cell):
        self.links, self.in_q, self.n_edges = links, in_q, n_edges
        self.colour, self.cells = colour, cells
        self.pending, self.next_cell = pending, next_cell
        self.first_open = 0

    def copy(self) -> "_Colouring":
        twin = _Colouring(
            self.links,
            self.in_q,
            self.n_edges,
            list(self.colour),
            {c: set(members) for c, members in self.cells.items()},
            dict(self.pending),
            self.next_cell,
        )
        twin.first_open = self.first_open
        return twin

    def split(self, c: int, groups: dict) -> bool:
        """Move each group of cell ``c`` to a cell of its own.

        ``groups`` maps a signature to the members of ``c`` that have it;
        members in no group keep ``c``, and when there are none the
        largest group keeps it.  The pieces are queued as splitters, all
        but the largest unless ``c`` was still queued (Hopcroft).  False
        when a piece is unbalanced: no isomorphism is left below.
        """
        cell = self.cells[c]
        pieces = [groups[key] for key in sorted(groups)]
        rest = len(cell) - sum(map(len, pieces))
        if rest == 0:
            if len(pieces) < 2:
                return True
            j = max(range(len(pieces)), key=lambda i: len(pieces[i]))
            rest = len(pieces.pop(j))
        in_q = self.in_q
        for piece in pieces:
            if 2 * sum(in_q[x] for x in piece) != len(piece):
                return False
        new = []
        for piece in pieces:
            d = self.next_cell
            self.next_cell += 1
            cell.difference_update(piece)
            self.cells[d] = set(piece)
            for x in piece:
                self.colour[x] = d
            new.append((len(piece), d))
        if c not in self.pending:
            new.append((rest, c))
            new.remove(max(new, key=lambda t: t[0]))
        self.pending.update((d, None) for _, d in new)
        return True

    def refine(self) -> bool:
        """Split cells until every cell is stable against every other.

        A splitter sends each object linked to one of its members a code:
        the places of its letters in an edge's word, the places where an
        edge occurs in its words, and the ends of its edges; or, for a
        vertex cell, which edges start or end there.  Objects of one cell
        with different code multisets are told apart.  False when the two
        sides stop matching.
        """
        links, colour = self.links, self.colour
        while self.pending:
            s, _ = self.pending.popitem()
            codes = {}
            for x in self.cells[s]:
                for y, code in links[x]:
                    codes.setdefault(y, []).append(code)
            touched = {}
            for y, received in codes.items():
                received.sort()
                groups = touched.setdefault(colour[y], {})
                groups.setdefault(tuple(received), []).append(y)
            for c, groups in touched.items():
                if not self.split(c, groups):
                    return False
        return True

    def open_edge(self) -> int | None:
        """The least edge of ``p`` whose image is not yet determined."""
        colour, cells = self.colour, self.cells
        while self.first_open < self.n_edges:
            if len(cells[colour[self.first_open]]) > 2:
                return self.first_open
            self.first_open += 1
        return None

    def branches(self, x: int):
        """Refined colourings that pair ``x`` with each candidate in turn."""
        for y in sorted(y for y in self.cells[self.colour[x]] if self.in_q[y]):
            child = self.copy()
            if child.split(self.colour[x], {(): [x, y]}) and child.refine():
                yield child


def _colouring(p: CoveringPresentation, q: CoveringPresentation) -> _Colouring | None:
    """The shared starting colouring of ``p`` and ``q``, every cell queued.

    Edges are coloured by (multiplicity, word length) and vertices by one
    colour; None when the edge colours do not match between the sides.
    """
    sides = (p, q)
    edge_ids = [s.self_cover.domain.sorted_edges() for s in sides]
    vertex_ids = [sorted(s.self_cover.domain.vertices) for s in sides]
    n_edges, n_vertices = len(edge_ids[0]), len(vertex_ids[0])
    size = 2 * (n_edges + n_vertices)
    links = [[] for _ in range(size)]
    in_q = [0] * n_edges + [1] * n_edges + [0] * n_vertices + [1] * n_vertices
    start = {}
    for k, s in enumerate(sides):
        g, walks = s.self_cover.domain, s.self_cover.emap
        edge = {e: k * n_edges + i for i, e in enumerate(edge_ids[k])}
        first = 2 * n_edges + k * n_vertices
        vertex = {v: first + i for i, v in enumerate(vertex_ids[k])}
        for e, x in edge.items():
            for i, letter in enumerate(walks[e]):
                y = edge[letter]
                links[x].append((y, 4 * i + 1))  # y occurs at place i of x's word
                links[y].append((x, 4 * i))  # x's word has y at place i
            src, rng = vertex[g.src[e]], vertex[g.rng[e]]
            links[x] += ((src, 2), (rng, 3))
            links[src].append((x, 2))
            links[rng].append((x, 3))
            start.setdefault((s.multiplicities[e], len(walks[e])), []).append(x)
    root = _Colouring(
        links,
        in_q,
        n_edges,
        [0] * (2 * n_edges) + [1] * (2 * n_vertices),
        {0: set(range(2 * n_edges)), 1: set(range(2 * n_edges, size))},
        {0: None, 1: None},
        2,
    )
    return root if root.split(0, start) else None


def _structure_map(p: CoveringPresentation, q: CoveringPresentation, emap: dict):
    """The vertex map that makes ``emap`` an isomorphism of ``p`` onto ``q``.

    None unless ``emap`` carries multiplicities, sources, ranges and the
    expansion walks and the vertex map it induces is injective.
    """
    g1, g2 = p.self_cover.domain, q.self_cover.domain
    edges1 = g1.sorted_edges()
    if any(p.multiplicities[e] != q.multiplicities[emap[e]] for e in edges1):
        return None
    vmap = {}
    for e in edges1:
        for a, b in ((g1.src[e], g2.src[emap[e]]), (g1.rng[e], g2.rng[emap[e]])):
            if vmap.setdefault(a, b) != b:
                return None
    if len(set(vmap.values())) != len(vmap):
        return None
    if all(
        tuple(emap[x] for x in p.self_cover.emap[e]) == q.self_cover.emap[emap[e]]
        for e in edges1
    ):
        return vmap
    return None


def find_cover_isomorphism(p: CoveringPresentation, q: CoveringPresentation):
    """A structure bijection between two stationary presentations.

    Returns ``(vertex_map, edge_map)`` or None.  The maps must carry
    sources, ranges, multiplicities, and the expansion walks of one
    self-cover onto the other.  A finite prefix raises
    :class:`UnsupportedKind`: its levels cannot settle the question.

    The search colours the edges and vertices of both presentations at
    once (colour refinement, as in McKay and Piperno, *Practical graph
    isomorphism II*, 2014).  Edges start coloured by multiplicity and
    word length; an edge is then told apart by the colours of its ends,
    of its word's letters place by place, and of the words it occurs in
    with its places there, and a vertex by the colours of its out- and
    in-edges.  Only cells that split are used to split others.  A colour
    class with more members on one side ends the branch.  When the
    colours are stable but do not pair every edge, the least edge of
    ``p`` (in id order) with an undetermined image is paired with each
    edge of ``q`` in its class, in id order, and the colours are refined
    again.  An isomorphism keeps every colour, so refinement cuts only
    branches without one; every edge of ``p`` before the paired one is
    already determined, so the first complete pairing that passes the
    structure check is the isomorphism whose edge map, read in the id
    order of ``p``, is lexicographically least.
    """
    if p.kind != "stationary" or q.kind != "stationary":
        raise UnsupportedKind("cover isomorphism needs two stationary presentations")
    g1, g2 = p.self_cover.domain, q.self_cover.domain
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    root = _colouring(p, q)
    if root is None or not root.refine():
        return None
    edges1, edges2 = g1.sorted_edges(), g2.sorted_edges()
    n = len(edges1)
    stack = [iter([root])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        x = node.open_edge()
        if x is not None:
            stack.append(node.branches(x))
            continue
        cells, colour = node.cells, node.colour
        emap = {edges1[e]: edges2[max(cells[colour[e]]) - n] for e in range(n)}
        vmap = _structure_map(p, q, emap)
        if vmap is not None:
            return vmap, emap
    return None
