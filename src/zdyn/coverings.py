"""Covering presentations, their towers, and the closing/regulation checks.

A covering is a sequence of weighted covers descending to the singleton
graph, presented as one record: a finite prefix of weighted levels and
covers, then optionally a self-cover of the top shape that repeats
forever, the weighted levels above the top expanded on demand by length
propagation.  A stationary presentation is the one-level prefix, weighted
by the multiplicities, that repeats its self-cover from level 2 on.  A
truncated prefix, with no repeated cover, stands for every covering
sequence that extends it, so a check settles on it only what no deeper
level can overturn and says UNKNOWN otherwise.

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


@dataclass(frozen=True)
class CoveringPresentation:
    """A covering sequence: a finite prefix of levels, then perhaps a repeated cover.

    ``graphs`` lists the weighted levels G1..GN and ``covers`` the
    weighted covers G2 -> G1, ..., GN -> GN-1.  ``self_cover``, a
    self-cover of the top shape, maps each level above GN onto the one
    below, forever, the lengths propagating along its walks.  When it is
    None the prefix is truncated: it stands for every covering sequence
    that extends it, so a check settles on it only what no continuation
    can overturn and says UNKNOWN otherwise.  A stationary presentation
    is the one-level prefix, its lengths the multiplicities, that repeats
    its self-cover from level 2 on; a repeating tail repeats its last
    cover.
    """

    graphs: tuple = ()
    covers: tuple = ()
    self_cover: Cover | None = None

    @property
    def stationary(self) -> bool:
        """Whether this is one level followed by its self-cover forever."""
        return self.self_cover is not None and len(self.graphs) == 1 and not self.covers

    def depth(self) -> int | None:
        """Largest materializable level, or None when unbounded."""
        return None if self.self_cover is not None else len(self.graphs)

    def _check_depth(self, n: int) -> None:
        limit = self.depth()
        if n < 0 or (limit is not None and n > limit):
            raise DepthOutOfRange(f"level {n} not materializable")

    @functools.cached_property
    def _lengths(self) -> list:
        """Edge lengths by level from the top one, extended on demand."""
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
    """The level-1 shape of ``cover`` weighted by ``multiplicities``, then ``cover`` forever."""
    if cover.domain != cover.codomain:
        raise HomomorphismViolation("a stationary presentation needs a self-cover")
    g = cover.domain
    first = Graph(
        vertices=g.vertices, edges=g.edges, src=g.src, rng=g.rng, length=multiplicities
    )
    return CoveringPresentation(graphs=(first,), self_cover=cover)


def finite_prefix_presentation(
    level_graphs, level_covers, repeat: bool = False
) -> CoveringPresentation:
    """The levels and covers of a prefix, its last cover repeated above the top if ``repeat``."""
    covers = tuple(level_covers)
    return CoveringPresentation(tuple(level_graphs), covers, covers[-1] if repeat else None)


def _shape(g) -> tuple:
    """A level's vertices and edge ends, its lengths left out."""
    return g.vertices, g.edges, g.src, g.rng


def validate_presentation(p: CoveringPresentation) -> list[str]:
    problems = []
    cover = p.self_cover
    if p.stationary:
        g, shape = p.graphs[0], cover.domain
        if _shape(g) != _shape(shape):
            return ["level 1 does not have the self-cover's shape"]
        problems.extend(f"level 1: {msg}" for msg in graphs.validate_graph(shape))
        bad = graphs.cover_violations(cover)
        problems.extend(bad)
        if not bad and not graphs.cover_flags(cover).weighted:
            problems.append("self-cover is not +directional and edge-surjective")
        for e in shape.sorted_edges():
            if p.graphs[0].length.get(e, 0) < 1:
                problems.append(f"edge {e} lacks a positive multiplicity")
        return problems
    if not p.graphs:
        return ["need at least one level above the root"]
    if len(p.covers) != len(p.graphs) - 1:
        problems.append("need exactly one cover between consecutive levels")
        return problems
    if cover is not None and _shape(p.graphs[-1]) != _shape(p.graphs[-2]):
        problems.append("repeating tail needs a self-cover at the top")
    for n, c in enumerate(p.covers, start=2):
        if (_shape(c.domain), _shape(c.codomain)) != (
            _shape(p.graphs[n - 1]), _shape(p.graphs[n - 2])
        ):
            problems.append(f"cover {n} does not join the shapes of levels {n} and {n - 1}")
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


def _stationary_lengths(p: CoveringPresentation, n: int):
    """Level-n edge lengths from the top level on, where the self-cover repeats.

    Read-only, computed level by level and kept on the presentation.
    """
    base, emap = len(p.graphs), p.self_cover.emap
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
    if n <= len(p.graphs):
        return p.graphs[n - 1]
    # the levels above the top keep its shape
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
    base = p.covers[n - 2] if n <= len(p.graphs) else p.self_cover
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
    the new multiplicities).  Other cuts produce a finite prefix.  Its
    last cover repeats when ``p`` repeats a cover and the last two cuts
    lie where it repeats, at or above level N - 1 of an N-level prefix:
    every cover between them is then the repeated one, and so is every
    cover of each later gap.  Otherwise the prefix is truncated, and one
    cut leaves one level.
    """
    cuts = _checked_cuts(cut_points, p.depth())
    if p.stationary:
        K = cuts[0]
        if all(c == K * (i + 1) for i, c in enumerate(cuts)):
            return stationary_presentation(
                graphs.cover_power(p.self_cover, K), _stationary_lengths(p, K)
            )
    level_graphs = [level_graph(p, c) for c in cuts]
    level_covers = [compose_range(p, a, b) for a, b in zip(cuts, cuts[1:])]
    repeats = p.self_cover is not None and len(cuts) > 1 and cuts[-2] >= len(p.graphs) - 1
    return finite_prefix_presentation(level_graphs, level_covers, repeats)


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


def _cycle_through(rel: dict, e: str) -> tuple[str, ...]:
    """The cycle of ``rel`` through ``e`` read upward, ending with ``e``."""
    cycle = [e]
    while rel[cycle[-1]] != e:
        cycle.append(rel[cycle[-1]])
    return tuple(reversed(cycle))


def _descents(p: CoveringPresentation, n: int) -> dict:
    """Each top-level edge, in id order, to its single-image chain down to level ``n``.

    A chain lists its edges upward, from level ``n`` to the top; the
    edges whose descent meets an expansion of two or more edges are left
    out.  From the top level on, each chain is its top edge alone.
    """
    chains = {e: (e,) for g in p.graphs[-1:] for e in sorted(g.edges)}
    for cov in reversed(p.covers[n - 1:]):
        chains = {
            e: (cov.emap[c[0]][0], *c)
            for e, c in chains.items()
            if len(cov.emap[c[0]]) == 1
        }
    return chains


def find_constant_chains(p: CoveringPresentation) -> list[ConstantChain]:
    """All infinitely constantly covered level-1 edges with witnesses.

    A level-1 edge is covered when it ends the descent of a top-level
    edge on a cycle of the self-cover's single-image relation.  Those are
    exactly the edges with arbitrarily long constant chains above them: a
    chain that climbs forever through finitely many edges meets some edge
    twice, and that edge lies on a cycle; the edges below it on the chain
    are its images, and a function maps each of its cycles onto itself.
    An edge on a cycle has the cycle run backwards above it.  On a
    truncated prefix every descent from the top is returned as a
    within-prefix witness only (``exact`` is False).
    """
    cover = p.self_cover
    chains = _descents(p, 1)
    if cover is None:
        return [ConstantChain(c[0], c[1:], (), exact=False) for c in chains.values()]
    rel = _single_image_relation(cover)
    cycles = graphs.map_cycles(rel)
    return [
        ConstantChain(c[0], c[1:-1], _cycle_through(rel, e))
        for e, c in chains.items()
        if e in cycles
    ]


def _is_circuit_edge(g, e: str) -> bool:
    return g.src[e] == g.rng[e]


def _chain_is_circuits(p: CoveringPresentation, chain: ConstantChain) -> bool:
    """Whether every edge of ``chain`` is a circuit of its level's shape."""
    below = zip(p.graphs, (chain.edge, *chain.transient))
    return all(_is_circuit_edge(g, e) for g, e in below) and all(
        _is_circuit_edge(p.graphs[-1], e) for e in chain.cycle
    )


def check_closing(p: CoveringPresentation) -> Report:
    """Every infinite constant covering must consist of circuits.

    A truncated prefix settles this only when no chain reaches its top,
    and an empty one never: a chain that does may die or go on in a
    continuation.  Otherwise the verdict is UNKNOWN, with the
    within-prefix chains through a non-circuit edge as its witnesses.
    """
    chains = find_constant_chains(p)
    bad = [c for c in chains if not _chain_is_circuits(p, c)]
    witnesses = tuple((c.edge, c.transient, c.cycle) for c in bad)
    if p.self_cover is None and (chains or not p.graphs):
        reason = "truncated prefix: chains not extendable"
        return Report("closing", UNKNOWN, witnesses, {"reason": reason})
    if bad:
        reason = "constant chain through a non-circuit edge"
        return Report("closing", FAILS, witnesses, {"reason": reason})
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
    return graphs.map_cycles(loop_rel)


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
    self-cover: its descent from the top is all circuits and the top
    lies on a circuit cycle of the repeated cover.  On a truncated prefix
    a chain to the top leaves the level UNKNOWN.  When a self-cover
    repeats, the report also carries an asymptotic verdict about the
    edges of bounded length under it, which stay short forever; edges of
    unbounded length are listed as undecided since a finite threshold
    sequence cannot constrain their tail.  The overall verdict is the
    worst of the level and asymptotic verdicts.
    """
    seq = _checked_l_seq(l_seq, n_max)
    p._check_depth(n_max)
    cover = p.self_cover
    good = set() if cover is None else _circuit_chain_edges(cover)
    levels = []
    for n in range(1, n_max + 1):
        g = level_graph(p, n)
        short = sorted(e for e in g.edges if g.length[e] <= seq[n - 1])
        reached = {
            c[0]
            for top, c in _descents(p, n).items()
            if (cover is None or top in good)
            and all(_is_circuit_edge(gk, e) for gk, e in zip((g, *p.graphs[n:]), c))
        }
        bad = [e for e in short if e not in reached]
        verdict = FAILS if bad else UNKNOWN if short and cover is None else HOLDS
        levels.append({"level": n, "verdict": verdict, "witnesses": tuple(bad)})
    if cover is None:
        asymptotic = {"verdict": UNKNOWN, "witnesses": ()}
    else:
        growing = growing_symbols(cover.emap)
        stray = sorted(cover.emap.keys() - growing - good)
        asymptotic = {
            "verdict": FAILS if stray else HOLDS,
            "witnesses": tuple(stray),
            "undecided": sorted(
                e for e in cover.domain.edges if e in growing and e not in good
            ),
        }
    verdicts = {entry["verdict"] for entry in (*levels, asymptotic)}
    overall = next(v for v in (FAILS, UNKNOWN, HOLDS) if v in verdicts)
    witnesses = tuple(
        (entry["level"], e) for entry in levels for e in entry["witnesses"]
    )
    details = {"levels": levels, "asymptotic": asymptotic}
    return Report("regulated", overall, witnesses, details)


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
    basic graph.  The covered edges are read off the repeated cover at a
    level n >= 1 that only it covers from above, n >= N - 1 on an
    N-level prefix; at any other level none is certified.
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
    cover = p.self_cover
    repeated = cover is not None and n >= max(1, len(p.graphs) - 1)
    good = _circuit_chain_edges(cover) if repeated else set()
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


def _edge_colours(p: CoveringPresentation, q: CoveringPresentation):
    """The coarsest stable colouring of the edges of ``p`` and ``q`` at once.

    Colour refinement, as in McKay and Piperno, *Practical graph
    isomorphism II* (2014), over the edges and vertices of both sides.
    Edges start coloured by multiplicity and walk length, vertices alike.
    A splitter cell sends each object linked to one of its members a
    code: to an edge, each place of its walk that holds a member and
    whether a member is its source or range; to an edge in a member's
    walk, its place there; to a vertex, whether a member starts or ends
    there.  Members of one cell that receive different code multisets
    go to different cells, and only new cells are queued as splitters,
    all but the largest piece unless the old cell was queued (Hopcroft).
    An isomorphism keeps every colour, so None when a cell has more
    members on one side; otherwise one map per side from edge to colour.
    """
    edge_index, links, in_q, colour, start = [], [], [], [], {}
    for k, s in enumerate((p, q)):
        g, walks = s.graphs[0], s.self_cover.emap
        n = len(links)
        # vertices and edges are numbered apart: a vertex id may be an edge id
        edge = {e: n + i for i, e in enumerate(g.edges)}
        vertex = {v: n + len(edge) + i for i, v in enumerate(g.vertices)}
        links += [[] for _ in range(len(edge) + len(vertex))]
        in_q += [k] * (len(edge) + len(vertex))
        colour += [start.setdefault((g.length[e], len(walks[e])), len(start)) for e in edge]
        colour += [start.setdefault(None, len(start))] * len(vertex)
        for e, x in edge.items():
            for i, letter in enumerate(walks[e]):
                links[x].append((edge[letter], 4 * i + 1))
                links[edge[letter]].append((x, 4 * i))
            for v, code in ((g.src[e], 2), (g.rng[e], 3)):
                links[x].append((vertex[v], code))
                links[vertex[v]].append((x, code))
        edge_index.append(edge)

    def balanced(members) -> bool:
        return 2 * sum(in_q[x] for x in members) == len(members)

    cells = {}
    for x, c in enumerate(colour):
        cells.setdefault(c, set()).add(x)
    if not all(map(balanced, cells.values())):
        return None
    pending = set(cells)
    while pending:
        received = {}
        for x in cells[pending.pop()]:
            for y, code in links[x]:
                received.setdefault(y, []).append(code)
        touched = {}
        for y, codes in received.items():
            codes.sort()
            touched.setdefault(colour[y], {}).setdefault(tuple(codes), []).append(y)
        for c, groups in touched.items():
            cell, pieces = cells[c], list(groups.values())
            if len(pieces[0]) == len(cell):
                continue
            if sum(map(len, pieces)) == len(cell):
                pieces.remove(max(pieces, key=len))  # the old cell keeps it
            if not all(map(balanced, pieces)):
                return None
            new = []
            for piece in pieces:
                d = len(cells)
                cells[d] = set(piece)
                cell.difference_update(piece)
                for x in piece:
                    colour[x] = d
                new.append(d)
            if c not in pending:
                new.append(c)
                new.remove(max(new, key=lambda d: len(cells[d])))
            pending.update(new)
    return [{e: colour[x] for e, x in edge.items()} for edge in edge_index]


def find_cover_isomorphism(p: CoveringPresentation, q: CoveringPresentation):
    """A structure bijection between two stationary presentations.

    Returns ``(vertex_map, edge_map)`` or None.  The maps must carry
    sources, ranges, multiplicities, and the expansion walks of one
    self-cover onto the other.  A finite prefix raises
    :class:`UnsupportedKind`: its levels cannot settle the question.

    The substitution forces the answer: a map that sends edge ``e`` to
    ``f`` sends the i-th letter of ``e``'s walk to the i-th letter of
    ``f``'s.  Pairing one edge therefore pairs every edge its walks
    reach, first in, first out, and the pairing fails at the first pair
    whose colours (:func:`_edge_colours`) differ, whose ends disagree
    with the vertex map, or that is not injective on edges or on
    vertices.  When the forced pairs run out, the least edge of ``p`` (in
    id order) with no image is paired with each edge of ``q`` that has
    no preimage, in id order, and a failed branch is undone from the
    trail.  Every edge of ``p`` before the branching one already has its
    image, so the first complete pairing is the isomorphism whose edge
    map, read in the id order of ``p``, is lexicographically least.  The
    vertex map lists the sources and ranges of ``p``'s edges in that
    order.
    """
    if not (p.stationary and q.stationary):
        raise UnsupportedKind("cover isomorphism needs two stationary presentations")
    g1, g2 = p.graphs[0], q.graphs[0]
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    walks1, walks2 = p.self_cover.emap, q.self_cover.emap
    colours = _edge_colours(p, q)
    if colours is None:
        return None
    colour1, colour2 = colours
    # vertices and edges have separate tables, as in the colouring
    emap, eback, vmap, vback = {}, {}, {}, {}
    trail = []  # (map, inverse, key) for each entry added, in order

    def pair(e, f) -> bool:
        forced = [(e, f)]
        for e, f in forced:
            if emap.get(e, f) != f or eback.get(f, e) != e:
                return False
            if e in emap:
                continue
            if colour1[e] != colour2[f]:
                return False
            for a, b in ((g1.src[e], g2.src[f]), (g1.rng[e], g2.rng[f])):
                if vmap.get(a, b) != b or vback.get(b, a) != a:
                    return False
                if a not in vmap:
                    vmap[a], vback[b] = b, a
                    trail.append((vmap, vback, a))
            emap[e], eback[f] = f, e
            trail.append((emap, eback, e))
            forced.extend(zip(walks1[e], walks2[f]))
        return True

    edges1, edges2 = g1.sorted_edges(), g2.sorted_edges()
    stack = []  # (index of the branching edge, its candidates, trail mark)
    i = 0
    while True:
        i = next((j for j in range(i, len(edges1)) if edges1[j] not in emap), None)
        if i is None:
            vorder = (v for e in edges1 for v in (g1.src[e], g1.rng[e]))
            return {v: vmap[v] for v in vorder}, {e: emap[e] for e in edges1}
        stack.append((i, (f for f in edges2 if f not in eback), len(trail)))
        while stack:
            i, candidates, mark = stack[-1]
            while len(trail) > mark:
                forward, backward, key = trail.pop()
                del backward[forward.pop(key)]
            f = next(candidates, None)
            if f is None:
                stack.pop()
            elif pair(edges1[i], f):
                break
        else:
            return None
