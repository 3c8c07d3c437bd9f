"""Krieger markers and coverage on per-tower marks against slower forms.

The oracles are the path-tuple forms of the marker construction and of
the coverage check: they step frozensets of depth-horizon path prefixes
through ``path_sets.step_set`` and walk every probe chain again from its
start.
The library names each cylinder by its (vertex, floor) tower coordinates
and keeps a byte per floor of each tower instead; both must give the same
markers, reports and errors.

A second oracle is the per-cylinder form in tower coordinates, with every
prefix built up front (:class:`PathCylinders`): the cylinders of each
level-n cell listed one by one, ``E`` and ``F`` as sets of cylinders, a
set probe for each residual candidate, one coverage window per floor of
``F``, chains of shifts from every floor near a tower end, and the
iterates of all of ``F`` stepped L times and intersected pairwise, all
through :func:`step`, which steps a set of cylinders at once.  The
library makes its marks a level-n block at a time, reads the residual
candidates and the probes off the marks, one chain at a time, and walks
the tower ends only from the floors of ``F`` near a tower top.  A third
oracle runs the chain loop from every cylinder.
"""

import bisect
import gc
import itertools
import operator
import random
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings
from zdyn.graphs import Cover, flexible
from zdyn.errors import (
    HorizonExceeded,
    InvalidParameter,
    UnsettledResidual,
    ZdynError,
)
from zdyn.reports import FAILS, HOLDS, UNKNOWN, Report

from helpers import example2_unit, path_rng, skew_presentation
from test_cli import DATA
from test_properties import loop_presentations
import path_sets

FIXTURES = (
    "example2_covering.json",
    "example2_weighted_covering.json",
    "fib_covering.json",
    "skew_covering.json",
)


# ---------------------------------------------------------------------------
# oracles


def oracle_step_chain(p, start, steps, forward):
    current = frozenset({start})
    budget = 1
    for _ in range(steps):
        current, exc = path_sets.step_set(p, current, forward)
        if exc:
            budget -= 1
            if budget < 0:
                raise HorizonExceeded("two boundary resolutions in one chain")
    return current


def oracle_meets_after(p, start, steps, forward, target):
    return bool(oracle_step_chain(p, start, steps, forward) & target)


def oracle_membership_after(p, start, steps, forward, target):
    current = oracle_step_chain(p, start, steps, forward)
    inside = current & target
    if inside and inside != current:
        raise HorizonExceeded("membership splits a horizon cylinder")
    return bool(inside)


def oracle_markers(p, n, L, horizon):
    if L < 1:
        raise InvalidParameter(f"the window L must be at least 1, got {L}")
    if horizon < n + 1:
        raise HorizonExceeded("horizon must reach past the level")
    g = coverings.level_graph(p, n)
    Lp = L + 1
    J = sorted(e for e in g.edges if g.length[e] >= Lp)
    P = sorted(e for e in g.edges if g.length[e] <= L)
    k = {e: (g.length[e] - Lp) // Lp for e in J}
    atoms = []
    E = frozenset()
    for e in J:
        floors = [Lp * i for i in range(k[e] + 1)]
        E |= frozenset().union(
            frozenset(),
            *(path_sets.floor_paths(p, n, e, i, horizon) for i in floors),
        )
        atoms.extend({"kind": "E", "level": n, "edge": e, "floor": i} for i in floors)
    F = set(E)
    for e in J:
        if Lp * k[e] == g.length[e] - Lp:
            continue
        residual_floor = Lp * (k[e] + 1)
        kept = [
            q
            for q in sorted(path_sets.floor_paths(p, n, e, residual_floor, horizon))
            if not any(
                oracle_membership_after(p, q, i, True, E) for i in range(L + 1)
            )
        ]
        if kept:
            F.update(kept)
            atoms.append(
                {
                    "kind": "residual",
                    "level": horizon,
                    "edge": e,
                    "floor": residual_floor,
                    "paths": tuple(kept),
                }
            )
    F = frozenset(F)
    iterates = [F]
    for _ in range(L):
        nxt, _ = path_sets.step_set(p, iterates[-1], forward=True)
        iterates.append(nxt)
    for a, b in itertools.combinations(iterates, 2):
        if a & b:
            raise AssertionError("marker iterates are not disjoint")
    return coverings.MarkerSet(
        level=n, L=L, horizon=horizon, J=tuple(J), P=tuple(P), k=k,
        F=F, E=E, atoms=tuple(atoms),
    )


def oracle_coverage(p, n, L, horizon):
    markers = oracle_markers(p, n, L, horizon)
    certified = {
        orbit.support[0]: orbit.period
        for orbit in coverings.periodic_orbits(p, n, max_period=L)
        if orbit.certainty == "CERTIFIED"
    }
    d = coverings._diagram(p)
    violations = []
    outside_towers = set()
    unresolved = 0
    for q in coverings.all_paths(p, horizon):
        inside = q in markers.F
        for i in range(1, L + 1):
            if inside:
                break
            for forward in (True, False):
                try:
                    inside = oracle_meets_after(p, q, i, forward, markers.F)
                except HorizonExceeded:
                    unresolved += 1
                if inside:
                    break
        if inside:
            continue
        e = path_rng(d, q[:n])
        outside_towers.add(e)
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


class PathCylinders:
    """The depth-``horizon`` cylinders with every prefix built up front.

    ``order`` lists the cylinders in :func:`coverings.all_paths` order
    and ``path`` maps each to its prefix; cells and members come from
    :func:`cell_of` and :func:`members_of`, and :func:`step` steps them.
    """

    def __init__(self, p, n, horizon):
        d = self.diagram = coverings._diagram(p)
        tops = d.level_vertices(horizon)
        heights = bratteli._tower_heights(d, horizon, tops)[horizon]
        self.heights = {v: heights[v] for v in tops}
        self.order = [(v, f) for v, h in self.heights.items() for f in range(h)]
        self.path = dict(zip(self.order, coverings.all_paths(p, horizon)))
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

    def members(self, cell):
        return members_of(self, cell)

    def cell(self, cylinder):
        return cell_of(self, cylinder)


def step(cyl, cylinders, forward):
    """The cylinders one shift of ``cylinders`` meets, stepped as a set.

    Returns ``(cylinders, exceptional)``, the flag telling whether some
    cylinder crossed the end of its tower.  A cylinder moves one floor up
    (down); one at its tower's end lands on the first (last) floor of each
    tower :func:`bratteli.boundary_targets` names.  ``cyl`` is a
    :class:`PathCylinders` or the library's cylinders.
    """
    heights = cyl.heights
    delta = 1 if forward else -1
    out = set()
    exceptional = False
    for v, f in cylinders:
        if 0 <= f + delta < heights[v]:
            out.add((v, f + delta))
            continue
        exceptional = True
        for u in bratteli.boundary_targets(cyl.diagram, v, delta):
            out.add((u, 0 if forward else heights[u] - 1))
    return frozenset(out), exceptional


def shifts(cyl, start, forward):
    """The cylinders the points over ``start`` meet after 1, 2, ... shifts.

    At most one tower end may be crossed along the chain; the second
    crossing raises HorizonExceeded.
    """
    current = frozenset({start})
    budget = 1
    while True:
        current, exceptional = step(cyl, current, forward)
        if exceptional:
            budget -= 1
            if budget < 0:
                raise HorizonExceeded("two boundary resolutions in one chain")
        yield current


def block_starts(cyl, v):
    """The first floors of the level-n blocks of the tower of ``v``."""
    return list(itertools.accumulate((cyl.floors[e] for e in cyl.stack[v]), initial=0))


def members_of(cyl, cell):
    """The cylinders of the level-n (edge, floor) ``cell``, tower by tower."""
    e, i = cell
    if not 0 <= i < cyl.floors.get(e, 0):
        return []
    return [
        (v, start + i)
        for v in cyl.heights
        for x, start in zip(cyl.stack[v], block_starts(cyl, v))
        if x == e
    ]


def cell_of(cyl, cylinder):
    """The level-n (edge, floor) cell holding ``cylinder``."""
    v, f = cylinder
    starts = block_starts(cyl, v)
    j = bisect.bisect_right(starts, f) - 1
    return cyl.stack[v][j], f - starts[j]


def chain_lands_in(cyl, start, L, target):
    """Whether the chain from ``start`` lands wholly in ``target`` within L."""
    for current in itertools.islice(shifts(cyl, start, True), L):
        inside = current & target
        if inside and inside != current:
            raise HorizonExceeded("membership splits a horizon cylinder")
        if inside:
            return True
    return False


def cylinder_lands_in(cyl, start, L, target):
    """Whether after some i <= L shifts all points over ``start`` are in ``target``.

    ``target`` is a set of cylinders.  A start at least L floors below the
    top floor of its tower only climbs that tower for L shifts, so the L
    floors above it decide; a chain runs only from the floors nearer the
    top.
    """
    if start in target:
        return True
    v, f = start
    if f + L < cyl.heights[v]:
        return any((v, f + i) in target for i in range(1, L + 1))
    return chain_lands_in(cyl, start, L, target)


def cylinder_probe(cyl, start, L, F):
    """Whether some shift of ``start`` by at most L either way meets ``F``.

    The forward and backward chains grow one shift per round, forward
    first.  Returns the answer and the number of unresolved probes: a
    chain that crosses two tower ends counts once then and once for every
    round after it.
    """
    if start in F:
        return True, 0
    unresolved = 0
    chains = [shifts(cyl, start, True), shifts(cyl, start, False)]
    for _ in range(L):
        for j, chain in enumerate(chains):
            if chain is None:
                unresolved += 1
                continue
            try:
                if not F.isdisjoint(next(chain)):
                    return True, unresolved
            except HorizonExceeded:
                chains[j] = None
                unresolved += 1
    return False, unresolved


def zeros(near, lo, hi):
    """The indices in ``[lo, hi)`` where ``near`` holds 0, in order."""
    i = near.find(0, lo, hi)
    while i >= 0:
        yield i
        i = near.find(0, i + 1, hi)


def iterates_collide(cyl, F, L):
    """Whether two of F, TF, ..., T^L F meet, the iterates stepped whole."""
    iterates = [frozenset(F)]
    for _ in range(L):
        iterates.append(step(cyl, iterates[-1], forward=True)[0])
    return any(a & b for a, b in itertools.combinations(iterates, 2))


def cylinders(marks):
    """The cylinders marked in the per-tower ``marks``."""
    return frozenset((v, f) for v, m in marks.items() for f, b in enumerate(m) if b)


def oracle_tower_markers(p, n, L, horizon):
    """The marker construction on :class:`PathCylinders`.

    Residual candidates are tested in path order and the first that the
    horizon cannot settle is named.  Returns the marker set with empty
    ``F`` and ``E``, the cylinders, and ``E`` and ``F`` as cylinder sets.
    """
    if L < 1:
        raise InvalidParameter(f"the window L must be at least 1, got {L}")
    if horizon < n + 1:
        raise HorizonExceeded("horizon must reach past the level")
    g = coverings.level_graph(p, n)
    Lp = L + 1
    J = sorted(e for e in g.edges if g.length[e] >= Lp)
    P = sorted(e for e in g.edges if g.length[e] <= L)
    k = {e: (g.length[e] - Lp) // Lp for e in J}
    cyl = PathCylinders(p, n, horizon)
    atoms = []
    E = set()
    for e in J:
        floors = [Lp * i for i in range(k[e] + 1)]
        for i in floors:
            E.update(cyl.members((e, i)))
        atoms.extend({"kind": "E", "level": n, "edge": e, "floor": i} for i in floors)
    F = set(E)
    for e in J:
        if Lp * k[e] == g.length[e] - Lp:
            continue
        residual_floor = Lp * (k[e] + 1)
        candidates = sorted(cyl.members((e, residual_floor)), key=cyl.path.get)
        try:
            kept = [c for c in candidates if not cylinder_lands_in(cyl, c, L, E)]
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
    if iterates_collide(cyl, F, L):
        raise AssertionError("marker iterates are not disjoint")
    markers = coverings.MarkerSet(
        level=n, L=L, horizon=horizon, J=tuple(J), P=tuple(P), k=k,
        atoms=tuple(atoms),
    )
    return markers, cyl, frozenset(E), F


def oracle_tower_krieger_markers(p, n, L, horizon):
    markers, cyl, E, F = oracle_tower_markers(p, n, L, horizon)
    return replace(
        markers,
        F=frozenset(cyl.path[c] for c in F),
        E=frozenset(cyl.path[c] for c in E),
    )


def unknown_report(n, L, horizon, exc):
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


def oracle_tower_coverage(p, n, L, horizon):
    """Coverage by floor distance on :class:`PathCylinders`."""
    try:
        markers, cyl, _, F = oracle_tower_markers(p, n, L, horizon)
    except UnsettledResidual as exc:
        return unknown_report(n, L, horizon, exc)
    certified = {
        orbit.support[0]: orbit.period
        for orbit in coverings.periodic_orbits(p, n, max_period=L)
        if orbit.certainty == "CERTIFIED"
    }
    near = {v: bytearray(h + 2 * L) for v, h in cyl.heights.items()}
    window = b"\x01" * (2 * L + 1)
    for v, f in F:
        near[v][f : f + 2 * L + 1] = window
    violations = []
    outside_towers = set()
    unresolved = 0
    for v, h in cyl.heights.items():
        bottom, top = range(min(L, h)), range(max(L, h - L), h)
        uncovered = (i - L for i in zeros(near[v], 2 * L, h))
        for f in itertools.chain(bottom, uncovered, top):
            if not L <= f < h - L:
                inside, probes = cylinder_probe(cyl, (v, f), L, F)
                unresolved += probes
                if inside:
                    continue
            e = cyl.cell((v, f))[0]
            outside_towers.add(e)
            q = cyl.path[v, f]
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


def oracle_chain_coverage(p, n, L, horizon):
    """Coverage with a forward and a backward chain from every cylinder."""
    try:
        markers, cyl, _, F = oracle_tower_markers(p, n, L, horizon)
    except UnsettledResidual as exc:
        return unknown_report(n, L, horizon, exc)
    certified = {
        orbit.support[0]: orbit.period
        for orbit in coverings.periodic_orbits(p, n, max_period=L)
        if orbit.certainty == "CERTIFIED"
    }
    d = coverings._diagram(p)
    violations = []
    outside_towers = set()
    unresolved = 0
    for c in cyl.order:
        inside = c in F
        chains = [shifts(cyl, c, True), shifts(cyl, c, False)]
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
                    chains[j] = None
                    unresolved += 1
                if inside:
                    break
        if inside:
            continue
        q = cyl.path[c]
        e = path_rng(d, q[:n]) if n else "e0"
        outside_towers.add(e)
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


def outcome(fn, *args):
    """The value of a call, or the class and message of what it raised."""
    try:
        return ("value", fn(*args))
    except UnsettledResidual as exc:
        return ("raised", type(exc), str(exc), exc.edge, exc.floor)
    except (ZdynError, AssertionError, KeyError) as exc:
        return ("raised", type(exc), str(exc))


def random_marks(rng, cyl, L, gap):
    """Marks on the floors of each tower, consecutive marks ``gap`` to 2L + 2 apart."""
    marks = {}
    for v, h in cyl.heights.items():
        m = bytearray(h)
        f = rng.randrange(L + 2)
        while f < h:
            m[f] = 1
            f += rng.randrange(gap, 2 * L + 3)
        marks[v] = m
    return marks


def presentations():
    yield from ((name, cli.read_document(DATA / name)) for name in FIXTURES)
    yield "skew", skew_presentation()


# ---------------------------------------------------------------------------
# comparisons


def assert_cells_match(p, n, horizon):
    """The blocks of each tower and their cells against path prefixes."""
    cyl = coverings._Cylinders(p, n, horizon)
    ref = PathCylinders(p, n, horizon)
    assert cyl.heights == ref.heights
    assert list(cyl.stack) == list(cyl.heights)
    d = coverings._diagram(p)
    members = {}
    for c in ref.order:
        q = ref.path[c]
        assert cyl.path(c) == q
        prefix = q[:n]
        want = (path_rng(d, prefix), bratteli.path_index(d, prefix))
        if not n:
            want = ("e0", 0)
        assert cell_of(cyl, c) == want
        members.setdefault(want, []).append(c)
    cells = [(e, i) for e, h in cyl.floors.items() for i in range(-1, h + 1)]
    got = {cell: members_of(cyl, cell) for cell in cells}
    assert {cell: m for cell, m in got.items() if m} == members
    assert members_of(cyl, ("nope", 0)) == []
    # the marks of a block, laid end to end, mark the floors of its cells
    for e, h in cyl.floors.items():
        for i in range(h):
            marks = {x: bytes(cyl.floors[x]) for x in cyl.floors}
            marks[e] = bytes(i) + b"\x01" + bytes(h - i - 1)
            laid = cyl.lay(marks)
            assert list(map(len, laid.values())) == list(cyl.heights.values())
            marked = [(v, f) for v, m in laid.items() for f in range(len(m)) if m[f]]
            assert marked == members_of(cyl, (e, i))


def assert_step_matches(p, n, horizon):
    cyl = coverings._Cylinders(p, n, horizon)
    ref = PathCylinders(p, n, horizon)
    assert_cells_match(p, n, horizon)
    cells = [(e, i) for e, h in cyl.floors.items() for i in range(h)]
    members = [members_of(cyl, cell) for cell in cells]
    sets = [[c] for c in ref.order] + members + [ref.order]
    for cylinders in sets:
        paths = frozenset(ref.path[c] for c in cylinders)
        for forward in (True, False):
            got = outcome(step, cyl, cylinders, forward)
            want = outcome(path_sets.step_set, p, paths, forward)
            if want[0] == "raised":
                assert got == want
                continue
            moved, exceptional = got[1]
            assert (frozenset(ref.path[c] for c in moved), exceptional) == want[1]


def assert_krieger_matches(p, n, L, horizon):
    want = outcome(oracle_markers, p, n, L, horizon)
    got = outcome(coverings.krieger_markers, p, n, L, horizon)
    report = outcome(coverings.krieger_coverage, p, n, L, horizon)
    if want[0] == "value":
        assert got == want
        assert report == outcome(oracle_coverage, p, n, L, horizon)
        return
    assert got[0] == "raised" and issubclass(got[1], want[1])
    assert got[2] == want[2]
    if got[1] is not UnsettledResidual:
        assert report == want
        return
    # the horizon cannot sort a residual floor: coverage answers UNKNOWN
    with pytest.raises(UnsettledResidual) as err:
        coverings.krieger_markers(p, n, L, horizon)
    assert report[0] == "value" and report[1].verdict == UNKNOWN
    assert report[1].witnesses == ((err.value.edge, err.value.floor, want[2]),)


@settings(max_examples=40, deadline=None)
@given(loop_presentations(), st.integers(1, 2), st.integers(1, 2))
def test_cylinder_step_matches_the_path_step(p, n, extra):
    assert_step_matches(p, n, n + extra)


@settings(max_examples=40, deadline=None)
@given(
    loop_presentations(), st.integers(1, 2), st.integers(1, 3), st.integers(1, 2)
)
def test_krieger_matches_the_path_oracle_on_loop_presentations(p, n, L, extra):
    assert_krieger_matches(p, n, L, n + extra)


@pytest.mark.parametrize("name", FIXTURES)
def test_krieger_matches_the_path_oracle_on_fixtures(name):
    for n in (1, 2, 3):
        assert_step_matches(cli.read_document(DATA / name), n, n + 1)
        for L, horizon in itertools.product((1, 2, 3), range(n + 1, n + 4)):
            assert_krieger_matches(cli.read_document(DATA / name), n, L, horizon)


def assert_chain_oracle_matches(p, n, L, horizon):
    want = outcome(oracle_chain_coverage, p, n, L, horizon)
    assert outcome(coverings.krieger_coverage, p, n, L, horizon) == want


@pytest.mark.parametrize("name", FIXTURES)
def test_floor_distance_matches_the_chain_loop_on_fixtures(name):
    # horizons up to n + 5 reach towers taller than 2L, so that the floor
    # distance decides some floors and the chains the rest
    for n in (1, 2, 3):
        for L, horizon in itertools.product((1, 2, 3, 4), range(n + 1, n + 6)):
            assert_chain_oracle_matches(cli.read_document(DATA / name), n, L, horizon)


@settings(max_examples=40, deadline=None)
@given(
    loop_presentations(), st.integers(0, 2), st.integers(1, 3), st.integers(1, 3)
)
def test_floor_distance_matches_the_chain_loop_on_loop_presentations(p, n, L, extra):
    assert_chain_oracle_matches(p, n, L, n + extra)


def test_floor_distance_matches_the_chain_loop_on_the_skew_case():
    for n, L, horizon in itertools.product((0, 1, 2, 3), (1, 2, 3), range(4, 9)):
        if horizon > n:
            assert_chain_oracle_matches(skew_presentation(), n, L, horizon)
    assert coverings.krieger_coverage(skew_presentation(), 3, 2, 7).verdict == UNKNOWN


def assert_tower_oracle_matches(p, n, L, horizon):
    """Reports, markers and marker cylinders against :class:`PathCylinders`."""
    report = outcome(coverings.krieger_coverage, p, n, L, horizon)
    assert report == outcome(oracle_tower_coverage, p, n, L, horizon)
    got = outcome(coverings.krieger_markers, p, n, L, horizon)
    assert got == outcome(oracle_tower_krieger_markers, p, n, L, horizon)
    if got[0] == "value":
        _, _, E, F = coverings._krieger_markers(p, n, L, horizon)
        want = oracle_tower_markers(p, n, L, horizon)[2:]
        assert (cylinders(E), cylinders(F)) == want
    return report


@pytest.mark.parametrize("name", FIXTURES)
def test_witness_paths_match_the_path_dict_on_fixtures(name):
    for n in (0, 1, 2, 3):
        for L, horizon in itertools.product((1, 2, 3), range(n + 1, 9)):
            assert_tower_oracle_matches(cli.read_document(DATA / name), n, L, horizon)


@settings(max_examples=40, deadline=None)
@given(
    loop_presentations(), st.integers(0, 3), st.integers(1, 3), st.integers(1, 5)
)
def test_witness_paths_match_the_path_dict_on_loop_presentations(p, n, L, extra):
    assert_tower_oracle_matches(p, n, L, min(n + extra, 8))


def test_witness_paths_match_the_path_dict_on_the_skew_case():
    verdicts = set()
    for n, L in itertools.product((0, 1, 2, 3), (1, 2, 3)):
        for horizon in range(n + 1, 9):
            report = assert_tower_oracle_matches(skew_presentation(), n, L, horizon)
            verdicts.add(report[1].verdict)
    assert verdicts == {HOLDS, FAILS, UNKNOWN}


SPLITS = "membership splits a horizon cylinder"
TWO_ENDS = "two boundary resolutions in one chain"


def test_the_unsettled_candidate_with_the_least_path_is_named(monkeypatch):
    # every residual candidate within L of its tower top runs a chain that
    # leaves it unsettled: the one candidate ``split`` names splits a
    # horizon cylinder and every other crosses two tower ends, so the
    # reason tells whether the named candidate is that one
    split = None

    def events(cyl, start, L, marks, delta):
        return (1, L + 1, False) if start == split else (L + 1, L, True)

    def lands_in(cyl, start, L, target):
        raise HorizonExceeded(SPLITS if start == split else TWO_ENDS)

    monkeypatch.setattr(coverings, "_chain_events", events)
    monkeypatch.setattr(sys.modules[__name__], "chain_lands_in", lands_in)
    # a self-cover whose tower tops descend through a, b, a, ... and b, a,
    # b, ..., so that path order and tower order disagree near the tops;
    # its diagram is not straight, so only the marker sets are compared
    g = flexible({"v"}, {"a": ("v", "v"), "b": ("v", "v")})
    cover = Cover(g, g, {"v": "v"}, {"a": ("a", "a", "b"), "b": ("a",)})
    alternating = coverings.stationary_presentation(cover, {"a": 1, "b": 2})
    unsettled = reordered = 0
    for p, n, L in itertools.product(
        [*(p for _, p in presentations()), alternating], (1, 2, 3), (1, 2, 3)
    ):
        split = None
        got = outcome(coverings.krieger_markers, p, n, L, 8)
        assert got == outcome(oracle_tower_krieger_markers, p, n, L, 8)
        if got[:2] != ("raised", UnsettledResidual):
            continue
        assert got[2] == TWO_ENDS
        unsettled += 1
        cyl = coverings._Cylinders(p, n, 8)
        edge, floor = got[3:]
        near_top = [
            (v, f) for v, f in members_of(cyl, (edge, floor)) if f + L >= cyl.heights[v]
        ]
        least = min(near_top, key=cyl.path)
        for split in {least, near_top[0]}:
            got = outcome(coverings.krieger_markers, p, n, L, 8)
            assert got == outcome(oracle_tower_krieger_markers, p, n, L, 8)
            assert got[2:] == (SPLITS if split == least else TWO_ENDS, edge, floor)
        reordered += near_top[0] != least
    # the least path is not always the first unsettled candidate in tower order
    assert unsettled > reordered > 0


def test_the_iterate_guard_matches_the_pairwise_test():
    rng = random.Random(13)
    seen = set()
    for _, p in presentations():
        for n, extra, L in itertools.product((0, 1, 2, 3), (1, 2, 3), (1, 2, 3)):
            cyl = coverings._Cylinders(p, n, n + extra)
            for trial in range(8):
                spaced = trial > 0
                marks = random_marks(rng, cyl, L, L + 1 if spaced else 1)
                want = iterates_collide(cyl, cylinders(marks), L)
                try:
                    coverings._check_iterates(cyl, marks, L)
                except AssertionError as exc:
                    assert want and str(exc) == "marker iterates are not disjoint"
                else:
                    assert not want
                seen.add((spaced, want))
    # marks more than L apart in every tower collide only past a tower top
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_probes_match_the_chain_probe():
    rng = random.Random(13)
    counts = set()
    for _, p in presentations():
        for n, extra, L in itertools.product((0, 1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4)):
            cyl = coverings._Cylinders(p, n, n + extra)
            F = random_marks(rng, cyl, L, rng.choice((1, L + 1, 2 * L + 2)))
            back = {v: m[::-1] for v, m in F.items()}
            targets = cylinders(F)
            for v, h in cyl.heights.items():
                for f in range(h):
                    got = coverings._probe(cyl, (v, f), L, F, back)
                    assert got == cylinder_probe(cyl, (v, f), L, targets)
                    counts.add(got)
    # the chains answer both ways, and some cross two tower ends
    assert {inside for inside, _ in counts} == {True, False}
    assert any(unresolved for _, unresolved in counts)


def spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_coverage_reads_paths_only_for_its_witnesses(monkeypatch):
    listed = spy(monkeypatch, coverings, "all_paths")
    enumerated = spy(monkeypatch, bratteli, "enumerate_paths")
    descents = spy(monkeypatch, bratteli, "path_at")
    orbits = spy(monkeypatch, coverings, "periodic_orbits")
    short = 0
    for name in FIXTURES[:3]:
        for L in (1, 2):
            report = coverings.krieger_coverage(cli.read_document(DATA / name), 3, L, 8)
            assert report.verdict == HOLDS
            short += bool(report.details["outside_towers"])
    assert (listed, enumerated, descents) == ([], [], [])
    # only a run with uncovered cylinders, all in short towers, asks for
    # the periodic orbits
    assert 0 < short == len(orbits) < 6
    # every violation reads its own path
    del orbits[:]
    report = coverings.krieger_coverage(example2_unit(), 0, 1, 3)
    assert report.verdict == FAILS
    assert (listed, enumerated) == ([], [])
    assert len(descents) == len(report.details["violations"]) > 0
    assert len(orbits) == 1


def test_markers_read_each_marker_path_once_by_descent(monkeypatch):
    listed = spy(monkeypatch, coverings, "all_paths")
    enumerated = spy(monkeypatch, bratteli, "enumerate_paths")
    descents = spy(monkeypatch, bratteli, "path_at")
    residual = 0
    for name in FIXTURES:
        p = cli.read_document(DATA / name)
        for n, L in itertools.product((0, 1, 2, 3), (1, 2, 3)):
            del descents[:]
            try:
                markers = coverings.krieger_markers(p, n, L, n + 3)
            except UnsettledResidual:
                continue  # an unsettled candidate reads its path for the error
            atoms = [q for a in markers.atoms if a["kind"] == "residual" for q in a["paths"]]
            residual += len(atoms)
            read = {args[1:] for args in descents}
            assert len(descents) == len(read) == len(markers.F | markers.E | set(atoms))
    assert (listed, enumerated) == ([], [])
    assert residual > 0


def count_chains(monkeypatch, cyl):
    """Record ``(start, delta, crossed)`` for every ``_chain_events`` call:
    a chain crossed a tower end when it read ``cyl._targets``."""
    chains = []
    events, targets = coverings._chain_events, cyl._targets
    crossed = []

    def counted(cyl, start, L, marks, delta):
        del crossed[:]
        answer = events(cyl, start, L, marks, delta)
        chains.append((start, delta, bool(crossed)))
        return answer

    def read(v, delta):
        crossed.append(v)
        return targets(v, delta)

    monkeypatch.setattr(coverings, "_chain_events", counted)
    monkeypatch.setattr(cyl, "_targets", read)
    return chains


@pytest.mark.parametrize("L", [1, 2])
def test_coverage_probes_chains_only_near_tower_ends(L, monkeypatch):
    p = cli.read_document(DATA / "fib_covering.json")
    cyl = coverings._cylinders(p, 3, 8)
    chains = count_chains(monkeypatch, cyl)
    coverings.krieger_markers(p, 3, L, 8)
    # the residual floors run chains only within L floors of a tower top,
    # and some of them cross it
    assert all(f + L >= cyl.heights[v] and delta == 1 for (v, f), delta, _ in chains)
    assert any(crossed for *_, crossed in chains)
    residual = len(chains)
    report = coverings.krieger_coverage(p, 3, L, 8)
    assert report.verdict == HOLDS
    # the coverage builds the same markers, then probes chains either way
    # only from the floors within L of a tower end, and some cross it
    assert chains[residual : 2 * residual] == chains[:residual]
    probes = chains[2 * residual :]
    assert all(min(f, cyl.heights[v] - 1 - f) < L for (v, f), *_ in probes)
    assert any(crossed for *_, crossed in probes)
    assert len(probes) <= 4 * L * len(cyl.heights)
    # the chain loop runs one forward and one backward chain from every
    # cylinder outside F
    started = spy(monkeypatch, sys.modules[__name__], "shifts")
    oracle_chain_coverage(p, 3, L, 8)
    assert len(started) > len(probes)


@pytest.mark.parametrize("name", FIXTURES)
def test_reports_do_not_depend_on_the_order_of_windows(name):
    def reports(windows, n, horizon):
        p = cli.read_document(DATA / name)
        return {L: coverings.krieger_coverage(p, n, L, horizon) for L in windows}

    for n, horizon in ((0, 4), (1, 5), (2, 6), (3, 7)):
        forward, backward = reports((1, 2), n, horizon), reports((2, 1), n, horizon)
        alone = {L: reports((L,), n, horizon)[L] for L in (1, 2)}
        assert forward == backward == alone


@pytest.mark.parametrize("L", [0, -1])
def test_a_window_below_one_is_a_toolkit_error(L):
    p = example2_unit()
    for check in (coverings.krieger_markers, coverings.krieger_coverage):
        with pytest.raises(InvalidParameter, match=f"got {L}$"):
            check(p, 2, L, 4)


# ---------------------------------------------------------------------------
# unsettled residual floors and the memo's lifetime


def test_an_unsettled_residual_floor_gives_unknown():
    with pytest.raises(UnsettledResidual) as err:
        coverings.krieger_markers(skew_presentation(), 3, 2, 7)
    assert (err.value.edge, err.value.floor) == ("y", 6)
    report = coverings.krieger_coverage(skew_presentation(), 3, 2, 7)
    assert report.verdict == UNKNOWN
    assert report.witnesses == (("y", 6, "two boundary resolutions in one chain"),)
    assert report.details["horizon"] == 7


def split_presentation():
    """A one-vertex self-cover whose chain past a tower top at level 2,
    window 3 and horizon 3 meets E on some of its branches only."""
    g = flexible({"v"}, {e: ("v", "v") for e in ("e0", "e1", "e2")})
    emap = {"e0": ("e2", "e1", "e0"), "e1": ("e2", "e0", "e1"), "e2": ("e2", "e2")}
    cover = Cover(g, g, {"v": "v"}, emap)
    return coverings.stationary_presentation(cover, {"e0": 2, "e1": 2, "e2": 1})


def test_a_split_horizon_cylinder_gives_unknown(tmp_path, capsys):
    p = split_presentation()
    with pytest.raises(UnsettledResidual) as err:
        coverings.krieger_markers(p, 2, 3, 3)
    assert (err.value.edge, err.value.floor) == ("e0", 4)
    report = coverings.krieger_coverage(p, 2, 3, 3)
    assert report.verdict == UNKNOWN
    assert report.witnesses == (("e0", 4, SPLITS),)
    assert_tower_oracle_matches(p, 2, 3, 3)
    # one level deeper the horizon settles the floor
    assert coverings.krieger_coverage(p, 2, 3, 4).verdict == FAILS
    path = tmp_path / "split.json"
    path.write_text(cli.dump_document(p))
    argv = ["krieger", str(path), "--level", "2", "--steps", "3", "--horizon", "3"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("krieger: UNKNOWN\n")
    assert f"witness: ('e0', 4, '{SPLITS}')" in out


def test_level_zero_cells_are_named_after_the_singleton_loop():
    assert_cells_match(example2_unit(), 0, 3)
    report = coverings.krieger_coverage(example2_unit(), 0, 1, 3)
    assert report.details["outside_towers"] == ["e0"]
    # e0 has length 1 <= L, so only the periodic-orbit test applies to it
    assert {reason for _, reason in report.witnesses} == {"no certified periodic orbit"}
    assert report.verdict == FAILS


def test_a_dropped_presentation_frees_its_paths():
    p = example2_unit()
    assert coverings.krieger_coverage(p, 2, 1, 5).verdict == HOLDS
    assert coverings.krieger_coverage(p, 2, 2, 5).verdict == HOLDS
    # the window-free tables are kept on the presentation, and go with it
    kept = [coverings._cylinders(p, 2, 5), coverings._orbit_tables(p, 2)[0]]
    assert {("_cylinders", 2, 5), ("_orbit_tables", 2)} <= p._memo.keys()
    refs = [weakref.ref(x) for x in [p, *kept]]
    del p, kept
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_equal_presentations_share_no_memo():
    p, q = example2_unit(), example2_unit()
    assert p == q
    assert coverings.all_paths(p, 3) is coverings.all_paths(p, 3)
    assert coverings.all_paths(p, 3) is not coverings.all_paths(q, 3)
    cyl = coverings._cylinders(p, 2, 4)
    assert coverings._cylinders(p, 2, 4) is cyl
    assert coverings._cylinders(p, 2, 5) is not cyl
    assert coverings._cylinders(q, 2, 4) is not cyl
    tables = coverings._orbit_tables(p, 2)
    assert coverings._orbit_tables(p, 2) is tables
    assert not any(map(operator.is_, coverings._orbit_tables(q, 2), tables))
