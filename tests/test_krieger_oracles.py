"""Krieger markers and coverage in tower coordinates against path tuples.

The oracles are the path-tuple forms of the marker construction and of
the coverage check: they step frozensets of depth-horizon path prefixes
through ``_step_set`` and walk every probe chain again from its start.
The library names each cylinder by its (vertex, floor) tower coordinates
instead; both must give the same markers, reports and errors.  A second
oracle keeps the per-cylinder chain loop in tower coordinates, which the
library now runs only near the tower ends.  A third keeps the cylinders
with every prefix built up front, as ``order`` and a ``path`` dict read
off :func:`coverings.all_paths`, and the marker and coverage checks that
sorted and named cylinders by those prefixes; the library reads a prefix
by descent, only for a witness it reports.
"""

import bisect
import gc
import itertools
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings
from zdyn.errors import (
    HorizonExceeded,
    InvalidParameter,
    UnsettledResidual,
    ZdynError,
)
from zdyn.reports import FAILS, HOLDS, UNKNOWN, Report

from helpers import example2_unit, skew_presentation
from test_cli import DATA
from test_properties import loop_presentations

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
        current, exc = coverings._step_set(p, current, forward)
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
            *(coverings.floor_paths(p, n, e, i, horizon) for i in floors),
        )
        atoms.extend({"kind": "E", "level": n, "edge": e, "floor": i} for i in floors)
    F = set(E)
    for e in J:
        if Lp * k[e] == g.length[e] - Lp:
            continue
        residual_floor = Lp * (k[e] + 1)
        kept = [
            q
            for q in sorted(coverings.floor_paths(p, n, e, residual_floor, horizon))
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
        nxt, _ = coverings._step_set(p, iterates[-1], forward=True)
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
        e = bratteli.path_rng(d, q[:n])
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
    and ``path`` maps each to its prefix; cells, members and steps are
    found in tower coordinates as in the library.
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
        self.stack = stack
        self.starts = {}
        self.blocks = {}
        for v in self.heights:
            starts = self.starts[v] = list(
                itertools.accumulate((self.floors[e] for e in stack[v][:-1]), initial=0)
            )
            for e, start in zip(stack[v], starts):
                self.blocks.setdefault(e, []).append((v, start))

    def members(self, cell):
        e, i = cell
        if not 0 <= i < self.floors.get(e, 0):
            return []
        return [(v, start + i) for v, start in self.blocks.get(e, ())]

    def cell(self, cylinder):
        v, f = cylinder
        starts = self.starts[v]
        j = bisect.bisect_right(starts, f) - 1
        return self.stack[v][j], f - starts[j]

    def step(self, cylinders, forward):
        heights = self.heights
        delta = 1 if forward else -1
        out = set()
        exceptional = False
        for v, f in cylinders:
            if 0 <= f + delta < heights[v]:
                out.add((v, f + delta))
                continue
            exceptional = True
            for u in bratteli.boundary_targets(self.diagram, v, delta):
                out.add((u, 0 if forward else heights[u] - 1))
        return frozenset(out), exceptional


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
            kept = [c for c in candidates if not coverings._lands_in(cyl, c, L, E)]
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
        uncovered = (i - L for i in coverings._zeros(near[v], 2 * L, h))
        for f in itertools.chain(bottom, uncovered, top):
            if not L <= f < h - L:
                inside, probes = coverings._probe(cyl, (v, f), L, F)
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
        chains = [coverings._shifts(cyl, c, True), coverings._shifts(cyl, c, False)]
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
        e = bratteli.path_rng(d, q[:n]) if n else "e0"
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


# ---------------------------------------------------------------------------
# comparisons


def assert_cells_match(p, n, horizon):
    """Cells and their members in tower coordinates against path prefixes."""
    cyl = coverings._Cylinders(p, n, horizon)
    ref = PathCylinders(p, n, horizon)
    assert cyl.heights == ref.heights
    d = coverings._diagram(p)
    members = {}
    for c in ref.order:
        q = ref.path[c]
        assert cyl.path(c) == q
        prefix = q[:n]
        want = (bratteli.path_rng(d, prefix), bratteli.path_index(d, prefix))
        if not n:
            want = ("e0", 0)
        assert cyl.cell(c) == want
        members.setdefault(want, []).append(c)
    cells = [(e, i) for e, h in cyl.floors.items() for i in range(-1, h + 1)]
    assert {cell: cyl.members(cell) for cell in cells if cyl.members(cell)} == members
    assert cyl.members(("nope", 0)) == []


def assert_step_matches(p, n, horizon):
    cyl = coverings._Cylinders(p, n, horizon)
    ref = PathCylinders(p, n, horizon)
    assert_cells_match(p, n, horizon)
    cells = [(e, i) for e, h in cyl.floors.items() for i in range(h)]
    members = [cyl.members(cell) for cell in cells]
    sets = [[c] for c in ref.order] + members + [ref.order]
    for cylinders in sets:
        paths = frozenset(ref.path[c] for c in cylinders)
        for forward in (True, False):
            got = outcome(cyl.step, cylinders, forward)
            want = outcome(coverings._step_set, p, paths, forward)
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
        assert (E, F) == oracle_tower_markers(p, n, L, horizon)[2:]
    return report


@pytest.mark.parametrize("name", FIXTURES)
def test_witness_paths_match_the_path_dict_on_fixtures(name):
    for n in (1, 2, 3):
        for L, horizon in itertools.product((1, 2, 3), range(n + 1, 9)):
            assert_tower_oracle_matches(cli.read_document(DATA / name), n, L, horizon)


@settings(max_examples=40, deadline=None)
@given(
    loop_presentations(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5)
)
def test_witness_paths_match_the_path_dict_on_loop_presentations(p, n, L, extra):
    assert_tower_oracle_matches(p, n, L, min(n + extra, 8))


def test_witness_paths_match_the_path_dict_on_the_skew_case():
    verdicts = set()
    for n, L, horizon in itertools.product((0, 1, 2, 3), (1, 2, 3), range(4, 9)):
        report = assert_tower_oracle_matches(skew_presentation(), n, L, horizon)
        verdicts.add(report[1].verdict)
    assert verdicts == {HOLDS, FAILS, UNKNOWN}


def test_the_unsettled_candidate_with_the_least_path_is_named(monkeypatch):
    # every residual candidate but the first in tower order is unsettled,
    # each for a reason naming it
    def unsettled(cyl, start, L, target):
        if start == cyl.members(cyl.cell(start))[0]:
            return True
        raise HorizonExceeded(f"candidate {start}")

    monkeypatch.setattr(coverings, "_lands_in", unsettled)
    reordered = 0
    for name in FIXTURES:
        for n, L in itertools.product((1, 2, 3), (1, 2, 3)):
            report = assert_tower_oracle_matches(
                cli.read_document(DATA / name), n, L, 8
            )[1]
            if report.verdict != UNKNOWN:
                continue
            cyl = coverings._Cylinders(cli.read_document(DATA / name), n, 8)
            edge, floor, reason = report.witnesses[0]
            first = cyl.members((edge, floor))[1]
            reordered += reason != f"candidate {first}"
    # the least path is not always the first unsettled candidate in tower order
    assert reordered > 0


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


def count_chains(monkeypatch):
    """Count the probe chains started through ``coverings._shifts``."""
    started = []
    shifts = coverings._shifts

    def counted(cyl, start, forward):
        started.append(start)
        return shifts(cyl, start, forward)

    monkeypatch.setattr(coverings, "_shifts", counted)
    return started


@pytest.mark.parametrize("L", [1, 2])
def test_coverage_probes_chains_only_near_tower_ends(L, monkeypatch):
    p = cli.read_document(DATA / "fib_covering.json")
    started = count_chains(monkeypatch)
    coverings.krieger_markers(p, 3, L, 8)
    residual = len(started)
    # the residual floors probe only within L floors of a tower top
    cyl = coverings._Cylinders(p, 3, 8)
    assert all(f + L >= cyl.heights[v] for v, f in started)
    report = coverings.krieger_coverage(p, 3, L, 8)
    assert report.verdict == HOLDS
    coverage = len(started) - 2 * residual
    assert coverage <= 4 * L * len(cyl.heights)
    # one forward and one backward chain from every cylinder outside F
    del started[:]
    oracle_chain_coverage(p, 3, L, 8)
    assert len(started) - residual > 4 * L * len(cyl.heights)


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
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_equal_presentations_share_no_memo():
    p, q = example2_unit(), example2_unit()
    assert p == q
    assert coverings.level_expansion(p, 2) is not coverings.level_expansion(q, 2)
    assert coverings.all_paths(p, 3) is coverings.all_paths(p, 3)
    assert coverings.all_paths(p, 3) is not coverings.all_paths(q, 3)
