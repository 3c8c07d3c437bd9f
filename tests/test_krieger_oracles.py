"""Krieger markers and coverage in tower coordinates against path tuples.

The oracles are the path-tuple forms of the marker construction and of
the coverage check: they step frozensets of depth-horizon path prefixes
through ``_step_set`` and walk every probe chain again from its start.
The library names each cylinder by its (vertex, floor) tower coordinates
instead; both must give the same markers, reports and errors.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings
from zdyn.errors import HorizonExceeded, UnsettledResidual, ZdynError
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
        raise ValueError("L must be positive")
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


def outcome(fn, *args):
    """The value of a call, or the class and message of what it raised."""
    try:
        return ("value", fn(*args))
    except (ZdynError, AssertionError, KeyError) as exc:
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# comparisons


def assert_step_matches(p, n, horizon):
    cyl = coverings._Cylinders(p, n, horizon)
    sets = [[c] for c in cyl.order] + list(cyl.members.values()) + [cyl.order]
    for cylinders in sets:
        paths = frozenset(cyl.path[c] for c in cylinders)
        for forward in (True, False):
            got = outcome(cyl.step, cylinders, forward)
            want = outcome(coverings._step_set, p, paths, forward)
            if want[0] == "raised":
                assert got == want
                continue
            moved, exceptional = got[1]
            assert (frozenset(cyl.path[c] for c in moved), exceptional) == want[1]


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
