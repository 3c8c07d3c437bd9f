"""Covering presentations: levels, closing, regulation, towers, markers."""

import pytest

from zdyn import coverings, graphs
from zdyn.errors import DepthOutOfRange, HomomorphismViolation, InvalidSequence
from zdyn.reports import FAILS, HOLDS, UNKNOWN

from helpers import (
    example2_unit,
    example2_weighted,
    fib_cover,
    fib_presentation,
    skew_presentation,
    weighted_cover,
)


def lengths_at(p, n):
    g = coverings.level_graph(p, n)
    return {e: g.length[e] for e in g.edges}


# ---------------------------------------------------------------------------
# construction and validation


def test_all_fixture_presentations_validate():
    for p in (
        example2_unit(),
        example2_weighted(),
        fib_presentation(),
        skew_presentation(),
    ):
        assert coverings.validate_presentation(p) == []


def test_stationary_presentation_needs_a_self_cover():
    with pytest.raises(HomomorphismViolation):
        coverings.stationary_presentation(
            weighted_cover(fib_cover(), 1), {"e_a": 1, "e_b": 1}
        )


def test_missing_multiplicity_is_flagged():
    p = coverings.stationary_presentation(fib_cover(), {"e_a": 1})
    assert any("e_b" in msg for msg in coverings.validate_presentation(p))


def test_depth_guard_on_finite_prefix():
    p = coverings.telescope(example2_unit(), [1, 3])
    q = coverings.finite_prefix_presentation(
        p.graphs, p.covers, tail=coverings.TRUNCATED
    )
    assert q.depth() == 2
    with pytest.raises(DepthOutOfRange):
        coverings.level_graph(q, 3)


# ---------------------------------------------------------------------------
# level graphs and covers


def test_fib_length_table():
    p = fib_presentation()
    assert lengths_at(p, 1) == {"e_a": 1, "e_b": 1}
    assert lengths_at(p, 2) == {"e_a": 3, "e_b": 2}
    assert lengths_at(p, 3) == {"e_a": 8, "e_b": 5}


def test_example2_unit_length_table():
    p = example2_unit()
    assert lengths_at(p, 2) == {
        "e_a": 1, "e_b": 4, "e_c": 4, "e_d": 4, "e_e": 2, "e_f": 1,
    }
    assert lengths_at(p, 3) == {
        "e_a": 1, "e_b": 11, "e_c": 11, "e_d": 11, "e_e": 3, "e_f": 1,
    }


def test_example2_weighted_length_table():
    p = example2_weighted()
    assert lengths_at(p, 1) == {
        "e_a": 1, "e_b": 2, "e_c": 2, "e_d": 2, "e_e": 2, "e_f": 1,
    }
    assert lengths_at(p, 2) == {
        "e_a": 1, "e_b": 7, "e_c": 7, "e_d": 7, "e_e": 3, "e_f": 1,
    }
    assert lengths_at(p, 3) == {
        "e_a": 1, "e_b": 18, "e_c": 18, "e_d": 18, "e_e": 4, "e_f": 1,
    }


def test_level_graphs_hand_out_their_own_lengths():
    p = example2_unit()
    with pytest.raises(TypeError):
        coverings.level_graph(p, 2).length["e_a"] = 999
    assert coverings.level_graph(p, 2).length["e_a"] == 1
    assert coverings.level_graph(example2_unit(), 2).length["e_a"] == 1


def test_level_graphs_and_covers_share_their_maps():
    p = example2_unit()
    base = p.self_cover
    g = coverings.level_graph(p, 3)
    assert g.src is base.domain.src and g.rng is base.domain.rng
    assert g.length is coverings.level_graph(p, 3).length
    c = coverings.cover_at(p, 3)
    assert c.vmap is base.vmap and c.emap is base.emap


def test_deep_levels_need_no_recursion():
    p = fib_presentation()
    a, b = 1, 1  # level-1 lengths of e_a and e_b
    for _ in range(2999):
        a, b = 2 * a + b, a + b  # e_a -> e_a e_b e_a, e_b -> e_a e_b
    assert lengths_at(p, 3000) == {"e_a": a, "e_b": b}


def test_level_zero_is_the_singleton():
    g = coverings.level_graph(fib_presentation(), 0)
    assert g.vertices == frozenset({"v0"})
    assert g.length == {"e0": 1}


def test_first_cover_spells_out_lengths():
    p = example2_weighted()
    c = coverings.cover_at(p, 1)
    assert c.emap["e_b"] == ("e0", "e0")
    assert c.emap["e_a"] == ("e0",)
    assert graphs.cover_violations(c) == []


def test_compose_range_matches_cover_power():
    p = fib_presentation()
    composed = coverings.compose_range(p, 1, 3)
    assert composed.emap == graphs.cover_power(fib_cover(), 2).emap


# ---------------------------------------------------------------------------
# telescoping


def test_arithmetic_telescope_stays_stationary():
    p = example2_unit()
    q = coverings.telescope(p, [2, 4, 6])
    assert q.kind == "stationary"
    assert q.self_cover.emap == graphs.cover_power(p.self_cover, 2).emap
    assert q.multiplicities == lengths_at(p, 2)
    assert coverings.validate_presentation(q) == []


def test_non_arithmetic_telescope_repeats_last_cover():
    p = example2_unit()
    q = coverings.telescope(p, [1, 3])
    assert q.kind == "finite_prefix"
    assert q.tail == coverings.REPEAT
    assert q.depth() is None
    assert coverings.validate_presentation(q) == []
    assert lengths_at(q, 1) == lengths_at(p, 1)
    assert lengths_at(q, 2) == lengths_at(p, 3)


def test_telescope_preserves_closing_verdicts():
    for p in (example2_unit(), skew_presentation()):
        before = coverings.check_closing(p).verdict
        after = coverings.check_closing(coverings.telescope(p, [1, 3])).verdict
        assert after == before


def test_single_cut_on_stationary_is_arithmetic():
    q = coverings.telescope(fib_presentation(), [3])
    assert q.kind == "stationary"
    assert q.multiplicities == {"e_a": 8, "e_b": 5}


def test_telescope_rejects_bad_cuts():
    p = fib_presentation()
    with pytest.raises(DepthOutOfRange):
        coverings.telescope(p, [2, 2])
    prefix = coverings.telescope(p, [1, 3])
    with pytest.raises(DepthOutOfRange):
        coverings.telescope(prefix, [2])  # single cut, nothing to compose


# ---------------------------------------------------------------------------
# constant chains and closing


def test_example2_constant_chains_are_the_fixed_loops():
    chains = coverings.find_constant_chains(example2_unit())
    assert [(c.edge, c.transient, c.cycle) for c in chains] == [
        ("e_a", (), ("e_a",)),
        ("e_f", (), ("e_f",)),
    ]
    assert all(c.exact for c in chains)


def test_closing_holds_on_example2():
    report = coverings.check_closing(example2_unit())
    assert report.verdict == HOLDS
    assert report.details["reason"] == "all chains are circuits"


def test_closing_holds_vacuously_on_fib():
    report = coverings.check_closing(fib_presentation())
    assert report.verdict == HOLDS
    assert report.details["reason"] == "no constant chains"


def test_closing_fails_on_non_circuit_fixed_edge():
    report = coverings.check_closing(skew_presentation())
    assert report.verdict == FAILS
    assert report.witnesses == (("x", (), ("x",)),)


def test_closing_is_unknown_on_truncated_prefix_with_chains():
    p = coverings.telescope(example2_unit(), [1, 3])
    q = coverings.finite_prefix_presentation(
        p.graphs, p.covers, tail=coverings.TRUNCATED
    )
    assert coverings.check_closing(q).verdict == UNKNOWN


# ---------------------------------------------------------------------------
# regulation


def test_example2_weighted_is_regulated():
    report = coverings.check_regulated(example2_weighted(), [1, 2, 3, 4], 4)
    assert report.verdict == HOLDS
    assert all(entry["verdict"] == HOLDS for entry in report.details["levels"])
    asym = report.details["asymptotic"]
    assert asym["verdict"] == HOLDS
    assert asym["undecided"] == ["e_b", "e_c", "e_d", "e_e"]


def test_example2_unit_fails_regulation():
    report = coverings.check_regulated(example2_unit(), [1, 2, 3, 4], 4)
    assert report.verdict == FAILS
    level1 = report.details["levels"][0]
    assert level1["witnesses"] == ("e_b", "e_c", "e_d", "e_e")
    # e_e has length n at level n, so it stays short at every level
    assert all(
        "e_e" in entry["witnesses"] for entry in report.details["levels"]
    )


def test_fib_fails_regulation_at_level_one():
    report = coverings.check_regulated(fib_presentation(), [1, 2, 3, 4], 4)
    assert report.verdict == FAILS
    assert report.witnesses == ((1, "e_a"), (1, "e_b"), (2, "e_b"))
    assert [entry["verdict"] for entry in report.details["levels"]] == [
        FAILS, FAILS, HOLDS, HOLDS,
    ]


def test_regulation_rejects_bad_sequences():
    p = fib_presentation()
    with pytest.raises(InvalidSequence):
        coverings.check_regulated(p, [1, 1, 2], 3)
    with pytest.raises(InvalidSequence):
        coverings.check_regulated(p, [1, 2], 3)


def test_regulation_on_repeat_prefix_decides_each_level():
    p = example2_weighted()
    q = coverings.telescope(p, [1, 3])
    report = coverings.check_regulated(q, [1, 2], 2)
    # each materialized level holds, but the tail keeps the overall
    # verdict at UNKNOWN because no asymptotic claim is available
    assert report.verdict == UNKNOWN
    assert all(entry["verdict"] == HOLDS for entry in report.details["levels"])


# ---------------------------------------------------------------------------
# points, towers, clopen evaluation


def test_enumerate_points_counts_basic_vertices():
    p = example2_unit()
    g = coverings.level_graph(p, 2)
    interior = sum(g.length[e] - 1 for e in g.edges)
    points = coverings.enumerate_points(p, 2)
    assert len(points) == len(g.vertices) + interior
    for point in points:
        assert len(point.vertices) == 3
        assert point.vertices[0] == "v0"


def test_tower_floor_sets_partition_the_horizon():
    p = example2_unit()
    cells = coverings.tower_floor_sets(p, 3, 5)
    union = frozenset().union(*cells.values())
    assert union == frozenset(coverings.all_paths(p, 5))
    assert sum(len(c) for c in cells.values()) == len(union)


def test_tower_bases_match_their_floor_sets():
    p = example2_unit()
    decomposition = coverings.tower_decomposition(p, 3)
    for tower in decomposition.towers:
        base = coverings.evaluate_set(p, tower.base, 5)
        if tower.height >= 2:
            expected = coverings.floor_paths(p, 3, tower.edge, 0, 5)
        else:
            expected = coverings.evaluate_set(p, ("fiber", 3, tower.edge), 5)
        assert base == expected


def test_junction_sets_are_nested():
    p = example2_unit()
    previous = coverings.evaluate_set(p, coverings.v_infinity_approx(p, 0), 5)
    for n in range(1, 5):
        current = coverings.evaluate_set(
            p, coverings.v_infinity_approx(p, n), 5
        )
        assert current <= previous
        previous = current


def test_shift_images_stay_inside_the_horizon_set():
    p = example2_unit()
    floor = ("floor", 2, "e_b", 0)
    shifted = coverings.evaluate_set(p, ("image", 1, floor), 4)
    assert shifted == coverings.evaluate_set(p, ("floor", 2, "e_b", 1), 4)


# ---------------------------------------------------------------------------
# periodic orbits and markers


def test_certified_orbits_sit_on_the_fixed_loops():
    p = example2_weighted()
    orbits = coverings.periodic_orbits(p, 1, max_period=1)
    certified = {
        o.support[0]: o.period for o in orbits if o.certainty == "CERTIFIED"
    }
    assert certified == {"e_a": 1, "e_f": 1}


def test_fib_orbits_are_only_possible():
    p = fib_presentation()
    orbits = coverings.periodic_orbits(p, 2, max_period=3)
    assert orbits
    assert all(o.certainty == "POSSIBLE" for o in orbits)


def test_marker_set_shape_example2_level3():
    p = example2_unit()
    markers = coverings.krieger_markers(p, 3, L=1, horizon=5)
    assert markers.J == ("e_b", "e_c", "e_d", "e_e")
    assert markers.P == ("e_a", "e_f")
    assert markers.k == {"e_b": 4, "e_c": 4, "e_d": 4, "e_e": 0}
    assert markers.E <= markers.F


def test_krieger_coverage_example2_level3():
    p = example2_unit()
    for L in (1, 2, 3):
        report = coverings.krieger_coverage(p, 3, L, horizon=5)
        assert report.verdict == HOLDS, report.details
        assert report.details["outside_towers"] == ["e_a", "e_f"]
        assert report.details["violations"] == []


# ---------------------------------------------------------------------------
# isomorphism search


def test_isomorphism_finds_renamings():
    p = example2_unit()
    renamed_cover = graphs.Cover(
        domain=graphs.flexible(
            {"L", "M", "R"},
            {
                "a": ("L", "L"), "b": ("L", "M"), "c": ("M", "L"),
                "d": ("M", "R"), "e": ("R", "M"), "f": ("R", "R"),
            },
        ),
        codomain=graphs.flexible(
            {"L", "M", "R"},
            {
                "a": ("L", "L"), "b": ("L", "M"), "c": ("M", "L"),
                "d": ("M", "R"), "e": ("R", "M"), "f": ("R", "R"),
            },
        ),
        vmap={"L": "L", "M": "M", "R": "R"},
        emap={
            "a": ("a",),
            "b": ("a", "b", "d", "e"),
            "c": ("d", "e", "c", "a"),
            "d": ("d", "e", "d", "f"),
            "e": ("f", "e"),
            "f": ("f",),
        },
    )
    q = coverings.stationary_presentation(
        renamed_cover, {e: 1 for e in renamed_cover.domain.edges}
    )
    iso = coverings.find_cover_isomorphism(p, q)
    assert iso is not None
    vmap, emap = iso
    assert emap == {
        "e_a": "a", "e_b": "b", "e_c": "c", "e_d": "d", "e_e": "e", "e_f": "f",
    }


def test_isomorphism_rejects_mismatched_covers():
    assert (
        coverings.find_cover_isomorphism(example2_unit(), fib_presentation())
        is None
    )
