import pytest

from zdyn import graphs
from zdyn.errors import CoverViolation, DomainMismatch, HomomorphismViolation
from zdyn.graphs import (
    BasicGraph,
    Cover,
    check_basic_cover,
    check_cover,
    compose_covers,
    cover_power,
    enumerate_circuits,
    expand_basic_cover,
    expand_to_basic,
    identity_cover,
    singleton_graph,
    validate_graph,
    weighted,
)

from helpers import (
    example2_cover,
    example2_graph,
    fib_cover,
    fib_graph,
    sink_graph,
    weighted_cover,
    weighted_level,
)


class TestValidateGraph:
    def test_singleton_is_valid(self):
        assert validate_graph(singleton_graph()) == []

    def test_fibonacci_graph_is_valid(self):
        assert validate_graph(fib_graph()) == []

    def test_sink_vertex_is_reported(self):
        problems = validate_graph(sink_graph())
        assert any("no outgoing edge at t" in p for p in problems)

    def test_basic_graph_sink(self):
        g = BasicGraph(frozenset({"a", "b"}), frozenset({("a", "b"), ("a", "a")}))
        problems = validate_graph(g)
        assert "no outgoing edge at b" in problems

    def test_zero_length_rejected(self):
        g = weighted({"v"}, {"e": ("v", "v", 0)})
        assert any("non-positive length" in p for p in validate_graph(g))


class TestReadOnlyRecord:
    def test_a_plain_dict_is_copied_and_a_read_only_one_shared(self):
        src = {"e": "v"}
        g = graphs.Graph(frozenset({"v"}), frozenset({"e"}), src=src, rng={"e": "v"})
        src["e"] = "w"
        assert g.src == {"e": "v"}
        h = graphs.Graph(g.vertices, g.edges, src=g.src, rng=g.rng)
        assert h.src is g.src and h == g

    def test_flexible_and_weighted_graphs_differ_only_in_length(self):
        g = weighted({"v"}, {"e": ("v", "v", 1)})
        assert g.length == {"e": 1}
        assert graphs.flexible({"v"}, {"e": ("v", "v")}).length is None
        assert g != graphs.flexible({"v"}, {"e": ("v", "v")})


class TestCheckCover:
    def test_fibonacci_flags(self):
        flags = check_cover(fib_cover())
        assert flags.edge_surjective
        assert flags.plus_directional
        assert not flags.minus_directional
        assert not flags.bidirectional

    def test_example2_is_bidirectional(self):
        flags = check_cover(example2_cover())
        assert flags.edge_surjective
        assert flags.bidirectional

    def test_identity_cover_on_singleton_all_flags(self):
        flags = check_cover(identity_cover(singleton_graph()))
        assert flags.edge_surjective and flags.bidirectional

    def test_identity_cover_directionality_needs_degree_one(self):
        # with two co-sourced edges the identity maps them to walks with
        # different first edges, so it cannot be +directional
        flags = check_cover(identity_cover(example2_graph()))
        assert flags.edge_surjective
        assert not flags.plus_directional

    def test_homomorphism_violation_raises(self):
        g = fib_graph()
        bad = Cover(domain=g, codomain=g, vmap={"v": "v"}, emap={"e_a": ("e_a",), "e_b": ()})
        with pytest.raises(HomomorphismViolation):
            check_cover(bad)

    def test_length_preservation_enforced(self):
        c = weighted_cover(fib_cover(), 1)
        broken = Cover(
            domain=c.domain,
            codomain=c.codomain,
            vmap=c.vmap,
            emap={"e_a": ("e_a", "e_b", "e_a"), "e_b": ("e_a",)},
        )
        with pytest.raises(HomomorphismViolation):
            check_cover(broken)


class TestComposeCovers:
    def test_fibonacci_square(self):
        phi = fib_cover()
        phi2 = compose_covers(phi, phi)
        assert phi2.emap["e_a"] == (
            "e_a", "e_b", "e_a", "e_a", "e_b", "e_a", "e_b", "e_a",
        )

    def test_identity_laws(self):
        phi = example2_cover()
        ident = identity_cover(phi.domain)
        assert compose_covers(ident, phi) == phi
        assert compose_covers(phi, ident) == phi

    def test_example2_square_of_b(self):
        phi2 = cover_power(example2_cover(), 2)
        assert phi2.emap["e_b"][:3] == ("e_a", "e_a", "e_b")

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose_covers(fib_cover(), example2_cover())

    def test_plus_directionality_closed_under_composition(self):
        phi = fib_cover()
        assert check_cover(compose_covers(phi, phi)).plus_directional


class TestExpandToBasic:
    def test_length_three_chain(self):
        g = weighted({"u", "w"}, {"e": ("u", "w", 3), "back": ("w", "u", 1)})
        exp = expand_to_basic(g)
        assert exp.chains["e"] == ("u", "e#1", "e#2", "w")
        assert ("u", "e#1") in exp.graph.edges
        assert ("e#1", "e#2") in exp.graph.edges
        assert ("e#2", "w") in exp.graph.edges

    def test_parallel_unit_edges_merge(self):
        g = weighted({"u", "w"}, {
            "p": ("u", "w", 1), "q": ("u", "w", 1), "back": ("w", "u", 1),
        })
        exp = expand_to_basic(g)
        assert len([e for e in exp.graph.edges if e == ("u", "w")]) == 1
        assert exp.merges[("u", "w")] == ["p", "q"]

    def test_vertex_count_formula(self):
        g = weighted_level(fib_cover(), 2)
        exp = expand_to_basic(g)
        expected = len(g.vertices) + sum(g.length[e] - 1 for e in g.edges)
        assert len(exp.graph.vertices) == expected
        assert validate_graph(exp.graph) == []

    def test_original_vertices_embedded(self):
        g = weighted_level(example2_cover(), 2)
        exp = expand_to_basic(g)
        assert g.vertices <= exp.graph.vertices


class TestExpandBasicCover:
    def test_identity(self):
        bc = expand_basic_cover(identity_cover(singleton_graph()))
        assert all(bc.vmap[v] == v for v in bc.domain.vertices)

    def test_fibonacci_level2_is_plus_directional(self):
        bc = expand_basic_cover(weighted_cover(fib_cover(), 1))
        flags = check_basic_cover(bc)
        assert flags.homomorphism
        assert flags.edge_surjective
        assert flags.plus_directional

    def test_example2_level2_is_bidirectional(self):
        bc = expand_basic_cover(weighted_cover(example2_cover(), 1))
        flags = check_basic_cover(bc)
        assert flags.homomorphism
        assert flags.bidirectional

    def test_bidirectional_preserved_deeper(self):
        bc = expand_basic_cover(weighted_cover(example2_cover(), 2))
        assert check_basic_cover(bc).bidirectional

    def test_rejects_non_weighted_cover(self):
        g = weighted({"u", "w"}, {
            "p": ("u", "w", 1), "q": ("u", "u", 1), "back": ("w", "u", 1),
        })
        c = Cover(domain=g, codomain=g, vmap={"u": "u", "w": "w"},
                  emap={"p": ("p",), "q": ("q",), "back": ("back",)})
        with pytest.raises(CoverViolation):
            expand_basic_cover(c)


class TestEnumerateCircuits:
    def test_fibonacci_max2(self):
        report = enumerate_circuits(fib_graph(), 2)
        assert report.circuits == (("e_a",), ("e_b",))

    def test_example2_max1(self):
        report = enumerate_circuits(example2_graph(), 1)
        assert report.circuits == (("e_a",), ("e_f",))
        assert report.truncated

    def test_no_self_loop(self):
        g = sink_graph()
        # ignore validity; circuits only need the structure
        report = enumerate_circuits(
            graphs.flexible({"s", "t"}, {"x": ("s", "t"), "y": ("t", "s")}), 1
        )
        assert report.circuits == ()

    def test_two_cycle_found(self):
        g = graphs.flexible({"s", "t"}, {"x": ("s", "t"), "y": ("t", "s")})
        report = enumerate_circuits(g, 2)
        assert report.circuits == (("x", "y"),)
        assert not report.truncated

    def test_distinct_sources_rule(self):
        # the length-2 walks through the single Fibonacci vertex revisit it
        report = enumerate_circuits(fib_graph(), 5)
        assert report.circuits == (("e_a",), ("e_b",))
