"""Clusters read off ``boundary_targets`` against a depth-limited search.

On a straight stationary diagram the library reads where the step past
each tower top lands off :func:`bratteli.boundary_targets`; a finite
prefix or a bent diagram still probes two levels deep.  The oracle,
``cluster_oracle``, searches every top two levels deep and closes a
constant max column through psi.  Both must give the same partitions,
nesting reports, converted presentations (or the same error) and
diagram-side closing and regulation reports.

The last test is a gate for any change to how psi is chosen: the
continuity report, the clusters and the conversion must not depend on
the names of the vertices and edges, only on their order.
"""

import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from zdyn import bratteli, cli, coverings, stationary
from zdyn.bratteli import ClusterPartition
from zdyn.errors import ZdynError

from helpers import fib_base_cover, unit_presentation
from test_cli import DATA
from test_krieger_oracles import spy
from test_properties import loop_presentations, mono_graphs
import cluster_oracle

DIAGRAM_DOCUMENTS = (
    "example2_covering.json",
    "example2_weighted_covering.json",
    "fib_covering.json",
    "skew_covering.json",
    "fib_bratteli.json",
    "non_nesting_bratteli.json",
)

STRAIGHT_DOCUMENTS = (
    "example2_covering.json",
    "example2_weighted_covering.json",
    "fib_covering.json",
    "fib_bratteli.json",
)


def document_diagram(name):
    return cli._diagram_of(cli.read_document(DATA / name))


def fixture_diagrams():
    """The diagram documents, a bent diagram, its straight square and prefixes."""
    diagrams = [document_diagram(name) for name in DIAGRAM_DOCUMENTS]
    bent = bratteli.weighted_to_bv(unit_presentation(fib_base_cover()))
    diagrams += [
        bent,
        bratteli.telescope_bv(bent, [2, 4, 6]),
        bratteli.telescope_bv(bent, [1, 2, 4, 5]),
        bratteli.telescope_bv(diagrams[0], [1, 3, 4, 6]),
        bratteli.telescope_bv(diagrams[3], [2, 3, 4]),
    ]
    return diagrams


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except ZdynError as exc:
        return type(exc).__name__, str(exc)


def document(fn, d):
    """The document of a converted presentation, or the error."""
    q = outcome(fn, d)
    return cli.to_document(q) if isinstance(q, coverings.CoveringPresentation) else q


def assert_matches_the_search(d):
    for n in (1, 2, 3):
        assert outcome(bratteli.clusters, d, n) == outcome(cluster_oracle.clusters, d, n)
        got = outcome(bratteli.check_nesting, d, n)
        assert got == outcome(cluster_oracle.check_nesting, d, n)
    assert document(bratteli.bv_to_weighted, d) == document(cluster_oracle.bv_to_weighted, d)
    checks = (
        (bratteli.check_closing_bv,),
        (bratteli.check_regulated_bv, [1, 2, 3], 3),
        (bratteli.check_regulated_bv, [4, 8, 16, 32], 4),
    )
    for fn, *args in checks:
        got = outcome(fn, d, *args)
        with mock.patch.object(bratteli, "bv_to_weighted", cluster_oracle.bv_to_weighted):
            assert got == outcome(fn, d, *args)


def test_fixture_clusters_match_the_search():
    for d in fixture_diagrams():
        assert_matches_the_search(d)


@st.composite
def mono_diagrams(draw):
    mono = draw(mono_graphs())
    mults = {v: draw(st.integers(1, 3)) for v in sorted(mono.vertices)}
    return bratteli.stationary_diagram(mono, mults)


@settings(max_examples=150, deadline=None)
@given(mono_diagrams())
def test_mono_clusters_match_the_search(d):
    assert_matches_the_search(d)


@settings(max_examples=60, deadline=None)
@given(loop_presentations())
def test_loop_clusters_match_the_search(p):
    assert_matches_the_search(bratteli.weighted_to_bv(p))


def test_straight_diagrams_read_tower_ends_without_a_search(monkeypatch):
    stepped = spy(monkeypatch, bratteli, "vershik_successor")
    for name in STRAIGHT_DOCUMENTS:
        d = document_diagram(name)
        assert stationary.is_straight(d.mono)
        for n in (1, 2, 3):
            assert bratteli.clusters(d, n).certainty == "EXACT"
        bratteli.bv_to_weighted(d)
    assert stepped == []


def bent_pair():
    """Max edges a -> b -> a: a cycle that is no self-loop."""
    return stationary.mono_graph({"a", "b"}, {
        "a~1": ("a", "a", 1),
        "a~2": ("b", "a", 2),
        "b~1": ("b", "b", 1),
        "b~2": ("a", "b", 2),
    })


def test_a_bent_cycle_stays_depth_limited():
    d = bratteli.stationary_diagram(bent_pair(), {"a": 1, "b": 1})
    for n in (1, 2, 3):
        part = bratteli.clusters(d, n)
        assert part == ClusterPartition(n, (frozenset({"a", "b"}),), "DEPTH_LIMITED")
        assert part == cluster_oracle.clusters(d, n)


def root_named_mono():
    """A straight mono with continuity whose vertex ``v0`` shares the root's name.

    The step past the top of ``v0`` lands on both vertices.
    """
    return stationary.mono_graph({"v0", "v1"}, {
        "v0~1": ("v0", "v0", 1),
        "v0~2": ("v1", "v0", 2),
        "v0~3": ("v0", "v0", 3),
        "v1~1": ("v0", "v1", 1),
        "v1~2": ("v0", "v1", 2),
    })


def test_level_zero_is_the_root_alone():
    d = bratteli.stationary_diagram(root_named_mono(), {"v0": 1, "v1": 2})
    assert bratteli.boundary_targets(d, "v0", 1) == {"v0", "v1"}
    assert bratteli.clusters(d, 1).clusters == (frozenset({"v0", "v1"}),)
    root = ClusterPartition(0, (frozenset({"v0"}),), "EXACT")
    for d in [d, *fixture_diagrams()]:
        assert bratteli.clusters(d, 0) == root


# ---------------------------------------------------------------------------
# the renaming gate


NAME = re.compile(r"[\w~]+")


def renamed(value, table):
    """``value`` with every name in ``table`` replaced, inside strings too."""
    if isinstance(value, str):
        return NAME.sub(lambda m: table.get(m.group(), m.group()), value)
    if isinstance(value, dict):
        return {renamed(k, table): renamed(v, table) for k, v in value.items()}
    if isinstance(value, (tuple, list, set, frozenset)):
        return type(value)(renamed(v, table) for v in value)
    if isinstance(value, ClusterPartition):
        return ClusterPartition(value.level, renamed(value.clusters, table), value.certainty)
    if hasattr(value, "verdict"):
        return renamed((value.tag, value.verdict, value.witnesses, value.details), table)
    return value


def converted(d):
    """The self-cover and multiplicities of the conversion, or the error."""
    q = outcome(bratteli.bv_to_weighted, d)
    if not isinstance(q, coverings.CoveringPresentation):
        return q
    c = q.self_cover
    edges = {e: (c.domain.src[e], c.domain.rng[e]) for e in c.domain.edges}
    return c.domain.vertices, edges, dict(c.vmap), dict(c.emap), dict(q.graphs[0].length)


def readings(d):
    reports = [renamed(outcome(stationary.check_continuity, d.mono), {})]
    reports += [renamed(outcome(bratteli.clusters, d, n), {}) for n in (1, 2)]
    return reports + [converted(d)]


def fresh_names(alphabet, k):
    """``k`` distinct names over ``alphabet``, sorted."""
    return st.lists(
        st.text(alphabet, min_size=1, max_size=3), min_size=k, max_size=k, unique=True
    ).map(sorted)


@settings(max_examples=100, deadline=None)
@given(mono_graphs(), st.data())
def test_readings_keep_to_an_order_preserving_renaming(mono, data):
    vertices, edges = sorted(mono.vertices), sorted(mono.edges)
    table = dict(zip(vertices, data.draw(fresh_names("ABC", len(vertices)))))
    table.update(zip(edges, data.draw(fresh_names("abc", len(edges)))))
    twin = stationary.mono_graph(
        [table[v] for v in vertices],
        {table[e]: (table[mono.src[e]], table[mono.rng[e]], mono.rank[e]) for e in edges},
    )
    mults = {v: data.draw(st.integers(1, 3)) for v in vertices}
    d = bratteli.stationary_diagram(mono, mults)
    d2 = bratteli.stationary_diagram(twin, {table[v]: k for v, k in mults.items()})
    assert renamed(readings(d), table) == readings(d2)
