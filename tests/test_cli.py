"""Document round trips and command line behavior."""

import itertools
import json
import os
import random
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import zdyn
from zdyn import bratteli, cli, coverings, graphs, stationary
from zdyn.errors import DocumentSemanticError, DocumentSyntaxError, ZdynError

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent

GOLDENS = [
    "example2_covering.json",
    "example2_weighted_covering.json",
    "fib_covering.json",
    "skew_covering.json",
    "fib_bratteli.json",
    "non_nesting_bratteli.json",
    "fib_substitution.json",
    "ex2_seed.json",
    "fib_weighted_level2.json",
    "../golden/prefixes/fib_bratteli_prefix3.json",
    "../golden/prefixes/fib_bratteli_tail13.json",
]


def run(*argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# documents


@pytest.mark.parametrize("name", GOLDENS)
def test_documents_round_trip(name):
    text = (DATA / name).read_text()
    obj = cli.parse_document(text)
    assert cli.to_document(obj) == json.loads(text)


def test_syntax_errors_carry_position():
    with pytest.raises(DocumentSyntaxError) as err:
        cli.parse_document('{"version": "zdyn/1", ')
    assert "line 1" in str(err.value)


def test_semantic_errors_name_the_invariant():
    text = (DATA / "rank_gap_mono.json").read_text()
    with pytest.raises(DocumentSemanticError) as err:
        cli.parse_document(text)
    assert "rank gap at vertex u" in str(err.value)


def test_unknown_version_and_kind_are_rejected():
    with pytest.raises(DocumentSemanticError):
        cli.parse_document('{"version": "zdyn/2", "kind": "cover"}')
    with pytest.raises(DocumentSemanticError):
        cli.parse_document('{"version": "zdyn/1", "kind": "mystery"}')


# ---------------------------------------------------------------------------
# exit codes mirror verdicts


def test_validate_exit_codes(capsys):
    assert run("validate", DATA / "example2_covering.json") == 0
    assert "ok" in capsys.readouterr().out
    assert run("validate", DATA / "rank_gap_mono.json") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: rank gap at vertex u\n"
    assert run("validate", DATA / "broken_syntax.json") == 2
    assert run("validate", DATA / "no_such_file.json") == 2


def test_validate_reports_each_problem_of_a_stationary_diagram_once(tmp_path, capsys):
    # level 2's mono table is the table of every deeper level, so a rank
    # gap in it is one problem
    doc = {
        "version": "zdyn/1", "kind": "bratteli", "form": "stationary",
        "mono": {
            "kind": "mono_graph", "vertices": ["a", "b"],
            "edges": {"x": ["a", "a", 1], "y": ["b", "a", 3], "z": ["a", "b", 1]},
        },
        "multiplicities": {"a": 1, "b": 1},
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    assert run("validate", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: rank gap at vertex a (level 2)\n"


def test_validate_reads_a_repeated_edge_level_once(tmp_path, capsys):
    def gap(doc):
        table = doc["edge_levels"][-1]
        table[min(table)][2] += 10

    path = tmp_path / "gap.json"
    path.write_text(json.dumps(edited(BV_TAIL, gap)))
    assert run("validate", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "rank gap" in line] == [
        "error: rank gap at vertex e_a (level 2)"
    ]


def test_validate_names_an_isolated_vertex_of_a_stationary_covering(tmp_path, capsys):
    # the graph of the self-cover is level 1, so it must be a valid graph
    # as it is in every telescope of the covering
    g = graphs.flexible({"u0", "u1"}, {"e0a": ("u1", "u1")})
    cover = graphs.Cover(
        domain=g, codomain=g, vmap={"u0": "u0", "u1": "u1"}, emap={"e0a": ("e0a",)}
    )
    p = coverings.stationary_presentation(cover, {"e0a": 1})
    path = tmp_path / "isolated.json"
    path.write_text(cli.dump_document(p))
    assert run("validate", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: level 1: no outgoing edge at u0",
        "error: level 1: no incoming edge at u0",
    ]


def test_check_closing_matches_the_library(capsys):
    assert run("check", "closing", DATA / "example2_covering.json") == 0
    assert "closing: HOLDS" in capsys.readouterr().out
    assert run("check", "closing", DATA / "skew_covering.json") == 1
    assert "closing: FAILS" in capsys.readouterr().out


def test_check_regulated_json_output(capsys):
    code = run(
        "check", "regulated", DATA / "example2_weighted_covering.json",
        "--l-seq", "1,2,3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "HOLDS"
    assert payload["tag"] == "regulated"


def test_check_regulated_failing_exit(capsys):
    code = run(
        "check", "regulated", DATA / "fib_covering.json", "--l-seq", "1,2",
    )
    assert code == 1


def test_check_nesting_and_continuity(capsys):
    assert run("check", "nesting", DATA / "non_nesting_bratteli.json") == 1
    assert run("check", "nesting", DATA / "fib_bratteli.json") == 0
    assert run("check", "continuity", DATA / "example2_covering.json") == 0
    out = capsys.readouterr().out
    assert "continuity: HOLDS" in out


def test_check_overlap_and_recoding(capsys):
    assert run("check", "overlap", DATA / "example2_covering.json") == 0
    assert "BIJECTIVE" in capsys.readouterr().out
    code = run(
        "check", "recoding", DATA / "example2_covering.json", "--radius", "2",
    )
    assert code == 0
    assert "DETERMINED" in capsys.readouterr().out


def test_check_recoding_ambiguous_exit(tmp_path, capsys):
    doc = {
        "version": "zdyn/1",
        "kind": "covering",
        "form": "stationary",
        "cover": {
            "kind": "cover",
            "domain": {
                "kind": "flexible_graph",
                "vertices": ["v"],
                "edges": {"a": ["v", "v"], "b": ["v", "v"]},
            },
            "codomain": {
                "kind": "flexible_graph",
                "vertices": ["v"],
                "edges": {"a": ["v", "v"], "b": ["v", "v"]},
            },
            "vmap": {"v": "v"},
            "emap": {"a": ["a", "b"], "b": ["a", "b"]},
        },
        "multiplicities": {"a": 1, "b": 1},
    }
    path = tmp_path / "collision.json"
    path.write_text(json.dumps(doc))
    assert run("check", "recoding", path, "--radius", "3") == 1
    assert "AMBIGUOUS" in capsys.readouterr().out


def test_the_recoding_witness_does_not_depend_on_hash_order():
    argv = [
        sys.executable, "-m", "zdyn.cli", "check", "recoding",
        str(DATA / "example2_covering.json"), "--radius", "1", "--format", "json",
    ]
    src = str(Path(zdyn.__file__).parent.parent)
    outputs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == 1
        outputs.add(done.stdout)
    assert len(outputs) == 1
    report = json.loads(outputs.pop())
    assert report["witnesses"] == [["e_b", "e_d"]]
    assert report["details"]["window"] == [["e_d", True], ["e_e", True], ["e_d", True]]


def test_a_shallow_overlap_witness_builds_no_deep_expansion(tmp_path):
    # exponent 2, so the expansion at depth n has 9**n letters per edge,
    # and the depth-1 expansions hold every witness
    g = graphs.flexible({"v"}, {e: ("v", "v") for e in "abc"})
    emap = {"a": ("a", "b", "c"), "b": ("a", "c", "b"), "c": ("a", "b", "b")}
    cover = graphs.Cover(domain=g, codomain=g, vmap={"v": "v"}, emap=emap)
    assert stationary.analyze_self_cover(cover).exponent == 2
    path = tmp_path / "three_letters.json"
    path.write_text(cli.dump_document(cover))
    env = {**os.environ, "PYTHONPATH": str(Path(zdyn.__file__).parent.parent)}

    def cap_the_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    for depth in ("6", "7"):
        argv = [
            sys.executable, "-m", "zdyn.cli", "check", "overlap", str(path),
            "--depth-max", depth,
        ]
        done = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=cap_the_address_space,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("overlap: BIJECTIVE")
        assert "'depth': 1}" in done.stdout


# ---------------------------------------------------------------------------
# conversions and transforms through the CLI


def test_convert_round_trip_preserves_verdicts(tmp_path, capsys):
    assert run("convert", "to-bv", DATA / "example2_covering.json") == 0
    bv_text = capsys.readouterr().out
    d = cli.parse_document(bv_text)
    assert isinstance(d, bratteli.BratteliDiagram)
    bv_path = tmp_path / "bv.json"
    bv_path.write_text(bv_text)
    assert run("convert", "to-covering", bv_path) == 0
    p = cli.parse_document(capsys.readouterr().out)
    assert isinstance(p, coverings.CoveringPresentation)
    assert coverings.check_closing(p).verdict == "HOLDS"


def test_telescope_cli(capsys):
    assert run("telescope", DATA / "example2_covering.json", "2,4") == 0
    q = cli.parse_document(capsys.readouterr().out)
    assert q.stationary
    assert q.graphs[0].length["e_b"] == 4


def test_straighten_cli(capsys):
    assert run("straighten", DATA / "fib_covering.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponent"] == 1
    cover = cli.load_document(payload["cover"])
    assert cover.emap["e_a"] == ("e_a", "e_b", "e_a")


def test_vershik_and_paths_cli(capsys):
    assert run(
        "vershik", DATA / "example2_covering.json", "e_e",
        "--level", "2", "--steps", "3",
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[-1] == "MAXIMAL"
    assert run(
        "paths", DATA / "example2_covering.json", "e_e", "--level", "2",
    ) == 0
    assert capsys.readouterr().out.splitlines() == lines[:-1]


@pytest.mark.parametrize("command", ("vershik", "paths"))
def test_vershik_and_paths_name_an_unknown_vertex_or_level(command, capsys):
    """The library's own errors reach the CLI: exit 2 and one ``error:`` line."""
    for name, depth in (("fib_bratteli.json", None), ("non_nesting_bratteli.json", 3)):
        for level in range(-1, 6):
            for vertex in ("nope", bratteli.ROOT):
                if 0 <= level <= (depth if depth is not None else level):
                    if vertex == bratteli.ROOT and level == 0:
                        continue
                    message = f"no vertex {vertex!r} at level {level}"
                else:
                    message = f"level {level} not materializable"
                argv = [command, DATA / name, vertex, "--level", str(level)]
                assert run(*argv) == 2
                assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run(command, DATA / "fib_bratteli.json", bratteli.ROOT, "--level", "0") == 0
    expected = "\nMAXIMAL\n" if command == "vershik" else "\n"
    assert capsys.readouterr() == (expected, "")


def test_towers_and_krieger_cli(capsys):
    assert run(
        "towers", DATA / "example2_covering.json", "--level", "2",
        "--format", "json",
    ) == 0
    towers = json.loads(capsys.readouterr().out)
    assert {t["edge"]: t["height"] for t in towers} == {
        "e_a": 1, "e_b": 4, "e_c": 4, "e_d": 4, "e_e": 2, "e_f": 1,
    }
    assert run(
        "krieger", DATA / "example2_covering.json",
        "--level", "3", "--steps", "1", "--horizon", "5",
    ) == 0
    assert "krieger: HOLDS" in capsys.readouterr().out


def test_array_cli(capsys):
    assert run(
        "array", DATA / "example2_covering.json",
        "--seed-file", DATA / "ex2_seed.json", "--level", "2", "0:4",
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("2: |e_b")
    assert lines[1].startswith("1: |e_a")
    assert lines[2].startswith("0: |e0")


def test_subst_cli(capsys):
    assert run("subst", DATA / "example2_covering.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"]["e_b"] == ["e_a", "e_b", "e_d", "e_e"]
    assert run("subst", DATA / "fib_substitution.json", "--depth", "2") == 0
    words = capsys.readouterr().out.splitlines()
    assert words == ["a", "a a", "a b", "b", "b a"]


def test_dot_export_is_deterministic(capsys):
    assert run("dot", DATA / "fib_weighted_level2.json") == 0
    first = capsys.readouterr().out
    assert run("dot", DATA / "fib_weighted_level2.json") == 0
    assert capsys.readouterr().out == first
    assert '"v" -> "v" [label="e_a:3"];' in first


def test_dot_ranks_bratteli_levels(capsys):
    assert run("dot", DATA / "fib_bratteli.json") == 0
    out = capsys.readouterr().out
    assert "rank=same" in out
    assert '"L0_v0" -> "L1_e_a" [label="e_a<1:1"];' in out


def test_dot_rejects_unsupported_kinds(capsys):
    assert run("dot", DATA / "fib_substitution.json") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("vershik", DATA / "example2_covering.json", "nope"),
        ("check", "recoding", DATA / "fib_bratteli.json", "--radius", "1"),
        ("krieger", DATA / "example2_covering.json", "--steps", "0"),
        ("paths", DATA / "example2_covering.json", "nope"),
    ],
)
def test_bad_arguments_exit_2_with_a_message(argv, capsys):
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "recoding", DATA / "example2_covering.json", "--radius", "1",
         "--level", "0"),
        ("subst", DATA / "fib_substitution.json", "--depth", "0"),
        ("subst", DATA / "fib_substitution.json", "--depth", "-1"),
        ("subst", DATA / "example2_covering.json", "--depth", "0"),
        ("vershik", DATA / "example2_covering.json", "e_a", "--steps", "-5"),
        ("check", "nesting", DATA / "fib_bratteli.json", "--level", "-1"),
        ("check", "overlap", DATA / "example2_covering.json", "--k-max", "0"),
        ("check", "overlap", DATA / "example2_covering.json", "--k-max", "-1"),
        ("check", "overlap", DATA / "example2_covering.json", "--depth-max", "0"),
        ("check", "overlap", DATA / "example2_covering.json", "--depth-max", "-2"),
    ],
    ids=["recoding-level-0", "subst-depth-0", "subst-depth-minus-1",
         "subst-covering-depth-0", "vershik-steps-minus-5", "nesting-level-minus-1",
         "overlap-k-max-0", "overlap-k-max-minus-1", "overlap-depth-max-0",
         "overlap-depth-max-minus-2"],
)
def test_levels_and_depths_below_one_exit_2(argv, capsys):
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert argv[-1] in err


def document_kind(name):
    try:
        return json.loads((DATA / name).read_text()).get("kind")
    except json.JSONDecodeError:
        return None


# command -> (extra arguments, the document kinds it accepts)
KIND_COMMANDS = {
    "krieger": ((), {"covering"}),
    "towers": ((), {"covering"}),
    "closing": ((), {"covering", "bratteli"}),
    "regulated": (("--l-seq", "1,2"), {"covering", "bratteli"}),
    "array": (("0:3", "--seed-file", DATA / "ex2_seed.json"), {"covering"}),
}


@pytest.mark.parametrize(
    "command, name",
    [
        (command, path.name)
        for command, (_, kinds) in KIND_COMMANDS.items()
        for path in sorted(DATA.glob("*.json"))
        if document_kind(path.name) not in kinds
    ],
)
def test_documents_of_the_wrong_kind_exit_2(command, name, capsys):
    extra, _ = KIND_COMMANDS[command]
    head = ("check", command) if command in ("closing", "regulated") else (command,)
    assert run(*head, DATA / name, *extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_unsettled_krieger_markers_answer_unknown(capsys):
    assert run(
        "krieger", DATA / "skew_covering.json",
        "--level", "3", "--steps", "2", "--horizon", "7", "--format", "json",
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "UNKNOWN"
    assert report["witnesses"] == [["y", 6, "two boundary resolutions in one chain"]]


def test_a_window_longer_than_the_towers_gives_a_report(capsys):
    # the level-8 basic graph is one circuit of 1,597 edges, and every
    # floor lies within the window of a tower end
    code = run(
        "krieger", DATA / "fib_covering.json",
        "--level", "8", "--steps", "1000", "--horizon", "9", "--format", "json",
    )
    assert code in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "FAILS" and code == 1
    assert report["details"]["outside_towers"] == ["e_a", "e_b"]


def test_a_repeating_tail_document_round_trips():
    p = coverings.telescope(cli.read_document(DATA / "fib_covering.json"), [1, 3])
    assert p.self_cover == p.covers[-1]
    assert cli.parse_document(cli.dump_document(p)) == p


def test_a_repeating_tail_converts_to_a_diagram_that_repeats(tmp_path, capsys):
    assert run("telescope", DATA / "example2_covering.json", "1,3") == 0
    doc = tmp_path / "tail.json"
    doc.write_text(capsys.readouterr().out)
    assert run("convert", "to-bv", doc) == 0
    out, err = capsys.readouterr()
    assert err == ""
    data = json.loads(out)
    assert (data["form"], data["tail"]) == ("finite_prefix", "repeat_last_as_stationary")
    d = cli.parse_document(out)
    assert d.depth() is None and d.repeat is d.edge_levels[-1]
    assert cli.dump_document(d) + "\n" == out
    # the telescope of the converted source along the same cuts
    source = bratteli.weighted_to_bv(cli.read_document(DATA / "example2_covering.json"))
    t = bratteli.telescope_bv(source, [1, 3])
    for n in (1, 2, 3):
        for v in d.level_vertices(n):
            assert [d.level_edges(n)[e][0] for e in d.in_edges(n, v)] == [
                t.level_edges(n)[e][0] for e in t.in_edges(n, v)
            ]


def graph_document(kind, edges):
    return {"version": "zdyn/1", "kind": kind, "vertices": ["v"], "edges": edges}


# a repeating tail: two Fibonacci levels, the cover between them repeated
TAIL = "../golden/prefixes/fib_covering_tail13.json"
# its diagram: two edge levels, the second repeated
BV_TAIL = "../golden/prefixes/fib_bratteli_tail13.json"


def edited(name, edit):
    doc = json.loads((DATA / name).read_text())
    edit(doc)
    return doc


def covering_with_vmap(image):
    return edited(
        "example2_covering.json", lambda d: d["cover"]["vmap"].update(v_l=image)
    )


@pytest.mark.parametrize(
    "doc, named",
    [
        (graph_document("weighted_graph", {"e": ["v", "v"]}), "edge e:"),
        (graph_document("flexible_graph", {"e": ["v"]}), "edge e:"),
        (graph_document("basic_graph", [["v", "v", "x"]]), "edge ['v', 'v', 'x']:"),
        (graph_document("mono_graph", {"e": ["v", "v"]}), "edge e:"),
        (
            graph_document("mono_graph", {"e": ["v", "v", 1], "f": ["v", "v", "x"]}),
            "edge f: rank 'x'",
        ),
        (
            graph_document("weighted_graph", {"e": ["v", "v", True]}),
            "edge e: length True",
        ),
        (graph_document("flexible_graph", {"e": [["v"], "v"]}), "edge e: ['v']"),
        (dict(graph_document("flexible_graph", {}), vertices=["v", 1]), "vertices: 1"),
        (covering_with_vmap(["w"]), "cover vmap v_l: ['w']"),
    ],
    ids=["weighted-arity", "flexible-arity", "basic-arity", "mono-arity",
         "mono-rank", "weighted-bool-length", "list-as-name", "int-as-vertex",
         "list-in-vmap"],
)
def test_malformed_graph_entries_exit_2(doc, named, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "dot"):
        assert run(command, path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert named in err


@pytest.mark.parametrize(
    "doc, problem",
    [
        (
            edited("example2_covering.json", lambda d: d["cover"]["vmap"].pop("v_l")),
            "vertex v_l maps outside the codomain",
        ),
        (
            edited("fib_bratteli.json", lambda d: d["multiplicities"].pop("e_a")),
            "vertex e_a lacks a multiplicity",
        ),
        (
            edited("non_nesting_bratteli.json", lambda d: d["edge_levels"].pop()),
            "need one edge table per level above the root",
        ),
        (
            edited(TAIL, lambda d: d.update(graphs=d["graphs"][:1], covers=[])),
            "repeating tail needs at least one cover",
        ),
        (
            edited(TAIL, lambda d: d.update(covers=[])),
            "need exactly one cover between consecutive levels",
        ),
        (
            edited(TAIL, lambda d: d.update(graphs=d["graphs"][:1])),
            "need exactly one cover between consecutive levels",
        ),
        (
            edited(TAIL, lambda d: d.update(tail="forever")),
            "unknown covering tail: 'forever'",
        ),
        (
            edited(BV_TAIL, lambda d: d.update(tail="forever")),
            "unknown bratteli tail: 'forever'",
        ),
        (
            edited(BV_TAIL, lambda d: d.update(
                levels=d["levels"][:2], edge_levels=d["edge_levels"][:1]
            )),
            "repeating tail needs at least two edge levels",
        ),
        (
            edited(BV_TAIL, lambda d: d["levels"][2].append("e_c")),
            "repeating tail needs the same vertices on its top two levels",
        ),
        (
            edited(BV_TAIL, lambda d: d["levels"].pop()),
            "need one edge table per level above the root",
        ),
    ],
    ids=[
        "vertex-not-in-vmap", "missing-multiplicity", "missing-edge-table",
        "repeat-without-cover", "levels-without-covers", "one-level-with-a-cover",
        "unknown-covering-tail", "unknown-diagram-tail", "repeat-of-the-root-edges",
        "repeat-between-two-vertex-sets", "repeat-without-its-top-level",
    ],
)
def test_unknown_names_are_reported_not_raised(doc, problem, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("validate", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {problem}" in err.splitlines()


@pytest.mark.parametrize(
    "edge, problem",
    [(["zz", "a", 2], "unknown source zz"), (["a", "q", 1], "unknown range q")],
    ids=["source", "range"],
)
def test_a_mono_edge_off_the_vertices_is_bad_input(edge, problem, tmp_path, capsys):
    doc = {
        "version": "zdyn/1",
        "kind": "mono_graph",
        "vertices": ["a"],
        "edges": {"x": ["a", "a", 1], "y": edge},
    }
    path = tmp_path / "mono.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["subst"], ["check", "continuity"], ["straighten"], ["dot"]):
        assert run(*argv, path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: edge y has {problem}\n"


JUNK =(None, 0, -1, 2, 1.5, True, "", "w", "e_a", [], ["w"], [1], [[]], {}, {"w": 1})


def places(node, path=()):
    """The path of every value inside a parsed JSON document."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from places(value, path + (key,))


def mutant(doc, rng):
    """``doc`` with one or two values replaced by junk or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((1, 2))):
        path = rng.choice([p for p in places(doc) if p])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(rng.choice(JUNK)))
    return doc


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in DATA.glob("*.json") if p.name != "broken_syntax.json"),
)
def test_mutated_documents_raise_only_toolkit_errors(name, tmp_path, capsys):
    base = json.loads((DATA / name).read_text())
    rng = random.Random(name)
    path = tmp_path / "mutant.json"
    for _ in range(1500):
        doc = mutant(base, rng)
        try:
            cli.to_document(cli.load_document(doc))
        except ZdynError:
            pass
        path.write_text(json.dumps(doc))
        assert run("validate", path) in (0, 1, 2), json.dumps(doc)
        capsys.readouterr()


def option_grid(path):
    """Every small --level/--steps/--horizon setting of the option commands."""
    levels, steps, horizons = range(-2, 5), range(-1, 4), range(-1, 7)
    vertices = ["v0"]
    try:
        vertices.append(cli._diagram_of(cli.read_document(path)).level_vertices(1)[0])
    except ZdynError:
        pass
    for level in levels:
        yield "towers", path, "--level", level
        yield "check", "nesting", path, "--level", level
        for vertex in vertices:
            yield "paths", path, vertex, "--level", level
            for step in steps:
                yield "vershik", path, vertex, "--level", level, "--steps", step
        for step, horizon in itertools.product(steps, horizons):
            yield ("krieger", path, "--level", level, "--steps", step,
                   "--horizon", horizon)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_small_option_values_never_crash(name, capsys):
    for argv in option_grid(DATA / name):
        code = run(*argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert out == "" and err.startswith("error:"), (argv, out, err)


# every subcommand as (arguments before the file, arguments after it)
EVERY_COMMAND = (
    (("validate",), ()),
    (("check", "closing"), ()),
    (("check", "regulated"), ("--l-seq", "1,2")),
    (("check", "nesting"), ()),
    (("check", "continuity"), ()),
    (("check", "overlap"), ()),
    (("check", "recoding"), ("--radius", "1")),
    (("convert", "to-bv"), ()),
    (("convert", "to-covering"), ()),
    (("telescope",), ("1,3",)),
    (("straighten",), ()),
    (("vershik",), ("v0", "--level", "0", "--steps", "2")),
    (("paths",), ("v0", "--level", "0")),
    (("towers",), ()),
    (("krieger",), ()),
    (("array",), ("0:3", "--seed-file", DATA / "ex2_seed.json")),
    (("subst",), ("--depth", "2")),
    (("dot",), ()),
)

# a valid cover whose domain is not its codomain
NON_SELF_COVER = {
    "version": "zdyn/1",
    "kind": "cover",
    "domain": {"kind": "flexible_graph", "vertices": ["v"],
               "edges": {"a": ["v", "v"], "b": ["v", "v"]}},
    "codomain": {"kind": "flexible_graph", "vertices": ["v"],
                 "edges": {"c": ["v", "v"]}},
    "vmap": {"v": "v"},
    "emap": {"a": ["c"], "b": ["c", "c"]},
}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DATA.glob("*.json")) + ["non_self_cover.json"]
)
def test_every_command_keeps_the_exit_contract(name, tmp_path, capsys):
    path = DATA / name
    if name == "non_self_cover.json":
        path = tmp_path / name
        path.write_text(json.dumps(NON_SELF_COVER))
        assert run("validate", path) == 0
        capsys.readouterr()
    for head, tail in EVERY_COMMAND:
        code = run(*head, path, *tail)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (head, err)
        if code == 2:
            assert out == "" and err.startswith("error:"), (head, out, err)


def test_an_internal_error_exits_3_not_1(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "read_document", broken)
    assert run("check", "closing", DATA / "example2_covering.json") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback" in err


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("zdyn ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_commands_run(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run(*shlex.split(line)[1:]) in (0, 1)
    assert capsys.readouterr().out
