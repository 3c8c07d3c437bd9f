"""Document round trips and command line behavior."""

import json
import shlex
from pathlib import Path

import pytest

from zdyn import bratteli, cli, coverings
from zdyn.errors import DocumentSemanticError, DocumentSyntaxError

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
    assert "rank gap" in capsys.readouterr().out
    assert run("validate", DATA / "broken_syntax.json") == 2
    assert run("validate", DATA / "no_such_file.json") == 2


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
    assert q.kind == "stationary"
    assert q.multiplicities["e_b"] == 4


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


def test_unsettled_krieger_markers_answer_unknown(capsys):
    assert run(
        "krieger", DATA / "skew_covering.json",
        "--level", "3", "--steps", "2", "--horizon", "7", "--format", "json",
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "UNKNOWN"
    assert report["witnesses"] == [["y", 6, "two boundary resolutions in one chain"]]


def test_a_repeating_tail_has_no_diagram_form(tmp_path, capsys):
    assert run("telescope", DATA / "example2_covering.json", "1,3") == 0
    doc = tmp_path / "tail.json"
    doc.write_text(capsys.readouterr().out)
    assert run("convert", "to-bv", doc) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def graph_document(kind, edges):
    return {"version": "zdyn/1", "kind": kind, "vertices": ["v"], "edges": edges}


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
    ],
    ids=["weighted-arity", "flexible-arity", "basic-arity", "mono-arity",
         "mono-rank", "weighted-bool-length"],
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
