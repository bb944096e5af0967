"""Command line round trips and exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import homcx.hom
from homcx import (
    SimplicialComplex,
    build_g_kx,
    complete_graph,
    core_fixture,
    enumerate_hom,
    greedy_collapse,
    neighborhood_complex,
    run_suite,
    save_complex,
)
from homcx.cli import build_parser, main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def edge_file(tmp_path):
    p = tmp_path / "delta1.json"
    save_complex(core_fixture("delta1"), str(p))
    return str(p)


@pytest.fixture
def circle_file(tmp_path):
    p = tmp_path / "boundary_delta2.json"
    save_complex(core_fixture("boundary_delta2"), str(p))
    return str(p)


def test_homology_command(capsys, tmp_path):
    p = tmp_path / "s2.json"
    save_complex(core_fixture("boundary_delta3"), str(p))
    code, out, _ = run(capsys, ["homology", str(p)])
    assert code == 0
    assert json.loads(out) == {"betti": [1, 0, 1], "torsion": [[], [], []]}


def dunce_hat():
    """Boundary word a a a^-1 with a = 1-2-3-1, a ring r0..r8 inside it and
    a centre c: contractible, and every edge lies in two triangles or more,
    so a greedy collapse stalls at once."""
    b = [1, 2, 3, 1, 2, 3, 1, 3, 2]
    r = [f"r{t}" for t in range(9)]
    facets = []
    for t in range(9):
        u = (t + 1) % 9
        facets += [(b[t], b[u], r[t]), (b[u], r[u], r[t]), (r[t], r[u], "c")]
    return SimplicialComplex.from_facets(facets)


def test_homology_command_prints_homology_not_the_collapsed_core(capsys, tmp_path):
    X = dunce_hat()
    assert (len(X.vertices), len(X.facets)) == (13, 27)
    core, cert = greedy_collapse(X)
    assert not cert.steps and core.dim == 2
    p = tmp_path / "dunce.json"
    save_complex(X, str(p))
    code, out, _ = run(capsys, ["homology", str(p)])
    assert code == 0
    assert json.loads(out) == {"betti": [1], "torsion": [[]]}


def test_sd_command(capsys, edge_file):
    code, out, _ = run(capsys, ["sd", "-k", "1", edge_file])
    assert code == 0
    data = json.loads(out)
    assert data["facets"] == [["{1}", "{1,2}"], ["{1,2}", "{2}"]]


def test_g1x_command(capsys, circle_file):
    code, out, _ = run(capsys, ["g1x", "-k", "1", circle_file])
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["edges"]) == 12
    loops = [e for e in data["edges"] if e[0] == e[1]]
    assert len(loops) == 6


def test_nbhd_and_clique_commands(capsys, tmp_path, circle_file):
    code, out, _ = run(capsys, ["g1x", circle_file, "-o", str(tmp_path / "g.json")])
    assert code == 0
    code, out, _ = run(capsys, ["nbhd", str(tmp_path / "g.json")])
    assert code == 0
    assert len(json.loads(out)["facets"]) == 6
    code, out, _ = run(capsys, ["clique", str(tmp_path / "g.json")])
    assert code == 0
    # cliques of the containment graph = subdivision edges
    assert len(json.loads(out)["facets"]) == 6


@pytest.mark.parametrize("command", ["nbhd", "clique"])
def test_complexes_of_the_empty_graph_are_empty(capsys, tmp_path, command):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"vertices": [], "edges": []}))
    code, out, _ = run(capsys, [command, str(p)])
    assert code == 0
    assert json.loads(out) == {"facets": []}


def test_hom_command_matches_known_count(capsys, tmp_path, edge_file):
    code, _, _ = run(capsys, ["g1x", edge_file, "-o", str(tmp_path / "g.json")])
    assert code == 0
    code, out, _ = run(capsys, ["hom", "--g", "K2", str(tmp_path / "g.json")])
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 21


def test_hom_command_takes_a_source_past_the_recursion_limit(capsys, tmp_path):
    """Enumeration keeps no stack frame per source vertex."""
    source = tmp_path / "edgeless.json"
    source.write_text(json.dumps({"vertices": [f"v{i}" for i in range(1500)], "edges": []}))
    target = tmp_path / "looped_point.json"
    target.write_text(json.dumps({"vertices": ["p"], "edges": [["p", "p"]]}))
    code, out, _ = run(capsys, ["hom", "--g", str(source), str(target)])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 1


def test_hom_command_cap_exit_code(capsys, tmp_path, circle_file):
    run(capsys, ["g1x", circle_file, "-o", str(tmp_path / "g.json")])
    code, _, err = run(capsys, ["hom", "--g", "K2", "--cap", "5", str(tmp_path / "g.json")])
    assert code == 3


def test_hom_command_negative_cap_is_bad_input(capsys, tmp_path, circle_file):
    run(capsys, ["g1x", circle_file, "-o", str(tmp_path / "g.json")])
    code, _, err = run(capsys, ["hom", "--g", "K2", "--cap", "-1", str(tmp_path / "g.json")])
    assert code == 2
    assert "non-negative" in err


def test_the_environment_sets_no_cap(capsys, monkeypatch):
    """The cap comes from the caller alone; the environment sets none."""
    monkeypatch.setenv("HOMCX_CAP", "0")
    H = build_g_kx(core_fixture("boundary_delta2"), 1)
    assert len(enumerate_hom(complete_graph(2), H)) > 0
    code, _, _ = run(capsys, ["verify", "thm-1.1", "--fixtures", "point"])
    assert code == 0


def test_collapse_command(capsys, tmp_path):
    p = tmp_path / "d2.json"
    save_complex(core_fixture("delta2"), str(p))
    code, out, _ = run(capsys, ["collapse", str(p)])
    assert code == 0
    data = json.loads(out)
    # collapses to a single vertex; which one is fixed by the canonical order
    assert len(data["end"]["facets"]) == 1
    assert len(data["end"]["facets"][0]) == 1


def test_nerve_command(capsys, circle_file):
    code, out, _ = run(capsys, ["nerve", circle_file])
    assert code == 0
    data = json.loads(out)
    assert data["intersections_are_full_simplices"] is True
    assert sorted(map(sorted, data["nerve"]["facets"])) == [
        ["1", "2"], ["1", "3"], ["2", "3"],
    ]


def test_klfilt_command(capsys, circle_file):
    code, out, _ = run(capsys, ["klfilt", circle_file])
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 6 and data["q"] == 3
    assert data["order"][0] == "{1,2}"
    assert len(data["complexes"]) == 4


def test_verify_text_and_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "thm-1.2", "--fixtures", "delta1"])
    assert code == 0
    assert "[PASS] delta1" in out
    assert "overall: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "prop-3.1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["theorem"] == "prop-3.1"
    assert {r["fixture"] for r in data["reports"]} >= {"point", "rp2"}


def test_verify_runs_are_reproducible(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["verify", "prop-collapse", "--fixtures", "boundary_delta2"])
        assert code == 0
        outs.append("\n".join(l for l in out.splitlines() if "wall time" not in l))
    assert outs[0] == outs[1]


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["homology", "/nonexistent/x.json"])
    assert code == 2
    assert err


@pytest.mark.parametrize("command", [["nbhd"], ["hom", "--g", "K2"]])
def test_non_string_edge_endpoint_exit_code(capsys, tmp_path, command):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", ["b"]]]}))
    code, out, err = run(capsys, command + [str(p)])
    assert code == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_fixture_name_exit_code(capsys):
    code, _, err = run(capsys, ["verify", "thm-1.2", "--fixtures", "moebius"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-1.3", "--fixtures", "point", "--n", "0"],
        ["verify", "quillen", "--fixtures", "point", "--n", "0"],
        ["verify", "prop-4.1", "--fixtures", "point", "--n", "0"],
        ["verify", "prop-3.1", "--fixtures", ""],
    ],
)
def test_zero_and_empty_arguments_are_not_defaults(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-1.3", "--fixtures", "boundary_delta2", "--n", "2"],
        ["verify", "prop-4.1", "--fixtures", "boundary_delta2", "--n", "1"],
    ],
)
def test_source_clique_below_the_statement_is_bad_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:") and not out


@pytest.mark.parametrize(
    "suite", ["fold", "thm-1.1", "thm-1.2", "lemma-hom-nbhd", "prop-3.1", "prop-collapse"]
)
def test_source_clique_size_on_a_suite_without_one_is_bad_input(capsys, suite):
    code, out, err = run(capsys, ["verify", suite, "--fixtures", "point", "--n", "5"])
    assert code == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "prop-collapse", "--fixtures", "delta1", "--cap", "-1"],
        ["verify", "thm-1.2", "--cap", "5"],
        ["verify", "prop-3.1", "--fixtures", "point", "--cap", "0"],
    ],
)
def test_cap_on_a_suite_that_enumerates_nothing_is_bad_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_thm_1_3_reaches_boundary_delta3(capsys):
    code, out, _ = run(
        capsys, ["verify", "thm-1.3", "--fixtures", "boundary_delta3", "--format", "json"]
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["passed"]
    artifacts = report["artifacts"]
    assert artifacts["hom_k2_profile"]["betti"] == [1, 0, 1]
    assert artifacts["hom_k3_profile"]["betti"] == [1, 0, 1]


def test_quillen_reaches_boundary_delta3(capsys):
    code, out, _ = run(
        capsys, ["verify", "quillen", "--fixtures", "boundary_delta3", "--format", "json"]
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["passed"]
    assert report["artifacts"]["fibers_checked"] == 3002
    assert report["artifacts"]["pairs_checked"] == 127238


def test_lemma_hom_nbhd_reaches_rp2(capsys):
    """Hom(K2, G(rp2)) has the torsion of rp2: its first source vertex draws
    from all 31 vertices, so only a pruned enumeration gets through."""
    code, out, _ = run(
        capsys, ["verify", "lemma-hom-nbhd", "--fixtures", "rp2", "--format", "json"]
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["passed"]
    assert report["artifacts"]["hom_k2_elements"] == 29533
    assert report["artifacts"]["hom_k2_profile"]["torsion"] == [[], [2], []]


def test_cap_bounds_the_images_tried_on_rp2(capsys):
    """The cap counts images tried, so a capped run on rp2 stops at once
    and names the count."""
    start = time.perf_counter()
    code, _, err = run(capsys, ["verify", "thm-1.1", "--fixtures", "rp2", "--cap", "1000"])
    assert time.perf_counter() - start < 10
    assert code == 3
    assert "tried 1001 images" in err


def test_empty_fixture_tuple_is_not_a_pass():
    with pytest.raises(ValueError):
        run_suite("prop-3.1", fixtures=())


def test_console_script_entry_point(tmp_path):
    p = tmp_path / "pt.json"
    save_complex(core_fixture("point"), str(p))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    res = subprocess.run(
        [sys.executable, "-m", "homcx.cli", "homology", str(p)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"betti": [1], "torsion": [[]]}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The greedy certificate of N(G(rp2)), sd^2 of rp2 and the
    prop-collapse report on rp2, wall time removed, are byte-identical
    under two hash seeds."""
    X = core_fixture("rp2")
    space, nbhd = tmp_path / "rp2.json", tmp_path / "nbhd.json"
    save_complex(X, str(space))
    save_complex(neighborhood_complex(build_g_kx(X, 1)), str(nbhd))
    commands = [
        ["collapse", str(nbhd)],
        ["sd", "-k", "2", str(space)],
        ["verify", "prop-collapse", "--fixtures", "rp2", "--format", "json"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")

    def outputs(seed):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        outs = []
        for argv in commands:
            res = subprocess.run(
                [sys.executable, "-m", "homcx.cli", *argv], capture_output=True, env=env
            )
            assert res.returncode == 0, res.stderr
            lines = res.stdout.splitlines()
            outs.append([line for line in lines if b'"wall_time_s"' not in line])
        return outs

    assert outputs("0") == outputs("12345")


def test_readme_command_lines_parse():
    """Every homcx line in README.md's code blocks, comment cut off, is
    one the parser accepts."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [l for b in blocks for l in b.splitlines() if l.startswith("homcx ")]
    assert len(lines) >= 14
    for line in lines:
        build_parser().parse_args(shlex.split(line.split("#")[0])[1:])


def test_prop_4_1_reports_the_etas_whose_witness_misses(capsys, monkeypatch):
    """A fusion whose witness is no vertex fails common_neighbor_witness's
    assertion for every eta; prop-4.1 records each of them as a failure,
    so the run reports FAIL and exits 1, with no traceback."""
    fusion = homcx.hom._fusion

    def off_the_graph(*args):
        return dataclasses.replace(fusion(*args), witness=frozenset([7]))

    monkeypatch.setattr(homcx.hom, "_fusion", off_the_graph)
    argv = ["verify", "prop-4.1", "--fixtures", "delta1", "--format", "json"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    [report] = json.loads(out)["reports"]
    H = build_g_kx(core_fixture("delta1"), 1)
    etas = [str(eta) for n in (2, 3) for eta in enumerate_hom(complete_graph(n), H)]
    assert report["artifacts"]["etas_checked"] == len(etas) == 80
    assert report["artifacts"]["failures"] == etas
    assert not report["passed"]
    code, out, _ = run(capsys, argv[:4])
    assert code == 1
    assert "[FAIL] delta1" in out and "overall: FAIL" in out


def test_one_parser_serves_every_call(capsys):
    """The parser is built once; a value given to one call does not
    become the default of the next."""
    assert build_parser() is build_parser()
    n_values = []
    for argv in (["verify", "prop-4.1", "--n", "3"], ["verify", "prop-4.1"]):
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        n_values.append({tuple(r["artifacts"]["n_values"]) for r in json.loads(out)["reports"]})
    assert n_values == [{(3,)}, {(2, 3)}]
