"""Command line round trips and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homcx import SimplicialComplex, core_fixture, greedy_collapse, run_suite, save_complex
from homcx.cli import main


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


def test_hom_command_matches_known_count(capsys, tmp_path, edge_file):
    code, _, _ = run(capsys, ["g1x", edge_file, "-o", str(tmp_path / "g.json")])
    assert code == 0
    code, out, _ = run(capsys, ["hom", "--g", "K2", str(tmp_path / "g.json")])
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 21


def test_hom_command_cap_exit_code(capsys, tmp_path, circle_file):
    run(capsys, ["g1x", circle_file, "-o", str(tmp_path / "g.json")])
    code, _, err = run(capsys, ["hom", "--g", "K2", "--cap", "5", str(tmp_path / "g.json")])
    assert code == 3


def test_hom_command_negative_cap_is_bad_input(capsys, tmp_path, circle_file, monkeypatch):
    run(capsys, ["g1x", circle_file, "-o", str(tmp_path / "g.json")])
    code, _, err = run(capsys, ["hom", "--g", "K2", "--cap", "-1", str(tmp_path / "g.json")])
    assert code == 2
    assert "non-negative" in err
    monkeypatch.setenv("HOMCX_CAP", "-1")
    code, _, err = run(capsys, ["hom", "--g", "K2", str(tmp_path / "g.json")])
    assert code == 2
    assert "non-negative" in err


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
    code, out, _ = run(capsys, ["verify", "thm-1.2", "--fixture", "delta1"])
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
        code, out, _ = run(capsys, ["verify", "prop-collapse", "--fixture", "boundary_delta2"])
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
    code, _, err = run(capsys, ["verify", "thm-1.2", "--fixture", "moebius"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-1.3", "--fixture", "point", "--n", "0"],
        ["verify", "quillen", "--fixture", "point", "--n", "0"],
        ["verify", "prop-4.1", "--fixture", "point", "--n", "0"],
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
        ["verify", "thm-1.3", "--fixture", "boundary_delta2", "--n", "2"],
        ["verify", "prop-4.1", "--fixture", "boundary_delta2", "--n", "1"],
    ],
)
def test_source_clique_below_the_statement_is_bad_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:") and not out


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
