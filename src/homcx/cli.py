"""Command-line front end.

Compute subcommands read a complex or graph in the JSON formats of this
package and write a canonical JSON result; ``verify`` runs one of the
named checking suites over the built-in fixtures.  Exit codes: 0 on
success, 2 on malformed input, 3 when an enumeration cap was exceeded;
a failing verification suite exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .collapse import StalledCollapse, certificate_to_dict, greedy_collapse, kl_filtration
from .canon import render_label
from .fixtures import CORE_FIXTURE_NAMES, looped_edge_graph
from .graphs import (
    build_g_kx,
    clique_complex,
    complete_graph,
    graph_to_dict,
    load_graph,
    neighborhood_complex,
)
from .hom import CapExceeded, enumerate_hom, hom_poset_to_dict
from .homology import homology
from .nerve import cover_to_dict, nerve_of_cover, star_cover, verify_nerve_theorem_hypotheses
from .simplicial import (
    barycentric_subdivision,
    complex_to_dict,
    load_complex,
)
from .verify import SUITE_NAMES, run_suite, suite_to_dict, suite_to_text

__all__ = ["main"]


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_sd(args) -> int:
    X = load_complex(args.input)
    _emit_json(args, complex_to_dict(barycentric_subdivision(X, args.k)))
    return 0


def _cmd_g1x(args) -> int:
    X = load_complex(args.input)
    _emit_json(args, graph_to_dict(build_g_kx(X, args.k)))
    return 0


def _cmd_nbhd(args) -> int:
    G = load_graph(args.input)
    _emit_json(args, complex_to_dict(neighborhood_complex(G)))
    return 0


def _cmd_clique(args) -> int:
    G = load_graph(args.input)
    _emit_json(args, complex_to_dict(clique_complex(G)))
    return 0


def _cmd_homology(args) -> int:
    X = load_complex(args.input)
    _emit_json(args, homology(X).to_dict())
    return 0


def _cmd_collapse(args) -> int:
    X = load_complex(args.input)
    _, cert = greedy_collapse(X)
    _emit_json(args, certificate_to_dict(cert))
    return 0


def _cmd_nerve(args) -> int:
    X = load_complex(args.input)
    cover = star_cover(X)
    hyp = verify_nerve_theorem_hypotheses(cover)
    _emit_json(
        args,
        {
            "nerve": complex_to_dict(nerve_of_cover(cover)),
            "pieces": cover_to_dict(cover),
            "intersections_are_full_simplices": hyp.passed,
        },
    )
    return 0


def _cmd_klfilt(args) -> int:
    X = load_complex(args.input)
    F = kl_filtration(X)
    _emit_json(
        args,
        {
            "order": [render_label(s) for s in F.order],
            "p": F.p,
            "q": F.q,
            "complexes": [complex_to_dict(K) for K in F.complexes],
        },
    )
    return 0


def _source_graph(token: str):
    if re.fullmatch(r"[Kk][0-9]+", token):
        return complete_graph(int(token[1:]))
    if token == "looped-edge":
        return looped_edge_graph()
    return load_graph(token)


def _cmd_hom(args) -> int:
    G = _source_graph(args.g)
    H = load_graph(args.input)
    P = enumerate_hom(G, H, cap=args.cap)
    _emit_json(args, hom_poset_to_dict(P))
    return 0


def _cmd_verify(args) -> int:
    fixtures = None
    if args.fixtures is not None:
        fixtures = (
            CORE_FIXTURE_NAMES
            if args.fixtures == "core"
            else tuple(args.fixtures.split(","))
        )
    result = run_suite(args.theorem, fixtures=fixtures, n=args.n, cap=args.cap)
    if args.format == "json":
        _emit_json(args, suite_to_dict(result))
    else:
        _emit(args, suite_to_text(result) + "\n")
    return 0 if result.passed else 1


_CAP_HELP = (
    "cap on the images a Hom enumeration tries, never fewer than the elements "
    "it finds (default 10^6); exit 3 past it"
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; callers only parse with it, and parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="homcx",
        description=(
            "containment graphs of complexes, their neighborhood, clique, "
            "and multihomomorphism complexes, collapse and nerve "
            "certificates, and integral homology"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="input file (JSON)")
        p.add_argument("-o", "--output", help="write result here instead of stdout")
        p.set_defaults(func=fn)
        return p

    p = add("sd", _cmd_sd, "barycentric subdivision of a complex")
    p.add_argument("-k", type=int, default=1, help="number of subdivisions")
    p = add("g1x", _cmd_g1x, "reflexive containment graph on the simplices")
    p.add_argument("-k", type=int, default=1, help="subdivision depth of the construction")
    add("nbhd", _cmd_nbhd, "neighborhood complex of a graph")
    add("clique", _cmd_clique, "clique complex of a graph")
    add("homology", _cmd_homology, "integral homology profile of a complex")
    add("collapse", _cmd_collapse, "greedy collapse certificate of a complex")
    add("nerve", _cmd_nerve, "star cover and its nerve")
    add("klfilt", _cmd_klfilt, "neighborhood filtration of the containment graph")
    p = add("hom", _cmd_hom, "multihomomorphism poset into a graph")
    p.add_argument(
        "--g",
        required=True,
        help="source graph: K<n>, looped-edge, or a graph JSON path",
    )
    p.add_argument("--cap", type=int, default=None, help=_CAP_HELP)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("theorem", choices=sorted(SUITE_NAMES))
    p.add_argument("--fixtures", help='"core", or fixture names separated by commas')
    p.add_argument("--n", type=int, default=None, help="source clique size")
    p.add_argument("--cap", type=int, default=None, help=_CAP_HELP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", help="write report here instead of stdout")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StalledCollapse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
