"""Batch command-line front end: vertices, hstar, closed-form, and gb pipelines.

Exit codes: 0 success, 2 parse/usage error or a report or counts file that
cannot be written, 3 cost guard, 4 verification failure (routes disagree).
Reports carry a route tag ("semigroup", "lp", "closed-form", "gb-f-vector") on
every numeric claim and are byte-stable for fixed inputs and flags; timing is
serialized only under --timing.  Building the parser imports only the errors module; each command
imports the modules of its route, and of the graph, when it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .errors import (CostGuardError, EdgeListParseError, VerificationError, ascii_int,
                     int_digit_limit)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COST_GUARD = 3
EXIT_VERIFICATION = 4


def _text_chunks(report: dict):
    """The text report in pieces: a "name: value" line per leaf, a list leaf's
    items space-separated, a list of lists one row per line."""
    def leaf(name, value):
        if isinstance(value, list) and value and isinstance(value[0], list):
            yield f"{name}:\n"
            for row in value:
                yield "  " + " ".join(str(x) for x in row) + "\n"
        elif isinstance(value, list):
            yield f"{name}: "
            for i, x in enumerate(value):
                yield f" {x!s}" if i else str(x)
            yield "\n"
        else:
            yield f"{name}: {value}\n"

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                yield from walk(f"{prefix}.{key}" if prefix else key, sub)
        else:
            yield from leaf(prefix, value)

    return walk("", report)


def _write_report(fh, report: dict, as_json: bool) -> None:
    """Write the report to `fh` in blocks of chunks as it is encoded (a write
    per chunk costs more than the encoding on stdout)."""
    import itertools
    if as_json:
        import json
        chunks = json.JSONEncoder(indent=2).iterencode(report)
    else:
        chunks = _text_chunks(report)
    for block in iter(lambda: "".join(itertools.islice(chunks, 8192)), ""):
        fh.write(block)
    if as_json:
        fh.write("\n")
    fh.flush()


def _refuse_unwritable(path) -> None:
    """Refuse before any work a directory, or a file (if it exists, else its
    directory) that os.access denies writing; opening nothing, it truncates nothing."""
    if path and (os.path.isdir(path) or not os.access(
            path if os.path.exists(path) else os.path.dirname(path) or ".", os.W_OK)):
        raise OSError(f"cannot write {path}")


def _graph_from_args(args) -> tuple:
    from .graph import complete_bipartite, cycle, path, read_edge_list
    if args.cycle is not None:
        g, descriptor = cycle(args.cycle), {"kind": "cycle"}
    elif args.path is not None:
        g, descriptor = path(args.path), {"kind": "path"}
    elif args.kbipartite is not None:
        g = complete_bipartite(*args.kbipartite)
        descriptor = {"kind": "complete_bipartite", "parts": args.kbipartite}
    else:
        g = read_edge_list(args.edge_list)
        descriptor = {"kind": "edge_list", "file": args.edge_list}
    descriptor["vertices"] = g.vertex_count
    descriptor["edges"] = g.edge_count
    return g, descriptor


def _poly_entry(p, route: str) -> dict:
    from .polynomial import format_polynomial, hibi_lower_bound_ok, is_palindromic
    return {
        "route": route,
        "coefficients": list(p.coeffs),
        "text": format_polynomial(p),
        "value_at_1": p.evaluate(1),
        "palindromic": is_palindromic(p),
        "hibi_lower_bound": hibi_lower_bound_ok(p),
    }


def cmd_vertices(args) -> dict:
    from .graph import configuration
    g, descriptor = _graph_from_args(args)
    cfg = configuration(g)
    return {
        "command": "vertices",
        "graph": descriptor,
        "vertex_count": cfg.column_count,
        "vertices": [list(c[:-1]) for c in cfg.columns],
        "configuration_columns": [list(c) for c in cfg.columns],
    }


def cmd_hstar(args) -> dict:
    from . import ehrhart
    from .graph import configuration
    if args.from_counts is not None:
        if (args.method, args.counts_out, args.max_dilate) != (None, None, None):
            raise argparse.ArgumentTypeError(
                "--from-counts reads the counts; drop --method, --counts-out and --max-dilate")
        with open(args.from_counts, "r", encoding="utf-8") as fh:
            cs = ehrhart.CountSequence.from_json(fh.read())
        entry = _poly_entry(ehrhart.hstar_from_counts(cs), "counts-file")
        entry["counts"] = list(cs.counts)
        return {
            "command": "hstar",
            "counts_file": args.from_counts,
            "method": "counts-file",
            "dimension": cs.dimension,
            "results": {"counts-file": entry},
        }
    _refuse_unwritable(args.counts_out)
    g, descriptor = _graph_from_args(args)
    cfg = configuration(g)
    method = args.method or "semigroup"
    report = {"command": "hstar", "graph": descriptor, "method": method, "dimension": cfg.dimension}
    routes = ("semigroup", "lp") if method == "both" else (method,)
    if method == "both":
        # refuse the lp budget before the semigroup route does its work
        ehrhart.check_lp_cost(cfg, args.max_dilate)
    results = report["results"] = {}
    for route in routes:
        h, cs = ehrhart.hstar_polynomial(cfg, route, args.max_dilate)
        results[route] = _poly_entry(h, route) | {"counts": list(cs.counts)}
    if method == "both":
        agree = results["semigroup"]["coefficients"] == results["lp"]["coefficients"]
        report["agreement"] = "PASS" if agree else "FAIL"
        if not agree:
            raise VerificationError("semigroup and lp routes disagree:\n" +
                                    "".join(_text_chunks(report)))
    if args.counts_out is not None:
        # routes that agree on h* agree on every count: the last route's cs serves
        with open(args.counts_out, "w", encoding="utf-8") as fh:
            fh.write(cs.to_json() + "\n")
        report["counts_out"] = args.counts_out
    return report


def _refuse_unprintable(n: int, largest: int | None = None) -> None:
    """Refuse a report on K_{2,n-2} that would print an integer of more digits
    than Python converts to text (`int_digit_limit`): `largest`, or by
    default the normalized volume 2((n-2)!)^2, read off lgamma."""
    limit = int_digit_limit()
    digits = 1 + math.floor(math.log10(largest) if largest else
                            (math.log(2) + 2 * math.lgamma(n - 1)) / math.log(10))
    if digits > limit:
        setting = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        named = "sys.get_int_max_str_digits" if setting else "Python's default, no limit set"
        raise CostGuardError(f"report refused for n = {n}: a {digits}-digit integer to "
                             f"print, limit {limit} digits ({named})")


def cmd_closed_form(args) -> dict:
    from .polynomial import eulerian, format_polynomial, hstar_closed_form_k2m
    n = args.n
    if n < 4:
        raise argparse.ArgumentTypeError("closed form needs n >= 4")
    _refuse_unprintable(n)
    h = hstar_closed_form_k2m(n)
    a = eulerian(n - 2)
    return {
        "command": "closed-form",
        "n": n,
        "hstar": _poly_entry(h, "closed-form"),
        "eulerian_factor": {"route": "closed-form", "coefficients": list(a.coeffs),
                            "text": format_polynomial(a)},
        "normalized_volume": {"route": "closed-form", "value": h.evaluate(1)},
    }


def cmd_gb(args) -> dict:
    from . import grobner
    from .polynomial import f_to_h, hstar_closed_form_k2m
    n = args.n
    if n < 4:
        raise argparse.ArgumentTypeError("cut-ideal basis needs n >= 4")
    report = {"command": "gb", "n": n, "action": args.action}
    if args.action == "list":
        basis = grobner.generate_gb(n)
        report["binomial_count"] = len(basis)
        report["binomials"] = grobner.basis_payload(basis)
        report["binomial_text"] = [grobner.format_binomial(b) for b in basis]
        return report
    if args.action == "verify":
        ok, certificate = grobner.buchberger_check(n)
        report["verdict"] = "PASS" if ok else "FAIL"
        report["certificate"] = certificate
        if not ok:
            raise VerificationError("Buchberger check failed:\n" + "".join(_text_chunks(report)))
        return report
    if args.action == "fvector":
        # the volume is f's top entry; a middle entry may be longer
        _refuse_unprintable(n)
        f = grobner.f_vector(n)
        _refuse_unprintable(n, max(f))
        h = f_to_h(f, 2 * n - 4)
        report["f_vector"] = {"route": "gb-f-vector", "values": f}
        report["h_polynomial"] = _poly_entry(h, "gb-f-vector")
        return report
    from . import ehrhart
    from .graph import complete_bipartite, configuration
    cfg = configuration(complete_bipartite(2, n - 2))
    f = grobner.f_vector(n)
    h_gb = f_to_h(f, 2 * n - 4)
    h_closed = hstar_closed_form_k2m(n)
    h_ehrhart, _ = ehrhart.hstar_polynomial(cfg, "semigroup")
    report["results"] = {
        "gb-f-vector": _poly_entry(h_gb, "gb-f-vector"),
        "closed-form": _poly_entry(h_closed, "closed-form"),
        "semigroup": _poly_entry(h_ehrhart, "semigroup"),
    }
    agree = h_gb == h_closed == h_ehrhart
    report["agreement"] = "PASS" if agree else "FAIL"
    if not agree:
        raise VerificationError("three-way h* comparison failed:\n" + "".join(_text_chunks(report)))
    return report


def _add_graph_flags(parser):
    """The graph flags, as one required mutually exclusive group (returned)."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--cycle", type=ascii_int, metavar="N", help="cycle on N vertices")
    group.add_argument("--path", type=ascii_int, metavar="E", help="path with E edges")
    group.add_argument("--kbipartite", type=ascii_int, nargs=2, metavar=("P", "Q"),
                       help="complete bipartite graph K_{P,Q}")
    group.add_argument("--edge-list", metavar="FILE",
                       help="plain edge-list file: first line m, then 'u v' lines")
    return group


def _add_output_flags(parser):
    # registered on the main parser and every subparser so the flags work in
    # either position; SUPPRESS keeps a subparser from clobbering a value
    # already parsed at the top level
    parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the report as JSON")
    parser.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS,
                        help="write the report to FILE")
    parser.add_argument("--timing", action="store_true", default=argparse.SUPPRESS,
                        help="include wall-clock timing in the report (not byte-stable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutpoly",
        description="Exact h*-polynomials of cut polytopes in the vertex-spanned lattice.")
    _add_output_flags(parser)
    parser.set_defaults(json=False, out=None, timing=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_vertices = sub.add_parser("vertices", help="cut-polytope vertices and configuration")
    _add_output_flags(p_vertices)
    _add_graph_flags(p_vertices)
    p_vertices.set_defaults(handler=cmd_vertices)

    p_hstar = sub.add_parser("hstar", help="h*-polynomial via dilate counting")
    _add_graph_flags(p_hstar).add_argument(
        "--from-counts", metavar="FILE",
        help="skip counting; read a count-sequence JSON file instead")
    _add_output_flags(p_hstar)
    p_hstar.add_argument("--method", choices=("semigroup", "lp", "both"), default=None,
                         help="counting route (default: semigroup)")
    p_hstar.add_argument("--max-dilate", type=ascii_int, default=None,
                         help="dilate budget (default: dimension + 1)")
    p_hstar.add_argument("--counts-out", metavar="FILE", default=None,
                         help="write the dilate-count sequence as JSON to FILE")
    p_hstar.set_defaults(handler=cmd_hstar)

    p_closed = sub.add_parser("closed-form",
                              help="closed-form h* of the cut polytope of K_{2,n-2}")
    p_closed.add_argument("n", type=ascii_int)
    _add_output_flags(p_closed)
    p_closed.set_defaults(handler=cmd_closed_form)

    p_gb = sub.add_parser("gb", help="cut-ideal basis: list, verify, fvector, compare")
    p_gb.add_argument("n", type=ascii_int)
    p_gb.add_argument("action", choices=("list", "verify", "fvector", "compare"))
    _add_output_flags(p_gb)
    p_gb.set_defaults(handler=cmd_gb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        _refuse_unwritable(args.out)
        report = args.handler(args)
        if args.timing:
            report["timing_s"] = round(time.perf_counter() - started, 3)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_report(fh, report, args.json)
        else:
            try:
                _write_report(sys.stdout, report, args.json)
            except OSError:
                # the failed flush keeps the report buffered: point stdout at
                # devnull so that the interpreter's flush at exit succeeds
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise
    except (argparse.ArgumentTypeError, EdgeListParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CostGuardError as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_COST_GUARD
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
