import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cutpoly import cli, ehrhart, graph, grobner
from cutpoly.cli import (
    EXIT_COST_GUARD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFICATION,
    main,
)
from cutpoly.polynomial import IntPolynomial

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def text_by_lines(payload) -> str:
    """A report's text rendered whole from its JSON payload: one "name: value"
    line per leaf, a list's items space-separated, a list of lists one
    indented row per line."""
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{prefix}:")
            lines.extend("  " + " ".join(map(str, row)) for row in value)
        elif isinstance(value, list):
            lines.append(f"{prefix}: " + " ".join(map(str, value)))
        else:
            lines.append(f"{prefix}: {value}")

    walk("", payload)
    return "\n".join(lines) + "\n"


def skew_route(monkeypatch, skewed):
    """Make ehrhart.hstar_polynomial answer one more in h*'s top coefficient
    on route `skewed`, so the routes compared with it disagree."""
    real = ehrhart.hstar_polynomial

    def fake(cfg, method="semigroup", max_dilate=None):
        h, cs = real(cfg, method, max_dilate)
        if method == skewed:
            h = IntPolynomial(list(h.coeffs[:-1]) + [h.coeffs[-1] + 1])
        return h, cs
    monkeypatch.setattr(ehrhart, "hstar_polynomial", fake)


class TestVertices:
    def test_cycle4_lists_eight_rows(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--cycle", "4")
        assert code == EXIT_OK
        assert "vertex_count: 8" in out

    def test_edge_list_file(self, capsys, tmp_path):
        target = tmp_path / "k2.txt"
        target.write_text("2\n1 2\n")
        code, out, _ = run_cli(capsys, "vertices", "--edge-list", str(target))
        assert code == EXIT_OK
        assert "vertex_count: 2" in out

    def test_kbipartite(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "vertices", "--kbipartite", "2", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["vertex_count"] == 16
        assert len(payload["configuration_columns"]) == 16
        assert all(col[-1] == 1 for col in payload["configuration_columns"])

    def test_requires_exactly_one_graph(self, capsys):
        # argparse reports both misuses, each after a usage line
        code, _, err = run_cli(capsys, "vertices")
        assert code == EXIT_PARSE
        assert err.startswith("usage: ") and "--edge-list is required" in err
        code, _, err = run_cli(capsys, "vertices", "--cycle", "4", "--path", "2")
        assert code == EXIT_PARSE
        assert err.startswith("usage: ") and "--path: not allowed with argument --cycle" in err

    def test_one_vertex_edge_list(self, capsys, tmp_path):
        # a one-vertex graph parses, but has no cut polytope
        target = tmp_path / "k1.txt"
        target.write_text("1\n")
        for command in ("vertices", "hstar"):
            assert run_cli(capsys, command, "--edge-list", str(target)) == \
                (EXIT_PARSE, "", "error: cut polytope needs at least 2 vertices\n"), command

    def test_bad_edge_list_reports_line(self, capsys, tmp_path):
        target = tmp_path / "bad.txt"
        target.write_text("3\n1 2\noops\n")
        code, _, err = run_cli(capsys, "vertices", "--edge-list", str(target))
        assert code == EXIT_PARSE
        assert "line 3" in err

    def test_strict_integers(self, capsys, tmp_path):
        # each spelling is one int() accepts; a path on `value` vertices
        # would be a valid graph if it were read as that integer
        target = tmp_path / "path.txt"
        for bad, value in (("1_0", 10), ("+5", 5), ("\u0661\u0660", 10)):
            edges = "".join(f"{i} {i + 1}\n" for i in range(1, value - 1))
            for first, line in ((bad, 1), (str(value), value)):
                target.write_text(f"{first}\n{edges}{value - 1} {bad}\n", encoding="utf-8")
                code, _, err = run_cli(capsys, "vertices", "--edge-list", str(target))
                assert code == EXIT_PARSE, (bad, line)
                assert f"line {line}" in err
            for argv in (("vertices", "--cycle", bad), ("vertices", "--path", bad),
                         ("vertices", "--kbipartite", "2", bad),
                         ("hstar", "--path", "1", "--max-dilate", bad),
                         ("closed-form", bad), ("gb", bad, "list")):
                assert run_cli(capsys, *argv)[0] == EXIT_PARSE, argv


class TestHstar:
    def test_k23(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "hstar", "--kbipartite", "2", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        entry = payload["results"]["semigroup"]
        assert entry["coefficients"] == [1, 9, 26, 26, 9, 1]
        assert entry["route"] == "semigroup"
        assert entry["value_at_1"] == 72
        assert entry["palindromic"] and entry["hibi_lower_bound"]

    def test_path2(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "hstar", "--path", "2")
        payload = json.loads(out)
        assert payload["results"]["semigroup"]["coefficients"] == [1, 1]

    def test_cycle4(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "hstar", "--cycle", "4")
        payload = json.loads(out)
        assert payload["results"]["semigroup"]["coefficients"] == [1, 3, 3, 1]

    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "hstar", "--cycle", "4",
                               "--method", "both")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agreement"] == "PASS"
        assert payload["results"]["lp"]["route"] == "lp"

    def test_budget_refusal(self, capsys):
        code, _, err = run_cli(capsys, "hstar", "--cycle", "4", "--max-dilate", "2")
        assert code == EXIT_COST_GUARD
        assert "5" in err  # required dilate count named in the refusal

    def test_semigroup_cost_guard(self, capsys, monkeypatch):
        # K_{2,3} shifts an estimated 750,975 bits through dilate 4 and
        # 1,740,300 through dilate 5
        monkeypatch.setattr(ehrhart, "SEMIGROUP_BIT_LIMIT", 750_975)
        code, out, err = run_cli(capsys, "hstar", "--kbipartite", "2", "3")
        assert code == EXIT_COST_GUARD
        assert out == ""
        assert "refused at dilate 5: 1740300 bits" in err and "750975" in err

    def test_semigroup_cost_guard_on_wide_trees(self, capsys):
        # C_12 and path(12) have 11 and 12 tree edges at budget 13: a bitset
        # over the whole tree box [0,13]^11 would need 14^11 bits, so the
        # sweep's lower bound refuses them before layer 1.  So it does path(1)
        # at dilate 10^8: one sum per layer, but a bitset m bits long at
        # layer m, so at least M(M+1)/2 bits shifted
        for flags, bits in ((("--cycle", "12"), 49736759413827577),
                            (("--path", "12"), 1392969427061051385),
                            (("--path", "1", "--max-dilate", "100000000"), 5000000050000000)):
            code, out, err = run_cli(capsys, "hstar", *flags)
            assert code == EXIT_COST_GUARD
            assert out == ""
            assert f"refused at dilate 1: at least {bits} bits" in err

    def test_semigroup_cost_guard_builds_no_layer_past_its_dilate(
            self, capsys, tmp_path, layers_built):
        # K_{3,7} and path(1) at dilate 10^8 are refused before layer 1 by
        # the sweep's lower bound, K_6 part-way through the sweep
        k6 = tmp_path / "k6.txt"
        k6.write_text("6\n" + "".join(f"{u} {v}\n" for u in range(1, 7) for v in range(u + 1, 7)))
        for argv in (("--kbipartite", "3", "7"), ("--path", "1", "--max-dilate", "100000000"),
                     ("--edge-list", str(k6))):
            layers_built[0] = 0
            code, out, err = run_cli(capsys, "hstar", *argv)
            assert code == EXIT_COST_GUARD, argv
            assert out == ""
            dilate = int(err.split("refused at dilate ")[1].split(":")[0])
            assert layers_built == [dilate - 1], (argv, err)

    def test_semigroup_counts_a_long_path(self, capsys):
        # path(7)'s cut polytope is the cube [0,1]^7, whose h* is A_7
        code, out, _ = run_cli(capsys, "--json", "hstar", "--path", "7")
        assert code == EXIT_OK
        hstar = json.loads(out)["results"]["semigroup"]["coefficients"]
        code, out, _ = run_cli(capsys, "--json", "closed-form", "9")
        assert hstar == json.loads(out)["eulerian_factor"]["coefficients"]
        assert hstar == [1, 120, 1191, 2416, 1191, 120, 1]

    def test_configuration_guard(self, capsys):
        # K_{10,10}'s 2^19 cut vectors of 101 entries are refused before the
        # first; the LP route reads no cut vector and refuses it by its own bound
        for argv, refusal in ((("vertices",), "52953088 entries estimated, limit 4194304"),
                              (("hstar",), "52953088 entries estimated, limit 4194304"),
                              (("hstar", "--method", "lp"), "lp route refused: 100 edges on cycles"),
                              (("hstar", "--method", "both"), "lp route refused: 100 edges on cycles")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, argv[0], "--kbipartite", "10", "10", *argv[1:])
            assert time.perf_counter() - start < 1
            assert (code, out) == (EXIT_COST_GUARD, ""), argv
            assert refusal in err, argv

    def test_lp_cost_guard(self, capsys):
        # K_{3,3}: an exact walk over 8 of its 9 edges, closed dilates 0..5
        # and interiors 1..5, spans at least (6^9 + 4^9) // 9 box points
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "hstar", "--kbipartite", "3", "3", "--method", "lp")
        assert time.perf_counter() - start < 1
        assert code == EXIT_COST_GUARD
        assert out == ""
        assert err == ("cost guard: lp route refused: at least 1148871 box candidates on 8 "
                       "walked edges for closed dilates 0..5 and 5 interiors, over the "
                       "limit 1000000\n")

    def test_lp_route_past_seven_cycle_edges(self, capsys):
        # C_7, C_8 and K_{2,4} pass the guard: C_7 and K_{2,4} agree with the
        # semigroup route, C_8 with its counts through dilate d = 8 (the
        # semigroup guard refuses d+1), and K_{2,4} with the closed form
        from cutpoly.graph import configuration, cycle
        hstar = {}
        for argv in (("--cycle", "7", "--method", "both"), ("--cycle", "8", "--method", "lp"),
                     ("--kbipartite", "2", "4", "--method", "both")):
            code, out, _ = run_cli(capsys, "--json", "hstar", *argv)
            assert code == EXIT_OK, argv
            payload = json.loads(out)
            assert payload.get("agreement", "PASS") == "PASS", argv
            hstar[argv[0]] = payload["results"]["lp"]["coefficients"]
        semigroup = ehrhart.semigroup_counts(configuration(cycle(8)), 8)
        assert hstar["--cycle"] == list(ehrhart.hstar_from_counts(semigroup).coeffs)
        code, out, _ = run_cli(capsys, "--json", "closed-form", "6")
        assert hstar["--kbipartite"] == json.loads(out)["hstar"]["coefficients"]

    def test_guards_past_printable_estimates(self, capsys):
        # estimates longer than Python prints are refused by the power of two
        # they reach, not by the failed integer-to-text conversion (exit 2)
        cases = ((("--cycle", "3", "--method", "lp", "--max-dilate", "9" * 1500),
                  "lp route refused: at least 2^14945 or more box candidates on 2 walked edges"),
                 (("--path", "1", "--max-dilate", "9" * 2200),
                  "semigroup sumset refused at dilate 1: at least 2^14615 or more bits"))
        for argv, message in cases:
            code, out, err = run_cli(capsys, "hstar", *argv)
            assert code == EXIT_COST_GUARD
            assert out == ""
            assert message in err

    def test_lp_cost_guard_runs_before_the_semigroup_route(self, capsys, tmp_path):
        # --method both runs the LP route's guard before either route, so its
        # refusal comes first though the semigroup route counts K5 minus an edge
        target = tmp_path / "k5e.txt"
        target.write_text("5\n" + "".join(f"{u} {v}\n" for u in range(1, 6)
                                          for v in range(u + 1, 6) if (u, v) != (4, 5)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "hstar", "--edge-list", str(target), "--method", "both")
        assert time.perf_counter() - start < 1
        assert code == EXIT_COST_GUARD
        assert out == ""
        assert "lp route refused: at least 1148871 box candidates" in err

    def test_lp_route_refuses_a_possible_k5_minor(self, capsys, tmp_path):
        # K_5 has 10 edges on cycles, past the 9 up to which the chordless
        # cycles cut out the cut polytope: refused before either route runs
        target = tmp_path / "k5.txt"
        target.write_text("5\n" + "".join(f"{u} {v}\n" for u in range(1, 6)
                                          for v in range(u + 1, 6)))
        for method in ("lp", "both"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "hstar", "--edge-list", str(target),
                                     "--method", method)
            assert time.perf_counter() - start < 1, method
            assert (code, out) == (EXIT_COST_GUARD, ""), method
            assert err == ("cost guard: lp route refused: 10 edges on cycles, over the 9 up "
                           "to which the chordless-cycle walk is exact (no K5 minor)\n"), method

    def test_counts_json_round_trip(self, capsys, tmp_path):
        counts_file = tmp_path / "counts.json"
        code, out, _ = run_cli(capsys, "--json", "hstar", "--cycle", "4",
                               "--counts-out", str(counts_file))
        assert code == EXIT_OK
        produced = json.loads(counts_file.read_text())
        assert produced == {"dimension": 4, "counts": [1, 8, 33, 96, 225, 456]}
        code, out, _ = run_cli(capsys, "--json", "hstar",
                               "--from-counts", str(counts_file))
        assert code == EXIT_OK
        payload = json.loads(out)
        entry = payload["results"]["counts-file"]
        assert entry["coefficients"] == [1, 3, 3, 1]
        assert entry["route"] == "counts-file"

    def test_from_counts_excludes_graph_flags(self, capsys, tmp_path):
        counts_file = tmp_path / "counts.json"
        counts_file.write_text('{"dimension": 1, "counts": [1, 2, 3]}')
        code, _, err = run_cli(capsys, "hstar", "--cycle", "4",
                               "--from-counts", str(counts_file))
        assert code == EXIT_PARSE
        assert "--from-counts: not allowed with argument --cycle" in err
        code, _, err = run_cli(capsys, "hstar")
        assert code == EXIT_PARSE
        assert "--edge-list --from-counts is required" in err

    def test_from_counts_excludes_counting_flags(self, capsys, tmp_path):
        counts_file = tmp_path / "counts.json"
        counts_file.write_text('{"dimension": 1, "counts": [1, 2, 3]}')
        target = tmp_path / "out.json"
        for extra in (["--counts-out", str(target)], ["--max-dilate", "2"],
                      ["--counts-out", str(target), "--max-dilate", "2"]):
            code, out, err = run_cli(capsys, "hstar", "--from-counts", str(counts_file), *extra)
            assert code == EXIT_PARSE, extra
            assert out == "" and "drop --method, --counts-out and --max-dilate" in err
        assert not target.exists()

    def test_from_counts_refuses_method(self, capsys, tmp_path):
        # the counts file names no route, so an explicit --method, even the
        # default one, is refused rather than ignored
        counts_file = tmp_path / "counts.json"
        counts_file.write_text('{"dimension": 1, "counts": [1, 2, 3]}')
        for method in ("semigroup", "lp", "both"):
            code, out, err = run_cli(capsys, "hstar", "--from-counts", str(counts_file),
                                     "--method", method)
            assert code == EXIT_PARSE, method
            assert out == "" and "drop --method" in err

    def test_negative_budget_is_a_usage_error(self, capsys, monkeypatch):
        # every route refuses it before any work, --method both too, and
        # before it reads the graph: K_{10,10}'s cut vectors are never built
        def build(g):
            pytest.fail("cut vectors built")
        monkeypatch.setattr(graph, "cut_polytope_vertices", build)
        for flags in (("--path", "3", "--max-dilate", "-5"),
                      ("--kbipartite", "10", "10", "--max-dilate", "-1")):
            for method in ("semigroup", "lp", "both"):
                code, out, err = run_cli(capsys, "hstar", *flags, "--method", method)
                assert (code, out) == (EXIT_PARSE, ""), (flags, method)
                assert err == "error: dilate must be nonnegative\n", (flags, method)

    def test_counts_out_that_cannot_be_written(self, capsys, tmp_path, monkeypatch):
        # refused before the graph is counted: a missing directory or a directory
        def count(*args):
            pytest.fail("counted")
        monkeypatch.setattr(ehrhart, "hstar_polynomial", count)
        for target in (tmp_path / "missing" / "counts.json", tmp_path):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "hstar", "--cycle", "4",
                                     "--counts-out", str(target))
            assert time.perf_counter() - start < 1
            assert (code, out) == (EXIT_PARSE, ""), target
            assert err == f"error: cannot write {target}\n", target

    def test_disagreeing_routes(self, capsys, monkeypatch):
        # the disagreement is the report's text lines on stderr, in either
        # output mode, and nothing on stdout
        skew_route(monkeypatch, "lp")
        for flags in ((), ("--json",)):
            code, out, err = run_cli(capsys, *flags, "hstar", "--cycle", "4", "--method", "both")
            assert (code, out) == (EXIT_VERIFICATION, ""), flags
            assert err.startswith("verification failure: semigroup and lp routes disagree:\n"
                                  "command: hstar\n"), flags
            assert "\nagreement: FAIL\n" in err, flags
            assert "\nresults.lp.coefficients: 1 3 3 2\n" in err, flags

    def test_from_counts_transform_guard(self, capsys, tmp_path):
        # d = 20000 ones (60 KB) are charged about 8.0e12 bit operations by the
        # transform and refused before its first pass
        counts_file = tmp_path / "ones.json"
        counts_file.write_text(json.dumps({"dimension": 20000, "counts": [1] * 20002}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "hstar", "--from-counts", str(counts_file))
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_COST_GUARD, "")
        assert err == ("cost guard: counts-to-h* transform refused: 8002000160004 bit operations "
                       "estimated for 20001 passes over 20002 values, over the limit "
                       "100000000000\n")

    def test_from_counts_malformed_file(self, capsys, tmp_path):
        counts_file = tmp_path / "bad.json"
        k23 = "1, 16, 117, 544, 1885, 5328, 12985"
        for text in ('{"counts": [1, 2]}',
                     '{"dimension": 6, "counts": [%s, 28288.9]}' % k23,
                     '{"dimension": 6.7, "counts": [%s, 28288]}' % k23,
                     '{"dimension": 1, "counts": [true, 2, 3]}',
                     '{"dimension": 1, "counts": ["1", 2, 3]}'):
            counts_file.write_text(text)
            code, _, err = run_cli(capsys, "hstar", "--from-counts", str(counts_file))
            assert code == EXIT_PARSE, text


class TestClosedForm:
    def test_n5_volume(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "closed-form", "5")
        payload = json.loads(out)
        assert payload["normalized_volume"]["value"] == 72
        assert payload["hstar"]["coefficients"] == [1, 9, 26, 26, 9, 1]
        assert payload["eulerian_factor"]["coefficients"] == [1, 4, 1]

    def test_n4_volume(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "closed-form", "4")
        assert json.loads(out)["normalized_volume"]["value"] == 8

    def test_n10_structure(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "closed-form", "10")
        payload = json.loads(out)
        assert len(payload["hstar"]["coefficients"]) == 16  # degree 15
        assert payload["hstar"]["palindromic"] is True

    def test_rejects_small_n(self, capsys):
        code, _, _ = run_cli(capsys, "closed-form", "3")
        assert code == EXIT_PARSE


class TestGb:
    def test_rejects_small_n(self, capsys):
        for action in ("list", "verify", "fvector", "compare"):
            assert run_cli(capsys, "gb", "3", action) == \
                (EXIT_PARSE, "", "error: cut-ideal basis needs n >= 4\n"), action

    def test_list_n5(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "gb", "5", "list")
        payload = json.loads(out)
        assert payload["binomial_count"] == 19
        assert len(payload["binomials"]) == 19

    def test_verify_n4(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "4", "verify")
        assert code == EXIT_OK
        assert "verdict: PASS" in out

    def test_fvector_n5(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "gb", "5", "fvector")
        payload = json.loads(out)
        assert payload["f_vector"]["values"] == [1, 16, 101, 326, 588, 600, 324, 72]
        assert payload["h_polynomial"]["coefficients"] == [1, 9, 26, 26, 9, 1]
        assert payload["h_polynomial"]["route"] == "gb-f-vector"

    def test_compare_n5(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "gb", "5", "compare")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agreement"] == "PASS"
        routes = payload["results"]
        assert routes["gb-f-vector"]["coefficients"] == \
            routes["closed-form"]["coefficients"] == \
            routes["semigroup"]["coefficients"]

    def test_compare_n6(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "6", "compare")
        assert code == EXIT_OK
        assert "agreement: PASS" in out

    def test_failed_verify(self, capsys, monkeypatch):
        real = grobner.buchberger_check

        def failing(n):
            ok, certificate = real(n)
            return False, {**certificate, "failures": ["a made-up failure"]}
        monkeypatch.setattr(grobner, "buchberger_check", failing)
        for flags in ((), ("--json",)):
            code, out, err = run_cli(capsys, *flags, "gb", "4", "verify")
            assert (code, out) == (EXIT_VERIFICATION, ""), flags
            assert err.startswith("verification failure: Buchberger check failed:\n"), flags
            assert "\nverdict: FAIL\n" in err, flags
            assert "\ncertificate.failures: a made-up failure\n" in err, flags

    def test_failed_compare(self, capsys, monkeypatch):
        skew_route(monkeypatch, "semigroup")
        for flags in ((), ("--json",)):
            code, out, err = run_cli(capsys, *flags, "gb", "5", "compare")
            assert (code, out) == (EXIT_VERIFICATION, ""), flags
            assert err.startswith("verification failure: three-way h* comparison failed:\n"), flags
            assert "\nagreement: FAIL\n" in err, flags
            assert "\nresults.semigroup.coefficients: 1 9 26 26 9 2\n" in err, flags

    def test_compare_cost_guard(self, capsys):
        # no cap of its own: the semigroup route's guard refuses K_{2,5}
        code, _, err = run_cli(capsys, "gb", "7", "compare")
        assert code == EXIT_COST_GUARD
        assert "dilate 5" in err

    def test_buchberger_cost_guard(self, capsys):
        # n = 8 reduces 117,600 lead-sharing S-pairs; n = 9 would reduce 1,178,436
        code, out, err = run_cli(capsys, "gb", "9", "verify")
        assert code == EXIT_COST_GUARD
        assert out == ""
        assert "1178436 lead-sharing S-pairs estimated, limit 200000" in err

    def test_basis_guard_past_printable_sizes(self, capsys):
        # from n = 7145 on the basis size has more digits than Python prints;
        # it is refused at once by the power of two it reaches, and from
        # n = 7170 on (under the default limit) without building it
        for argv, bound in ((("gb", "7145", "list"), "2^14285"),
                            (("gb", "100000000", "verify"), "2^199999995")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert code == EXIT_COST_GUARD
            assert out == ""
            assert err == (f"cost guard: Groebner basis refused for n = {argv[1]}: {bound} "
                           "or more binomials estimated, limit 1000000\n")

    def test_basis_guard_past_printable_exponents(self, capsys):
        # under the default limit of 4300 digits n = 10^4300 - 1 prints, but
        # the exponent 2k - 1 of the basis size has 4301 digits; it is stated
        # by the power of two it reaches (2^14285 <= 2k - 1 < 2^14286), not
        # by a failed conversion (exit 2)
        n = "9" * 4300
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gb", n, "list")
        assert time.perf_counter() - start < 1
        assert code == EXIT_COST_GUARD
        assert out == ""
        assert err == (f"cost guard: Groebner basis refused for n = {n}: 2^(2^14285) "
                       "or more binomials estimated, limit 1000000\n")

    def test_digit_guard(self, capsys):
        # from n = 862 on, the normalized volume 2((n-2)!)^2 has more digits
        # than Python prints by default; both reports are refused at once
        limit = sys.get_int_max_str_digits()
        for argv, digits in ((("closed-form", "862"), 4305), (("gb", "1000", "fvector"), 5124)):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert code == EXIT_COST_GUARD
            assert out == ""
            assert f"a {digits}-digit integer to print, limit {limit} digits" in err

    def test_digit_guard_reads_the_longest_f_vector_entry(self, capsys):
        # n = 175's volume (628 digits) prints under a 640-digit limit, but
        # the largest entry of its f-vector (682 digits) does not: at 640 the
        # classes' bound (681 digits) refuses it before their product, at 681
        # the bound passes and the exact entry is refused after it
        cases = ((640, "an integer of at least 681 digits"), (681, "a 682-digit integer"))
        limit = sys.get_int_max_str_digits()
        try:
            for setting, size in cases:
                sys.set_int_max_str_digits(setting)
                assert run_cli(capsys, "closed-form", "175")[0] == EXIT_OK
                code, out, err = run_cli(capsys, "gb", "175", "fvector")
                assert (code, out) == (EXIT_COST_GUARD, ""), setting
                assert f"{size} to print, limit {setting} digits" in err, setting
        finally:
            sys.set_int_max_str_digits(limit)

    def test_f_vector_refused_before_the_class_product(self, capsys, monkeypatch):
        # n = 818's volume prints, but the classes' maxima already multiply
        # to more digits than the default limit: the product (about 5 s) is
        # never formed
        def product(self, other):
            pytest.fail("class product formed")
        monkeypatch.setattr(IntPolynomial, "__mul__", product)
        limit = sys.get_int_max_str_digits()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gb", "818", "fvector")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_COST_GUARD, "")
        assert f"an integer of at least 4305 digits to print, limit {limit} digits" in err

    def test_guards_hold_without_a_digit_limit(self, capsys, monkeypatch):
        # a limit of 0 (none), or none at all before Python 3.10.7, reads as
        # the default 4,300 digits: each is refused at once, not computed, and
        # the message names the default that stands in, where a set limit of
        # 4,300 is named as the setting
        stand_in = ("a 913128-digit integer to print, limit 4300 digits "
                    "(Python's default, no limit set)")
        cases = ((("gb", "100000000", "list"), "2^199999995 or more binomials"),
                 (("closed-form", "100000"), stand_in), (("gb", "100000", "fvector"), stand_in))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for argv, message in cases:
                start = time.perf_counter()
                code, out, err = run_cli(capsys, *argv)
                assert time.perf_counter() - start < 1, argv
                assert (code, out) == (EXIT_COST_GUARD, "") and message in err, argv
            sys.set_int_max_str_digits(4300)
            assert run_cli(capsys, *cases[1][0]) == (EXIT_COST_GUARD, "", (
                "cost guard: report refused for n = 100000: a 913128-digit integer to print, "
                "limit 4300 digits (sys.get_int_max_str_digits)\n"))
        finally:
            sys.set_int_max_str_digits(limit)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        code, _, err = run_cli(capsys, *cases[1][0])
        assert code == EXIT_COST_GUARD and cases[1][1] in err


class TestReportContract:
    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "--json", "gb", "5", "fvector")
        _, second, _ = run_cli(capsys, "--json", "gb", "5", "fvector")
        assert first == second
        _, text1, _ = run_cli(capsys, "hstar", "--path", "2")
        _, text2, _ = run_cli(capsys, "hstar", "--path", "2")
        assert text1 == text2

    def test_json_and_text_same_numbers(self, capsys):
        _, as_json, _ = run_cli(capsys, "--json", "hstar", "--cycle", "4")
        _, as_text, _ = run_cli(capsys, "hstar", "--cycle", "4")
        payload = json.loads(as_json)
        coeffs = payload["results"]["semigroup"]["coefficients"]
        counts = payload["results"]["semigroup"]["counts"]
        assert f"coefficients: {' '.join(map(str, coeffs))}" in as_text
        assert f"counts: {' '.join(map(str, counts))}" in as_text

    def test_timing_flag_opt_in(self, capsys):
        _, without, _ = run_cli(capsys, "--json", "closed-form", "4")
        assert "timing_s" not in json.loads(without)
        _, with_timing, _ = run_cli(capsys, "--json", "--timing", "closed-form", "4")
        assert "timing_s" in json.loads(with_timing)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "--json", "--out", str(target),
                               "closed-form", "5")
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["normalized_volume"]["value"] == 72

    def test_out_file_that_cannot_be_written(self, capsys, tmp_path, monkeypatch):
        # a missing directory or a directory: a usage error, as for
        # --counts-out, refused before the report is computed
        def compute(args):
            pytest.fail("computed")
        monkeypatch.setattr(cli, "cmd_closed_form", compute)
        for target in (tmp_path / "missing" / "report.json", tmp_path):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "--out", str(target), "closed-form", "5")
            assert time.perf_counter() - start < 1
            assert (code, out) == (EXIT_PARSE, ""), target
            assert err == f"error: cannot write {target}\n", target

    def test_failed_run_keeps_an_existing_report(self, capsys, tmp_path):
        # --out is not opened until the report is done: a refusal truncates nothing
        target = tmp_path / "report.txt"
        target.write_text("an earlier report\n")
        code, out, _ = run_cli(capsys, "--out", str(target), "hstar", "--kbipartite", "10", "10")
        assert (code, out) == (EXIT_COST_GUARD, "")
        assert target.read_text() == "an earlier report\n"

    @pytest.mark.parametrize("argv", [["closed-form", "5"], ["gb", "4", "verify"],
                                      ["gb", "7", "list", "--json"]])
    @pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
    def test_stdout_that_cannot_be_written(self, argv, sink):
        # a reader that went away or a full device: one error line, exit 2,
        # whether the report fits in stdout's buffer or not
        if sink == "closed pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
        elif os.path.exists(sink):
            stdout = os.open(sink, os.O_WRONLY)
        else:
            pytest.skip(f"no {sink}")
        # block-buffered stdout, as from a shell, and unbuffered
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        runs = []
        try:
            for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
                runs.append(subprocess.run(
                    [sys.executable, "-m", "cutpoly.cli", *argv], stdout=stdout,
                    stderr=subprocess.PIPE, text=True,
                    env={**env, **unbuffered, "PYTHONPATH": str(SRC)}))
        finally:
            os.close(stdout)
        for run in runs:
            assert run.returncode == EXIT_PARSE, run.stderr
            assert run.stderr.startswith("error: [Errno ") and run.stderr.count("\n") == 1, \
                run.stderr

    def test_streamed_json_equals_the_one_shot_encoding(self, capsys, tmp_path):
        # n = 7's basis encodes to more than one block of chunks
        _, out, _ = run_cli(capsys, "--json", "gb", "7", "list")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        target = tmp_path / "list.json"
        run_cli(capsys, "--json", "--out", str(target), "gb", "7", "list")
        assert target.read_text(encoding="utf-8") == out

    def test_streamed_text_equals_the_one_shot_rendering(self, capsys, tmp_path):
        # gb 7 list spans several blocks of chunks; vertices holds a list of
        # lists, gb 4 verify an empty list (certificate.failures)
        for argv in (["gb", "7", "list"], ["vertices", "--cycle", "4"], ["gb", "4", "verify"]):
            _, as_json, _ = run_cli(capsys, "--json", *argv)
            _, as_text, _ = run_cli(capsys, *argv)
            assert as_text == text_by_lines(json.loads(as_json)), argv
        assert "certificate.failures: \n" in as_text
        target = tmp_path / "list.txt"
        run_cli(capsys, "--out", str(target), "gb", "7", "list")
        assert target.read_text(encoding="utf-8") == run_cli(capsys, "gb", "7", "list")[1]

    def test_flags_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "5", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 5

    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == EXIT_PARSE
        assert run_cli(capsys)[0] == EXIT_PARSE
