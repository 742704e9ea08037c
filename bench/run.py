"""Benchmark for cutpoly's three pipelines, end to end and per module.

    python3 bench/run.py --workload semigroup --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 1

Run from the root of a source checkout; cutpoly is imported from ./src.
Each operation ("job") is a cutpoly CLI invocation or one library call, run
in a fresh interpreter, one at a time: a closed loop from this process.  A run
repeats whole rounds of its workload's jobs for about --seconds, and checks
every output against bench/refs.py.  The last line of standard output
is a JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md for the workloads, metrics and references.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import refs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# a job's standard output and error, named per benchmark process
JOB_OUT = WORK / f"job-{os.getpid()}.out"
JOB_ERR = WORK / f"job-{os.getpid()}.err"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
SETUP_CODE = "import cutpoly.cli; cutpoly.cli.build_parser()"

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K4_FILE = ".bench_work/k4.txt"
# i(P,m) of Cut(K_{2,3}) with the last count as a non-integer: the CLI must
# refuse it (exit 2) instead of truncating it to 28288.
BAD_COUNTS_FILE = ".bench_work/counts_k23_fractional.json"
BAD_COUNTS = {"dimension": 6, "counts": [1, 16, 117, 544, 1885, 5328, 12985, 28288.9]}


def cycle_edges(n):
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def path_edges(e):
    return [(i, i + 1) for i in range(1, e + 1)]


def bipartite_edges(p, q):
    return [(i, j) for i in range(1, p + 1) for j in range(p + 1, p + q + 1)]


@dataclass
class Graph:
    """A job's input graph as the benchmark knows it, with its CLI flags."""

    flags: list
    vertices: int
    edges: list
    ref_h: list | None = None          # known h*-polynomial
    ref_counts: list | None = None     # known i(P,m), long enough for every job

    @property
    def d(self):
        return len(self.edges)


def closed_form_graph(q):
    g = Graph(["--kbipartite", "2", str(q)], q + 2, bipartite_edges(2, q))
    g.ref_h = refs.closed_form(q + 2)
    return g


def tree_graph(e):
    g = Graph(["--path", str(e)], e + 1, path_edges(e))
    g.ref_h = list(refs.eulerian(e))
    g.ref_counts = [(m + 1) ** e for m in range(e + 2)]
    return g


def sumset_graph(flags, vertices, edges):
    """A graph with no closed form: both routes are held to a plain sumset
    sweep over cut vectors built here."""
    g = Graph(flags, vertices, edges)
    g.ref_counts = refs.sumset_counts(refs.cut_columns(vertices, edges), g.d + 1)
    return g


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

def check_hstar(report, g, routes, top=None):
    d = g.d
    top = d + 1 if top is None else top
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    expect(report.get("dimension") == d, f"dimension {report.get('dimension')} != |E| = {d}")
    for route in routes:
        entry = report["results"][route]
        h, counts = entry["coefficients"], entry["counts"]
        expect(len(counts) == top + 1, f"{route}: {len(counts)} counts, expected {top + 1}")
        expect(counts[1:2] == [2 ** (g.vertices - 1)], f"{route}: i(P,1) != 2^(v-1)")
        expect(h[:2] == [1, 2 ** (g.vertices - 1) - d - 1], f"{route}: h*_0, h*_1 = {h[:2]}")
        expect(min(h) >= 0, f"{route}: negative h* coefficient")
        expect(len(h) - 1 < d, f"{route}: degree {len(h) - 1} >= dimension {d}")
        expect(counts == refs.ehrhart_counts(h, d, len(counts) - 1),
               f"{route}: counts disagree with their own h*")
        if g.ref_h is not None:
            expect(h == g.ref_h, f"{route}: h* {h} != reference {g.ref_h}")
            expect(counts == refs.ehrhart_counts(g.ref_h, d, top), f"{route}: counts != reference")
        if g.ref_counts is not None:
            expect(counts == g.ref_counts[:top + 1], f"{route}: counts != reference sweep")
            expect(h == refs.hstar_from_counts(g.ref_counts, d), f"{route}: h* != reference")
    if len(routes) > 1:
        expect(report.get("agreement") == "PASS", "routes disagree")
    return problems


def check_compare(report, n):
    ref = refs.closed_form(n)
    problems = [f"{route}: {entry['coefficients']} != {ref}"
                for route, entry in report["results"].items() if entry["coefficients"] != ref]
    if report.get("agreement") != "PASS":
        problems.append("agreement is not PASS")
    return problems


def check_list(report, n):
    sizes = refs.basis_family_sizes(n)
    families = [sum(1 for b in report["binomials"] if b["family"] == f) for f in (1, 2, 3)]
    problems = []
    if report["binomial_count"] != sum(sizes) or len(report["binomials"]) != sum(sizes):
        problems.append(f"{report['binomial_count']} binomials, expected {sum(sizes)}")
    if tuple(families) != sizes:
        problems.append(f"family sizes {families} != {list(sizes)}")
    return problems


def check_verify(report, n):
    size = sum(refs.basis_family_sizes(n))
    cert = report["certificate"]
    problems = []
    if report["verdict"] != "PASS" or cert["failures"]:
        problems.append("Buchberger reported failures")
    if cert["basis_size"] != size or cert["pairs_total"] != math.comb(size, 2):
        problems.append(f"basis {cert['basis_size']}, pairs {cert['pairs_total']}; "
                        f"expected {size}, {math.comb(size, 2)}")
    if cert["pairs_skipped_coprime"] + cert["pairs_reduced"] != cert["pairs_total"]:
        problems.append("skipped + reduced pairs != total")
    return problems


def check_fvector(report, n):
    problems = []
    if report["f_vector"]["values"] != refs.chain_f_vector(n):
        problems.append("f-vector != chain convolution")
    if report["h_polynomial"]["coefficients"] != refs.closed_form(n):
        problems.append("h-polynomial != (x+1) A_{n-2}^2")
    return problems


def check_closed_form(report, n):
    a = list(refs.eulerian(n - 2))
    problems = []
    if report["hstar"]["coefficients"] != refs.closed_form(n):
        problems.append("h* != (x+1) A_{n-2}^2")
    if report["eulerian_factor"]["coefficients"] != a:
        problems.append("Eulerian factor != A_{n-2}")
    if report["normalized_volume"]["value"] != 2 * math.factorial(n - 2) ** 2:
        problems.append("normalized volume != 2((n-2)!)^2")
    return problems


def check_squarefree_counts(counts, n):
    if refs.f_to_h(counts, 2 * n - 4) != refs.closed_form(n):
        return ["f_to_h of the brute-force counts != (x+1) A_{n-2}^2"]
    return []


def check_enumerate(summary, n, k):
    expected = refs.chain_f_vector(n)[k]
    problems = []
    if summary["count"] != expected:
        problems.append(f"{summary['count']} monomials, chain convolution gives {expected}")
    if summary["distinct"] != summary["count"]:
        problems.append("repeated monomials")
    if summary["degrees"] != [k] or not summary["squarefree"]:
        problems.append(f"a monomial is not squarefree of degree {k}")
    return problems


def check_standard_by_degree(count, n, m):
    expected = refs.ehrhart_counts(refs.closed_form(n), 2 * n - 4, m)[m]
    return [] if count == expected else [f"{count} standard monomials, expected i(P,{m}) = {expected}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Job:
    name: str
    spec: dict
    check: object                    # parsed result -> list of problems
    exit_code: int = 0
    known_fault: str | None = None   # a fault of the program this job exposes on purpose


def hstar_job(name, g, method="semigroup", top=None):
    argv = ["hstar", *g.flags, "--method", method, "--json"]
    if top is not None:
        argv += ["--max-dilate", str(top)]
    routes = ["semigroup", "lp"] if method == "both" else [method]
    return Job(name, {"cli": argv}, lambda r: check_hstar(json.loads(r), g, routes, top))


def cli_job(name, argv, check):
    return Job(name, {"cli": [*argv, "--json"]}, lambda r: check(json.loads(r)))


def semigroup_jobs():
    k23 = closed_form_graph(3)
    return [
        hstar_job("hstar K_{2,3}", k23),
        hstar_job("hstar K_{2,3} --max-dilate 9", k23, top=9),
        hstar_job("hstar C_5", sumset_graph(["--cycle", "5"], 5, cycle_edges(5))),
        hstar_job("hstar C_6", Graph(["--cycle", "6"], 6, cycle_edges(6))),
        hstar_job("hstar path(5)", tree_graph(5)),
        cli_job("gb 5 compare", ["gb", "5", "compare"], lambda r: check_compare(r, 5)),
        Job("hstar --from-counts fractional", {"cli": ["hstar", "--from-counts", BAD_COUNTS_FILE]},
            lambda r: [], exit_code=2,
            known_fault="CountSequence.from_json truncates 28288.9 with int() and exits 0"),
    ]


def lp_jobs():
    c5 = sumset_graph(["--cycle", "5"], 5, cycle_edges(5))
    return [
        hstar_job("lp C_4", sumset_graph(["--cycle", "4"], 4, cycle_edges(4)), "lp"),
        hstar_job("lp C_5", c5, "lp"),
        hstar_job("lp K_4", sumset_graph(["--edge-list", K4_FILE], 4, K4_EDGES), "lp"),
        hstar_job("lp path(4)", tree_graph(4), "lp"),
        hstar_job("both C_5", c5, "both"),
    ]


def gb_jobs():
    return [
        cli_job("gb 6 list", ["gb", "6", "list"], lambda r: check_list(r, 6)),
        cli_job("gb 6 verify", ["gb", "6", "verify"], lambda r: check_verify(r, 6)),
        cli_job("gb 7 fvector", ["gb", "7", "fvector"], lambda r: check_fvector(r, 7)),
        cli_job("closed-form 200", ["closed-form", "200"], lambda r: check_closed_form(r, 200)),
        Job("squarefree_standard_counts(7)",
            {"call": ["grobner", "squarefree_standard_counts", [7]]},
            lambda r: check_squarefree_counts(r, 7)),
        Job("enumerate_squarefree_standard(7, 4)",
            {"call": ["grobner", "enumerate_squarefree_standard", [7, 4]]},
            lambda r: check_enumerate(r, 7, 4)),
        Job("count_standard_by_degree(6, 5)",
            {"call": ["grobner", "count_standard_by_degree", [6, 5]]},
            lambda r: check_standard_by_degree(r, 6, 5)),
    ]


WORKLOADS = {"semigroup": semigroup_jobs, "lp": lp_jobs, "gb": gb_jobs}


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    job: Job
    wall_s: float
    rss_mb: float
    problems: list
    spans: list = field(default_factory=list)   # filled in traced rounds


class Spawner:
    """The bench/spawn.py helper: starts each child and reads its os.wait4."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py"), str(JOB_OUT), str(JOB_ERR)],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        """Run one child to its end; return (exit code, wall seconds, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["exit"], reply["wall_s"], reply["maxrss_kb"] / 1024

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        JOB_OUT.unlink(missing_ok=True)
        JOB_ERR.unlink(missing_ok=True)


def run_job(spawner, job, trace):
    code, wall, rss = spawner.run([sys.executable, str(BENCH / "job.py"),
                                   json.dumps(dict(job.spec, trace=trace))])
    lines = JOB_OUT.read_text().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = JOB_ERR.read_text().strip().splitlines()[-1:]
        return Outcome(job, wall, rss, [f"exit {code}, no result: {tail}"])
    problems = []
    if code != job.exit_code:
        problems.append(f"exit {code}, expected {job.exit_code}")
    elif code == 0:
        try:
            problems = job.check(payload["result"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed output: {exc!r}"]
    return Outcome(job, wall, rss, problems, payload.get("spans", []))


def setup_probe(spawner):
    code, wall, _ = spawner.run([sys.executable, "-c", SETUP_CODE])
    if code:
        sys.exit(f"cannot import cutpoly from {ROOT / 'src'}: "
                 + JOB_ERR.read_text().strip())
    return wall


def run_round(spawner, jobs, rng, trace, setup):
    """One pass over the jobs in a seeded order, each preceded by a set-up
    probe, so the probes sample the same conditions as the jobs."""
    order = list(jobs)
    rng.shuffle(order)
    outcomes = []
    for job in order:
        setup.append(setup_probe(spawner))
        outcomes.append(run_job(spawner, job, trace))
    return outcomes


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced round
# ---------------------------------------------------------------------------

def span_table(outcomes):
    """(name, parent name) -> [calls, total s, self s] over the spans of the
    given jobs.  Self time is the duration minus child spans and hot calls."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for out in outcomes:
        spans = out.spans
        covered = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
            for calls, secs in s.get("hot", {}).values():
                covered[s["id"]] += secs
        for s in spans:
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else "-"
            row = table[s["name"], parent]
            row[0] += 1
            row[1] += s["end"] - s["start"]
            row[2] += s["end"] - s["start"] - covered[s["id"]]
            for name, (calls, secs) in s.get("hot", {}).items():
                hot = table[name, s["name"]]
                hot[0] += calls
                hot[1] += secs
                hot[2] += secs
    return table


def layer_values(outcomes):
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _), (calls, total, self_s) in span_table(outcomes).items():
        row = by_name[name]
        row[0] += calls
        row[1] += total
        row[2] += self_s
    spans = [s for out in outcomes for s in out.spans]

    def total(name):
        return by_name[name][1]

    def summed(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    top_dilate = 0.0
    for out in outcomes:
        dilates = defaultdict(list)
        for s in out.spans:
            if s["name"] == "ehrhart.lp.dilate":
                dilates[s["parent"]].append(s)
        for group in dilates.values():
            last = max(group, key=lambda s: s["m"])
            top_dilate += last["end"] - last["start"]
    peak = max((s.get("peak_traced_bytes", 0) for s in spans), default=0)
    return {
        "cli.main_s": total("cli.main"),
        "cli.self_s": by_name["cli.main"][2],
        "graph.configuration_s": total("graph.configuration"),
        "lattice.basis_s": total("lattice.basis"),
        "lattice.basis_calls": by_name["lattice.basis"][0],
        "lattice.contains_s": total("lattice.contains"),
        "lattice.contains_calls": by_name["lattice.contains"][0],
        "ehrhart.semigroup_s": total("ehrhart.semigroup"),
        "ehrhart.semigroup.sums_per_s": rate(summed("ehrhart.semigroup", "sums"),
                                             total("ehrhart.semigroup")),
        "ehrhart.semigroup.peak_traced_mb": peak / 2 ** 20,
        "ehrhart.lp_s": total("ehrhart.lp"),
        "ehrhart.lp.top_dilate_s": top_dilate,
        "ehrhart.lp.candidates_per_s": rate(summed("ehrhart.lp", "candidates"),
                                            total("ehrhart.lp")),
        "ehrhart.transform_s": total("ehrhart.transform"),
        "grobner.generate_gb_s": total("grobner.generate_gb"),
        "grobner.buchberger_s": total("grobner.buchberger"),
        "grobner.buchberger.pairs_reduced": summed("grobner.buchberger", "pairs_reduced"),
        "grobner.squarefree_counts_s": total("grobner.squarefree_counts"),
        "grobner.squarefree.nodes_per_s": rate(summed("grobner.squarefree_counts", "nodes"),
                                               total("grobner.squarefree_counts")),
        "grobner.enumerate_s": total("grobner.enumerate"),
        "grobner.standard_by_degree_s": total("grobner.standard_by_degree"),
        "grobner.f_vector_s": total("grobner.f_vector"),
        "polynomial.closed_form_s": total("polynomial.closed_form"),
        "polynomial.eulerian_s": total("polynomial.eulerian"),
        "polynomial.f_to_h_s": total("polynomial.f_to_h"),
        "trace.probe_s": summed("ehrhart.semigroup", "probe_s"),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def round_wall(outcomes):
    return sum(o.wall_s for o in outcomes)


def run_workload(spawner, name, seed, seconds, trace):
    jobs = WORKLOADS[name]()
    rng = random.Random(seed)
    setup, plain, traced = [], [], []
    started = time.perf_counter()
    # A traced run alternates untraced and traced rounds, so the overhead is
    # measured under the same conditions as the spans.  Another round starts
    # only if one as long as the last would still end within `seconds`.
    while True:
        round_started = time.perf_counter()
        plain.append(run_round(spawner, jobs, rng, False, setup))
        if trace:
            traced.append(run_round(spawner, jobs, rng, True, setup))
        now = time.perf_counter()
        if 2 * now - round_started - started > seconds:
            break
    rounds = plain + traced

    failed = [o for r in rounds for o in r if o.problems]
    correct = all(o.job.known_fault for o in failed)
    print(f"workload {name}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{len(jobs)} jobs each, seed {seed}")
    per_job = defaultdict(list)
    for r in plain:
        for o in r:
            per_job[o.job.name].append(o)
    for job in jobs:
        outs = per_job[job.name]
        status = "ok"
        bad = [o for o in outs if o.problems]
        if bad:
            status = ("FAILED (known fault: " + job.known_fault + ")" if job.known_fault
                      else "FAILED: " + "; ".join(bad[0].problems))
        print(f"  {statistics.median(o.wall_s for o in outs):8.3f} s "
              f"{max(o.rss_mb for o in outs):7.1f} MB  {job.name}: {status}")

    if trace:
        per_round = [layer_values(r) for r in traced]
        metrics = {key: statistics.median(v[key] for v in per_round) for key in per_round[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(round_wall(r) - v["trace.probe_s"] for r, v in zip(traced, per_round))
            - statistics.median(map(round_wall, plain)))
        table = span_table([o for r in traced for o in r])
        print(f"  spans per traced round (mean of {len(traced)}): calls, total s, self s, name <- parent")
        for (span, parent), (calls, total_s, self_s) in sorted(table.items()):
            print(f"  {calls / len(traced):10.0f} {total_s / len(traced):9.4f} "
                  f"{self_s / len(traced):9.4f}  {span} <- {parent}")
        WORK.joinpath(f"trace-{name}.json").write_text(json.dumps(
            [[{"job": o.job.name, "wall_s": o.wall_s, "spans": o.spans}
              for o in r] for r in traced]))
    else:
        metrics = {
            "wall_s": sum(statistics.median(o.wall_s for o in outs) for outs in per_job.values()),
            "peak_rss_mb": statistics.median(max(o.rss_mb for o in r) for r in plain),
            "setup_s": statistics.median(setup),
        }
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {
        "correct": correct,
        "attempted": sum(len(r) for r in rounds),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the jobs within each round; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cutpoly" / "cli.py").is_file():
        sys.exit(f"no cutpoly sources under {ROOT / 'src'}; run from a source checkout")
    WORK.mkdir(exist_ok=True)
    (ROOT / K4_FILE).write_text("4\n" + "".join(f"{u} {v}\n" for u, v in K4_EDGES))
    (ROOT / BAD_COUNTS_FILE).write_text(json.dumps(BAD_COUNTS) + "\n")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spawner = Spawner()
    try:
        results = {name: run_workload(spawner, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    finally:
        spawner.close()
    if len(names) > 1:
        for result in results.values():
            print(json.dumps(result))
        results = {"all": {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }}
    print(json.dumps(next(iter(results.values()))))


if __name__ == "__main__":
    main()
