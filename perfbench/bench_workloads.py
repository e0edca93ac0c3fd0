"""The four benchmark workloads: inputs from a seed, one timed trial, checks.

Every workload is bipartite, so the exact solver takes its min-cost-flow
path and the reference optimum is exact.  A workload's set-up makes the
instance, writes the graph file the trial reads (where it reads one) and
solves the whole graph exactly for the reference optimum.  Each part of a
run sets up an instance of its own, from the seed and the part's number.
``keys`` are the inputs trials cycle through, one per stream seed (one
tuple of seeds for ``cli-jobs``), so that a run averages over several
instances and random orders.

All calls go through module attributes (``wedcs.graph_io.read_graph``,
not a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import wedcs.cli as cli
import wedcs.edcs as edcs
import wedcs.generators as generators
import wedcs.graph as graph
import wedcs.graph_io as graph_io
import wedcs.matching as matching
import wedcs.streaming as streaming
from wedcs.edcs import EdcsParams
from wedcs.generators import GenSpec
from wedcs.graph import Capacities, MultiGraph
from wedcs.matching import BMatching


@dataclass
class Instance:
    G: MultiGraph
    b: Capacities
    ref_weight: int
    path: Path | None
    keys: list


@dataclass
class Outcome:
    """What one trial produced, checked; ``counters`` must repeat exactly
    for the same key."""

    ratios: list[float]
    kept: list[float]                 # stored or kept edges / m, per result
    counters: dict
    problems: list[str]
    streams: list[dict] = field(default_factory=list)  # StreamRunStats dicts


def _check_matching(G: MultiGraph, b: Capacities, M: BMatching, ref: int, W: int,
                    eps: Fraction, problems: list[str]) -> float:
    """Append what is wrong with M to ``problems``; return its ratio to the
    reference optimum.  The threshold is ref / (2 - 1/(2W) + eps), exactly."""
    if not M.verify(G, b):
        problems.append("matching fails BMatching.verify")
    if M.weight > ref:
        problems.append(f"weight {M.weight} above the reference optimum {ref}")
    if M.weight * (2 - Fraction(1, 2 * W) + eps) < ref:
        problems.append(f"weight {M.weight} below the ratio threshold of optimum {ref}")
    return M.weight / ref if ref else 1.0


class Workload:
    name = ""
    setup_files = False       # whether set-up writes the graph file trials read
    worker_processes = 0      # child processes a trial starts

    def __init__(self, smoke: bool):
        self.cfg = self.SMOKE if smoke else self.FULL

    def spec(self, seed: int) -> GenSpec:
        c = self.cfg
        return GenSpec(kind="random", seed=seed, n=c["n"], m=c["m"], W=c["W"],
                       b_min=1, b_max=c["b_max"], bipartite=True,
                       allow_parallel=c.get("allow_parallel", False))

    def setup(self, seed: int, part: int, workdir: Path) -> Instance:
        rng = random.Random(f"{self.name}/{seed}/{part}")
        G, b = generators.random_instance(self.spec(rng.randrange(2**31)))
        path = None
        if self.setup_files:
            path = workdir / "graph.txt"
            graph_io.write_graph(str(path), G, b)
        ref = matching.max_weight_b_matching_exact(G, b).weight
        return Instance(G, b, ref, path, self.make_keys(rng))

    def make_keys(self, rng: random.Random) -> list:
        return [None]

    def params(self) -> EdcsParams:
        return EdcsParams(W=self.cfg["W"], beta=self.cfg["beta"],
                          beta_minus=self.cfg["beta_minus"])

    def trial_edges(self, inst: Instance, key) -> int:
        return inst.G.m

    def run(self, inst: Instance, key, workdir: Path):
        raise NotImplementedError

    def check(self, inst: Instance, key, raw) -> Outcome:
        raise NotImplementedError


class OfflineBuild(Workload):
    name = "offline-build"
    setup_files = True
    FULL = dict(n=2000, m=50_000, W=3, b_max=4, beta=12, beta_minus=10)
    SMOKE = dict(n=40, m=150, W=3, b_max=4, beta=12, beta_minus=10)
    #: the offline check has no epsilon of its own
    EPS = Fraction(1, 10)

    def run(self, inst, key, workdir):
        params = self.params()
        G, b = graph_io.read_graph(str(inst.path))
        relevant = graph.relevant_subgraph(G, b)
        H, trace = edcs.build_wb_edcs(G, b, params)
        report = edcs.validate(G, b, H, params)
        HG, old_ids = G.restrict(H.members)
        M = matching.max_weight_b_matching_exact(HG, b)
        return G, b, relevant, H, trace, report, HG, old_ids, M

    def check(self, inst, key, raw):
        G, b, relevant, H, trace, report, HG, old_ids, M = raw
        problems = []
        if len(relevant) != G.m:
            problems.append("relevant_subgraph dropped edges of a simple-per-capacity instance")
        if not report.is_clean:
            problems.append(f"H is not validate-clean: {len(report.upper_violations)} upper, "
                            f"{len(report.lower_violations)} lower violations")
        if not M.verify(HG, b):
            problems.append("matching fails BMatching.verify on H")
        mapped = BMatching(sorted(old_ids[j] for j in M.edge_ids), M.weight)
        ratio = _check_matching(G, b, mapped, inst.ref_weight, G.W, self.EPS, problems)
        counters = {"build": trace.to_json_dict(), "kept": len(H), "relevant": len(relevant),
                    "weight": M.weight, "matched": len(M.edge_ids)}
        return Outcome([ratio], [len(H) / G.m], counters, problems)


class _Streaming(Workload):
    def make_keys(self, rng):
        return [rng.randrange(2**31) for _ in range(self.cfg["streams"])]

    def check(self, inst, key, result):
        G, b = inst.G, inst.b
        problems = []
        upper = edcs.validate(G, b, result.H, self.params()).upper_violations
        if upper:
            problems.append(f"streamed H has {len(upper)} upper violations")
        ratio = _check_matching(G, b, result.matching, inst.ref_weight, G.W,
                                self.cfg["eps"], problems)
        stats = result.stats.to_json_dict()
        if stats["result_weight"] != result.matching.weight:
            problems.append("stats.result_weight differs from the matching's weight")
        counters = {"stats": stats, "H": len(result.H), "X": len(result.X),
                    "weight": result.matching.weight}
        return Outcome([ratio], [stats["peak_stored_edges"] / G.m], counters, problems,
                       streams=[stats])


class StreamFallback(_Streaming):
    name = "stream-fallback"
    FULL = dict(n=2000, m=20_000, W=3, b_max=4, beta=12, beta_minus=10,
                eps=Fraction(1, 10), streams=1)
    SMOKE = dict(n=40, m=150, W=3, b_max=4, beta=12, beta_minus=10,
                 eps=Fraction(1, 10), streams=1)

    def run(self, inst, key, workdir):
        stream = streaming.make_stream(inst.G, key)
        return streaming.run_with_fallbacks(stream, inst.b, self.params(), self.cfg["eps"],
                                            variant=1)


class StreamMultiplicity(_Streaming):
    name = "stream-multiplicity"
    FULL = dict(n=100, m=200_000, W=3, b_max=3, beta=3, beta_minus=1, allow_parallel=True,
                eps=Fraction(49, 100), streams=3)
    SMOKE = dict(n=12, m=600, W=3, b_max=3, beta=3, beta_minus=1, allow_parallel=True,
                 eps=Fraction(49, 100), streams=2)

    def run(self, inst, key, workdir):
        stream = streaming.make_stream(inst.G, key)
        return streaming.run_single_pass(stream, inst.b, self.params(), self.cfg["eps"],
                                         variant=3)


class CliJobs(Workload):
    name = "cli-jobs"
    setup_files = True
    worker_processes = 2
    FULL = dict(StreamMultiplicity.FULL, seeds=2, keys=2)
    SMOKE = dict(StreamMultiplicity.SMOKE, seeds=2, keys=1)

    def make_keys(self, rng):
        return [tuple(rng.randrange(2**31) for _ in range(self.cfg["seeds"]))
                for _ in range(self.cfg["keys"])]

    def trial_edges(self, inst, key):
        return inst.G.m * len(key)

    def run(self, inst, key, workdir):
        out = workdir / "cli-report"
        c = self.cfg
        argv = ["stream", str(inst.path), "--beta", str(c["beta"]),
                "--beta-minus", str(c["beta_minus"]), "--epsilon", str(float(c["eps"])),
                "--seeds", ",".join(map(str, key)), "--variant", "3",
                "--jobs", str(self.worker_processes), "--out", str(out)]
        return cli.main(argv), out.with_suffix(".json")

    def check(self, inst, key, raw):
        code, report_path = raw
        G, b = inst.G, inst.b
        problems = []
        if code != 0:
            problems.append(f"wedcs stream exited with {code}")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        # so that a later trial cannot read this one's report
        report_path.unlink()
        report_path.with_suffix(".csv").unlink()
        if report["oracle_weight"] != inst.ref_weight:
            problems.append(f"CLI oracle {report['oracle_weight']} differs from the "
                            f"reference {inst.ref_weight}")
        if [run["seed"] for run in report["runs"]] != list(key):
            problems.append("CLI report does not hold one run per seed, in order")
        ratios, kept, runs = [], [], []
        for run in report["runs"]:
            M = BMatching([e["id"] for e in run["matching"]["edges"]], run["matching"]["weight"])
            if run["result_weight"] != M.weight:
                problems.append("result_weight differs from the matching's weight")
            ratios.append(_check_matching(G, b, M, inst.ref_weight, G.W, self.cfg["eps"],
                                          problems))
            kept.append(run["peak_stored_edges"] / G.m)
            runs.append({k: v for k, v in run.items() if k != "matching"})
        counters = {"oracle_weight": report["oracle_weight"], "runs": runs}
        return Outcome(ratios, kept, counters, problems, streams=runs)


WORKLOADS = {w.name: w for w in (OfflineBuild, StreamFallback, StreamMultiplicity, CliJobs)}
