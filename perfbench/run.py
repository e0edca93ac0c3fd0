"""Benchmark for the wedcs package: four workloads, one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout; it imports ``wedcs`` from ``src/`` of
that checkout and refuses to run without it.  The seed makes the instances,
the stream seeds and the reference optimum during set-up; the program sees
only those inputs.  A run has ``PARTS`` parts, each in a fresh process: a
part sets up an instance of its own (``setup_s`` is the median), then runs
trials on it in a closed loop, one at a time (``cli-jobs`` starts its own
two workers), cycling through the instance's input keys, until every key
has run and a further trial would end after the part's share of
``--seconds``.  Each trial is checked outside its timed part; a failed
check counts against ``attempted`` instead of stopping the run.  The
program's counters must repeat exactly for the same input, within a run
and across runs of the same seed and source (the counters are kept in
``perfbench/.out``).

``--trace 0`` reports the end-to-end metrics; the times among them are
scaled to a reference machine speed, measured by a sampler process while
the run lasts (see ``SAMPLE_REF_S``), and the times as measured are
printed beside them.  It also prints
``failure_rate`` and ``kept_fraction`` (kept or peak stored edges over m,
the paper's space measure), which the JSON leaves out: the first is
``1 - pass_rate``, the second spreads too widely across seeds on the
streaming workloads to hold a bound and is a per-layer metric instead.
``--trace 1`` alternates untraced and traced trials and reports per-layer
metrics from the traced ones, each layer's self time, and the tracing
overhead (traced minus untraced trial median, over the parts' instances),
all as measured; its spans go to ``perfbench/.out/spans-*.jsonl``.
``cli-jobs``'s workers are forked while the tracer is installed and report
their spans too.  ``peak_rss_mb`` is
the largest peak among the parts' processes; for ``cli-jobs`` it adds two
times the largest worker's peak to its part's.
``--smoke`` runs tiny instances, to check that every metric is emitted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A run is made of PARTS parts, one after another, each in a fresh process
#: that sets up an instance of its own and runs its share of the trials on
#: it.  Trial times differ by a tenth and more from one instance to the
#: next, so a run's medians take in several instances.
PARTS = 3

#: The machine's speed drifts by a quarter and more within seconds on a
#: shared host, and memory slows by more than arithmetic when neighbours
#: load it.  So while a run lasts, a sampler process times a fixed probe
#: every SAMPLE_PERIOD_S: SAMPLE_LOOPS turns of a pure-Python loop, then
#: SAMPLE_READS reads at random places in SAMPLE_MEMORY_BYTES of memory,
#: about equal halves at rest.  Each timed section's seconds are scaled by
#: SAMPLE_REF_S / (the median probe time among the samples taken during
#: it): they are seconds at the probe's reference speed.  SAMPLE_REF_S is
#: the probe's median on the 2-vCPU VM the benchmark was tuned on.  The
#: sampler keeps about a thirtieth of one CPU busy.
SAMPLE_LOOPS = 2_500
SAMPLE_READS = 500
SAMPLE_MEMORY_BYTES = 32 << 20
SAMPLE_PERIOD_S = 0.02
SAMPLE_REF_S = 0.0004

END_TO_END = {
    "trial_s_p50": "s",
    "edges_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "approx_ratio_min": "ratio",
    "pass_rate": "ratio",
}

PER_LAYER = {
    "kept_fraction": "ratio",
    "generators.instance_s": "s",
    "matching.reference_s": "s",
    "graph_io.read_s": "s",
    "graph.relevant_subgraph_s": "s",
    "graph.restrict_s": "s",
    "graph.restrict_edges": "count",
    "edcs.build_s": "s",
    "edcs.build_steps": "count",
    "edcs.build_insertions": "count",
    "edcs.build_removals": "count",
    "edcs.steps_per_s": "1/s",
    "edcs.validate_s": "s",
    "edcs.kept_edges": "count",
    "edcs.insertions_kept_ratio": "ratio",
    "matching.exact_s": "s",
    "matching.exact_calls": "count",
    "matching.exact_input_edges": "count",
    "matching.solver.flow": "count",
    "matching.solver.bnb": "count",
    "matching.solver.greedy": "count",
    "matching.extractions_used_ratio": "ratio",
    "streaming.make_stream_s": "s",
    "streaming.run_s": "s",
    "streaming.self_s": "s",
    "streaming.self_edges_per_s": "1/s",
    "streaming.phase1_edges": "count",
    "streaming.epochs": "count",
    "streaming.final_guess_i": "count",
    "streaming.underfull_collected": "count",
    "streaming.peak_stored_edges": "count",
    "streaming.h_edges": "count",
    "streaming.replacements": "count",
    "streaming.fallback.none": "count",
    "streaming.fallback.alpha_zero": "count",
    "streaming.fallback.small_output": "count",
    "cli.main_s": "s",
    "cli.parent_read_s": "s",
    "cli.oracle_s": "s",
    "cli.pool_s": "s",
    "cli.seeds_per_s": "1/s",
    "self.bench_s": "s",
    "self.generators_s": "s",
    "self.graph_io_s": "s",
    "self.graph_s": "s",
    "self.edcs_s": "s",
    "self.matching_s": "s",
    "self.streaming_s": "s",
    "self.cli_s": "s",
    "trace.overhead_s": "s",
}

EXACT = "matching.max_weight_b_matching_exact"
RUNS = ("streaming.run_with_fallbacks", "streaming.run_single_pass")


@dataclass
class Trial:
    id: str
    key: str            # "<part>/<index into that part's keys>"
    start: float        # on perf_counter
    seconds: float
    edges: int
    traced: bool
    outcome: object     # bench_workloads.Outcome, or None when the run raised
    problems: list


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _normalized(counters: dict):
    return json.loads(json.dumps(counters, sort_keys=True))


def _source_digest() -> str:
    """Digest of the package and the benchmark, which together fix the counters."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wedcs").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _probe_seconds(memory: bytearray, reads: list[int]) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SAMPLE_LOOPS):
        total += i * i
    for i in reads:
        total += memory[i]
    return time.perf_counter() - start


def _sample(conn, stop) -> None:
    """The sampler process: (start, probe seconds) every SAMPLE_PERIOD_S
    until ``stop`` is set, at least once; then send them all.  Each probe
    runs right after an untimed one, so that it times a CPU already awake,
    and reads places it has not read for a while, so that it times memory
    rather than caches."""
    memory = bytearray(SAMPLE_MEMORY_BYTES)
    for i in range(0, len(memory), 4096):
        memory[i] = 1
    rng = random.Random(0)
    rounds = 200
    places = [rng.randrange(len(memory)) for _ in range(SAMPLE_READS * rounds)]
    samples = []
    n = 0
    while True:
        _probe_seconds(memory, [])
        first = n % rounds * SAMPLE_READS
        reads = places[first:first + SAMPLE_READS]
        samples.append((time.perf_counter(), _probe_seconds(memory, reads)))
        n += 1
        if stop.wait(SAMPLE_PERIOD_S):
            break
    conn.send(samples)
    conn.close()


class SpeedSampler:
    """Measures the machine's speed while a run lasts; see SAMPLE_REF_S."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._stop = ctx.Event()
        self._proc = ctx.Process(target=_sample, args=(child_conn, self._stop), daemon=True)
        self._proc.start()
        child_conn.close()
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """Stop the sampler and wait for it; keeps what it measured."""
        if self._proc is None:
            return
        self._stop.set()
        try:
            self.samples = self._conn.recv()
        except EOFError:
            raise RuntimeError("the speed sampler ended without sending its samples") from None
        finally:
            self._conn.close()
            self._proc.join(10)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join()
            self._proc = None

    def scale(self, start: float, end: float) -> float:
        """Factor to reference speed for a section timed from start to end:
        from the samples taken during it, or the three nearest if fewer."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < 3:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:3]
            inside = [d for _, d in nearest]
        return SAMPLE_REF_S / _median(inside)


def _timed(fn):
    """Run fn; return its result and its start and end on perf_counter."""
    start = time.perf_counter()
    result = fn()
    return result, start, time.perf_counter()


def _peak_rss_mb(worker_processes: int) -> float:
    """Peak resident set of this process, plus, for a workload that starts
    workers, that many times the largest worker's peak."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if worker_processes:
        kib += worker_processes * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


class Runner:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, out_dir: Path):
        from bench_tracer import Tracer
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
        self.tracer = Tracer(self.workdir / "worker-spans")   # holds the parts' spans
        self.setups: list[tuple[float, float]] = []   # start, end
        self.trials: list[Trial] = []
        self.peak_rss_mb = 0.0
        self.keys = 0             # inputs over all parts
        self.sampler: SpeedSampler | None = None

    def close(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- measurement --------------------------------------------------------

    def run(self) -> None:
        """Run the parts one after another, each in a process of its own,
        then check the counters across all of them."""
        if not self.trace:
            self.sampler = SpeedSampler()
        try:
            for part in range(PARTS):
                result = self._in_child(part)
                self.setups.append(result["setup"])
                self.trials += result["trials"]
                self.tracer.spans += result["spans"]
                self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
                self.keys += result["keys"]
        finally:
            if self.sampler is not None:
                self.sampler.stop()
        self._check_counters()
        if self.trace:
            self.tracer.write(self.out_dir / f"spans-{self.wl.name}-seed{self.seed}.jsonl")

    def _in_child(self, part: int) -> dict:
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=self._part, args=(child_conn, part))
        proc.start()
        child_conn.close()
        try:
            return conn.recv()
        except EOFError:
            raise RuntimeError(f"part {part} of the run ended without its result") from None
        finally:
            conn.close()
            proc.join()

    def _part(self, conn, part: int) -> None:
        """In a fresh process: set up this part's instance, then run trials
        on it, cycling through its keys, until every key has run and a
        further trial would end after this part's share of the run."""
        from bench_tracer import Tracer
        tracer = Tracer(self.workdir / "worker-spans")
        if self.trace:
            tracer.begin_trial(f"setup-{part}")
        inst, setup_start, setup_end = _timed(
            lambda: self.wl.setup(self.seed, part, self.workdir))
        if self.trace:
            tracer.end_trial()

        first = len(self.trials)
        trials: list[Trial] = []
        start = time.perf_counter()
        while True:
            k = len(trials) % len(inst.keys)
            index = first + len(trials)
            traced = self.trace and index % 2 == 1
            trials.append(self._trial(inst, tracer, f"{part}/{k}", inst.keys[k], index, traced))
            done = len(trials)
            elapsed = time.perf_counter() - start
            if done >= len(inst.keys) and elapsed * (done + 1) / done > self.seconds / PARTS:
                break
        conn.send({"setup": (setup_start, setup_end), "trials": trials, "spans": tracer.spans,
                   "peak_rss_mb": _peak_rss_mb(self.wl.worker_processes),
                   "keys": len(inst.keys)})
        conn.close()

    def _trial(self, inst, tracer, k: str, key, index: int, traced: bool) -> Trial:
        trial_id = f"trial-{index}"

        def run():
            if traced:
                tracer.begin_trial(trial_id)
            try:
                return self.wl.run(inst, key, self.workdir), None
            except Exception:
                return None, traceback.format_exc()
            finally:
                if traced:
                    tracer.end_trial()

        (raw, error), start, end = _timed(run)
        seconds = end - start
        edges = self.wl.trial_edges(inst, key)
        if error is not None:
            print(f"{trial_id} raised:\n{error}", file=sys.stderr)
            return Trial(trial_id, k, start, seconds, edges, traced, None,
                         [error.splitlines()[-1]])
        try:
            outcome = self.wl.check(inst, key, raw)
        except Exception:
            error = traceback.format_exc()
            print(f"{trial_id} check raised:\n{error}", file=sys.stderr)
            return Trial(trial_id, k, start, seconds, edges, traced, None,
                         [error.splitlines()[-1]])
        return Trial(trial_id, k, start, seconds, edges, traced, outcome, list(outcome.problems))

    def _check_counters(self) -> None:
        """The program's counters must repeat exactly for the same input:
        across the trials of this run, and against an earlier run of the
        same seed and source."""
        counters_path = self.out_dir / (
            f"counters-{self.wl.name}-seed{self.seed}-"
            f"{'smoke' if self.wl.cfg is self.wl.SMOKE else 'full'}-{_source_digest()}.json")
        stored = None
        if counters_path.is_file():
            with open(counters_path, encoding="utf-8") as fh:
                stored = json.load(fh)
        first: dict[str, object] = {}
        for trial in self.trials:
            if trial.outcome is None:
                continue
            k = trial.key
            counters = _normalized(trial.outcome.counters)
            if k not in first:
                first[k] = counters
            elif counters != first[k]:
                trial.problems.append(f"counters differ from the first trial of input {k}")
            if stored is not None and k in stored and counters != stored[k]:
                trial.problems.append(f"counters differ from an earlier run, input {k}")
        if stored is None and not self.failed and len(first) == self.keys:
            partial = counters_path.with_suffix(f".{os.getpid()}.tmp")
            with open(partial, "w", encoding="utf-8") as fh:
                json.dump(first, fh, sort_keys=True)
            os.replace(partial, counters_path)

    @property
    def failed(self) -> int:
        return sum(1 for t in self.trials if t.problems)

    # -- metrics ------------------------------------------------------------

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end at reference speed."""
        return (end - start) * self.sampler.scale(start, end)

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Each metric as (value, number of samples behind it)."""
        untraced = [t for t in self.trials if not t.traced]
        ratios = [r for t in self.trials if t.outcome for r in t.outcome.ratios]
        attempted = len(self.trials)
        trials = [self.scaled(t.start, t.start + t.seconds) for t in untraced]
        setups = [self.scaled(start, end) for start, end in self.setups]
        return {
            "trial_s_p50": (_median(trials), len(trials)),
            "edges_per_s": (sum(t.edges for t in untraced) / sum(trials), len(trials)),
            "setup_s": (_median(setups), len(setups)),
            "peak_rss_mb": (self.peak_rss_mb, len(self.setups)),
            "approx_ratio_min": (min(ratios, default=0.0), len(ratios)),
            "pass_rate": ((attempted - self.failed) / attempted, attempted),
        }

    def kept_fraction(self) -> float:
        """Edges kept (offline) or peak edges stored (streaming) over m,
        averaged over the input keys."""
        by_key: dict[str, list[float]] = {}
        for t in self.trials:
            if t.outcome is not None:
                by_key.setdefault(t.key, []).extend(t.outcome.kept)
        return statistics.fmean(statistics.fmean(v) for v in by_key.values()) if by_key else 0.0

    def per_layer(self) -> dict[str, float]:
        """Span timings are medians over traced trials; the program's
        counters come from the checked outcomes, once per input key."""
        from bench_tracer import LAYERS, TrialSpans
        by_trial: dict[str, list] = {}
        for span in self.tracer.spans:
            by_trial.setdefault(span.trial, []).append(span)
        setups = [TrialSpans(v) for k, v in by_trial.items() if k.startswith("setup-")]
        traced = [t for t in self.trials if t.traced]
        spans = [TrialSpans(by_trial.get(t.id, [])) for t in traced]
        by_key = {t.key: t.outcome for t in self.trials if t.outcome is not None}

        def med(fn, over=spans):
            return _median(fn(ts) for ts in over)

        def mean(values):
            values = list(values)
            return statistics.fmean(values) if values else 0.0

        m: dict[str, float] = {"kept_fraction": self.kept_fraction()}
        m["generators.instance_s"] = med(lambda ts: ts.time("generators.random_instance"), setups)
        m["matching.reference_s"] = med(lambda ts: ts.time(EXACT), setups)
        m["graph_io.read_s"] = med(lambda ts: ts.time("graph_io.read_graph"))
        m["graph.relevant_subgraph_s"] = med(lambda ts: ts.time("graph.relevant_subgraph"))
        m["graph.restrict_s"] = med(lambda ts: ts.time("graph.MultiGraph.restrict"))
        m["graph.restrict_edges"] = med(lambda ts: ts.size("graph.MultiGraph.restrict"))

        builds = [o.counters for o in by_key.values() if "build" in o.counters]
        m["edcs.build_s"] = med(lambda ts: ts.time("edcs.build_wb_edcs"))
        for field in ("steps", "insertions", "removals"):
            m[f"edcs.build_{field}"] = mean(c["build"][field] for c in builds)
        m["edcs.steps_per_s"] = (m["edcs.build_steps"] / m["edcs.build_s"]
                                 if m["edcs.build_s"] else 0.0)
        m["edcs.validate_s"] = med(lambda ts: ts.time("edcs.validate"))
        m["edcs.kept_edges"] = mean(c["kept"] for c in builds)
        m["edcs.insertions_kept_ratio"] = (m["edcs.kept_edges"] / m["edcs.build_insertions"]
                                           if m["edcs.build_insertions"] else 0.0)

        def greedy_fallbacks(ts):
            # greedy solves other than branch-and-bound's incumbent
            return sum(1 for s in ts.outermost("matching.max_weight_b_matching_greedy")
                       if ts.parent_layer(s) != "matching")

        def extractions(ts):
            # solves behind a returned result; the CLI's whole-graph oracle
            # is a reference, not an extraction
            return (sum(1 for s in ts.outermost(EXACT) if ts.parent_layer(s) != "cli")
                    + greedy_fallbacks(ts))

        m["matching.exact_s"] = med(lambda ts: ts.time(EXACT))
        m["matching.exact_calls"] = med(lambda ts: ts.count(EXACT))
        m["matching.exact_input_edges"] = med(lambda ts: ts.size(EXACT))
        m["matching.solver.flow"] = med(lambda ts: ts.count("matching.bipartite_b_matching"))
        m["matching.solver.bnb"] = med(
            lambda ts: ts.count("matching.branch_and_bound_b_matching"))
        m["matching.solver.greedy"] = med(greedy_fallbacks)
        results = _median(len(t.outcome.ratios) for t in traced if t.outcome)
        solves = med(extractions)
        m["matching.extractions_used_ratio"] = results / solves if solves else 0.0

        def stream_rate(ts):
            busy = ts.self_times()["streaming"]
            return ts.size(*RUNS) / busy if busy else 0.0

        m["streaming.make_stream_s"] = med(lambda ts: ts.time("streaming.make_stream"))
        m["streaming.run_s"] = med(lambda ts: ts.time(*RUNS))
        m["streaming.self_s"] = med(lambda ts: ts.self_times()["streaming"])
        m["streaming.self_edges_per_s"] = med(stream_rate)
        stream_stats = [stats for o in by_key.values() for stats in o.streams]
        for name, field in (("phase1_edges", "phase1_edges_consumed"), ("epochs", "epoch_count"),
                            ("final_guess_i", "final_guess_i"),
                            ("underfull_collected", "underfull_collected"),
                            ("peak_stored_edges", "peak_stored_edges"),
                            ("replacements", "replacement_count")):
            m[f"streaming.{name}"] = mean(stats[field] for stats in stream_stats)
        m["streaming.h_edges"] = mean(o.counters["H"] for o in by_key.values()
                                      if "H" in o.counters)
        for fallback in ("none", "alpha_zero", "small_output"):
            m[f"streaming.fallback.{fallback}"] = sum(
                1 for stats in stream_stats if stats["fallback_used"] == fallback)

        cli_spans = [ts for ts in spans if ts.count("cli.main")]
        m["cli.main_s"] = med(lambda ts: ts.time("cli.main"), cli_spans)
        m["cli.parent_read_s"] = med(lambda ts: ts.time("graph_io.read_graph", pid=ts.pid),
                                     cli_spans)
        m["cli.oracle_s"] = med(lambda ts: ts.time(EXACT, pid=ts.pid), cli_spans)
        m["cli.pool_s"] = med(lambda ts: ts.self_times(pid=ts.pid)["cli"], cli_spans)
        m["cli.seeds_per_s"] = results / m["cli.main_s"] if m["cli.main_s"] else 0.0

        per_trial = [ts.self_times() for ts in spans]
        for layer in ("bench", *LAYERS):
            m[f"self.{layer}_s"] = _median(st[layer] for st in per_trial)
        m["trace.overhead_s"] = (_median(t.seconds for t in traced)
                                 - _median(t.seconds for t in self.trials if not t.traced))
        return m


def measure(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out_dir: Path) -> dict:
    """Run one workload and return the result object printed last."""
    from bench_workloads import WORKLOADS
    wl = WORKLOADS[workload_name](smoke)
    runner = Runner(wl, seed, seconds, trace, out_dir)
    try:
        runner.run()
    finally:
        runner.close()

    attempted, failed = len(runner.trials), runner.failed
    traced = sum(1 for t in runner.trials if t.traced)
    print(f"# {wl.name} seed={seed} trials={attempted} (untraced {attempted - traced}, "
          f"traced {traced}) setups={len(runner.setups)} failed={failed}")
    for t in runner.trials:
        for problem in t.problems:
            print(f"# {t.id} failed, input {t.key}: {problem}")
    if trace:
        values = runner.per_layer()
        for name, unit in PER_LAYER.items():
            print(f"{name:34s} {values[name]:>14.6g} {unit}")
        ranked = sorted(((k[5:-2], v) for k, v in values.items() if k.startswith("self.")),
                        key=lambda kv: -kv[1])
        print("# self time per traced trial, largest first: "
              + ", ".join(f"{layer} {s:.4g} s" for layer, s in ranked))
        units = PER_LAYER
    else:
        measured = runner.end_to_end()
        # not gated: failure_rate is 1 - pass_rate, and kept_fraction spreads
        # too widely across seeds on the streaming workloads to hold a bound
        shown = dict(measured, failure_rate=(failed / attempted, attempted),
                     kept_fraction=(runner.kept_fraction(), attempted))
        shown_units = dict(END_TO_END, failure_rate="ratio", kept_fraction="ratio")
        for name, (value, n) in shown.items():
            print(f"{name:34s} {value:>14.6g} {shown_units[name]:6s} (n={n})")
        untraced = [t for t in runner.trials if not t.traced]
        scales = [runner.sampler.scale(t.start, t.start + t.seconds) for t in untraced]
        print(f"# before scaling: trial median {_median(t.seconds for t in untraced):.6g} s, "
              f"set-up median {_median(e - s for s, e in runner.setups):.6g} s; "
              f"trial scales {min(scales):.4g} to {max(scales):.4g} "
              f"from {len(runner.sampler.samples)} speed samples")
        print("# trials at reference speed (as measured): " + ", ".join(
            f"{runner.scaled(t.start, t.start + t.seconds):.4g} ({t.seconds:.4g})"
            for t in untraced) + " s")
        values = {name: value for name, (value, _) in measured.items()}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None, out_dir: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    args = parser.parse_args(argv)

    if not (SRC / "wedcs" / "__init__.py").is_file():
        print(f"error: no wedcs package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import wedcs
    if Path(wedcs.__file__).resolve().parent != SRC / "wedcs":
        print(f"error: imported wedcs from {wedcs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                     out_dir or HERE / ".out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
