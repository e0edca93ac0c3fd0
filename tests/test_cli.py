import json
import os
import subprocess
import sys
import threading
import time

import pytest

import wedcs
from wedcs.cli import main
from wedcs.streaming import PRNG_ID

TIGHT_SPEC = {"kind": "tight", "k": 1, "W": 1, "beta_minus": 2}
RANDOM_SPEC = {"kind": "random", "seed": 5, "n": 12, "m": 30, "W": 3,
               "b_min": 1, "b_max": 3}


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_gen_build_verify_round_trip(tmp_path, capsys):
    spec = _write_spec(tmp_path, RANDOM_SPEC)
    graph = str(tmp_path / "g.txt")
    built = str(tmp_path / "h.txt")
    assert main(["gen", "--spec", spec, "--out", graph]) == 0
    assert main(["build", graph, "--beta", "6", "--out", built]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["validator"]["clean"]
    assert main(["verify", graph, built, "--beta", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["clean"]


def test_gen_tight_with_reference(tmp_path, capsys):
    spec = _write_spec(tmp_path, TIGHT_SPEC)
    graph = str(tmp_path / "g.txt")
    ref = str(tmp_path / "ref.txt")
    assert main(["gen", "--spec", spec, "--out", graph, "--ref-out", ref]) == 0
    assert main(["verify", graph, ref, "--beta", "4", "--beta-minus", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["clean"]


def test_build_on_tight_instance_is_clean(tmp_path, capsys):
    spec = _write_spec(tmp_path, TIGHT_SPEC)
    graph = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", graph])
    assert main(["build", graph, "--beta", "4", "--beta-minus", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["validator"]["clean"]


def test_build_empty_graph(tmp_path, capsys):
    graph = tmp_path / "empty.txt"
    graph.write_text("g 0 0 1\n")
    assert main(["build", str(graph), "--beta", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["edges_kept"] == 0


def test_malformed_line_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("g 2 1 1\ne 0 x 1\n")
    assert main(["build", str(graph), "--beta", "4"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_reports_upper_violations(tmp_path, capsys):
    # star with all edges kept: center degree 4 > beta = 3
    graph = tmp_path / "g.txt"
    graph.write_text("g 5 4 1\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 0 4 1\n")
    assert main(["verify", str(graph), str(graph), "--beta", "3", "--beta-minus", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["upper_violations"] == [0, 1, 2, 3]


def test_verify_reports_lower_violation_for_empty_subgraph(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    empty = tmp_path / "h.txt"
    empty.write_text("g 2 0 1\n")
    assert main(["verify", str(graph), str(empty), "--beta", "4", "--beta-minus", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["lower_violations"] == [0]


def test_verify_containment_violation_exits_2(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    alien = tmp_path / "h.txt"
    alien.write_text("g 2 1 2\ne 0 1 2\n")
    assert main(["verify", str(graph), str(alien), "--beta", "4"]) == 2
    assert "counterpart" in capsys.readouterr().err


def test_stream_small_graph_small_output(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"kind": "random", "seed": 1, "n": 6, "m": 6,
                                  "W": 2, "b_min": 1, "b_max": 2})
    graph = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", graph])
    assert main(["stream", graph, "--seeds", "3", "--epsilon", "0.2",
                 "--beta", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["fallback_used"] == "small_output"
    assert report["runs"][0]["ratio"] == 1.0


def test_stream_records_the_prng_of_a_seeded_order(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 3 2 2\ne 0 1 1\ne 1 2 2\n")
    assert main(["stream", str(graph), "--seeds", "4", "--epsilon", "0.2", "--beta", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["runs"][0]["prng"] == PRNG_ID


def test_stream_requires_seeds(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["stream", str(graph), "--epsilon", "0.2", "--beta", "6"])
    assert exc.value.code == 2


def test_stream_variant3_accepts_parallel_edges(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 2 3\ne 0 1 1\ne 0 1 3\n")
    assert main(["stream", str(graph), "--seeds", "0", "--epsilon", "0.2",
                 "--beta", "6", "--variant", "3"]) == 0
    capsys.readouterr()
    # variant 1 refuses the same stream
    assert main(["stream", str(graph), "--seeds", "0", "--epsilon", "0.2",
                 "--beta", "6"]) == 2


def test_stream_rejects_zero_epsilon(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["stream", str(graph), "--seeds", "0", "--epsilon", "0",
                 "--beta", "6"]) == 2
    assert "error: epsilon must be in (0, 1/2)" in capsys.readouterr().err


def test_build_rejects_bad_epsilon(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["build", str(graph), "--beta", "12", "--epsilon", "0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: epsilon must be in (0, 1/2), got 7/10\n"
    assert captured.out == ""


@pytest.mark.parametrize("epsilon", ["0", "0.5", "-1/10", "3/4"])
def test_stream_rejects_bad_epsilon_before_the_oracle(tmp_path, capsys, monkeypatch, epsilon):
    import wedcs.cli as cli

    def no_oracle(*args):
        raise AssertionError("the oracle ran before epsilon was checked")

    monkeypatch.setattr(cli, "max_weight_b_matching_exact", no_oracle)
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["stream", str(graph), "--seeds", "0-3", f"--epsilon={epsilon}",
                 "--beta", "6", "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert "error: epsilon must be in (0, 1/2)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seeds,message", [
    ("1,5-3", "range '5-3' is descending"),
    ("-3", "'-3' is negative"),
    ("0-2, -7", "'-7' is negative"),
    ("2,x", "'x' is neither a seed nor a range lo-hi of seeds"),
    ("1,,2", "'' is neither a seed nor a range lo-hi of seeds"),
], ids=["descending", "negative", "negative-in-list", "not-a-number", "empty-chunk"])
def test_stream_rejects_bad_seeds_before_the_oracle(tmp_path, capsys, monkeypatch,
                                                    seeds, message):
    import wedcs.cli as cli

    def no_oracle(*args):
        raise AssertionError("the oracle ran before the seeds were checked")

    monkeypatch.setattr(cli, "max_weight_b_matching_exact", no_oracle)
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["stream", str(graph), f"--seeds={seeds}", "--epsilon", "0.2",
                 "--beta", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: --seeds: {message}"
    assert captured.out == ""


def test_stream_checks_seeds_before_reading_the_graph(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    assert main(["stream", str(missing), "--seeds", "4-1", "--epsilon", "0.2",
                 "--beta", "6"]) == 2
    assert capsys.readouterr().err.strip() == "error: --seeds: range '4-1' is descending"


def test_parse_seeds_lists_and_ascending_ranges():
    from wedcs.cli import _parse_seeds

    assert _parse_seeds("3,0-2, 7") == [3, 0, 1, 2, 7]
    assert _parse_seeds("2-2") == [2]
    assert _parse_seeds("as-is") == ["as-is"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_stream_rejects_jobs_below_one(tmp_path, capsys, jobs):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["stream", str(graph), "--seeds", "0-3", "--epsilon", "0.2",
                 "--beta", "6", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: --jobs must be >= 1"
    assert captured.out == ""


def test_gen_build_verify_multicopy(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"kind": "multicopy", "k": 1, "W": 2})
    graph = str(tmp_path / "g.txt")
    built = str(tmp_path / "h.txt")
    assert main(["gen", "--spec", spec, "--out", graph]) == 0
    assert main(["build", graph, "--beta", "6", "--out", built]) == 0
    capsys.readouterr()
    assert main(["verify", graph, built, "--beta", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["clean"]


def test_stream_jobs_do_not_change_output(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"kind": "random", "seed": 3, "n": 10, "m": 18,
                                  "W": 2, "b_min": 1, "b_max": 2})
    graph = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", graph])
    args = ["stream", graph, "--seeds", "0-3", "--epsilon", "0.2", "--beta", "6"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "par")]) == 0
    assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "par.json").read_bytes()
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


def test_stream_jobs_parse_the_graph_once(tmp_path, capsys, monkeypatch):
    # the pool's threads share the spy's call count of 1, so a thread that
    # read the graph file again would make the second call and fail the run
    import wedcs.cli as cli

    spec = _write_spec(tmp_path, {"kind": "random", "seed": 3, "n": 10, "m": 18,
                                  "W": 2, "b_min": 1, "b_max": 2})
    graph = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", graph])
    read_graph = cli.read_graph

    def read_once():
        calls = []

        def read(source):
            calls.append(source)
            if len(calls) > 1:
                raise RuntimeError(f"graph read a second time from {source}")
            return read_graph(source)
        return read

    outputs = []
    for jobs in ("1", "2"):
        monkeypatch.setattr(cli, "read_graph", read_once())
        assert main(["stream", graph, "--seeds", "0-3", "--epsilon", "0.2", "--beta", "6",
                     "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_stream_jobs_build_per_graph_work_once(tmp_path, capsys, monkeypatch):
    # G's pair numbering and relevant ids are computed once, on the main
    # thread, and its exact solve once, by the oracle on the main thread:
    # a pool thread that computed one of them would raise.  The pool
    # starts first and its seeds draw their orders meanwhile, but no
    # stream's pass starts before the numbering has ended; the relevant
    # ids come with the oracle's solve, whose kept answer the streams wait
    # for and read.  The pair and relevant-id spies count G only, known by
    # its m: each stream's restricted graph numbers its own pairs,
    # per-stream work on its own edges.  Every stream ends in
    # small_output, so G's one exact solve answers the oracle and all four
    # streams; --jobs 4 runs more threads than cores.  A pair-cap fill
    # that raises fails the command as an input error, frees the waiting
    # seeds and starts no queued one.
    import wedcs.cli as cli
    import wedcs.graph as graph
    import wedcs.matching as matching

    spec = _write_spec(tmp_path, {"kind": "random", "seed": 11, "n": 10, "m": 200, "W": 3,
                                  "b_min": 1, "b_max": 2, "bipartite": True,
                                  "allow_parallel": True})
    path = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", path])
    calls = {"pairs": 0, "relevant": 0}
    numbered = threading.Event()

    def on_main_thread(name):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"a pool thread built the {name} again")

    def once(name, build):
        def spy(G, *args):
            if G.m == 200:
                on_main_thread(name)
                calls[name] += 1
            return build(G, *args)
        return spy

    number_pairs = once("pairs", graph.MultiGraph._number_pairs)

    def numbering(G):
        if G.m == 200:
            time.sleep(0.1)  # a stream that does not wait gets there first
        number_pairs(G)
        if G.m == 200:
            numbered.set()

    run_with_fallbacks = cli.run_with_fallbacks

    def after_numbering(*args, **kwargs):
        if not numbered.is_set():
            raise RuntimeError("a stream's pass started before G's pairs were numbered")
        return run_with_fallbacks(*args, **kwargs)

    monkeypatch.setattr(graph.MultiGraph, "_number_pairs", numbering)
    monkeypatch.setattr(matching, "_relevant_ids", once("relevant", matching._relevant_ids))
    monkeypatch.setattr(cli, "run_with_fallbacks", after_numbering)
    solves = []
    primal_dual = matching._primal_dual

    def solve(*args):
        on_main_thread("exact answer")
        solves.append(args[2])
        return primal_dual(*args)

    monkeypatch.setattr(matching, "_primal_dual", solve)
    outputs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # --jobs 4: more threads than cores, switching often
    try:
        for jobs in ("2", "1", "4"):
            assert main(["stream", path, "--seeds", "0-3", "--epsilon", "0.2", "--beta", "6",
                         "--variant", "3", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
            assert calls == {"pairs": 1, "relevant": 1}, jobs
            assert solves == [10], jobs
            calls.update(pairs=0, relevant=0)
            solves.clear()
            numbered.clear()
    finally:
        sys.setswitchinterval(switch)
    runs = json.loads(outputs[0])["runs"]
    assert [run["fallback_used"] for run in runs] == ["small_output"] * 4
    assert outputs[0] == outputs[1] == outputs[2]

    # the two pool threads have drawn seeds 0 and 1 when the fill fails
    drawn, started = [], threading.Event()
    make_stream = cli.make_stream

    def drawing(G, seed):
        drawn.append(seed)
        if len(drawn) == 2:
            started.set()
        return make_stream(G, seed)

    def failing_caps(G, b):
        assert started.wait(timeout=60)
        raise ValueError("no pair caps")

    monkeypatch.setattr(cli, "make_stream", drawing)
    monkeypatch.setattr(cli, "_pair_caps", failing_caps)
    code = []
    command = threading.Thread(target=lambda: code.append(main(
        ["stream", path, "--seeds", "0-49", "--epsilon", "0.2", "--beta", "6",
         "--variant", "3", "--jobs", "2"])))
    command.start()
    command.join(timeout=60)
    assert not command.is_alive() and code == [2]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no pair caps\n")
    assert sorted(drawn) == [0, 1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stream_seeds_stream_beside_the_oracle(tmp_path, capsys, monkeypatch, jobs):
    # the oracle starts only once a seed's pass is over, so the pass ran
    # beside it; the stream then waits for the oracle's solve instead of
    # solving G on its pool thread
    import wedcs.cli as cli
    import wedcs.matching as matching
    import wedcs.streaming as streaming

    spec = _write_spec(tmp_path, {"kind": "random", "seed": 11, "n": 10, "m": 200, "W": 3,
                                  "b_min": 1, "b_max": 2, "bipartite": True,
                                  "allow_parallel": True})
    path = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", path])
    passed = threading.Event()
    two_phase_pass, oracle = streaming._two_phase_pass, cli.max_weight_b_matching_exact
    primal_dual = matching._primal_dual

    def signalling_pass(*args):
        result = two_phase_pass(*args)
        passed.set()
        return result

    def late_oracle(*args):
        assert passed.wait(timeout=30)
        return oracle(*args)

    def solve(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("a pool thread solved G")
        return primal_dual(*args)

    monkeypatch.setattr(streaming, "_two_phase_pass", signalling_pass)
    monkeypatch.setattr(cli, "max_weight_b_matching_exact", late_oracle)
    monkeypatch.setattr(matching, "_primal_dual", solve)
    assert main(["stream", path, "--seeds", "0-3", "--epsilon", "0.2", "--beta", "6",
                 "--variant", "3", "--jobs", jobs]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [run["fallback_used"] for run in runs] == ["small_output"] * 4


@pytest.mark.parametrize("bipartite, n, m, weight", [(True, 10, 200, 21), (False, 9, 120, 18)],
                         ids=["bipartite", "general"])
def test_stream_oracle_solves_the_relevant_subgraph(tmp_path, capsys, bipartite, n, m, weight):
    # raw multiplicities: the oracle solves a relevant subgraph smaller
    # than G and reports G's optimum
    from wedcs import max_weight_b_matching_exact, read_graph
    from wedcs.graph import _relevant_ids

    spec = _write_spec(tmp_path, {"kind": "random", "seed": 11, "n": n, "m": m, "W": 3,
                                  "b_min": 1, "b_max": 2, "bipartite": bipartite,
                                  "allow_parallel": True})
    path = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", path])
    G, b = read_graph(path)
    assert len(_relevant_ids(G, b)) < G.m
    assert max_weight_b_matching_exact(G, b, 10**7).weight == weight
    assert main(["stream", path, "--seeds", "0-1", "--epsilon", "0.2", "--beta", "6",
                 "--variant", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_weight"] == weight


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stream_rejects_bipartite_weights_beyond_the_solver(tmp_path, capsys, jobs):
    # 2**70 fits no integer array: the bipartite solver names its limit and
    # the command fails as an input error, not with a traceback
    graph = tmp_path / "g.txt"
    graph.write_text(f"g 4 3 {2**70}\ne 0 1 {2**70}\ne 1 2 5\ne 2 3 7\n")
    assert main(["stream", str(graph), "--seeds", "0-1", "--epsilon", "0.2", "--beta", "6",
                 "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the bipartite solver needs m * W < 2**62, got m=3, W={2**70}\n"
    assert captured.out == ""


def test_stream_oracle_error_cancels_queued_seeds(tmp_path, capsys, monkeypatch):
    # two pool threads hold seeds 0 and 1 until the pool shuts down; the
    # oracle fails once both have started, and the shutdown cancels the 48
    # seeds still queued before it lets the two run on
    import concurrent.futures

    import wedcs.cli as cli

    calls, started, release = [], threading.Event(), threading.Event()
    stream_one, oracle = cli._stream_one, cli.max_weight_b_matching_exact
    shutdown = concurrent.futures.ThreadPoolExecutor.shutdown

    def held_stream(*args):
        calls.append(args[-1])
        if len(calls) == 2:
            started.set()
        release.wait()
        return stream_one(*args)

    def late_oracle(*args):
        assert started.wait(timeout=60)
        return oracle(*args)

    def releasing_shutdown(self, wait=True, *, cancel_futures=False):
        shutdown(self, wait=False, cancel_futures=cancel_futures)
        release.set()
        shutdown(self, wait=wait)

    monkeypatch.setattr(cli, "_stream_one", held_stream)
    monkeypatch.setattr(cli, "max_weight_b_matching_exact", late_oracle)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown", releasing_shutdown)
    graph = tmp_path / "g.txt"
    graph.write_text(f"g 4 3 {2**70}\ne 0 1 {2**70}\ne 1 2 5\ne 2 3 7\n")
    assert main(["stream", str(graph), "--seeds", "0-49", "--epsilon", "0.2", "--beta", "6",
                 "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the bipartite solver needs m * W < 2**62, got m=3, W={2**70}\n"
    assert captured.out == ""
    assert sorted(calls) == [0, 1]


def test_stream_seed_error_cancels_queued_seeds(tmp_path, capsys, monkeypatch):
    # a failing seed cancels the seeds still queued: two pool threads take
    # seeds 0 and 1, seed 0 fails once seed 1 has started, and seed 1 is
    # held until the pool shuts down.  The failed seed's thread is held
    # too, by a done-callback, so it cannot take seed 2 before the error
    # reaches the calling thread
    import concurrent.futures

    import wedcs.cli as cli

    calls, started, release = [], threading.Event(), threading.Event()
    stream_one = cli._stream_one
    submit = concurrent.futures.ThreadPoolExecutor.submit
    shutdown = concurrent.futures.ThreadPoolExecutor.shutdown

    def held_stream(*args):
        calls.append(args[-1])
        if args[-1] == 0:
            assert started.wait(timeout=60)
            raise ValueError("seed 0 failed")
        started.set()
        release.wait()
        return stream_one(*args)

    def holding_submit(self, *args):
        # a failed seed's callbacks run on its thread once the error is set
        future = submit(self, *args)
        future.add_done_callback(
            lambda done: not done.cancelled() and done.exception() and release.wait())
        return future

    def releasing_shutdown(self, wait=True, *, cancel_futures=False):
        shutdown(self, wait=False, cancel_futures=cancel_futures)
        release.set()
        shutdown(self, wait=wait)

    monkeypatch.setattr(cli, "_stream_one", held_stream)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", holding_submit)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown", releasing_shutdown)
    graph = tmp_path / "g.txt"
    graph.write_text("g 4 3 7\ne 0 1 3\ne 1 2 5\ne 2 3 7\n")
    assert main(["stream", str(graph), "--seeds", "0-49", "--epsilon", "0.2", "--beta", "6",
                 "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed 0 failed\n"
    assert captured.out == ""
    assert sorted(calls) == [0, 1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stream_rejects_variant_1_crowding_before_the_oracle(tmp_path, capsys, monkeypatch,
                                                            jobs):
    # two parallel edges at unit capacities break variant 1's promise: the
    # command fails on its input checks, before the oracle and any stream
    import wedcs.cli

    calls = []
    monkeypatch.setattr(wedcs.cli, "max_weight_b_matching_exact",
                        lambda *args: calls.append(args))
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 2 3\ne 0 1 1\ne 0 1 3\n")
    assert main(["stream", str(graph), "--seeds", "0-1", "--epsilon", "0.2", "--beta", "6",
                 "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: pair (0, 1) has 2 parallel edges, more than "
                            "min(b_u, b_v)=1; use --variant 3 for raw multiplicity streams\n")
    assert captured.out == "" and calls == []


def test_stream_solves_bipartite_weights_of_2_40(tmp_path, capsys):
    # the oracle's primal-dual rounds follow its searches, not W
    graph = tmp_path / "g.txt"
    graph.write_text(f"g 4 3 {2**40}\ne 0 1 {2**40}\ne 1 2 5\ne 2 3 7\n")
    assert main(["stream", str(graph), "--seeds", "0-1", "--epsilon", "0.2",
                 "--beta", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_weight"] == 2**40 + 7
    assert [run["ratio"] for run in report["runs"]] == [1.0, 1.0]


def test_stream_outputs_are_byte_identical(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"kind": "random", "seed": 2, "n": 10, "m": 20,
                                  "W": 2, "b_min": 1, "b_max": 2})
    graph = str(tmp_path / "g.txt")
    main(["gen", "--spec", spec, "--out", graph])
    args = ["stream", graph, "--seeds", "0-4", "--epsilon", "0.2", "--beta", "6"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for ext in (".json", ".csv"):
        assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "seed,ratio,peak_memory,phase1_edges,underfull_collected,fallback,extraction"


def test_stream_fail_below_threshold(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["stream", str(graph), "--seeds", "1", "--epsilon", "0.2",
                 "--beta", "6", "--fail-below", "1.1"]) == 1


def test_stream_ratio_omitted_when_oracle_infeasible(tmp_path, capsys):
    # non-bipartite graph plus a starved oracle budget: ratios become null
    # and the run still completes (greedy extraction); a uniform 5-cycle
    # cannot be closed at the search root by the pruning bound
    graph = tmp_path / "g.txt"
    graph.write_text("g 5 5 2\ne 0 1 2\ne 1 2 2\ne 2 3 2\ne 3 4 2\ne 4 0 2\n")
    assert main(["stream", str(graph), "--seeds", "0", "--epsilon", "0.2",
                 "--beta", "6", "--oracle-budget", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_weight"] is None
    assert report["runs"][0]["ratio"] is None
    assert report["aggregate"]["ratio_min"] is None


def test_stream_ratio_omitted_when_oracle_infeasible_under_the_pool(tmp_path, capsys):
    # the calling thread's oracle runs out of budget while the pool streams
    graph = tmp_path / "g.txt"
    graph.write_text("g 5 5 2\ne 0 1 2\ne 1 2 2\ne 2 3 2\ne 3 4 2\ne 4 0 2\n")
    args = ["stream", str(graph), "--seeds", "0-1", "--epsilon", "0.2", "--beta", "6",
            "--oracle-budget", "1"]
    assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "pool")]) == 0
    pooled = (tmp_path / "pool.json").read_bytes()
    assert pooled == (tmp_path / "serial.json").read_bytes()
    report = json.loads(pooled)
    assert report["oracle_weight"] is None
    assert [run["ratio"] for run in report["runs"]] == [None, None]


def test_stream_jobs_start_one_worker_per_seed(tmp_path, capsys, monkeypatch):
    # the pool gets at most one thread per seed: two for --jobs 4 and two seeds
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    graph = tmp_path / "g.txt"
    graph.write_text("g 4 3 2\ne 0 1 2\ne 1 2 1\ne 2 3 2\n")
    args = ["stream", str(graph), "--seeds", "0-1", "--epsilon", "0.2", "--beta", "6"]
    assert main(args + ["--jobs", "4", "--out", str(tmp_path / "pool")]) == 0
    assert sizes == [2]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert (tmp_path / "pool.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


def test_stream_as_is_order(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 3 2 2\ne 0 1 2\ne 1 2 1\n")
    assert main(["stream", str(graph), "--seeds", "as-is", "--epsilon", "0.2",
                 "--beta", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["prng"] == "as-is"


def _child_env(**extra) -> dict:
    """The environment for a ``python -m wedcs.cli`` child: this one, with
    the directory that holds the imported ``wedcs`` package first on
    ``PYTHONPATH``, so the child imports the same package without an
    install."""
    root = os.path.dirname(os.path.dirname(wedcs.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_cli_module_entry_point(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wedcs.cli", "build", str(graph), "--beta", "4"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["validator"]["clean"]


def test_cli_log_env_var(tmp_path):
    # basic_format names a string attribute of logging, not a level: it
    # falls back to WARNING.  Only a child process shows this, since
    # basicConfig does nothing while pytest's handlers are installed.
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    for value in ("debug", "basic_format"):
        proc = subprocess.run(
            [sys.executable, "-m", "wedcs.cli", "build", str(graph), "--beta", "4"],
            capture_output=True, text=True, env=_child_env(EDCS_LOG=value))
        assert proc.returncode == 0, (value, proc.stderr)
        assert "Traceback" not in proc.stderr, value


def test_cli_theorem_params(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 1\ne 0 1 1\n")
    assert main(["build", str(graph), "--theorem-params", "--epsilon", "0.4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["beta"] >= 10**5
    assert report["validator"]["clean"]


def test_cli_w_flag_overrides_cap(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 2\ne 0 1 2\n")
    assert main(["build", str(graph), "--beta", "6", "--W", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["W"] == 4
    assert main(["build", str(graph), "--beta", "6", "--W", "1"]) == 2
