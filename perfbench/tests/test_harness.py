"""Self-test of the benchmark harness on a tiny argv.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Workload, layer_metrics  # noqa: E402

TINY = Workload("tiny", lambda seed: [["coeffs", "--n", "2", "--N", "2"]])


@pytest.fixture(scope="module")
def traced_result():
    """(result, trace document) of one traced measurement of TINY."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        result = run.measure(TINY, seed=0, seconds=0, trace=True)
        trace_path = os.path.join(run.OUT, "TRACE_tiny.json")
        with open(trace_path, encoding="utf-8") as fh:
            yield result, json.load(fh)
    finally:
        for name in ("BENCH_tiny_trace.json", "TRACE_tiny.json"):
            path = os.path.join(ROOT, run.OUT, name)
            if os.path.exists(path):
                os.remove(path)
        os.chdir(cwd)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_every_end_to_end_metric_is_printed_with_its_unit(traced_result):
    traced_result = traced_result[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result(traced_result)
    printed = buf.getvalue()
    declared = _declared("end_to_end")
    assert {k: u for k, (_, u) in traced_result["end_to_end"].items()} == declared
    extra = [("setup_wall_s", "s"), ("wall_s", "s"), ("probe_s", "s"), ("fail_frac", "ratio")]
    for name, unit in list(declared.items()) + extra:
        line = next(l for l in printed.splitlines() if l.split()[:1] == [name])
        assert line.split()[-1] == unit
    assert traced_result["fail_frac"] == 0
    assert traced_result["samples"]["setup_s"] and len(traced_result["samples"]["setup_s"]) >= run.SETUP_SAMPLES


def test_per_layer_metrics_match_the_declaration(traced_result):
    traced_result = traced_result[0]
    got = {k: u for k, (_, u) in traced_result["per_layer"].items()}
    assert got == _declared("per_layer")
    assert traced_result["per_layer"]["cli.coeff_table.self_s"][0] > 0
    assert traced_result["per_layer"]["jets.Jet.mul.calls"][0] == 0


def test_traced_run_records_spans_with_parents(traced_result):
    doc = traced_result[1]
    spans = {s["id"]: s for s in doc["spans"]}
    roots = [s for s in spans.values() if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    children = [s for s in spans.values() if s["parent"] is not None]
    assert children
    for s in children:
        parent = spans[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    stats = doc["stats"]
    assert stats["juhl._expand_reduced"]["calls"] >= 1
    assert 0 < stats["cli.main"]["self_s"] < stats["cli.main"]["total_s"]
    assert doc["env"]["nproc"] >= 1


def test_tracing_overhead_divides_out_the_machine_speed(traced_result):
    r = traced_result[0]
    traced_rel = r["traced_wall_s"] / r["traced_probe_s"]
    wall_rel = r["end_to_end"]["wall_rel"][0]
    assert r["per_layer"]["trace.overhead"] == (traced_rel / wall_rel - 1.0, "ratio")
    trace = {"stats": {}, "counters": {}, "edges": [], "cache_hit_ratio": {}, "notes": []}
    # the traced child ran at half speed: twice the wall time, twice the probe time
    metrics, _ = layer_metrics(trace, 2.0, 2.0 / 0.2, 1.0 / 0.1, 0, 0)
    assert metrics["trace.overhead"] == (0.0, "ratio")


def test_a_failed_first_child_is_not_the_same_seed_reference():
    same_seed = Workload("same", lambda seed: [["verify"]], same_seed_identical=True)
    tally = run.Tally()
    tally.add(same_seed, [{"argv": ["verify"], "digest": None, "why": "exit code 1"}])
    tally.add(same_seed, [{"argv": ["verify"], "digest": "a", "why": ""}])
    tally.add(same_seed, [{"argv": ["verify"], "digest": "a", "why": ""}])
    assert (tally.attempted, tally.failed) == (3, 1)
    tally.add(same_seed, [{"argv": ["verify"], "digest": "b", "why": ""}])
    assert tally.failed == 2
    assert tally.reasons[-1].endswith("differs from an earlier run at the same seed")


def test_uninstall_restores_the_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import covop.cli as cli
    import covop.juhl as juhl
    before = (cli.main, cli.iterated, juhl.iterated, juhl.Poly.__mul__)
    t = tracer.Tracer().install()
    assert cli.iterated is juhl.iterated is not before[1]
    t.uninstall()
    assert (cli.main, cli.iterated, juhl.iterated, juhl.Poly.__mul__) == before


def test_missing_names_read_zero_with_a_note():
    trace = {"stats": {}, "counters": {}, "edges": [], "cache_hit_ratio": {}, "notes": []}
    metrics, notes = layer_metrics(trace, 1.0, 1.0, 1.0, 0, 0)
    assert metrics["juhl._expand_reduced.self_s"] == (0, "s")
    assert any("juhl._expand_reduced" in n for n in notes)


def test_refuses_to_run_without_covop_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact-grid", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
