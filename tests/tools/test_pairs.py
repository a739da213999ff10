"""``tools/pairs.py --summarize``: the pairs summary from canned log
lines, without running a benchmark."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs_tool)


def driver_line(qps, p99, failed=0, attempted=100):
    """A wallbench ``--trace 0`` line with two of the metrics."""
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput_qps": {"value": qps, "unit": "1/s"},
            "latency_p99_us": {"value": p99, "unit": "us"},
        },
    }


def entry(pair, side, result, workload="hot_hits", seed=11):
    return {"pair": pair, "side": side, "workload": workload, "seed": seed,
            "result": result}


CANNED = [
    entry(1, "parent", driver_line(100.0, 200.0)),
    entry(1, "change", driver_line(120.0, 150.0)),
    entry(2, "change", driver_line(118.0, 150.0)),
    entry(2, "parent", driver_line(104.0, 150.0)),
    entry(3, "parent", driver_line(110.0, 180.0)),
    entry(3, "change", driver_line(105.0, 170.0, failed=1)),
    entry(4, "change", None),  # a run that printed no driver line
    entry(4, "parent", driver_line(90.0, 210.0)),
]


def summary(tmp_path, entries):
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return pairs_tool.summarize(
        pairs_tool.read_log(log), pairs_tool.load_benchmark()
    )


def metric_line(lines, name):
    [line] = [line for line in lines if line.startswith(name + " (")]
    return line


def test_wins_count_pairs_and_ties_count_for_neither(tmp_path):
    lines = summary(tmp_path, CANNED)
    assert lines[0] == "== hot_hits, seed 11: 4 pairs"
    qps = metric_line(lines, "throughput_qps")
    assert qps.startswith(
        "throughput_qps (higher is better): change wins 2, parent wins 1, "
        "of 4 pairs;"
    )
    # Pair 2 ties on p99: it counts for neither side.
    p99 = metric_line(lines, "latency_p99_us")
    assert "change wins 2, parent wins 0, of 4 pairs" in p99


def test_medians_quartiles_and_delta(tmp_path):
    qps = metric_line(summary(tmp_path, CANNED), "throughput_qps")
    # parent 90, 100, 104, 110; change 105, 118, 120.
    assert "parent median 102 [q1 97.5, q3 105.5, iqr 8]" in qps
    assert "change median 118 [q1 111.5, q3 119]" in qps
    assert "median delta +15.69%" in qps


def test_failures_and_missing_runs_per_side(tmp_path):
    lines = summary(tmp_path, CANNED)
    assert "parent: failed/attempted 0/400, runs without a result 0/4" in lines
    assert "change: failed/attempted 1/300, runs without a result 1/4" in lines


def test_rows_alternate_and_metrics_without_data_say_so(tmp_path):
    lines = summary(tmp_path, CANNED)
    assert lines[1].startswith(
        "pair  1 (parent first): throughput_qps 100 -> 120; "
        "latency_p50_us - -> -;"
    )
    assert lines[2].startswith("pair  2 (change first):")
    assert "setup_s: no complete pair" in lines


def test_each_workload_and_seed_is_its_own_section(tmp_path):
    other = [entry(1, side, driver_line(50.0, 1.0), seed=5)
             for side in ("parent", "change")]
    lines = summary(tmp_path, CANNED + other)
    assert [line for line in lines if line.startswith("==")] == [
        "== hot_hits, seed 5: 1 pairs",
        "== hot_hits, seed 11: 4 pairs",
    ]


def test_summarize_mode_runs_nothing(tmp_path, capsys, monkeypatch):
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in CANNED))

    def no_run(*args, **kwargs):
        raise AssertionError("--summarize must not run a benchmark")

    monkeypatch.setattr(pairs_tool.subprocess, "run", no_run)
    assert pairs_tool.main(["--summarize", str(log)]) == 0
    out = capsys.readouterr().out
    assert "throughput_qps (higher is better): change wins 2" in out


def test_medians_by_position_in_the_pair(tmp_path):
    lines = summary(tmp_path, CANNED)
    [qps] = [line for line in lines
             if line.startswith("throughput_qps by position:")]
    # The parent went first in pairs 1 and 3, the change in 2 and 4.
    assert qps == (
        "throughput_qps by position: parent first 105 (2 runs), "
        "second 97 (2 runs); change first 118 (1 runs), "
        "second 112.5 (2 runs)"
    )
    assert "setup_s by position" not in "\n".join(lines)
