"""Self-tests of the serving benchmark.

Run from the repository root::

    python3 -m pytest servebench -q

The tiny-scale passes start the real server, so each takes a few to a
few tens of seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, covered_ns, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_reports_every_metric(workload: str, trace: str) -> None:
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in named}
    for entry in named:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace == "0":
        assert result["metrics"]["answered_frac"]["value"] == 1.0


def test_wrong_answer_is_caught(monkeypatch, capsys) -> None:
    """A reference that disagrees with the server must fail the run."""
    real = workloads.build_inputs

    def corrupted(*args, **kwargs):
        # One position of one batch of the timed loop's pool.
        inputs = real(*args, **kwargs)
        hops = inputs.reference[1]
        hops[5] = (hops[5] or 0) + 1000
        inputs.expected[1] = workloads.protocol.encode_hops(hops)
        return inputs

    monkeypatch.setattr(workloads, "build_inputs", corrupted)
    code = bench.main(["--workload", "lookup-small", "--seed", "3",
                       "--seconds", "1", "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["answered_frac"]["value"] < 1.0


def test_wrong_positions_rules() -> None:
    expected = [1, None, 3, 4]
    assert workloads.wrong_positions([1, 7, 3, 4], expected) == []
    assert workloads.wrong_positions([1, None, 9, 4], expected) == [2]
    assert workloads.wrong_positions([1, None, 9, 4], expected, (2,)) == []
    assert workloads.wrong_positions([1, None, 3], expected) == [0, 1, 2, 3]


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        ["request", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 20, 50, 0, 0],  # overlaps a: the union counts once
        ["c", 90, 120, 0, 0],  # runs past its parent: clipped at 100
        ["d", 25, 28, 1, 0],  # grandchild: only a's self time drops
    ]
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert self_times(spans) == [50, 17, 30, 30, 3]


def test_tracer_nests_spans() -> None:
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.request = 5
        with tracer.span("second"):
            pass
    names = [record[0] for record in tracer.spans]
    assert names == ["outer", "inner", "second"]
    assert [record[3] for record in tracer.spans] == [-1, 0, 0]
    assert tracer.spans[2][4] == 5
    totals = tracer.totals()
    count, total, own = totals["outer"]
    assert count == 1 and 0 <= own <= total


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "lookup-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
