"""Tests of the benchmark itself: span arithmetic, seeding, ground truth.

Run with: python3 -m pytest bench
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from plenax import cli, configio, presets  # noqa: E402


def span(name, start, end, parent=None, **counters):
    return spans.Span(name, start, end, parent, dict(counters))


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        trace = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("a.inner", 2.0, 3.0, parent=1),
            span("b", 5.0, 9.0, parent=0),
        ]
        assert spans.self_times_ms(trace) == pytest.approx([3e3, 2e3, 1e3, 4e3])

    def test_self_times_sum_to_root_duration(self):
        trace = [
            span("root", 0.0, 1.0),
            span("x", 0.1, 0.5, parent=0),
            span("y", 0.2, 0.3, parent=1),
            span("y", 0.35, 0.45, parent=1),
            span("x", 0.6, 0.9, parent=0),
        ]
        assert sum(spans.self_times_ms(trace)) == pytest.approx(1e3)

    def test_summarize_merges_repeated_names(self):
        trace = [
            span("root", 0.0, 1.0),
            span("io", 0.0, 0.25, parent=0, mb=2.0, alloc_peak_mb=5.0),
            span("io", 0.5, 0.75, parent=0, mb=3.0, alloc_peak_mb=4.0),
        ]
        out = spans.summarize(trace)
        assert out["root.ms"] == pytest.approx(500.0)
        assert out["io.ms"] == pytest.approx(500.0)
        assert out["io.calls"] == 2
        assert out["io.mb"] == pytest.approx(5.0)
        assert out["io.alloc_peak_mb"] == pytest.approx(5.0)

    def test_tracer_records_parents(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.take()
        assert (outer.parent, inner.parent) == (None, 0)
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert tracer.spans == []


def test_instrument_catches_calls_through_other_modules_and_restores():
    original = configio.load_config
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.load_config is not original
        presets.load_fixture("f197_mla2_inf")
    names = [s.name for s in tracer.take()]
    assert names == ["configio.load_config"]
    assert configio.load_config is original
    assert cli.load_config is original
    assert presets.load_config is original


def conftest_checker_depth() -> float:
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "CHECKER_DEPTH_MM":
            return ast.literal_eval(node.value)
    raise AssertionError("CHECKER_DEPTH_MM not found in tests/conftest.py")


def test_truth_helper_gives_two_pixels_at_the_test_checker_depth():
    depth = conftest_checker_depth()
    assert inputs.truth_disparity(inputs.F197, 4, depth) == pytest.approx(2.0, abs=1e-9)
    assert inputs.depth_for_disparity(inputs.F197, 4, 2.0) == pytest.approx(depth, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 12345])
def test_seeded_truths_lie_inside_the_search_range(seed):
    for scene in (inputs.f197_scene(seed), inputs.lytro_scene(seed)):
        rig = scene.rig
        for plane in scene.planes:
            d = inputs.truth_disparity(rig, rig.gap, plane.depth_mm)
            # Sub-pixel refinement needs the neighbours of the winning shift.
            assert 0 < d < rig.max_disparity - 0.5


def test_same_seed_same_inputs():
    a, b, c = inputs.f197_scene(7), inputs.f197_scene(7), inputs.f197_scene(8)
    assert [p.line for p in a.planes] == [p.line for p in b.planes]
    assert (a.tile == b.tile).all()
    assert [p.line for p in a.planes] != [p.line for p in c.planes]
    assert inputs.predict_disparities(7) == inputs.predict_disparities(7)
    assert inputs.predict_disparities(7) != inputs.predict_disparities(8)


@pytest.mark.parametrize("name", ["render_f197", "verify_fixtures", "cli_session"])
def test_same_seed_same_output_hashes(tmp_path, name):
    hashes = []
    for k in range(2):
        directory = tmp_path / f"run{k}"
        directory.mkdir()
        workload = workloads.WORKLOADS[name](ROOT, 3)
        workload.setup(directory)
        workload.iterate()
        hashes.append(workload.check())
    assert hashes[0] == hashes[1]
    assert hashes[0]


def test_gate_rejects_a_missing_output(tmp_path):
    workload = workloads.WORKLOADS["render_f197"](ROOT, 3)
    workload.setup(tmp_path)
    workload.clear_outputs()
    with pytest.raises(workloads.Failure, match="missing"):
        workload.check()


def run_bench(cwd: Path, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_untimed_run_prints_every_declared_metric(trace, kind):
    proc = run_bench(
        ROOT, "--workload", "match_lytro", "--seed", "1", "--seconds", "0", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in declared[kind]]
    assert all(m["unit"] for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "render_f197", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
