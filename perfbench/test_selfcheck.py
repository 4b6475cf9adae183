"""Self-checks of the benchmark's tracer and output checks.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selfcheck.py

The pipeline tests run each workload's stages on shrunken inputs (fewer
frames and pairs), untraced and then traced, and require identical output
digests and every expected span to fire.
"""

import copy
import sys
import threading
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Same scenes, stages and thread counts; fewer frames and pairs.
SHRINK = {
    "general-default": {"trajectory": {"frames": 24},
                        "sampling": {"min_offset": 5, "max_offset": 15}, "n_pairs": 2},
    # orbit steps stay small enough for RANSAC to run on every pair
    "plane-homography": {"trajectory": {"kind": "orbit", "frames": 80, "radius": 2.0,
                                        "height": 1.0}, "n_pairs": 3},
    "hires-line": {"trajectory": {"kind": "line", "frames": 22},
                   "sampling": {"min_offset": 5, "max_offset": 10}, "n_pairs": 2},
}


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.chdir(ROOT)
    shrunk = copy.deepcopy(WORKLOADS)
    for name, overrides in SHRINK.items():
        shrunk[name]["config"].update(overrides)
        shrunk[name]["frames"] = overrides["trajectory"]["frames"]
    monkeypatch.setattr(run, "WORKLOADS", shrunk)
    monkeypatch.setattr(run, "OUT", Path("perfbench") / "out" / "selfcheck")
    return shrunk


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_match_and_every_span_fires(small_workloads, name):
    untraced = run.run_pass(name, seed=7, trace=False)
    traced = run.run_pass(name, seed=7, trace=True)
    stages = [run.stage_id(s) for s in small_workloads[name]["stages"]]
    assert list(traced["stages"]) == stages
    assert all(r["exit_code"] == 0 for r in traced["stages"].values())
    assert traced["digests"] == untraced["digests"]
    assert run.missing_spans(small_workloads[name], traced) == []
    layers = run.per_layer(traced, [untraced], small_workloads[name]["frames"])
    overhead = layers["trace.overhead_s"][0]
    untraced_body = sum(r["body_s"] for r in untraced["stages"].values())
    print(f"{name}: tracing overhead {overhead:+.3f} s on {untraced_body:.3f} s")


def test_install_wraps_every_binding_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import reprojkit.cli  # noqa: F401  (loads every module the CLI binds)

    modules = [m for n, m in sys.modules.items()
               if n == "reprojkit" or n.startswith("reprojkit.")]
    originals = {}
    for _name, module_name, attr, _hook in tracer.TARGETS:
        if "." not in attr:
            originals[module_name, attr] = getattr(sys.modules[module_name], attr)
    originals_by_binding = {(m.__name__, k): v for m in modules
                            for k, v in vars(m).items()
                            if any(v is f for f in originals.values())}
    bound = set(originals_by_binding)
    assert ("reprojkit.frontend", "nms") in bound
    assert ("reprojkit.evaluation.metrics", "reproject_points") in bound
    assert ("reprojkit.evaluation.registration", "describe") in bound

    t = tracer.Tracer("check")
    t.install()
    try:
        for module_name, key in bound:
            value = getattr(sys.modules[module_name], key)
            assert value.__wrapped__ is originals_by_binding[module_name, key]
    finally:
        t.uninstall()
    for module_name, key in bound:
        value = getattr(sys.modules[module_name], key)
        assert value is originals_by_binding[module_name, key]


def test_self_time_counts_overlapping_children_once():
    ms = 1_000_000
    spans = [
        (1, None, "cli.stage", 0, 100 * ms, 1, "s"),
        # two worker threads overlapping from 10 to 70 ms
        (2, 1, "layer.a", 10 * ms, 50 * ms, 2, "s"),
        (3, 1, "layer.a", 30 * ms, 70 * ms, 3, "s"),
        (4, 2, "layer.b", 20 * ms, 30 * ms, 2, "s"),
        # same ids in another stage process must not mix
        (1, None, "cli.other", 0, 10 * ms, 1, "t"),
    ]
    times = tracer.self_times(spans)
    assert times["cli.stage"]["self_s"] == pytest.approx(0.040)
    assert times["cli.stage"]["child_s"] == pytest.approx(0.080)
    assert times["layer.a"]["self_s"] == pytest.approx(0.070)
    assert times["layer.b"]["self_s"] == pytest.approx(0.010)
    assert times["cli.other"]["self_s"] == pytest.approx(0.010)


def test_span_stacks_are_per_thread():
    t = tracer.Tracer("threads")
    barrier = threading.Barrier(2)

    def leaf():
        barrier.wait(timeout=5)

    wrapped_leaf = t._wrap(leaf, "layer.leaf", None)

    def body():
        workers = [threading.Thread(target=wrapped_leaf) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)

    t.span("cli.stage", body)
    root = next(s for s in t.spans if s[2] == "cli.stage")
    leaves = [s for s in t.spans if s[2] == "layer.leaf"]
    assert len(leaves) == 2
    assert all(s[1] == root[0] for s in leaves)
    assert t.counts["layer.leaf.calls"] == 2
