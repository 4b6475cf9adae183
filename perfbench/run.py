"""Pipeline benchmark: run reprojkit's CLI stages as a user does and time them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload general-default --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Every stage runs in a fresh Python process (``stage.py``). A pass runs the
workload's stages once from a clean output directory; untraced passes
repeat until ``--seconds`` have elapsed (at least one), and end-to-end
metrics are medians over passes. ``--trace 1`` adds one traced pass, with
wrappers around every layer (``tracer.py``), and reports per-layer
metrics on the last line instead.

Outputs are hashed after every stage. A digest that differs between the
passes of a run, or from an earlier run of the same code and seed in this
checkout, counts as a failed operation and makes the run incorrect.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the metrics BENCHMARK.json names). The lines
above it list every metric with its unit, every digest and the machine
facts; the full record goes to ``perfbench/out/<workload>.result.json``
and the traced spans to ``perfbench/out/<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import self_times
from workloads import DEFAULT_SEED, WORKLOADS, prepare, stage_id

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = Path("perfbench") / "out"
STAGE_TIMEOUT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Quality guards: metric -> (stage, path into that stage's report results).
QUALITY = {
    "pose_auc10": ("eval_pose", ("auc@10",)),
    "homography_auc3": ("eval_homography", ("auc@3",)),
    "register_rot_acc5": ("eval_register", ("rotation", "acc@5")),
}

# Spans every workload must fire; each stage adds the spans of its layers.
SPANS_ALWAYS = ["scene.render_view", "textures.sample", "dataset.write_dataset",
                "dataset.read_dataset", "dataset.view", "config.load_config",
                "config.load_scene", "geometry.robust_depth_map",
                "geometry.reproject_points",
                "correspondence.cell_correspondence_reprojection"]
SPANS_BY_STAGE = {
    "labels": ["adaptation.pseudo_labels_for_frame", "adaptation.nms",
               "frontend.detect"],
    "eval_pose": ["frontend.detect", "adaptation.nms", "frontend.describe",
                  "frontend.match_mnn", "evaluation.estimate_essential"],
    "eval_homography": ["frontend.detect", "adaptation.nms", "frontend.describe",
                        "frontend.match_mnn", "evaluation.estimate_homography",
                        "evaluation.fit_homography"],
    "eval_register": ["evaluation.register_pair", "evaluation.kabsch_weighted",
                      "evaluation.chamfer_distance", "frontend.describe",
                      "frontend.match_mnn"],
    "losscheck": ["losses.descriptor_loss", "losses.detector_loss"],
}


def stage_env() -> dict:
    """The package is not installed: stages import it from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(PINNED_ENV)
    return env


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "stage_env": {**PINNED_ENV, "PYTHONPATH": "src"}}


def code_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def stage_outputs(out_dir: Path, sid: str) -> list[Path]:
    """Files a stage writes: the shared report, plus its own data products."""
    extra = {"synth": [out_dir / "manifest.json"],
             "pairs": sorted((out_dir / "pairs").glob("*")),
             "labels": [out_dir / "labels.txt"]}.get(sid, [])
    return [out_dir / "report.json", *extra]


def run_stage(argv: list[str], sid: str, trace: bool, work: Path) -> dict:
    """Spawn one stage process; return its timings, exit code and peak RSS."""
    request, result = work / f"{sid}.request.json", work / f"{sid}.result.json"
    request.write_text(json.dumps({"argv": argv, "stage": sid, "trace": trace}))
    result.unlink(missing_ok=True)
    with open(work / f"{sid}.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stage.py"), str(request), str(result)],
            stdout=log, stderr=subprocess.STDOUT, env=stage_env(), cwd=ROOT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(result.read_text()) if result.is_file() else {}
    record.update(wall_s=wall_s, exit_code=proc.returncode,
                  rss_mb=usage.ru_maxrss / 1024.0)
    return record


def run_pass(name: str, seed: int, trace: bool) -> dict:
    """Run every stage of a workload once from a clean output directory."""
    workload = WORKLOADS[name]
    out_dir = OUT / name
    work = OUT / f"{name}.work"
    shutil.rmtree(out_dir, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    stages, digests, reports = {}, {}, {}
    for argv, stage in zip(prepare(workload, out_dir, seed), workload["stages"]):
        sid = stage_id(stage)
        stages[sid] = rec = run_stage(argv, sid, trace, work)
        if rec["exit_code"] != 0:
            print(f"stage {sid} exited {rec['exit_code']}; see {work / sid}.log",
                  file=sys.stderr)
            break
        for p in stage_outputs(out_dir, sid):
            digests[f"{sid}:{p.relative_to(out_dir).as_posix()}"] = \
                hashlib.sha256(p.read_bytes()).hexdigest()
        reports[sid] = json.loads((out_dir / "report.json").read_text())
    return {"stages": stages, "digests": digests, "reports": reports}


def account(workload: dict, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Operations are stage invocations plus evaluated pairs, in every pass.

    Failures are nonzero exits and each eval report's ``results.failed``;
    a report that is not the stage's own, or a failed gradient check, makes
    the run incorrect.
    """
    attempted = failed = 0
    problems = []
    for p in passes:
        for stage in workload["stages"]:
            sid = stage_id(stage)
            attempted += 1
            rec = p["stages"].get(sid)
            if rec is None or rec["exit_code"] != 0:
                failed += 1
                problems.append(f"{sid}: exit {rec and rec['exit_code']}")
                continue
            report = p["reports"][sid]
            if report.get("command") != sid.replace("_", "-"):
                problems.append(f"{sid}: report is from {report.get('command')!r}")
            results = report["results"]
            if sid.startswith("eval_"):
                attempted += results["pairs"]
                failed += results["failed"]
            if sid == "losscheck" and results["passed"] is not True:
                problems.append("losscheck: gradient check failed")
    return attempted, failed, problems


def digest_mismatches(passes: list[dict], store_key: str) -> list[str]:
    """Keys whose digest differs across passes or from the stored run."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    reference = store.get(store_key, passes[0]["digests"])
    bad = {key for p in passes for key in set(reference) | set(p["digests"])
           if p["digests"].get(key) != reference.get(key)}
    if not bad and store_key not in store:
        store[store_key] = reference
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return sorted(bad)


def quality(reports: dict) -> dict:
    out = {}
    for metric, (sid, path) in QUALITY.items():
        if sid in reports:
            value = reports[sid]["results"]
            for key in path:
                value = value[key]
            out[metric] = (value, "fraction")
    return out


def end_to_end(passes: list[dict]) -> dict:
    """Untraced metrics: medians over passes; setup over every stage process."""
    med = statistics.median
    metrics = {
        "setup_s": (med(r["import_s"] for p in passes for r in p["stages"].values()), "s"),
        "pipeline_s": (med(sum(r["wall_s"] for r in p["stages"].values())
                           for p in passes), "s"),
        "peak_rss_mb": (med(max(r["rss_mb"] for r in p["stages"].values())
                            for p in passes), "MB"),
    }
    for sid in passes[0]["stages"]:
        metrics[f"{sid}_s"] = (med(p["stages"][sid]["body_s"] for p in passes), "s")
    metrics.update(quality(passes[0]["reports"]))
    return metrics


def per_layer(traced: dict, untraced: list[dict], frames: int) -> dict:
    """Per-layer metrics of one traced pass; overhead against the untraced."""
    spans = [s for r in traced["stages"].values() for s in r["spans"]]
    counts: dict[str, float] = {}
    for r in traced["stages"].values():
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    metrics = {}
    for name, t in sorted(self_times(spans).items()):
        metrics[f"{name}.self_s"] = (t["self_s"], "s")
        if name.startswith("cli."):
            metrics[f"{name}.parallelism"] = (t["child_s"] / t["total_s"], "ratio")
    for key, value in sorted(counts.items()):
        metrics[key] = (value, "count")
    for name in ("geometry.robust_depth_map", "frontend.detect"):
        if f"{name}.calls" in counts:
            metrics[f"{name}.calls_per_frame"] = (counts[f"{name}.calls"] / frames,
                                                  "1/frame")
    ratios = {"geometry.reproject_points.accept_ratio":
              ("geometry.reproject_points.accepted", "geometry.reproject_points.points")}
    for name in ("evaluation.estimate_homography", "evaluation.estimate_essential"):
        ratios[f"{name}.inlier_ratio"] = (f"{name}.inliers", f"{name}.matches")
    for key, (num, den) in ratios.items():
        if counts.get(den):
            metrics[key] = (counts.get(num, 0) / counts[den], "ratio")
    untraced_body = statistics.median(sum(r["body_s"] for r in p["stages"].values())
                                      for p in untraced)
    traced_body = sum(r["body_s"] for r in traced["stages"].values())
    metrics["trace.overhead_s"] = (traced_body - untraced_body, "s")
    return metrics


def missing_spans(workload: dict, traced: dict) -> list[str]:
    """Expected spans that never fired: a renamed function shows up here."""
    fired = {s[2] for r in traced["stages"].values() for s in r.get("spans", [])}
    sids = [stage_id(s) for s in workload["stages"]]
    wanted = set(SPANS_ALWAYS) | {f"cli.{sid}" for sid in sids}
    for sid in sids:
        wanted.update(SPANS_BY_STAGE.get(sid, []))
    return sorted(wanted - fired)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    passes = [run_pass(name, seed, trace=False)]
    while time.perf_counter() - t0 < seconds:
        passes.append(run_pass(name, seed, trace=False))
    traced = run_pass(name, seed, trace=True) if trace else None
    checked = passes + ([traced] if traced else [])
    attempted, failed, problems = account(workload, checked)
    bad = digest_mismatches(checked, f"{name} seed={seed} code={code_digest()}")
    failed += len(bad)
    problems += [f"digest differs: {k}" for k in bad]
    record = {"workload": name, "seed": seed, "passes": len(passes),
              "machine": machine_facts(), "attempted": attempted, "failed": failed,
              "digests": passes[0]["digests"], "problems": problems}
    if not problems:
        record["end_to_end"] = end_to_end(passes)
        if traced:
            problems += [f"span never fired: {s}" for s in missing_spans(workload, traced)]
            record["per_layer"] = per_layer(traced, passes, workload["frames"])
            spans = [s for r in traced["stages"].values() for s in r["spans"]]
            (OUT / f"{name}.spans.json").write_text(json.dumps(spans))
    record["correct"] = not problems
    return record


def print_record(record: dict):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['passes']} untraced pass(es))")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for section in ("end_to_end", "per_layer"):
        for key, (value, unit) in record.get(section, {}).items():
            print(f"{section:10s} {key:58s} {value:.6g} {unit}")
    for key, digest in record["digests"].items():
        print(f"digest     {key:58s} {digest}")
    for problem in record["problems"]:
        print(f"problem    {problem}")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed")


def declared_metrics(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def summary(record: dict, trace: bool) -> dict:
    """The result line: exactly the metrics BENCHMARK.json declares."""
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    measured = record.get("per_layer" if trace else "end_to_end", {})
    metrics = {k: {"value": measured[k][0], "unit": measured[k][1]}
               for k in declared if k in measured}
    complete = len(metrics) == len(declared)
    return {"correct": record["correct"] and complete,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reprojkit" / "cli.py").is_file():
        print(f"no reprojkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (OUT / f"{name}.result.json").write_text(json.dumps(record, indent=1))
        print_record(record)
        lines.append(summary(record, bool(args.trace)))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({"correct": all(s["correct"] for s in lines),
                          "attempted": sum(s["attempted"] for s in lines),
                          "failed": sum(s["failed"] for s in lines),
                          "metrics": {f"{n}/{k}": v for n, s in zip(names, lines)
                                      for k, v in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
