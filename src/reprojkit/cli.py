"""Command-line pipeline: synthesis, correspondences, labels, evaluation.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 check failure. Reports are written as ``report.json`` and
``report.csv`` in the output directory without timestamps, so re-runs
with the same config and seed are byte-identical.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import adaptation as adapt
from . import frontend, losses
from .config import (
    RunConfig,
    canonical_json,
    config_to_dict,
    default_config,
    load_config,
    load_scene,
)
from .correspondence import (
    PairSampler,
    PairSamplingParams,
    cell_correspondence_reprojection,
    write_cell_correspondence,
)
from .dataset import read_dataset, write_dataset
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    EstimationFailedError,
    InvalidSpecError,
    ReprojkitError,
)
from .evaluation import (
    HomographyMap,
    PosePairRecord,
    corner_error,
    estimate_essential,
    estimate_homography,
    matching_score,
    mma,
    pose_auc,
    pose_split_eval,
    register_pair,
    repeatability,
)
from .geometry import relative_pose
from .scene import Plane, generate_trajectory, render_view


def _derive_seed(*parts) -> int:
    """One deterministic child seed from the master seed and a stream tag."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _flatten(data, prefix=""):
    rows = []
    if isinstance(data, dict):
        for k in data:
            rows.extend(_flatten(data[k], f"{prefix}{k}."))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], "" if data is None else str(data)))
    return rows


def _write_report(cfg: RunConfig, command: str, results: dict) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "config": config_to_dict(cfg), "results": results}
    (out / "report.json").write_text(canonical_json(payload))
    lines = ["key,value"]
    lines += [f"{k},{v}" for k, v in sorted(_flatten(payload))]
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    return out / "report.json"


def _load_run_config(config_path, seed, out) -> RunConfig:
    cfg = load_config(config_path) if config_path else default_config()
    if seed is not None:
        try:
            cfg = replace(cfg, seed=seed)
        except InvalidSpecError as e:
            raise ConfigError(f"invalid --seed: {e}") from e
    if out is not None:
        cfg = replace(cfg, output_dir=str(out))
    return cfg


def _common_options(f):
    @click.option("--config", "-c", "config_path", default=None,
                  type=click.Path(), help="JSON run config; defaults apply without it.")
    @click.option("--seed", type=int, default=None, help="Master seed override.")
    @click.option("--out", type=click.Path(), default=None,
                  help="Output directory override.")
    @click.option("--threads", type=click.IntRange(min=1), default=1,
                  help="Worker threads for synth, pairs and eval; labels and losscheck "
                       "run on one. Results are identical for any value.")
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ConfigError as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(1)
        except (ReprojkitError, OSError) as e:
            click.echo(f"data error: {e}", err=True)
            sys.exit(2)

    return wrapper


def _bounded_map(pool, fn, items, window: int):
    """``pool.map(fn, items)`` that submits at most ``window`` calls ahead.

    Results come back in input order. A call is submitted only after the
    result ``window`` places before it has been handed out, so at most
    ``window`` results exist that the consumer has not yet taken, however
    many items there are.
    """
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # a failed call or an abandoned consumer starts no more work
        for future in pending:
            future.cancel()


@click.group()
def main():
    """Synthetic multi-view pipeline and evaluation toolkit."""


@main.command()
@_common_options
def synth(config_path, seed, out, threads):
    """Render the configured trajectory into an RGB-D dataset."""
    cfg = _load_run_config(config_path, seed, out)
    spec, cam = load_scene(cfg.scene)
    poses = generate_trajectory(cfg.trajectory)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # frames go to disk in order as they are rendered, never all held at once
        views = _bounded_map(pool, lambda a: render_view(spec, cam, a[1], index=a[0]),
                             enumerate(poses), window=2 * threads)
        write_dataset(views, cfg.output_dir)
    _write_report(cfg, "synth", {"frames": len(poses), "seed": cfg.seed,
                                 "width": cam.width, "height": cam.height})
    click.echo(f"rendered {len(poses)} frames (seed {cfg.seed}) -> {cfg.output_dir}")


def _sampled_pairs(cfg: RunConfig, n_frames: int, params=None) -> list[tuple[int, int]]:
    params = params if params is not None else cfg.sampling
    params = replace(params, seed=_derive_seed(cfg.seed, params.seed, 1))
    return PairSampler(n_frames, params).draw(cfg.n_pairs)


@main.command()
@_common_options
def pairs(config_path, seed, out, threads):
    """Sample frame pairs and write their cell correspondences."""
    cfg = _load_run_config(config_path, seed, out)
    data = read_dataset(cfg.output_dir)
    drawn = _sampled_pairs(cfg, len(data))
    pair_dir = Path(cfg.output_dir) / "pairs"
    pair_dir.mkdir(parents=True, exist_ok=True)

    def build(ij):
        i, j = ij
        cc = cell_correspondence_reprojection(
            data.view(i), data.view(j), cfg.reprojection,
            cell=cfg.eval.cell, eps=cfg.eval.cell_eps_reprojection)
        path = pair_dir / f"pair_{i:05d}_{j:05d}.txt"
        write_cell_correspondence(cc, path)
        return len(cc.positives)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        counts = list(pool.map(build, drawn))
    listing = "".join(f"{i} {j}\n" for i, j in drawn)
    (pair_dir / "list.txt").write_text(listing)
    offsets = [j - i for i, j in drawn]
    _write_report(cfg, "pairs", {
        "pairs": len(drawn), "positives": int(sum(counts)),
        "min_offset": min(offsets), "max_offset": max(offsets)})
    click.echo(f"wrote {len(drawn)} pair correspondences -> {pair_dir}")


@main.command()
@_common_options
def labels(config_path, seed, out, threads):
    """Aggregate multi-view detections into pseudo-labels per frame."""
    cfg = _load_run_config(config_path, seed, out)
    data = read_dataset(cfg.output_dir)
    params = replace(cfg.adaptation,
                     seed=_derive_seed(cfg.seed, cfg.adaptation.seed, 2))
    # frames are read lazily, each once, while a label window holds them
    labels_all = adapt.generate_pseudo_labels(data, frontend.detect, params,
                                              cfg.reprojection)
    path = Path(cfg.output_dir) / "labels.txt"
    adapt.write_labels(labels_all, path)
    total = int(sum(len(lab.points) for lab in labels_all))
    _write_report(cfg, "labels", {"frames": len(labels_all), "points": total})
    click.echo(f"labelled {len(labels_all)} frames ({total} points) -> {path}")


def _matched_points(view1, view2, ev):
    knobs = dict(k=ev.detect_k, nms_radius=ev.nms_radius,
                 threshold=ev.detect_threshold, dim=ev.descriptor_dim)
    pts1, d1 = frontend.features(view1.image, **knobs)
    pts2, d2 = frontend.features(view2.image, **knobs)
    m = frontend.match_mnn(d1, d2, ratio=ev.match_ratio)
    return pts1, pts2, pts1[m.indices1], pts2[m.indices2]


def _plane_homography(plane: Plane, view1, view2) -> np.ndarray:
    """Analytic image-to-image homography induced by a world plane."""
    R, t = relative_pose(view1.pose, view2.pose)
    n_w = np.asarray(plane.normal)
    n1 = view1.pose.rotation.T @ n_w
    delta = float(n_w @ (np.asarray(plane.origin) - view1.pose.translation))
    if abs(delta) < 1e-9:
        raise EstimationFailedError("camera center lies on the scene plane")
    K = view1.cam.matrix
    H = view2.cam.matrix @ (R + np.outer(t, n1) / delta) @ np.linalg.inv(K)
    return H / H[2, 2]


def _eval_homography(cfg: RunConfig, data, drawn, threads) -> dict:
    spec, _ = load_scene(cfg.scene)
    if len(spec.primitives) != 1 or not isinstance(spec.primitives[0], Plane):
        raise ConfigError("homography evaluation needs a plane-only scene")
    plane = spec.primitives[0]
    ev = cfg.eval

    def one(ij):
        i, j = ij
        v1, v2 = data.view(i), data.view(j)
        H_gt = _plane_homography(plane, v1, v2)
        pts1, pts2, mpts1, mpts2 = _matched_points(v1, v2, ev)
        dims = (v1.cam.height, v1.cam.width)
        gt = HomographyMap(H_gt, dims, (v2.cam.height, v2.cam.width))
        try:
            est = estimate_homography(mpts1, mpts2,
                                      threshold=ev.homography_threshold_px,
                                      iterations=ev.ransac_iterations,
                                      rng=_derive_seed(cfg.seed, 3, i, j))
            err = corner_error(est.H, H_gt, dims)
        except EstimationFailedError:
            err = np.inf
        rep = repeatability(pts1, pts2, gt, eps=ev.pixel_eps)
        acc = mma(mpts1, mpts2, gt, eps=ev.pixel_eps) if len(mpts1) else None
        ms = matching_score(mpts1, mpts2, max(min(len(pts1), len(pts2)), 1),
                            gt, eps=ev.pixel_eps)
        return err, rep, acc, ms

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(one, drawn))
    errors = np.array([r[0] for r in rows])
    results = {"pairs": len(rows), "failed": int(np.isinf(errors).sum())}
    for t in ev.homography_auc_px:
        results[f"acc@{t:g}"] = float((errors <= t).mean())
    aucs = pose_auc(errors, thresholds=ev.homography_auc_px)
    for t in ev.homography_auc_px:
        results[f"auc@{t:g}"] = aucs[t]
    for key, idx in (("repeatability", 1), ("mma", 2), ("matching_score", 3)):
        vals = [r[idx] for r in rows if r[idx] is not None]
        results[key] = float(np.mean(vals)) if vals else None
    return results


def _eval_pose(cfg: RunConfig, data, drawn, threads) -> dict:
    ev = cfg.eval

    def one(ij):
        i, j = ij
        v1, v2 = data.view(i), data.view(j)
        R_gt, t_gt = relative_pose(v1.pose, v2.pose)
        _, _, mpts1, mpts2 = _matched_points(v1, v2, ev)
        try:
            est = estimate_essential(mpts1, mpts2, v1.cam, v2.cam,
                                     threshold_px=ev.essential_threshold_px,
                                     iterations=ev.ransac_iterations,
                                     rng=_derive_seed(cfg.seed, 4, i, j))
        except EstimationFailedError:
            est = None
        return PosePairRecord(est, R_gt, t_gt)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        records = list(pool.map(one, drawn))
    split = pose_split_eval(records, split=ev.translation_split,
                            thresholds=ev.pose_auc_deg)

    def render(rep):
        out = {"count": rep["count"], "rotation_only": rep["rotation_only"]}
        for t, v in rep.get("auc", {}).items():
            out[f"auc@{t:g}"] = v
        return out

    results = {"pairs": len(records),
               "failed": sum(r.estimate is None for r in records),
               "split": split["split"],
               "low_translation": render(split["low_translation"]),
               "general": render(split["general"])}
    for t, v in split["auc"].items():
        results[f"auc@{t:g}"] = v
    return results


def _eval_register(cfg: RunConfig, data, drawn, threads) -> dict:
    ev = cfg.eval

    def one(ij):
        i, j = ij
        v1, v2 = data.view(i), data.view(j)  # a bad frame is a data error, not a failed pair
        try:
            res = register_pair(v1, v2, ratio=ev.match_ratio, dim=ev.descriptor_dim)
            return res.rotation_error_deg, res.translation_error_cm, res.chamfer_cm
        except (EstimationFailedError, DegenerateConfigurationError):
            return None

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(one, drawn))
    ok = [r for r in rows if r is not None]
    results = {"pairs": len(rows), "failed": len(rows) - len(ok)}
    families = (("rotation", ev.rotation_acc_deg, 0),
                ("translation", ev.translation_acc_cm, 1),
                ("chamfer", ev.chamfer_acc_cm, 2))
    for name, thresholds, idx in families:
        vals = np.array([r[idx] for r in ok])
        block = {}
        for t in thresholds:
            hit = float((vals <= t).sum() / len(rows)) if len(rows) else 0.0
            block[f"acc@{t:g}"] = hit
        block["mean"] = float(vals.mean()) if len(ok) else None
        block["median"] = float(np.median(vals)) if len(ok) else None
        results[name] = block
    return results


_EVAL_TASKS = {"homography": _eval_homography, "pose": _eval_pose,
               "register": _eval_register}


@main.command("eval")
@click.option("--task", type=click.Choice(sorted(_EVAL_TASKS)), required=True)
@_common_options
def eval_cmd(task, config_path, seed, out, threads):
    """Run one evaluation protocol over sampled frame pairs."""
    cfg = _load_run_config(config_path, seed, out)
    data = read_dataset(cfg.output_dir)
    eval_sampling = PairSamplingParams(min_offset=cfg.eval.pair_min_offset,
                                       max_offset=cfg.eval.pair_max_offset)
    drawn = _sampled_pairs(cfg, len(data), eval_sampling)
    # each pair's worker reads its two views, so memory follows pairs in flight
    results = _EVAL_TASKS[task](cfg, data, drawn, threads)
    _write_report(cfg, f"eval-{task}", results)
    click.echo(f"eval {task}: {len(drawn)} pairs, {results['failed']} failed")


@main.command()
@click.option("--instances", type=click.IntRange(min=1), default=25,
              help="Random instances per loss.")
@_common_options
def losscheck(instances, config_path, seed, out, threads):
    """Verify analytic loss gradients against finite differences."""
    cfg = _load_run_config(config_path, seed, out)
    rng = np.random.default_rng(_derive_seed(cfg.seed, 5))
    desc_err = max(losses.descriptor_fd_error(rng, cfg.loss) for _ in range(instances))
    det_err = max(losses.detector_fd_error(rng) for _ in range(instances))
    tol = 1e-3
    passed = desc_err <= tol and det_err <= tol
    _write_report(cfg, "losscheck", {
        "instances": instances, "tolerance": tol,
        "descriptor_max_rel_error": desc_err,
        "detector_max_rel_error": det_err, "passed": passed})
    click.echo(f"descriptor grad max rel error: {desc_err:.3e}")
    click.echo(f"detector grad max rel error: {det_err:.3e}")
    if not passed:
        click.echo("gradient check failed", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
