"""Command-line pipeline: synthesis, correspondences, labels, evaluation.

Every command is a body run in one frame, ``_stage``: load the config and
apply ``--seed``/``--out``, read the dataset in the output directory if the
command has one, run the body, write its results as ``report.json`` and
``report.csv`` there and echo its summary. Exit codes: 0 success, 1
configuration error, 2 data error (no report is written), 3 check failure
(the report is written and its results say ``"passed": false``). Reports
hold no timestamps, so re-runs with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import functools
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


def _write_report(cfg: RunConfig, command: str, results: dict) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "config": config_to_dict(cfg), "results": results}
    (out / "report.json").write_text(canonical_json(payload))
    lines = ["key,value"]
    lines += [f"{k},{v}" for k, v in sorted(_flatten(payload))]
    (out / "report.csv").write_text("\n".join(lines) + "\n")


@click.group()
def main():
    """Synthetic multi-view pipeline and evaluation toolkit."""


def _stage(name, *options, dataset=True):
    """Register the decorated body as the command ``name``, run in the frame.

    ``options`` are the command's own; the four shared ones follow them.
    The body is called as ``body(cfg, data, threads, **own_options)``, with
    ``data`` None unless ``dataset``, and returns ``(command, results,
    summary)``: the report's command name, its results and the text echoed.
    """
    shared = (
        click.option("--config", "-c", "config_path", default=None,
                     type=click.Path(), help="JSON run config; defaults apply without it."),
        click.option("--seed", type=int, default=None, help="Master seed override."),
        click.option("--out", type=click.Path(), default=None,
                     help="Output directory override."),
        click.option("--threads", type=click.IntRange(min=1), default=1,
                     help="Worker threads for synth, pairs and eval; labels and losscheck "
                          "run on one. Results are identical for any value."),
    )

    def register(body):
        @functools.wraps(body)
        def command(config_path, seed, out, threads, **own):
            try:
                cfg = load_config(config_path) if config_path else default_config()
                if seed is not None:
                    try:
                        cfg = replace(cfg, seed=seed)
                    except InvalidSpecError as e:
                        raise ConfigError(f"invalid --seed: {e}") from e
                if out is not None:
                    cfg = replace(cfg, output_dir=str(out))
                data = read_dataset(cfg.output_dir) if dataset else None
                report_name, results, summary = body(cfg, data, threads, **own)
                _write_report(cfg, report_name, results)
                click.echo(summary)
            except ConfigError as e:
                click.echo(f"config error: {e}", err=True)
                sys.exit(1)
            except (ReprojkitError, OSError) as e:
                click.echo(f"data error: {e}", err=True)
                sys.exit(2)
            if not results.get("passed", True):
                click.echo(f"{report_name}: check failed", err=True)
                sys.exit(3)

        for option in reversed((*options, *shared)):
            command = option(command)
        return main.command(name)(command)

    return register


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


@_stage("synth", dataset=False)
def synth(cfg, data, threads):
    """Render the configured trajectory into an RGB-D dataset."""
    spec, cam = load_scene(cfg.scene)
    poses = generate_trajectory(cfg.trajectory)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # frames go to disk in order as they are rendered, never all held at once
        views = _bounded_map(pool, lambda a: render_view(spec, cam, a[1], index=a[0]),
                             enumerate(poses), window=2 * threads)
        write_dataset(views, cfg.output_dir)
    return ("synth", {"frames": len(poses), "seed": cfg.seed,
                      "width": cam.width, "height": cam.height},
            f"rendered {len(poses)} frames (seed {cfg.seed}) -> {cfg.output_dir}")


def _sampled_pairs(cfg: RunConfig, n_frames: int, params=None) -> list[tuple[int, int]]:
    params = params if params is not None else cfg.sampling
    params = replace(params, seed=_derive_seed(cfg.seed, params.seed, 1))
    return PairSampler(n_frames, params).draw(cfg.n_pairs)


@_stage("pairs")
def pairs(cfg, data, threads):
    """Sample frame pairs and write their cell correspondences."""
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
    return ("pairs", {"pairs": len(drawn), "positives": int(sum(counts)),
                      "min_offset": min(offsets), "max_offset": max(offsets)},
            f"wrote {len(drawn)} pair correspondences -> {pair_dir}")


@_stage("labels")
def labels(cfg, data, threads):
    """Aggregate multi-view detections into pseudo-labels per frame."""
    params = replace(cfg.adaptation,
                     seed=_derive_seed(cfg.seed, cfg.adaptation.seed, 2))
    # frames are read lazily, each once, while a label window holds them
    labels_all = adapt.generate_pseudo_labels(data, frontend.detect, params,
                                              cfg.reprojection)
    path = Path(cfg.output_dir) / "labels.txt"
    adapt.write_labels(labels_all, path)
    total = int(sum(len(lab.points) for lab in labels_all))
    return ("labels", {"frames": len(labels_all), "points": total},
            f"labelled {len(labels_all)} frames ({total} points) -> {path}")


def _eval_pairs(data, drawn, ev, one, threads) -> list:
    """``[one(i, j, feats_i, feats_j) for i, j in drawn]``, each drawn frame
    read and described once.

    ``feats_f`` is ``frontend.features`` of ``data.view(f).image`` with the
    ``eval`` detection knobs. Frames are described in index order and a
    pair runs once its later frame ``j`` is described, so pairs run in
    order of ``j``; their results come back in drawn order. A frame's
    features are dropped when its last pair has been submitted.
    Description and pairs share one pool of ``threads`` workers, each with
    at most ``2 * threads`` calls in flight, so at most ``max_offset + 1 +
    6 * threads`` frames' features are alive at once (``max_offset`` is
    the largest drawn ``j - i``): the frames in ``[j - max_offset, j]``
    that still wait for a pair, one per description in flight and two per
    pair in flight.
    """
    knobs = dict(k=ev.detect_k, nms_radius=ev.nms_radius,
                 threshold=ev.detect_threshold, dim=ev.descriptor_dim)
    order = sorted(range(len(drawn)), key=lambda p: (drawn[p][1], p))
    last = {f: n for n, p in enumerate(order) for f in drawn[p]}
    frames = sorted(last)
    window = 2 * threads

    def describe_frame(f):
        # the full view, so a corrupt image or depth file is a data error
        return frontend.features(data.view(f).image, **knobs)

    def jobs(described):
        held, latest = {}, -1
        for n, p in enumerate(order):
            i, j = drawn[p]
            while latest < j:
                latest, feats = next(described)
                held[latest] = feats
            yield i, j, held[i], held[j]
            for f in (i, j):
                if last[f] == n:
                    del held[f]

    rows = [None] * len(drawn)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        described = zip(frames, _bounded_map(pool, describe_frame, frames, window))
        done = _bounded_map(pool, lambda job: one(*job), jobs(described), window)
        for p, row in zip(order, done):
            rows[p] = row
    return rows


def _matched_points(feats1, feats2, ev):
    (pts1, d1), (pts2, d2) = feats1, feats2
    m = frontend.match_mnn(d1, d2, ratio=ev.match_ratio)
    return pts1[m.indices1], pts2[m.indices2]


def _plane_homography(plane: Plane, pose1, pose2, cam) -> np.ndarray:
    """Analytic image-to-image homography induced by a world plane."""
    R, t = relative_pose(pose1, pose2)
    n_w = np.asarray(plane.normal)
    n1 = pose1.rotation.T @ n_w
    delta = float(n_w @ (np.asarray(plane.origin) - pose1.translation))
    if abs(delta) < 1e-9:
        raise EstimationFailedError("camera center lies on the scene plane")
    K = cam.matrix
    H = K @ (R + np.outer(t, n1) / delta) @ np.linalg.inv(K)
    return H / H[2, 2]


def _eval_homography(cfg: RunConfig, data, drawn, threads) -> dict:
    spec, _ = load_scene(cfg.scene)
    if len(spec.primitives) != 1 or not isinstance(spec.primitives[0], Plane):
        raise ConfigError("homography evaluation needs a plane-only scene")
    plane = spec.primitives[0]
    ev = cfg.eval
    cam = data.cam
    dims = (cam.height, cam.width)

    def one(i, j, feats1, feats2):
        H_gt = _plane_homography(plane, data.frames[i].pose, data.frames[j].pose, cam)
        pts1, pts2 = feats1[0], feats2[0]
        mpts1, mpts2 = _matched_points(feats1, feats2, ev)
        gt = HomographyMap(H_gt, dims, dims)
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

    rows = _eval_pairs(data, drawn, ev, one, threads)
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

    def one(i, j, feats1, feats2):
        R_gt, t_gt = relative_pose(data.frames[i].pose, data.frames[j].pose)
        mpts1, mpts2 = _matched_points(feats1, feats2, ev)
        try:
            est = estimate_essential(mpts1, mpts2, data.cam, data.cam,
                                     threshold_px=ev.essential_threshold_px,
                                     iterations=ev.ransac_iterations,
                                     rng=_derive_seed(cfg.seed, 4, i, j))
        except EstimationFailedError:
            est = None
        return PosePairRecord(est, R_gt, t_gt)

    records = _eval_pairs(data, drawn, ev, one, threads)
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


@_stage("eval", click.option("--task", type=click.Choice(sorted(_EVAL_TASKS)), required=True))
def eval_cmd(cfg, data, threads, task):
    """Run one evaluation protocol over sampled frame pairs."""
    eval_sampling = PairSamplingParams(min_offset=cfg.eval.pair_min_offset,
                                       max_offset=cfg.eval.pair_max_offset)
    drawn = _sampled_pairs(cfg, len(data), eval_sampling)
    # pose and homography describe each drawn frame once; register reads its
    # two views in each pair's worker, so its memory follows pairs in flight
    results = _EVAL_TASKS[task](cfg, data, drawn, threads)
    return f"eval-{task}", results, f"eval {task}: {len(drawn)} pairs, {results['failed']} failed"


@_stage("losscheck", click.option("--instances", type=click.IntRange(min=1), default=25,
                                  help="Random instances per loss."), dataset=False)
def losscheck(cfg, data, threads, instances):
    """Verify analytic loss gradients against finite differences."""
    rng = np.random.default_rng(_derive_seed(cfg.seed, 5))
    desc_err = max(losses.descriptor_fd_error(rng, cfg.loss) for _ in range(instances))
    det_err = max(losses.detector_fd_error(rng) for _ in range(instances))
    tol = 1e-3
    return ("losscheck", {"instances": instances, "tolerance": tol,
                          "descriptor_max_rel_error": desc_err,
                          "detector_max_rel_error": det_err,
                          "passed": desc_err <= tol and det_err <= tol},
            f"descriptor grad max rel error: {desc_err:.3e}\n"
            f"detector grad max rel error: {det_err:.3e}")


if __name__ == "__main__":
    main()
