"""Command-line pipeline: ingest -> (rasterize | cluster | sample) -> fuse -> eval.

Every subcommand is a plain file-in/file-out stage with deterministic output:
rerunning with the same flags and seed produces byte-identical files.
Exit codes: 0 success, 2 usage/input error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import fusion, ingest, metrics, raster, selection, tensorio
from .core import ContractError, GridSpec, Trajectory, TrajectorySet

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

GRAD_CHECK_TOL = 1e-4


def _dump_json(path, obj) -> None:
    # NaN and infinity are not JSON: refusing them (ValueError, exit 2) keeps
    # every report and sidecar loadable by a strict reader
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")


# argparse types: a bad value exits 2 before any file is written, naming its flag
def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _floats(text: str, counts, form: str) -> tuple:
    try:
        parts = tuple(float(v) for v in text.split(","))
        if len(parts) in counts:
            return parts
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")


def _roi(text: str) -> tuple:
    return _floats(text, (4,), "x0,x1,y0,y1")


def _cell(text: str) -> tuple:
    parts = _floats(text, (1, 2), "DX or DX,DY")
    return parts if len(parts) == 2 else parts * 2


def _add_grid_args(p) -> None:
    p.add_argument("--roi", type=_roi, default="-50,50,-25,25",
                   help="x0,x1,y0,y1 in meters")
    p.add_argument("--cell", type=_cell, default="0.5",
                   help="cell size DX or DX,DY in meters")


def _read_text(path) -> str:
    """A UTF-8 text input; a byte that does not decode names the file and line."""
    try:
        # not read_text: its universal newlines would end a record at a lone "\r"
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:  # e.object holds the whole file's bytes
        raise ingest.ParseError(e.object.count(b"\n", 0, e.start) + 1,
                                f"{path}: byte 0x{e.object[e.start]:02x} is not "
                                f"UTF-8 ({e.reason})") from None


def _load_set(path, fmt="jsonl") -> TrajectorySet:
    return ingest.parse_trajectories(_read_text(path), fmt)


def _write_set(path, ts: TrajectorySet) -> None:
    Path(path).write_text(ingest.serialize_trajectories(ts), encoding="utf-8")


def _write_report(args, doc, ts: TrajectorySet, tokens) -> None:
    """--out, and with --queries-out the tokens under the input's header."""
    _dump_json(args.out, doc)
    if args.queries_out:
        _write_set(args.queries_out, replace(ts, trajectories=tuple(tokens)))


def cmd_ingest(args) -> int:
    ts = _load_set(args.input, args.format)
    m_before = len(ts)
    ts = ingest.filter_by_length(ts, args.min_length)
    ts = ingest.smooth_set(ts, args.smooth_window)
    retained = ingest.retention_check(ts)
    _write_set(args.out, ts)
    print(f"ingested {m_before} trajectories, kept {len(ts)} "
          f"(min_length={args.min_length}, smooth_window={args.smooth_window})")
    print(f"retention_check: {'pass' if retained else 'fail'} "
          f"(m={len(ts)}, centerlines={ts.centerline_count})")
    return EXIT_OK


def cmd_rasterize(args) -> int:
    spec = GridSpec(*args.roi, *args.cell)
    ts = _load_set(args.input)
    if len(ts) == 0:
        print("warning: no trajectories; writing all-zero heatmap", file=sys.stderr)
    heatmap = raster.rasterize_trajectories(ts, spec)
    tensorio.save_heatmap(args.out, heatmap)
    if args.png:
        tensorio.write_pgm(args.png, heatmap.density)
    print(f"heatmap H={spec.height} W={spec.width} n_max={heatmap.n_max} "
          f"hit_cells={int((heatmap.count > 0).sum())}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    ts = _load_set(args.input)
    result = selection.kmeans(ts, args.k, r=args.resample, max_iter=args.max_iter,
                              tol=args.tol, seed=args.seed)
    doc = {
        "k": args.k,
        "resample": args.resample,
        "seed": args.seed,
        "assignment": [int(a) for a in result.assignment],
        "inertia": result.inertia,
        "inertia_trace": result.inertia_trace,
        "iterations": result.iterations,
        "centers": [{"points": c.tolist()} for c in result.centers],
    }
    _write_report(args, doc, ts, (Trajectory(f"cluster{j}", c)
                                  for j, c in enumerate(result.centers)))
    print(f"kmeans k={args.k} iterations={result.iterations} "
          f"inertia={result.inertia:.6g}")
    return EXIT_OK


def cmd_sample(args) -> int:
    ts = _load_set(args.input)
    result = selection.fps(ts, args.count, seed=args.seed,
                           start_index=args.start_index)
    picked = [ts.trajectories[i] for i in result.indices]
    points = selection.resample_all(picked, args.resample)  # refused before any write
    doc = {
        "count": args.count,
        "seed": args.seed,
        "indices": result.indices,
        "min_dists": result.min_dists,
    }
    _write_report(args, doc, ts, (replace(t, points=p) for t, p in zip(picked, points)))
    print(f"fps count={args.count} start={result.indices[0]}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    bev = tensorio.load_feature_map(args.bev)
    prior = tensorio.load_feature_map(args.prior)
    fused, stats = fusion.fuse_pipeline(bev, prior, tensorio.load_params(args.params))
    tensorio.save_feature_map(args.out, fused)
    sidecar = dict(stats)
    failed = False
    if args.check_grads:
        errs = {}  # adjoint output -> worst relative error over both seeds
        for seed in (args.seed, args.seed + 1):
            for name, err in fusion.finite_difference_check(seed).items():
                errs[name] = max(errs.get(name, 0.0), err)
        worst = max(errs, key=errs.get)
        sidecar["grad_check_rel_err"] = errs
        sidecar["grad_check_max_rel_err"] = errs[worst]
        print(f"gradient check: max relative error {errs[worst]:.3e} ({worst})")
        failed = errs[worst] > GRAD_CHECK_TOL
    _dump_json(str(args.out) + ".json", sidecar)
    if failed:
        print(f"gradient check failed: {worst} relative error "
              f"{errs[worst]:.3e} > {GRAD_CHECK_TOL}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"fused C={fused.channels} mean_alpha={stats['mean_alpha']:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = GridSpec(*args.roi, *args.cell)
    pred = _load_set(args.pred).trajectories
    if not pred:
        raise ContractError(f"--pred {args.pred} holds no trajectories to score")
    gt = ingest.parse_centerlines(_read_text(args.gt))
    if not gt:
        raise ContractError(f"--gt {args.gt} holds no centerlines to score against")
    report = {
        "iou": metrics.prior_iou(pred, gt, spec, args.width),
        "ae_dist": metrics.ae_dist(
            metrics.sample_polyline_points(pred, args.sample_step),
            metrics.sample_polyline_points(gt, args.sample_step)),
        "width_m": args.width,
    }
    pred_types = [t.label for t in pred]
    gt_types = [p.label for p in gt]
    # records pair by position; an unlabelled record counts as None
    if (len(pred_types) == len(gt_types)
            and any(x is not None for x in pred_types)
            and any(x is not None for x in gt_types)):
        report["ae_type"] = metrics.ae_type(pred_types, gt_types)
    _dump_json(args.out, report)
    print(f"iou={report['iou']:.4f} ae_dist={report['ae_dist']:.4f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    ts, gt = ingest.synth_scene(args.seed, args.lanes, args.per_lane, args.noise)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_set(out_dir / "trajectories.jsonl", ts)
    (out_dir / "centerlines.jsonl").write_text(
        ingest.serialize_centerlines(gt), encoding="utf-8")
    print(f"synth scene: {len(ts)} trajectories, {len(gt)} centerlines "
          f"-> {out_dir}")
    return EXIT_OK


def cmd_gen_params(args) -> int:
    params = fusion.random_params(args.seed, args.channels, args.hidden)
    tensorio.save_params(args.out, params)
    print(f"params: channels={args.channels} hidden={args.hidden} seed={args.seed}")
    return EXIT_OK


def _ingest_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--min-length", type=float, default=5.0)
    p.add_argument("--smooth-window", type=int, default=5)
    p.add_argument("--out", required=True)


def _rasterize_args(p) -> None:
    p.add_argument("--input", required=True)
    _add_grid_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--png", default=None, help="optional grayscale density image")


def _cluster_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--resample", type=int, default=selection.DEFAULT_RESAMPLE)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--queries-out", default=None,
                   help="also write the centers as trajectory JSONL, ids cluster<j>")


def _sample_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--start-index", type=int, default=None)
    p.add_argument("--resample", type=int, default=selection.DEFAULT_RESAMPLE)
    p.add_argument("--out", required=True)
    p.add_argument("--queries-out", default=None,
                   help="also write the picks, resampled, as trajectory JSONL")


def _fuse_args(p) -> None:
    p.add_argument("--bev", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--check-grads", action="store_true",
                   help="verify analytic gradients against finite differences")


def _eval_args(p) -> None:
    p.add_argument("--pred", required=True, help="trajectory JSONL")
    p.add_argument("--gt", required=True, help="centerline JSONL")
    _add_grid_args(p)
    p.add_argument("--width", type=float, default=metrics.DEFAULT_LINE_WIDTH)
    p.add_argument("--sample-step", type=float, default=metrics.DEFAULT_SAMPLE_STEP)
    p.add_argument("--out", required=True)


def _synth_args(p) -> None:
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--lanes", type=int, default=3)
    p.add_argument("--per-lane", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)


def _gen_params_args(p) -> None:
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--out", required=True)


# subcommand -> (help, argument builder, handler), in the order of the usage line
_COMMANDS = {
    "ingest": ("parse, filter and smooth trajectories", _ingest_args, cmd_ingest),
    "rasterize": ("build the density/direction heatmap", _rasterize_args,
                  cmd_rasterize),
    "cluster": ("k-means representative trajectories", _cluster_args, cmd_cluster),
    "sample": ("Frechet farthest-point sampling", _sample_args, cmd_sample),
    "fuse": ("align and fuse a prior with a BEV feature map", _fuse_args, cmd_fuse),
    "eval": ("score a prior against ground-truth centerlines", _eval_args, cmd_eval),
    "synth": ("generate a synthetic scene", _synth_args, cmd_synth),
    "gen-params": ("write seeded random fusion parameters", _gen_params_args,
                   cmd_gen_params),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand or, when `command` names one,
    with that one alone.

    A single subcommand parses its arguments and prints its help and errors
    exactly as the full parser does, at a fraction of the cost of building
    all eight; the usage line still lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="trajprior",
        description="Trajectory map-prior pipeline: ingest, rasterize, "
                    "cluster/sample, fuse, evaluate.")
    if command in _COMMANDS:
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # ParseError and ContractError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
