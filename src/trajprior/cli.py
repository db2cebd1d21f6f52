"""Command-line pipeline: ingest -> (rasterize | cluster | sample) -> fuse -> eval.

Every subcommand is a plain file-in/file-out stage with deterministic output:
rerunning with the same flags and seed produces byte-identical files.
Exit codes: 0 success, 2 usage/input error, 3 verification failure.
"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from . import fusion, ingest, metrics, raster, selection, tensorio
from .core import ContractError, GridSpec, Trajectory, TrajectorySet, encode_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

GRAD_CHECK_TOL = 1e-4


def _dump_json(path, obj) -> None:
    Path(path).write_text(encode_json(obj) + "\n", encoding="utf-8")


class _UsageError(Exception):
    """A command line that names no command, flag or value the command takes."""


# flag converters: a bad value exits 2 before any file is written, naming its flag
def _seed(text: str) -> int:
    if not (text.isdecimal() and int(text) < 2**64):
        raise _UsageError(f"expected an integer from 0 to 2**64 - 1, got {text!r}")
    return int(text)


def _floats(text: str, counts, form: str) -> tuple:
    try:
        parts = tuple(float(v) for v in text.split(","))
        if len(parts) in counts:
            return parts
    except ValueError:
        pass
    raise _UsageError(f"expected {form}, got {text!r}")


def _roi(text: str) -> tuple:
    return _floats(text, (4,), "x0,x1,y0,y1")


def _cell(text: str) -> tuple:
    parts = _floats(text, (1, 2), "DX or DX,DY")
    return parts if len(parts) == 2 else parts * 2


def _load_set(path, parse=None) -> TrajectorySet:
    """``parse`` of a UTF-8 text input; its errors name the file and the line."""
    parse = parse or ingest.parse_trajectories  # looked up per call, wrappers included
    try:
        # not read_text: its universal newlines would end a record at a lone "\r"
        return parse(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as e:  # e.object holds the whole file's bytes
        raise ingest.ParseError(e.object.count(b"\n", 0, e.start) + 1,
                                f"{path}: byte 0x{e.object[e.start]:02x} is not "
                                f"UTF-8 ({e.reason})") from None
    except ingest.ParseError as e:
        raise ingest.ParseError(e.line_no, f"{path}: {e.msg}") from None


def _write_set(path, ts: TrajectorySet) -> None:
    Path(path).write_text(ingest.serialize_trajectories(ts), encoding="utf-8")


def _write_report(args, doc, ts: TrajectorySet, tokens) -> None:
    """--out, and with --queries-out the tokens under the input's header."""
    _dump_json(args.out, doc)
    if args.queries_out:
        _write_set(args.queries_out, TrajectorySet.of(tokens, ts.frame_id, ts.centerline_count))


def cmd_ingest(args) -> int:
    ts = _load_set(args.input)
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
    result = selection.kmeans(ts, args.k, r=args.resample, seed=args.seed)
    doc = {
        "k": args.k,
        "resample": args.resample,
        "seed": args.seed,
        "assignment": [int(a) for a in result.assignment],
        "inertia": result.inertia_trace[-1],
        "inertia_trace": result.inertia_trace,
        "iterations": result.iterations,
        "centers": [{"points": c} for c in result.centers],
    }
    _write_report(args, doc, ts, (Trajectory(f"cluster{j}", c)
                                  for j, c in enumerate(result.centers)))
    print(f"kmeans k={args.k} iterations={result.iterations} "
          f"inertia={result.inertia_trace[-1]:.6g}")
    return EXIT_OK


def cmd_sample(args) -> int:
    ts = _load_set(args.input)
    result = selection.fps(ts, args.count, seed=args.seed)
    picked = ts.take(result.indices)
    points = selection.resample_all(picked, args.resample)  # refused before any write
    doc = {
        "count": args.count,
        "seed": args.seed,
        "indices": result.indices,
        "min_dists": result.min_dists,
    }
    _write_report(args, doc, ts, (t._replace(points=p) for t, p in zip(picked, points)))
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
        # adjoint output -> relative error on the one instance drawn from --seed
        errs = fusion.finite_difference_check(args.seed)
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
    pred = _load_set(args.pred)
    if not pred:
        raise ContractError(f"--pred {args.pred} holds no trajectories to score")
    gt = _load_set(args.gt, ingest.parse_centerlines)
    if not gt:
        raise ContractError(f"--gt {args.gt} holds no centerlines to score against")
    report = {
        "iou": metrics.prior_iou(pred, gt, spec, args.width),
        "ae_dist": metrics.ae_dist(
            metrics.sample_polyline_points(pred, args.sample_step),
            metrics.sample_polyline_points(gt, args.sample_step)),
        "width_m": args.width,
    }
    # records pair by position; an unlabelled record counts as None
    if (len(pred) == len(gt)
            and any(x is not None for x in pred.labels)
            and any(x is not None for x in gt.labels)):
        report["ae_type"] = metrics.ae_type(pred.labels, gt.labels)
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


REQUIRED = object()  # the default of a flag the command cannot run without

# (flag, convert, default, help) of the flags several commands share; a str
# default goes through convert as a given value does, and convert None marks
# a switch, which takes no value
_INPUT = ("--input", str, REQUIRED, "trajectory JSONL or CSV")
_OUT = ("--out", str, REQUIRED, "")
_SEED = ("--seed", _seed, 0, "")
_GRID = (("--roi", _roi, "-50,50,-25,25", "x0,x1,y0,y1 in meters"),
         ("--cell", _cell, "0.5", "cell size DX or DX,DY in meters"))

# subcommand -> (help, handler, flags), in the order of the usage line
_COMMANDS = {
    "ingest": ("parse, filter and smooth trajectories", cmd_ingest, (
        _INPUT, ("--min-length", float, 5.0, ""),
        ("--smooth-window", int, 5, ""), _OUT)),
    "rasterize": ("build the density/direction heatmap", cmd_rasterize, (
        _INPUT, *_GRID, _OUT, ("--png", str, None, "optional grayscale density image"))),
    "cluster": ("k-means representative trajectories", cmd_cluster, (
        _INPUT, ("--k", int, REQUIRED, ""),
        ("--resample", int, selection.DEFAULT_RESAMPLE, ""), _SEED, _OUT,
        ("--queries-out", str, None,
         "also write the centers as trajectory JSONL, ids cluster<j>"))),
    "sample": ("Frechet farthest-point sampling", cmd_sample, (
        _INPUT, ("--count", int, REQUIRED, ""), _SEED,
        ("--resample", int, selection.DEFAULT_RESAMPLE, ""), _OUT,
        ("--queries-out", str, None,
         "also write the picks, resampled, as trajectory JSONL"))),
    "fuse": ("align and fuse a prior with a BEV feature map", cmd_fuse, (
        ("--bev", str, REQUIRED, ""), ("--prior", str, REQUIRED, ""),
        ("--params", str, REQUIRED, ""), _OUT, _SEED,
        ("--check-grads", None, False,
         "verify analytic gradients against finite differences"))),
    "eval": ("score a prior against ground-truth centerlines", cmd_eval, (
        ("--pred", str, REQUIRED, "trajectory JSONL or CSV"),
        ("--gt", str, REQUIRED, "centerline JSONL"), *_GRID,
        ("--width", float, metrics.DEFAULT_LINE_WIDTH, ""),
        ("--sample-step", float, metrics.DEFAULT_SAMPLE_STEP, ""), _OUT)),
    "synth": ("generate a synthetic scene", cmd_synth, (
        _SEED, ("--lanes", int, 3, ""), ("--per-lane", int, 10, ""),
        ("--noise", float, 0.0, ""), ("--out-dir", str, REQUIRED, ""))),
    "gen-params": ("write seeded random fusion parameters", cmd_gen_params, (
        _SEED, ("--channels", int, 2, ""), ("--hidden", int, 8, ""), _OUT)),
}
_USAGE = f"usage: trajprior {{{','.join(_COMMANDS)}}} [-h] [--flag VALUE | --flag=VALUE ...]"


def _help(command) -> str:
    """The usage line, then the commands or one command's flags."""
    if command is None:
        head = ("Trajectory map-prior pipeline: ingest, rasterize, cluster/sample, "
                "fuse, evaluate.")
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
    else:
        head = f"trajprior {command}: {_COMMANDS[command][0]}"
        rows = [(flag, f"{text} (required)" if default is REQUIRED else
                 f"{text} (default: {default})")
                for flag, _, default, text in _COMMANDS[command][2]]
    return "\n".join([_USAGE, "", head, ""]
                     + [f"  {name:<16}{text.strip()}" for name, text in rows])


def _parse(command, tokens):
    """{attribute: value} of one command's flags, or None when help is asked for.

    A flag's value is the next token, whatever it starts with, or follows
    "="; the last repeat of a flag wins."""
    flags = {entry[0]: entry for entry in _COMMANDS[command][2]}
    given, tokens = {}, iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise _UsageError(f"unrecognized arguments: {token}")
        if flags[flag][1] is None:
            if eq:
                raise _UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            text = True
        elif not eq and (text := next(tokens, None)) is None:
            raise _UsageError(f"argument {flag}: expected one argument")
        given[flag] = text
    missing = [flag for flag, _, default, _ in flags.values()
               if default is REQUIRED and flag not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    args = {}
    for flag, convert, default, _ in flags.values():
        text = given.get(flag, default)
        try:
            args[flag[2:].replace("-", "_")] = (convert(text) if isinstance(text, str)
                                                else text)
        except _UsageError as e:
            raise _UsageError(f"argument {flag}: {e}") from None
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {convert.__name__} value: "
                              f"{text!r}") from None
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(_help(None))
        return EXIT_OK
    try:
        if command not in _COMMANDS:
            raise _UsageError(
                "the following arguments are required: command" if command is None
                else f"argument command: invalid choice: {command!r} (choose from "
                     f"{', '.join(map(repr, _COMMANDS))})")
        args = _parse(command, argv[1:])
    except _UsageError as e:
        prog = f"trajprior {command}" if command in _COMMANDS else "trajprior"
        print(f"{_USAGE}\n{prog}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        print(_help(command))
        return EXIT_OK
    try:
        return _COMMANDS[command][1](SimpleNamespace(**args))
    except (OSError, ValueError) as e:  # ParseError and ContractError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
