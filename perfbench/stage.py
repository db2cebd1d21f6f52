"""Run one pipeline stage in a fresh interpreter and report how it went.

    python3 perfbench/stage.py REQUEST_JSON

REQUEST_JSON is ``{"stage", "argv", "trace", "result"}``. ``stage`` is a
trajprior subcommand, run through ``trajprior.cli.main(argv)``, or
``bridge``, which turns a heatmap into a feature map (the CLI has no
subcommand for that step). The result file gets the import time, the stage
time measured after import, the exit code, the child's own peak RSS and, when
traced, the spans.
"""
import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import trajprior.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


def bridge(argv) -> int:
    """heatmap .tp -> 2-channel feature .tp, as ``fuse --prior`` expects."""
    from trajprior import raster, tensorio
    heatmap_path, out_path = argv
    tensorio.save_feature_map(
        out_path, raster.heatmap_to_feature(tensorio.load_heatmap(heatmap_path)))
    return 0


def execute(stage: str, argv) -> int:
    """Run a stage in this interpreter with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return bridge(argv) if stage == "bridge" else cli.main(argv)


def _single_thread_raster_s(originals, input_path) -> float:
    """Rasterize the stage's input again with one worker thread."""
    from trajprior.core import GridSpec
    with open(input_path, encoding="utf-8") as f:
        ts = originals["ingest.parse_trajectories"](f.read())
    old = os.environ.get("TRAJPRIOR_THREADS")
    os.environ["TRAJPRIOR_THREADS"] = "1"
    try:
        start = time.perf_counter()
        originals["raster.rasterize_trajectories"](ts, GridSpec())
        return time.perf_counter() - start
    finally:
        if old is None:
            del os.environ["TRAJPRIOR_THREADS"]
        else:
            os.environ["TRAJPRIOR_THREADS"] = old


def main() -> None:
    req = json.loads(sys.argv[1])
    stage, argv = req["stage"], req["argv"]
    result = {"import_s": IMPORT_S,
              "backend": getattr(sys.modules["trajprior"], "kernel_backend", "none"),
              "numpy": sys.modules["numpy"].__version__,
              "python": sys.version.split()[0]}
    try:
        if req["trace"]:
            from trajprior import fusion, ingest, metrics, raster, selection, tensorio
            from tracer import Tracer
            tracer = Tracer()
            originals = tracer.install({
                "ingest": ingest, "raster": raster, "selection": selection,
                "fusion": fusion, "metrics": metrics, "tensorio": tensorio})
            name = "bench.bridge" if stage == "bridge" else f"cli.{stage}"
            start = time.perf_counter()
            rc = tracer.span(name, execute, stage, argv)
            result["stage_s"] = time.perf_counter() - start
            result["spans"] = tracer.spans
            if stage == "rasterize" and rc == 0:
                result["raster_1t_s"] = _single_thread_raster_s(
                    originals, argv[argv.index("--input") + 1])
        else:
            start = time.perf_counter()
            rc = execute(stage, argv)
            result["stage_s"] = time.perf_counter() - start
    except Exception:  # the stage failed; report it, never hide it
        rc = 1
        result["error"] = traceback.format_exc()
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(req["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
