"""The benchmark's tracer must work on trajprior as it is, or the traced run breaks."""
import importlib
import importlib.util
import pathlib

from trajprior import cli

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_wraps():
    return load_tracer().WRAPS


def test_every_traced_name_resolves():
    wraps = load_wraps()
    assert wraps
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in wraps
               if not callable(getattr(importlib.import_module(f"trajprior.{mod}"),
                                       attr, None))]
    assert not missing, f"{TRACER.name} wraps names trajprior lacks: {missing}"


def test_traced_chain_counts_numbers(tmp_path, monkeypatch, capsys):
    """The tracer's counters read the arguments and results of what it wraps
    (a set's length, its polylines' points, rasterize_polylines' argument
    iterated), so a change to those types breaks traced runs while the names
    still resolve. A small chain runs under the tracer, in process: every
    counter it records is a number, and every parse it makes is a span."""
    tracer = load_tracer()
    modules = {mod: importlib.import_module(f"trajprior.{mod}")
               for mod in {mod for mod, *_ in tracer.WRAPS}}
    for mod, attr, _, _ in tracer.WRAPS:  # monkeypatch puts the originals back
        monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    tr = tracer.Tracer()
    tr.install(modules)
    scene, clean = tmp_path / "scene", tmp_path / "clean.jsonl"
    chain = [["synth", "--seed", "4", "--lanes", "3", "--per-lane", "20", "--noise", "0.3",
              "--out-dir", scene],
             ["ingest", "--input", scene / "trajectories.jsonl", "--out", clean],
             ["rasterize", "--input", clean, "--out", tmp_path / "hm.tp"],
             ["cluster", "--input", clean, "--k", "3", "--out", tmp_path / "c.json"],
             ["sample", "--input", clean, "--count", "8", "--out", tmp_path / "s.json"],
             ["eval", "--pred", clean, "--gt", scene / "centerlines.jsonl",
              "--out", tmp_path / "report.json"]]
    for argv in chain:
        assert tr.span(f"cli.{argv[0]}", cli.main, [str(a) for a in argv]) == 0, \
            capsys.readouterr().err
    names = {span[0] for span in tr.spans}
    # every trajectory or centerline file the chain reads goes through a
    # traced parser: one each for ingest, rasterize, cluster and sample, two for eval
    assert [span[0] for span in tr.spans].count("ingest.parse") == 6
    assert {"ingest.filter", "raster.rasterize_trajectories", "raster.rasterize_polylines",
            "selection.kmeans", "selection.fps", "metrics.ae_dist"} <= names
    counters = [value for span in tr.spans for value in span[4].values()]
    counters += [value for span in tr.spans for agg in span[5].values()
                 for value in agg.values()]
    assert counters and all(type(v) in (int, float) for v in counters), counters
    # fps's counters key on id(t.points) over ts.trajectories: records made anew
    # on each access could take the ids of freed ones and be mistaken for them
    ts = modules["ingest"].parse_trajectories(clean.read_text())
    assert all(t is u for t, u in zip(ts.trajectories, ts))
