"""Every name the benchmark's tracer wraps must exist, or the traced run breaks."""
import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_traced_name_resolves():
    wraps = load_wraps()
    assert wraps
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in wraps
               if not callable(getattr(importlib.import_module(f"trajprior.{mod}"),
                                       attr, None))]
    assert not missing, f"{TRACER.name} wraps names trajprior lacks: {missing}"
