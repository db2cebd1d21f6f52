import json
import struct

import numpy as np
import pytest

from trajprior.core import ContractError, FeatureMap, GridSpec
from trajprior.fusion import random_params
from trajprior.ingest import synth_scene
from trajprior.raster import rasterize_trajectories
from trajprior.tensorio import (load_feature_map, load_heatmap, load_params,
                                load_tensors, save_feature_map, save_heatmap,
                                save_params, save_tensors, write_pgm)


def test_tensor_roundtrip(tmp_path):
    path = tmp_path / "t.tp"
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(0, 1, (3, 4)), "b": np.arange(6, dtype=np.int64)}
    save_tensors(path, tensors, {"note": 1})
    got, meta = load_tensors(path)
    assert meta == {"note": 1}
    assert np.array_equal(got["a"], tensors["a"])
    assert np.array_equal(got["b"], tensors["b"])


def test_byte_identical_rewrites(tmp_path):
    ts, _ = synth_scene(0, 2, 2, 0.1)
    hm = rasterize_trajectories(ts, GridSpec())
    p1, p2 = tmp_path / "a.tp", tmp_path / "b.tp"
    save_heatmap(p1, hm)
    save_heatmap(p2, hm)
    assert p1.read_bytes() == p2.read_bytes()


def test_heatmap_roundtrip(tmp_path):
    ts, _ = synth_scene(1, 2, 3, 0.2)
    hm = rasterize_trajectories(ts, GridSpec())
    path = tmp_path / "hm.tp"
    save_heatmap(path, hm)
    got = load_heatmap(path)
    assert got.spec == hm.spec
    assert got.n_max == hm.n_max
    assert np.array_equal(got.density, hm.density)
    assert np.array_equal(got.direction, hm.direction)
    assert np.array_equal(got.count, hm.count)


def test_feature_map_roundtrip(tmp_path):
    spec = GridSpec(0, 3, 0, 2, 1, 1)
    fm = FeatureMap(spec, np.random.default_rng(1).normal(0, 1, (2, 3, 4)))
    path = tmp_path / "fm.tp"
    save_feature_map(path, fm)
    got = load_feature_map(path)
    assert got.spec == spec
    assert np.array_equal(got.data, fm.data)


def test_params_roundtrip(tmp_path):
    params = random_params(3, channels=2, hidden=4)
    path = tmp_path / "p.tp"
    save_params(path, params)
    got = load_params(path)
    assert list(got) == ["w1", "b1", "w2", "b2", "weight", "bias"]
    assert all(np.array_equal(got[name], params[name]) for name in params)
    tensors, meta = load_tensors(path)
    assert sorted(tensors) == ["logit_bias", "logit_weight", "off_b1", "off_b2",
                               "off_w1", "off_w2"]
    assert meta == {"kind": "params", "channels": 2, "hidden": 4}
    again = tmp_path / "again.tp"
    save_params(again, got)
    assert again.read_bytes() == path.read_bytes()


def test_pgm_header_and_size(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.linspace(0, 1, 12).reshape(3, 4))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12


def rewrite_header(path, edit):
    """Rewrite a container's JSON header through edit(header), keeping the payload."""
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + hlen:])


@pytest.fixture
def heatmap_file(tmp_path):
    ts, _ = synth_scene(1, 2, 3, 0.2)
    path = tmp_path / "hm.tp"
    save_heatmap(path, rasterize_trajectories(ts, GridSpec()))
    return path


def test_unknown_dtype_rejected(heatmap_file):
    rewrite_header(heatmap_file, lambda h: h["tensors"][0].update(dtype="float16"))
    with pytest.raises(ContractError, match="unknown dtype"):
        load_tensors(heatmap_file)
    strings = heatmap_file.with_name("strings.tp")
    with pytest.raises(ValueError, match="unsupported dtype for tensor 's'"):
        save_tensors(strings, {"s": np.array(["a", "b"])})
    assert not strings.exists()


def test_non_finite_meta_rejected(tmp_path):
    # the header is strict JSON, as load_tensors reads it
    path = tmp_path / "nan.tp"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_tensors(path, {"a": np.zeros(2)}, meta={"scale": float("nan")})
    assert not path.exists()


def test_tensor_past_payload_rejected(heatmap_file):
    rewrite_header(heatmap_file, lambda h: h["tensors"][-1].update(offset=10**6))
    with pytest.raises(ContractError, match="past the end"):
        load_tensors(heatmap_file)
    raw = heatmap_file.read_bytes()
    heatmap_file.write_bytes(raw[:-8])  # truncated payload
    with pytest.raises(ContractError, match="past the end"):
        load_tensors(heatmap_file)


@pytest.mark.parametrize("shape", [[0] * 65, [0, 2**62, 2**62], [0, 2**63]])
def test_empty_shape_numpy_cannot_hold_rejected(heatmap_file, shape):
    """A shape of no elements passes the payload check, yet numpy holds no
    array of more than 64 dimensions or of a size past its index range."""
    rewrite_header(heatmap_file, lambda h: h["tensors"][0].update(shape=shape))
    with pytest.raises(ContractError) as e:
        load_tensors(heatmap_file)
    assert str(e.value).startswith(f"{heatmap_file}: tensor 'count' has a bad shape (")


def test_truncated_or_foreign_file_rejected(heatmap_file):
    raw = heatmap_file.read_bytes()
    for blob in (raw[:10], raw[:40], b"P5\n4 3\n255\n" + raw[11:]):
        heatmap_file.write_bytes(blob)
        with pytest.raises(ContractError):
            load_tensors(heatmap_file)


def test_wrong_kind_rejected(heatmap_file):
    with pytest.raises(ContractError, match="expected a feature file"):
        load_feature_map(heatmap_file)
    with pytest.raises(ContractError, match="expected a params file"):
        load_params(heatmap_file)


def test_missing_tensor_rejected(heatmap_file):
    rewrite_header(heatmap_file, lambda h: h["tensors"].pop(0))  # "count"
    with pytest.raises(ContractError, match="lacks tensor"):
        load_heatmap(heatmap_file)


def test_missing_heatmap_meta_rejected(heatmap_file):
    fresh = heatmap_file.read_bytes()
    rewrite_header(heatmap_file, lambda h: h["meta"].pop("spec"))
    with pytest.raises(ContractError, match="grid spec"):
        load_heatmap(heatmap_file)
    rewrite_header(heatmap_file, lambda h: h["meta"].update(n_max=2.0))
    with pytest.raises(ContractError, match="lacks an integer n_max"):
        load_heatmap(heatmap_file)
    # a spec holds GridSpec's fields and nothing else; a field left out is
    # refused, not given its default (0.5, the value written here)
    for edit in (lambda spec: spec.update(z=0.0), lambda spec: spec.pop("cell_dy")):
        heatmap_file.write_bytes(fresh)
        rewrite_header(heatmap_file, lambda h: edit(h["meta"]["spec"]))
        with pytest.raises(ContractError, match="grid spec"):
            load_heatmap(heatmap_file)


def test_float_count_rejected(heatmap_file):
    """A count is a whole number of trajectories: one stored as float64 is
    refused, not truncated (1.7 would read as 1)."""
    tensors, meta = load_tensors(heatmap_file)
    save_tensors(heatmap_file, tensors | {"count": tensors["count"] + 0.7}, meta)
    with pytest.raises(ContractError) as e:
        load_heatmap(heatmap_file)
    assert str(e.value) == f"{heatmap_file}: heatmap count must be int64, got float64"


def test_bool_grid_spec_rejected(tmp_path):
    """JSON true and false are not numbers, though Python reads them as 1 and
    0: bounds of false and true would make the 2 x 2 grid saved here."""
    path = tmp_path / "hm.tp"
    ts, _ = synth_scene(1, 2, 3, 0.2)
    save_heatmap(path, rasterize_trajectories(ts, GridSpec(0.0, 1.0, 0.0, 1.0)))
    rewrite_header(path, lambda h: h["meta"]["spec"].update(
        x_min=False, x_max=True, y_min=False, y_max=True))
    with pytest.raises(ContractError, match="grid spec.*not true or false") as e:
        load_heatmap(path)
    assert str(e.value).startswith(f"{path}: ")
