"""Self-describing tensor container and grayscale image export.

File layout: 8-byte magic, uint32 little-endian header length, a UTF-8
JSON header (sorted keys), then the raw little-endian row-major payloads
back to back. No timestamps or other nondeterministic content, so writing
the same tensors twice produces byte-identical files.
"""
from __future__ import annotations

import math
import struct
from dataclasses import asdict, fields
from typing import Dict, Tuple

import numpy as np

from .core import ContractError, FeatureMap, GridSpec, Heatmap, decode_json, encode_json

MAGIC = b"TRAJPRI1"

_DTYPES = {"float64": "<f8", "int64": "<i8"}


def save_tensors(path, tensors: Dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named tensors (float64 or int64) plus a JSON metadata dict."""
    entries = []
    payloads = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype.kind == "f":
            dtype = "float64"
        elif arr.dtype.kind in "iu":
            dtype = "int64"
        else:
            raise ValueError(f"unsupported dtype for tensor '{name}': {arr.dtype}")
        raw = arr.astype(_DTYPES[dtype]).tobytes(order="C")
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": dtype, "offset": offset})
        payloads.append(raw)
        offset += len(raw)
    header = encode_json({"tensors": entries, "meta": meta or {}}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for raw in payloads:
            f.write(raw)


def load_tensors(path) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a tensor container; returns ({name: array}, meta).

    Raises ContractError for a malformed file, the CLI's exit code 2.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC or len(blob) < 12:
        raise ContractError(f"{path}: not a tensor container (bad magic)")
    body = 12 + struct.unpack_from("<I", blob, 8)[0]
    try:  # a truncated or too deeply nested header fails to parse
        header = decode_json(blob[12:body].decode("utf-8"))
    except ValueError as e:
        raise ContractError(f"{path}: header is not JSON ({e})") from None
    payload = memoryview(blob)[body:]
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("meta", {}), dict)):
        raise ContractError(f"{path}: header needs a 'tensors' list and a 'meta' object")
    tensors = {}
    for entry in header["tensors"]:
        if not isinstance(entry, dict):
            raise ContractError(f"{path}: malformed tensor entry {entry!r}")
        name, shape, dtype, start = (entry.get(k) for k in ("name", "shape", "dtype", "offset"))
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)
                and type(start) is int and start >= 0):
            raise ContractError(f"{path}: malformed tensor entry {entry!r}")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ContractError(f"{path}: tensor '{name}' has unknown dtype {dtype!r}")
        dt = np.dtype(_DTYPES[dtype])
        n = math.prod(shape)
        if start + n * dt.itemsize > len(payload):
            raise ContractError(f"{path}: tensor '{name}' runs past the end of the "
                                f"payload ({len(payload)} bytes)")
        arr = np.frombuffer(payload, dtype=dt, count=n, offset=start)
        try:  # an empty shape may still have over 64 dims or overflow numpy's size
            tensors[name] = arr.reshape(shape).astype(dt.newbyteorder("="))
        except ValueError as e:
            raise ContractError(f"{path}: tensor '{name}' has a bad shape ({e})") from None
    return tensors, header.get("meta", {})


def _load_kind(path, kind: str, names) -> Tuple[Dict[str, np.ndarray], dict]:
    """load_tensors, requiring meta.kind == kind and the named tensors."""
    tensors, meta = load_tensors(path)
    if meta.get("kind") != kind:
        raise ContractError(f"{path}: expected a {kind} file, got kind {meta.get('kind')!r}")
    missing = [n for n in names if n not in tensors]
    if missing:
        raise ContractError(f"{path}: {kind} file lacks tensor(s) {', '.join(missing)}")
    return tensors, meta


def _spec(path, meta: dict) -> GridSpec:
    try:
        spec = meta["spec"]
        if bool in {type(spec[f.name]) for f in fields(GridSpec)}:  # each given, none a bool
            raise TypeError("fields must be numbers, not true or false")
        return GridSpec(**spec)  # GridSpec refuses any other key
    except (KeyError, TypeError, OverflowError) as e:  # an int past float range
        raise ContractError(f"{path}: bad or missing grid spec in meta ({e!r})") from None


def save_heatmap(path, heatmap) -> None:
    meta = {"kind": "heatmap", "layout": "row-major",
            "height": heatmap.spec.height, "width": heatmap.spec.width,
            "n_max": heatmap.n_max, "spec": asdict(heatmap.spec)}
    save_tensors(path, {"density": heatmap.density,
                        "direction": heatmap.direction,
                        "count": heatmap.count}, meta)


def load_heatmap(path) -> Heatmap:
    tensors, meta = _load_kind(path, "heatmap", ("density", "direction", "count"))
    if type(meta.get("n_max")) is not int:
        raise ContractError(f"{path}: heatmap meta lacks an integer n_max")
    if tensors["count"].dtype != np.int64:  # a count of 1.7 is no count
        raise ContractError(f"{path}: heatmap count must be int64, got {tensors['count'].dtype}")
    return Heatmap(_spec(path, meta), tensors["density"], tensors["direction"],
                   tensors["count"], meta["n_max"])


def save_feature_map(path, fm) -> None:
    meta = {"kind": "feature", "layout": "row-major",
            "height": fm.spec.height, "width": fm.spec.width,
            "channels": fm.channels, "spec": asdict(fm.spec)}
    save_tensors(path, {"data": fm.data}, meta)


def load_feature_map(path) -> FeatureMap:
    tensors, meta = _load_kind(path, "feature", ("data",))
    return FeatureMap(_spec(path, meta), tensors["data"])


# fusion parameter (stage argument) -> tensor name in a params file
_PARAM_TENSORS = {"w1": "off_w1", "b1": "off_b1", "w2": "off_w2", "b2": "off_b2",
                  "weight": "logit_weight", "bias": "logit_bias"}


def save_params(path, params: Dict[str, np.ndarray]) -> None:
    """Write the six fusion parameter arrays; meta holds C and hidden from w1."""
    w1 = params["w1"]
    meta = {"kind": "params", "channels": int(w1.shape[1]) // 2,
            "hidden": int(w1.shape[0])}
    save_tensors(path, {t: params[name] for name, t in _PARAM_TENSORS.items()}, meta)


def load_params(path) -> Dict[str, np.ndarray]:
    """The six fusion parameter arrays, unchecked: `fuse_pipeline` checks them."""
    tensors, _ = _load_kind(path, "params", _PARAM_TENSORS.values())
    return {name: tensors[t] for name, t in _PARAM_TENSORS.items()}


def write_pgm(path, values: np.ndarray) -> None:
    """Write an H x W array in [0, 1] as a binary 8-bit PGM grayscale image."""
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    pix = np.round(arr * 255.0).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pix.tobytes(order="C"))
