"""Seeded mutation fuzzing of `ingest` and `fuse`: every input exits 0 or 2,
never a traceback.

Each `ingest` case mutates a valid JSONL or CSV file (truncation, flipped
bytes, dropped keys or fields, wrong types, huge numbers, and in CSV
non-finite ones) and runs `cli.main(["ingest", ...])` in process. A JSONL
case may instead only reformat the file, which must then exit 0. Each
`fuse` case mutates one of its three `.tp` inputs (truncation, flipped
bits, non-finite or huge payload words, wrong types in a tensor entry or
the grid spec) and runs `cli.main(["fuse", ...])` with warnings as errors.
The mutations come from stdlib `random` seeded per case, so a failing case
reruns alone from its number.
"""
import json
import math
import random
import struct
import warnings

import numpy as np
import pytest

from trajprior import cli, tensorio
from trajprior.core import FeatureMap, GridSpec
from trajprior.fusion import random_params

JSONL = "\n".join(json.dumps(r) for r in [
    {"frame_id": "fuzz", "centerline_count": 1},
    {"id": "a", "points": [[0.0, 0.0], [1.5, 0.2], [3.0, -0.1], [4.5, 0.3],
                           [6.0, 0.0], [7.5, 0.1]], "type": "solid"},
    {"id": "b", "points": [[0.0, 3.5], [2.0, 3.4], [4.0, 3.6], [6.0, 3.5]]},
    {"id": "c", "points": [[-1.0, -3.5], [9.0, -3.5]], "type": 2},
]) + "\n"
CSV = "traj_id,seq,x,y\n" + "".join(
    f"t{t},{s},{1.5 * s},{3.5 * t + 0.1 * (s % 3)}\n"
    for t in range(3) for s in range(7))

WINDOWS = (1, 3, 5, 9, 10**20 + 1)
ODD_VALUES = (None, True, "x", "", [], {}, [[0, 0]], [[1, 2, 3], [4, 5, 6]],
              0, -0.0, 7, 2.5, 1e308, -1e308, float("inf"), float("-inf"),
              float("nan"), 10**400, -(10**400))
# NaN and the infinities, written by json.dumps as constants no JSON record
# may hold, always exit 2; the JSONL mutator leaves them out, the .tp one not
RECORD_VALUES = tuple(v for v in ODD_VALUES if not isinstance(v, float) or math.isfinite(v))
ODD_FIELDS = ("", "x", "[1]", "1e308", "-1e308", "1e400", "nan", "inf", "-inf",
              "9" * 400, "0x10", "1_0", " 3 ", "-0.0")
CASES = 1200


def mutate_value(rng, value, odd=ODD_VALUES):
    """value with one nested entry replaced or dropped, or replaced by one
    of ``odd``. A record's ``id`` and a header's ``frame_id`` are never
    dropped, and only ever replaced by a string of ``odd``: every other
    value they could take exits 2 at once, so the mutations would seldom
    reach the checks behind them."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.75:
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = rng.choice(list(keys))
        if key in ("id", "frame_id"):
            value[key] = rng.choice([v for v in odd if isinstance(v, str)])
        elif rng.random() < 0.2:
            del value[key]
        else:
            value[key] = mutate_value(rng, value[key], odd)
        return value
    return rng.choice(odd)


def mutate_jsonl(rng):
    records = [json.loads(line) for line in JSONL.splitlines()]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(records))
        records[i] = mutate_value(rng, records[i], RECORD_VALUES)
    return "\n".join(json.dumps(r) for r in records) + "\n"


def reformat_jsonl(rng):
    """JSONL of the same records: keys in random order, JSON whitespace
    around separators and records, and blank lines between them."""
    def space():
        return rng.choice(("", " ", "\t", "\r", "  \t"))

    lines = [space()] * rng.randint(0, 2)
    for line in JSONL.splitlines():
        rec = json.loads(line)
        keys = sorted(rec)
        rng.shuffle(keys)
        text = json.dumps({k: rec[k] for k in keys},
                          separators=(space() + "," + space(), space() + ":" + space()))
        lines += [space() + text + space()] + [space()] * rng.randint(0, 2)
    return "\n".join(lines) + "\n"


def mutate_csv(rng):
    rows = [line.split(",") for line in CSV.splitlines()]
    for _ in range(rng.randint(1, 3)):
        row = rows[rng.randrange(len(rows))]
        if rng.random() < 0.15 and row:
            del row[rng.randrange(len(row))]
        elif row:
            row[rng.randrange(len(row))] = rng.choice(ODD_FIELDS)
    return "".join(",".join(row) + "\n" for row in rows)


def mutate(rng, fmt):
    """(kind, bytes) of one mutated input file."""
    base = JSONL if fmt == "jsonl" else CSV
    kind = rng.choice(("truncate", "flip", "structure") + (("reformat",) if fmt == "jsonl" else ()))
    if kind == "reformat":
        return kind, reformat_jsonl(rng).encode()
    if kind == "truncate":
        return kind, base.encode()[:rng.randrange(len(base))]
    if kind == "flip":
        data = bytearray(base.encode())
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return kind, bytes(data)
    text = mutate_jsonl(rng) if fmt == "jsonl" else mutate_csv(rng)
    return kind, text.encode()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_mutated_input_exits_0_or_2(fmt, tmp_path, capsys):
    src, out = tmp_path / f"in.{fmt}", tmp_path / "out.jsonl"
    codes = {0: 0, 2: 0}
    for case in range(CASES // 2):
        rng = random.Random(f"{fmt}-{case}")
        kind, data = mutate(rng, fmt)
        src.write_bytes(data)
        window = rng.choice(WINDOWS)
        argv = ["ingest", "--input", str(src),
                "--smooth-window", str(window), "--out", str(out)]
        try:
            code = cli.main(argv)
        except Exception as e:  # report the case, then fail on it
            pytest.fail(f"case {case} ({kind}, window {window}) raised {e!r} "
                        f"on {data[:300]!r}")
        assert code in codes, f"case {case} ({kind}) exit {code} on {data[:300]!r}"
        assert kind != "reformat" or code == 0, f"case {case} exit {code} on {data[:300]!r}"
        codes[code] += 1
        capsys.readouterr()
    # the mutations reach both outcomes, not only the parser's first check
    assert min(codes.values()) >= CASES // 20, codes


ODD_WORDS = (float("nan"), float("inf"), float("-inf"), 1e308, -1e308)
TP_KINDS = ("truncate", "flip", "payload", "entry", "header", "spec")
TP_CASES = 1500


def tp_inputs(d):
    """{name: bytes} of valid `fuse` inputs on a 10 x 10 grid with C = 2,
    written as d / <name>.tp."""
    spec = GridSpec(0.0, 10.0, 0.0, 10.0, 1.0, 1.0)
    rng = np.random.default_rng(7)
    for name in ("bev", "prior"):
        tensorio.save_feature_map(d / f"{name}.tp",
                                  FeatureMap(spec, rng.normal(0, 1, (10, 10, 2))))
    tensorio.save_params(d / "params.tp", random_params(0, 2, hidden=4))
    return {name: (d / f"{name}.tp").read_bytes() for name in ("bev", "prior", "params")}


def mutate_tp(rng, blob, feature):
    """(kind, bytes) of one mutated .tp file; grid-spec edits only in a
    feature file, the one kind that has a spec."""
    kind = rng.choice(TP_KINDS if feature else TP_KINDS[:-1])
    if kind == "truncate":
        return kind, blob[:rng.randrange(len(blob))]
    if kind == "flip":
        data = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return kind, bytes(data)
    end = 12 + struct.unpack_from("<I", blob, 8)[0]
    header, payload = json.loads(blob[12:end]), bytearray(blob[end:])
    if kind == "payload":
        for _ in range(rng.randint(1, 3)):
            i = 8 * rng.randrange(len(payload) // 8)
            payload[i:i + 8] = struct.pack("<d", rng.choice(ODD_WORDS))
    elif kind == "entry":
        entry = rng.choice(header["tensors"])
        key = rng.choice(("dtype", "shape", "offset", "name"))
        entry[key] = mutate_value(rng, entry[key])
    elif kind == "header":
        header = mutate_value(rng, header)
    else:
        spec = header["meta"]["spec"]
        spec[rng.choice(sorted(spec))] = rng.choice(ODD_VALUES)
    text = json.dumps(header).encode()
    return kind, blob[:8] + struct.pack("<I", len(text)) + text + bytes(payload)


def test_mutated_tensor_file_exits_0_or_2(tmp_path, capsys):
    base = tp_inputs(tmp_path)
    mutated = tmp_path / "mutated.tp"
    codes = {0: 0, 2: 0}
    for case in range(TP_CASES):
        rng = random.Random(f"tp-{case}")
        target = rng.choice(sorted(base))
        kind, data = mutate_tp(rng, base[target], target != "params")
        mutated.write_bytes(data)
        argv = ["fuse", "--out", str(tmp_path / "fused.tp")]
        for name in base:
            argv += [f"--{name}", str(mutated if name == target else
                                      tmp_path / f"{name}.tp")]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
        except Exception as e:  # report the case, then fail on it
            pytest.fail(f"case {case} ({kind} of {target}) raised {e!r}")
        assert code in codes, f"case {case} ({kind} of {target}) exit {code}"
        codes[code] += 1
        capsys.readouterr()
    assert min(codes.values()) >= TP_CASES // 20
