import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from trajprior import cli, core, raster, selection
from trajprior.core import (MAX_CELLS, MAX_COORD, ContractError, GridSpec, Trajectory,
                           TrajectorySet, _segment_lengths, decode_json, encode_json,
                           fold_axial)
from trajprior.ingest import filter_by_length
from trajprior.metrics import sample_polyline_points
from trajprior.selection import resample_all

import oracles
from conftest import random_set, random_trajectory


class TestGridSpec:
    def test_default_roi_dimensions(self):
        spec = GridSpec()
        assert spec.shape == (100, 200)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ContractError):
            GridSpec(x_min=10, x_max=-10)
        with pytest.raises(ContractError):
            GridSpec(cell_dx=0.0)

    def test_cell_count_capped(self):
        side = 1000
        rows = MAX_CELLS // side
        assert GridSpec(0, side, 0, rows, 1, 1).shape == (rows, side)
        with pytest.raises(ContractError):
            GridSpec(0, side, 0, rows + 1, 1, 1)
        with pytest.raises(ContractError):
            GridSpec(0, math.inf, 0, 1, 1, 1)

    @pytest.mark.parametrize("cell", [math.inf, 1e300])
    def test_at_least_one_cell_per_axis(self, cell):
        with pytest.raises(ContractError, match="at least one cell"):
            GridSpec(cell_dx=cell)
        with pytest.raises(ContractError, match="at least one cell"):
            GridSpec(cell_dy=cell)

    def test_roundtrip_dict(self):
        spec = GridSpec(-1, 3, 0, 2, 0.25, 0.5)
        assert GridSpec(**asdict(spec)) == spec


class TestFoldAxial:
    def test_range(self):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(-10, 10, 1000):
            f = fold_axial(angle)
            assert -math.pi / 2 < f <= math.pi / 2
        assert fold_axial(-math.pi / 2) == math.pi / 2  # the excluded end folds up

    def test_pi_periodic(self):
        for angle in np.linspace(-3, 3, 101):
            assert fold_axial(angle + math.pi) == pytest.approx(
                fold_axial(angle), abs=1e-12)

    def test_bits_of_remainder_fold(self):
        """The array fold gives math.remainder's bits, signed zeros included,
        at multiples of pi/2, huge and subnormal angles and their neighbours."""
        pi = math.pi
        edges = np.array([0.0, pi / 2, pi, 3 * pi / 2, 2 * pi, 1e300, 5e-324,
                          2.2250738585072014e-308, 1e-300, 1.0, 1e16, math.atan2(1, -1)])
        edges = np.concatenate([edges, -edges])
        angles = np.concatenate([edges, np.nextafter(edges, np.inf),
                                 np.nextafter(edges, -np.inf),
                                 np.random.default_rng(4).uniform(-10, 10, 2000)])
        want = np.array([oracles.fold_axial_by_remainder(a) for a in angles.tolist()])
        assert np.array_equal(fold_axial(angles).view(np.int64), want.view(np.int64))
        assert str(fold_axial(-pi)) == "-0.0"


def one(tid, points):
    return TrajectorySet.of([Trajectory(tid, points)])


def kept_at(ts, length):
    """True iff the length filter keeps the one polyline of ts at length."""
    return len(filter_by_length(ts, length)) == 1


class TestTrajectory:
    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            one("x", [[0.0, 0.0]])

    @pytest.mark.parametrize("points", [{"a": 1}, "xy", 3.0, [[0.0, 0.0], [1.0]]],
                             ids=["dict", "string", "number", "ragged"])
    def test_bad_points_named(self, points):
        good = Trajectory("good", [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ContractError, match="trajectory 'bad': "):
            TrajectorySet.of([good, Trajectory("bad", points), Trajectory("also", points)])

    @pytest.mark.parametrize("points", [{"a": 1}, "xy", [[0.0, 0.0], [1.0]], np.zeros((3, 3))],
                             ids=["dict", "string", "ragged", "n-by-3"])
    def test_record_of_no_point_array_is_indexed(self, points):
        with pytest.raises(ContractError, match="^trajectory 'x': ") as e:
            TrajectorySet.of([Trajectory("x", points)])
        assert (e.value.index, e.value.point) == (0, None)

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            one("x", [[0.0, 0.0], [float("nan"), 1.0]])

    def test_coordinates_bounded(self):
        edge = one("e", [[-MAX_COORD, 0.0], [0.0, MAX_COORD]])
        length = MAX_COORD * math.sqrt(2.0)
        assert kept_at(edge, length * (1 - 1e-6)) and not kept_at(edge, length * (1 + 1e-6))
        for bad in (np.nextafter(MAX_COORD, np.inf), -1e308, float("inf")):
            with pytest.raises(ContractError, match="MAX_COORD"):
                one("x", [[0.0, 0.0], [1.0, bad]])

    def test_arc_length(self):
        t = one("L", [[0, 0], [1, 0], [1, 1]])
        assert kept_at(t, 2.0 * (1 - 1e-6)) and not kept_at(t, 2.0 * (1 + 1e-6))

    def test_segment_lengths_match_linalg_norm(self):
        """Segments 1e-160 to 1e7 m long, log-uniform, in every direction:
        the same bits as np.linalg.norm, in each length and in arc_length."""
        rng = np.random.default_rng(11)
        length = 10.0 ** rng.uniform(-160.0, 7.0, 20_000)
        angle = rng.uniform(-np.pi, np.pi, len(length))
        pts = np.zeros((2 * len(length) + 1, 2))  # 0, d0, 0, d1, ...: diffs are +-d
        pts[1::2] = length[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        want = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert _segment_lengths(pts).tobytes() == want.tobytes()
        ts = one("s", pts)
        assert kept_at(ts, float(want.sum()))
        assert not kept_at(ts, np.nextafter(want.sum(), np.inf))


LINE = [[0.0, 0.0], [1.0, 0.0]]


class TestSchema:
    """TrajectorySet is the one check of a record's fields."""

    @pytest.mark.parametrize("tid", [None, True, 7, 2.5, math.inf, 10**400, [], {}],
                             ids=["none", "bool", "int", "float", "inf", "huge", "list", "dict"])
    def test_id_must_be_a_string(self, tid):
        good = Trajectory("good", LINE)
        with pytest.raises(ContractError, match="id must be a string"):
            TrajectorySet.of([good, Trajectory(tid, LINE)])

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, [1, math.inf],
                                       {"k": math.nan}])
    def test_label_must_be_json(self, label):
        with pytest.raises(ContractError, match="type must be JSON"):
            TrajectorySet.of([Trajectory("a", LINE, label)])

    def test_label_beyond_64_bits_names_the_encoder_error(self):
        with pytest.raises(ContractError) as e:
            TrajectorySet.of([Trajectory("a", LINE, 2**64)])
        assert str(e.value) == ("trajectory 'a': type must be JSON without NaN or Infinity: "
                                "not JSON: Integer exceeds 64-bit range")

    @pytest.mark.parametrize("label", [(1, 2), {1: "x"}, {True: 1}, {"k": [(0.5,)]}],
                             ids=["tuple", "int-key", "bool-key", "nested-tuple"])
    def test_label_must_read_back_as_written(self, label):
        # the encoder would write these as [1,2], {"1":"x"} and {"true":1}
        with pytest.raises(ContractError, match="type must read back as written"):
            TrajectorySet.of([Trajectory("a", LINE, "solid"), Trajectory("b", LINE, label)])

    @pytest.mark.parametrize("frame_id", [3, None, b"f", ""])
    def test_frame_id_must_be_a_nonempty_string(self, frame_id):
        with pytest.raises(ContractError, match="frame_id must be"):
            TrajectorySet.of([Trajectory("a", LINE)], frame_id)

    @pytest.mark.parametrize("count", [True, False, -1, 1.0, "1", None])
    def test_centerline_count_must_be_a_non_negative_int(self, count):
        with pytest.raises(ContractError, match="centerline_count must be"):
            TrajectorySet.of([], "f", count)

    def test_every_json_value_is_a_label(self):
        labels = (None, "solid", 2, -0.5, True, [1, "x", None], {"k": [2.5]})
        ts = TrajectorySet.of(Trajectory(str(i), LINE, v) for i, v in enumerate(labels))
        assert ts.labels == labels


GOOD = Trajectory("g", [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
FAULTS = {  # a bad polyline, the row of its first bad point, and the reason
    "bound": (Trajectory("b", [[0.0, 0.0], [1.0, 1.0], [math.inf, 0.0], [2.0, math.nan]]), 2,
              "points must be finite"),
    "length": (Trajectory("b", [[0.0, 0.0]]), None, "trajectory shorter than 2 points"),
    "id": (Trajectory(7, LINE), None, "id must be a string, got int"),
    "label": (Trajectory("b", LINE, (1, 2)), None, "type must read back as written"),
    "nan-label": (Trajectory("b", LINE, [math.nan]), None, "type must be JSON"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_check_names_the_first_bad_polyline_and_point(fault):
    """The set's one check says where it failed: the polyline, and the row
    within it of the first bad point, so a reader can name a line."""
    bad, point, reason = FAULTS[fault]
    with pytest.raises(ContractError) as e:
        TrajectorySet.of([GOOD, GOOD, bad, GOOD, bad])
    assert (e.value.index, e.value.point) == (2, point)
    assert e.value.msg.startswith(reason)
    assert str(e.value) == f"trajectory {bad.id!r}: {e.value.msg}"


def test_points_of_the_wrong_shape_name_no_polyline():
    """A set built from arrays, not records, has no polyline to blame for them."""
    with pytest.raises(ContractError) as e:
        TrajectorySet(np.zeros((2, 3)), np.array([0, 2]), ("a",), (None,))
    assert str(e.value) == "expected (n, 2) point array, got shape (2, 3)"
    assert e.value.index is None


def test_bad_point_after_an_empty_polyline_is_not_the_empty_ones():
    bad, point, _ = FAULTS["bound"]
    with pytest.raises(ContractError) as e:
        TrajectorySet.of([GOOD, Trajectory("e", np.empty((0, 2))), bad])
    assert (e.value.index, e.value.point) == (2, point)


def test_check_of_an_unlabelled_set_walks_no_label(monkeypatch):
    """null always reads back as None, so no label of an unlabelled set is
    written and read back, and none is walked for NaN in Python."""
    ts = TrajectorySet.of([Trajectory(f"t{i}", LINE) for i in range(1000)])
    calls = []
    finite = core._finite
    monkeypatch.setattr(core, "_finite", lambda value: calls.append(value) or finite(value))
    replace(ts)
    assert calls == []


def bits(ts):
    return (ts.points.tobytes(), ts.points.dtype, ts.offsets.tobytes(), ts.offsets.dtype,
            ts.ids, ts.labels, ts.frame_id, ts.centerline_count)


class TestTake:
    """``take`` builds a set from another set's polylines by one row gather."""

    def test_order_and_repeats_kept(self):
        rng = np.random.default_rng(2)
        ts = TrajectorySet.of([Trajectory(str(i), rng.normal(size=(2 + i % 3, 2)), f"l{i}")
                               for i in range(5)], "f", 3)
        out = ts.take([3, 0, 3, 4, -1])
        assert out.ids == ("3", "0", "3", "4", "4")
        assert out.labels == ("l3", "l0", "l3", "l4", "l4")
        for t, i in zip(out, [3, 0, 3, 4, 4]):
            assert t.points.tobytes() == ts[i].points.tobytes()
        assert (out.frame_id, out.centerline_count) == ("f", 3)

    @pytest.mark.parametrize("indices", [[], range(0), np.empty(0, dtype=np.int64)],
                             ids=["list", "range", "array"])
    def test_empty_indices_give_an_empty_set_under_the_header(self, indices):
        ts = TrajectorySet.of([Trajectory("a", LINE)], "f", 2)
        assert bits(ts.take(indices)) == bits(TrajectorySet.of([], "f", 2))

    def test_points_are_contiguous_float64(self):
        ts = random_set(np.random.default_rng(3), 20)
        points = ts.take(range(19, -1, -2)).points
        assert points.dtype == np.float64 and points.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("seed", range(5))
    def test_bits_equal_those_of_the_records(self, seed):
        """The same bits as ``TrajectorySet.of`` of the records it picks."""
        rng = np.random.default_rng(seed)
        ts = random_set(rng, int(rng.integers(1, 40)))
        picks = rng.integers(0, len(ts), int(rng.integers(0, 60))).tolist()
        want = TrajectorySet.of([ts[i] for i in picks], ts.frame_id, ts.centerline_count)
        assert bits(ts.take(picks)) == bits(want)

    def test_subsets_are_taken_not_rebuilt(self, monkeypatch, tmp_path):
        """The length filter, FPS, the rasterizer and ``sample`` take their
        subsets from the set they hold: no record's points are read again, so
        the one ``_point_array`` call of each set's check is the only one."""
        ts = random_set(np.random.default_rng(4), 30)
        checks, reads = [], []
        post_init, point_array = TrajectorySet.__post_init__, core._point_array
        monkeypatch.setattr(TrajectorySet, "__post_init__",
                            lambda self: checks.append(self) or post_init(self))
        monkeypatch.setattr(core, "_point_array",
                            lambda points: reads.append(points) or point_array(points))
        assert len(filter_by_length(ts, 20.0)) < len(ts)
        selection.fps(ts, 6, seed=1)
        raster.rasterize_trajectories(ts, GridSpec())
        monkeypatch.setattr(cli, "_load_set", lambda path: ts)
        assert cli.main(["sample", "--input", "in.jsonl", "--count", "4",
                         "--out", str(tmp_path / "s.json")]) == 0
        assert len(checks) > 4 and len(reads) == len(checks)


class TestJsonCodec:
    """core's one codec: every value it writes reads back as written."""

    def test_round_trip_keeps_every_bit(self):
        rng = np.random.default_rng(36)
        bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
        floats = np.concatenate([
            bits.view(np.float64)[np.isfinite(bits.view(np.float64))],  # every exponent
            rng.uniform(1e-5, 1e-4, 500),  # spelled positionally, 0.0000xyz
            [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, MAX_COORD, -MAX_COORD,
             np.finfo(np.float64).max]])
        for value in (floats, floats.tolist()):
            assert np.array(decode_json(encode_json(value))).tobytes() == floats.tobytes()
        ints = [2**53 + 1, 2**63 - 1, 2**64 - 1, -2**63]
        back = decode_json(encode_json(ints))
        assert back == ints and all(type(i) is int for i in back)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, [v]], lambda v: {"k": v},
                                      lambda v: np.array([[1.0, v]])],
                             ids=["float", "list", "dict-value", "array"])
    def test_encode_refuses_nonfinite(self, bad, wrap):
        """orjson alone would write each of these as null."""
        with pytest.raises(ValueError, match="not JSON compliant"):
            encode_json(wrap(bad))

    @pytest.mark.parametrize("text", ['"%s"' % ("]" * 300 + "[" * 300),
                                      '["\\"%s"]' % ("[" * 300),
                                      '{"k": "%s"}' % ("{" * 300)],
                             ids=["unbalanced", "after-an-escaped-quote", "in-an-object"])
    def test_brackets_inside_strings_do_not_count(self, text):
        """Only a text of more than MAX_DEPTH brackets is scanned for its
        depth, and a bracket in a string nests nothing."""
        assert decode_json(text) == json.loads(text)

    def test_unclosed_string_is_scanned_in_linear_time(self):
        """A string with no closing quote runs to the end of the text; were
        each escaped quote in it to start a new string, this 200 kB line
        would take about 2.5e9 regex steps."""
        text = "[" * 256 + '"' + '\\"' * 100_000
        start = time.perf_counter()
        with pytest.raises(ValueError):
            decode_json(text)
        assert time.perf_counter() - start < 5.0


def random_polylines(rng, count):
    """Random polylines of 2 to 29 points at scales 0.01 to 100 m: as drawn,
    with every point repeated, or of zero length, in turn."""
    out = []
    for k in range(count):
        pts = random_trajectory(rng, int(rng.integers(2, 30)),
                                10.0 ** int(rng.integers(-2, 3))).points
        if k % 3 == 1:
            pts = np.repeat(pts, 2, axis=0)
        elif k % 3 == 2:
            pts = np.repeat(pts[:1], len(pts), axis=0)
        out.append(Trajectory(f"r{k}", pts))
    return out


class TestSampleArcLength:
    """`resample_all` and `sample_polyline_points` share one sampler; both
    match the per-polyline loops they replaced byte for byte."""

    POLYLINES = TrajectorySet.of([
        Trajectory("two", [[1.5, -2.0], [4.0, 3.25]]),
        Trajectory("zero", [[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]]),
        Trajectory("signed", [[-0.0, 0.0], [3.0, -0.0], [3.0, 4.0], [-0.0, -0.0]]),
        Trajectory("signed-zero", [[-0.0, -0.0], [-0.0, -0.0]]),
        Trajectory("underflow", [[0.0, 0.0], [1e-170, -0.0]]),  # length 0, distinct ends
        Trajectory("long", np.cumsum(
            np.random.default_rng(5).normal(0.0, 2.0, (400, 2)), axis=0)),
        # the shortest nonzero length: a norm below 2.2e-162 underflows to 0,
        # so np.linspace's step == 0 branch, which needs a length below
        # (n - 1) * 5e-324, is out of reach and the sampler leaves it out
        Trajectory("tiny", [[0.0, 0.0], [2e-162, 0.0]]),
    ] + random_polylines(np.random.default_rng(7), 12))

    @pytest.mark.parametrize("r", [2, 7, 20])
    def test_resample_all_matches_loop(self, r):
        want = np.stack([oracles.resample(t, r) for t in self.POLYLINES])
        assert resample_all(self.POLYLINES, r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [0.13, 0.5, 7.0])
    def test_sample_points_match_loop(self, step):
        want = oracles.sample_polyline_points(self.POLYLINES, step)
        assert sample_polyline_points(self.POLYLINES, step).tobytes() == want.tobytes()

    def test_empty_resample_all(self):
        got = resample_all(TrajectorySet.of(()), 7)
        assert got.shape == (0, 7, 2) and got.tobytes() == b""
        with pytest.raises(ContractError, match="no polylines to sample"):
            sample_polyline_points(TrajectorySet.of(()), 0.5)

    def test_underflowing_lead_segment_pins_start(self):
        # the first segment's norm underflows to 0, so np.interp at arc length
        # 0 reads the second point; the loop of eval returned it, the sampler
        # pins the start, as resample did
        ts = one("d", [[0.0, 0.0], [5e-324, 0.0], [4.0, 0.0]])
        (t,) = ts
        start = np.array([0.0, 0.0]).tobytes()
        assert resample_all(ts, 5)[0, 0].tobytes() == start
        assert oracles.resample(t, 5)[0].tobytes() == start
        assert sample_polyline_points(ts, 0.5)[0].tobytes() == start
        assert oracles.sample_polyline_points(ts, 0.5)[0].tobytes() == \
            np.array([5e-324, 0.0]).tobytes()

    def test_oversized_request_refused_before_interpolating(self, monkeypatch):
        # every point is computed in a chunk of targets
        calls = []
        monkeypatch.setattr(core, "chunked_repeat", lambda *args: calls.append(args))
        ten = Trajectory("p", [[0.0, 0.0], [10.0, 0.0]])
        far = Trajectory("f", [[-1e7, 0.0], [1e7, 0.0]])
        with pytest.raises(ContractError, match="sampling at step 0.001 needs more "
                                                "than MAX_SAMPLES="):
            sample_polyline_points(TrajectorySet.of([ten, far]), step=1e-3)
        assert calls == []

