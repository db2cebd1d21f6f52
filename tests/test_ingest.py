import json

import numpy as np
import pytest

from oracles import smooth_by_point_loop
from trajprior import cli, ingest
from trajprior.core import ContractError, Trajectory, TrajectorySet, decode_json
from trajprior.ingest import (filter_by_length,
                              parse_centerlines, parse_trajectories,
                              retention_check, serialize_centerlines,
                              serialize_trajectories, smooth_set, synth_scene)


def make_jsonl(records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


class TestParse:
    def test_jsonl_two_trajectories(self):
        text = make_jsonl([
            {"id": "a", "points": [[0, 0], [1, 0], [2, 0]]},
            {"id": "b", "points": [[0, 1], [1, 1], [2, 1]]},
        ])
        ts = parse_trajectories(text)
        assert len(ts) == 2
        assert ts.trajectories[0].id == "a"

    def test_header_record(self):
        text = make_jsonl([
            {"frame_id": "f7", "centerline_count": 4},
            {"id": "a", "points": [[0, 0], [1, 0]]},
        ])
        ts = parse_trajectories(text)
        assert ts.frame_id == "f7"
        assert ts.centerline_count == 4
        assert len(ts) == 1

    def test_single_point_rejected_with_line(self):
        text = make_jsonl([{"id": "a", "points": [[0, 0]]}])
        with pytest.raises(ContractError, match="line 1.*shorter than 2"):
            parse_trajectories(text)

    def test_bad_json_names_line(self):
        text = '{"id": "a", "points": [[0,0],[1,0]]}\n{oops\n'
        with pytest.raises(ContractError, match="line 2"):
            parse_trajectories(text)

    @pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\u2029"],
                             ids=["NEL", "LS", "PS"])
    def test_unicode_line_separator_inside_string(self, sep):
        # JSON allows these raw in a string, so they do not end a record
        text = (f'{{"id": "a{sep}b", "points": [[0, 0], [1, 0]]}}\n'
                f'{{"id": "c", "points": [[0, 1], [1, 1]], "type": "x{sep}"}}\n')
        ts = parse_trajectories(text)
        assert [(t.id, t.label) for t in ts.trajectories] == \
            [(f"a{sep}b", None), ("c", f"x{sep}")]
        with pytest.raises(ContractError, match="^line 3: invalid JSON"):
            parse_trajectories(text + "{oops\n")
        cl = text.replace('"points"', '"centerlines"')
        assert [p.id for p in parse_centerlines(cl)] == [f"a{sep}b", "c"]
        with pytest.raises(ContractError, match="^line 3: record missing"):
            parse_centerlines(cl + '{"id": "d"}\n')

    def test_crlf_lines_parse(self):
        text = make_jsonl([{"id": "a", "points": [[0, 0], [1, 0]]},
                           {"id": "b", "points": [[0, 1], [1, 1]]}])
        ts = parse_trajectories(text.replace("\n", "\r\n"))
        assert [t.id for t in ts.trajectories] == ["a", "b"]
        with pytest.raises(ContractError, match="^line 3:"):
            parse_trajectories(text.replace("\n", "\r\n") + "{oops\r\n")

    def test_csv_fixture(self, fixtures_dir):
        text = (fixtures_dir / "straight3.csv").read_text()
        ts = parse_trajectories(text)
        assert len(ts) == 3
        assert all(len(t.points) == 10 for t in ts.trajectories)

    def test_roundtrip_jsonl_fixed_point(self):
        text = make_jsonl([
            {"frame_id": "f", "centerline_count": 2},
            {"id": "a", "points": [[0.5, -1.25], [3.0, 2.0]]},
        ])
        ts = parse_trajectories(text)
        once = serialize_trajectories(ts)
        twice = serialize_trajectories(parse_trajectories(once))
        assert once == twice

    def test_csv_matches_jsonl(self, fixtures_dir):
        """CSV is read only: it parses to what the same trajectories as JSONL do."""
        csv_ts = parse_trajectories((fixtures_dir / "straight3.csv").read_text())
        jsonl_ts = parse_trajectories((fixtures_dir / "straight3.jsonl").read_text())
        assert [t.id for t in csv_ts.trajectories] == ["t0", "t1", "t2"]
        assert [t.id for t in csv_ts.trajectories] == \
            [t.id for t in jsonl_ts.trajectories]
        for a, b in zip(csv_ts.trajectories, jsonl_ts.trajectories):
            assert a.points.tobytes() == b.points.tobytes()

    def test_first_nonblank_character_picks_the_reader(self, fixtures_dir):
        """A `{`, or nothing but whitespace, means JSONL, whose blank lines
        before the first record are skipped; anything else means CSV."""
        text = (fixtures_dir / "straight3.jsonl").read_text()
        for pad in ("\n", " \t\r\n", "\x0c\n", "\u00a0\n"):
            assert serialize_trajectories(parse_trajectories(pad + text)) == \
                serialize_trajectories(parse_trajectories(text))
        for blank in ("", " \n\x0c\n"):
            assert len(parse_trajectories(blank)) == 0
        with pytest.raises(ContractError, match="^line 1: expected 4 columns"):
            parse_trajectories("[1, 2]\n")

    def test_csv_error_names_first_physical_line(self):
        """A quoted newline does not shift later line numbers."""
        text = 'traj_id,seq,x,y\n"a\nb",0,0,0\n"a\nb",1,nan,1\n'
        with pytest.raises(ContractError, match="^line 4: points must be finite"):
            parse_trajectories(text)
        with pytest.raises(ContractError, match="^line 6: trajectory shorter"):
            parse_trajectories(text.replace("nan", "1") + "c,0,0,0\n")
        ts = parse_trajectories(text.replace("nan", "1"))
        assert [t.id for t in ts.trajectories] == ["a\nb"]

    def test_centerlines(self):
        text = make_jsonl([{"id": "c0", "centerlines": [[0, 0], [5, 0]]}])
        centerlines = parse_centerlines(text)
        assert len(centerlines) == 1
        again = parse_centerlines(serialize_centerlines(centerlines))
        assert np.array_equal(again[0].points, centerlines[0].points)


    def test_labels_survive_roundtrip(self):
        types = ["x", 3, None]
        traj = [{"id": f"t{i}", "points": [[0, i], [1, i]], "type": t}
                for i, t in enumerate(types)]
        cls = [{"id": f"c{i}", "centerlines": [[0, i], [1, i]], "type": t}
               for i, t in enumerate(types)]
        ts = parse_trajectories(make_jsonl(traj))
        centerlines = parse_centerlines(make_jsonl(cls))
        assert [t.label for t in ts.trajectories] == types
        assert [p.label for p in centerlines] == types
        # "type": null is no label, so it is not written back
        once = serialize_trajectories(ts)
        assert once.count('"type"') == 2
        again = parse_trajectories(once)
        assert [t.label for t in again.trajectories] == types
        again = parse_centerlines(serialize_centerlines(centerlines))
        assert [p.label for p in again] == types

    def test_nonfinite_label_is_never_written(self):
        """No set holds a label the serializers could only write as NaN or
        Infinity: the set refuses it when it is built."""
        for label in (float("nan"), [float("inf")]):
            with pytest.raises(ContractError, match="type must be JSON"):
                TrajectorySet.of([Trajectory("a", [[0, 0], [1, 0]], label)])

    def test_smooth_and_filter_keep_labels(self):
        ts = parse_trajectories(make_jsonl([
            {"id": "a", "points": [[0, 0], [3, 0], [9, 0]], "type": "x"},
            {"id": "b", "points": [[0, 1], [1, 1]], "type": "y"}]))
        out = smooth_set(filter_by_length(ts, 5.0), 3)
        assert [(t.id, t.label) for t in out.trajectories] == [("a", "x")]


class TestCodecLimits:
    """What the JSON codec reads and writes at the edges of a record."""

    def test_integer_beyond_64_bits_reads_as_nearest_double(self):
        ts = parse_trajectories('{"id": "a", "points": [[0, 0], [1, 1]], '
                                '"type": 18446744073709551616}\n')
        assert ts.labels == (1.8446744073709552e+19,) and type(ts.labels[0]) is float
        assert serialize_trajectories(ts).endswith('"type":1.8446744073709552e19}\n')

    def test_non_ascii_id_survives_round_trip(self):
        tid = "voie-\u00e9-\u8eca-\U0001f697-\u2028"
        ts = TrajectorySet.of([Trajectory(tid, [[0.0, 0.0], [1.0, 1.0]])])
        text = serialize_trajectories(ts)
        assert f'"id":"{tid}"' in text  # UTF-8, not escapes
        assert parse_trajectories(text).ids == (tid,)

    @pytest.mark.parametrize("points", [[["1", "2"], ["3", "4.5"]], [[True, False], [True, True]],
                                        [[0, None], [1, 1]]],
                             ids=["numeric-strings", "bools", "null"])
    @pytest.mark.parametrize("first", [True, False], ids=["alone", "after-a-good-record"])
    def test_coordinates_that_are_not_numbers_name_their_line(self, points, first):
        """numpy would cast strings and booleans to float64; a record that
        holds them is refused, naming its line, alone or after a good one."""
        records = [{"id": "b", "points": points}]
        if not first:
            records.insert(0, {"id": "a", "points": [[0, 0], [9, 0]]})
        with pytest.raises(ContractError, match=f"line {len(records)}: points must be numbers"):
            parse_trajectories(make_jsonl(records))

    def test_true_outside_the_points_is_read(self):
        ts = parse_trajectories('{"id": "true", "points": [[0, 0], [1, 1]], "type": true}\n')
        assert (ts.ids, ts.labels) == (("true",), (True,))

    def test_points_are_walked_only_on_a_line_holding_true_or_false(self, monkeypatch):
        walked = []
        holds_bool = ingest._holds_bool
        monkeypatch.setattr(ingest, "_holds_bool",
                            lambda value: walked.append(value) or holds_bool(value))
        parse_trajectories(make_jsonl([{"id": "a", "points": [[1, 2], [3, 4]], "type": None},
                                       {"id": "b", "points": [[5, 6], [7, 8]], "type": False}]))
        assert walked == [[[5, 6], [7, 8]]]


class TestOnePass:
    """Each line of a record file is decoded once, whether the file is good
    or not, and the set's one check names the line of a bad record."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        texts = []

        def counting(text):
            texts.append(text)
            return decode_json(text)

        monkeypatch.setattr(ingest, "decode_json", counting)
        return texts

    def test_good_file(self, fixtures_dir, decoded):
        text = (fixtures_dir / "mixed_lengths.jsonl").read_text()
        assert len(parse_trajectories(text)) == 3
        assert decoded == text.splitlines()

    @pytest.mark.parametrize("bad,read", [('{"id": "x", "points": [[0, 0], [1e300, 0]]}', 6),
                                          ('{"id": "x", "points": [[0, 0]]}', 6),
                                          ('{"id": 5, "points": [[0, 0], [1, 0]]}', 6),
                                          ('{"id": "x", "points": [[0, 0], [1, 0, 2]]}', 5)],
                             ids=["bound", "length", "id", "ragged"])
    def test_bad_record_names_its_line(self, fixtures_dir, decoded, bad, read):
        """The set checks a field of every record at once, after the last
        line is read; points that make no (n, 2) array stop the read."""
        lines = (fixtures_dir / "mixed_lengths.jsonl").read_text().splitlines()
        lines += [bad, lines[-1].replace("len10", "len11")]
        with pytest.raises(ContractError, match="^line 5: "):
            parse_trajectories("\n".join(lines) + "\n")
        assert decoded == lines[:read]

    def test_centerlines(self, decoded):
        lines = ['{"id": "c0", "centerlines": [[0, 0], [5, 0]]}',
                 '{"id": "c1", "centerlines": [[0, 1], [5, 1e300]]}',
                 '{"id": "c2", "centerlines": [[0, 2], [5, 2]]}']
        with pytest.raises(ContractError, match="^line 2: points must be finite"):
            parse_centerlines("\n".join(lines))
        assert decoded == lines


class TestFilterByLength:
    def test_zero_threshold_is_identity(self):
        ts = parse_trajectories(make_jsonl(
            [{"id": "a", "points": [[0, 0], [1, 0]]}]))
        out = filter_by_length(ts, 0)
        assert len(out) == len(ts)

    def test_short_trajectory_removed(self):
        ts = TrajectorySet.of([Trajectory("s", [[0, 0], [3, 0]])])
        assert len(filter_by_length(ts, 5.0)) == 0

    def test_mixed_fixture(self, fixtures_dir):
        ts = parse_trajectories((fixtures_dir / "mixed_lengths.jsonl").read_text())
        out = filter_by_length(ts, 5.0)
        assert len(out) == 2
        assert [t.id for t in out.trajectories] == ["len6", "len10"]

    def test_threshold_is_the_pairwise_sum(self):
        """A trajectory is as long as np.sum of its segment norms, a pairwise
        sum. A left-to-right sum, such as np.add.reduceat's or np.cumsum's,
        differs from it in the last bit for most polylines of 2 to 60 points,
        and would move which trajectories the threshold keeps."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = rng.normal(0.0, 10.0, (int(rng.integers(2, 61)), 2))
            norms = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            if norms.sum() != np.cumsum(norms)[-1]:
                break
        assert norms.sum() != np.cumsum(norms)[-1]
        ts = TrajectorySet.of([Trajectory("t", pts)])
        assert len(filter_by_length(ts, float(norms.sum()))) == 1
        assert len(filter_by_length(ts, float(np.nextafter(norms.sum(), np.inf)))) == 0

    def test_each_polyline_sums_its_own_segments(self):
        """The segments of one packed ``_segment_lengths`` call, sliced per
        polyline, keep what a norm per polyline keeps."""
        rng = np.random.default_rng(5)
        ts = TrajectorySet.of(Trajectory(f"t{i}", rng.normal(0.0, 3.0, (int(n), 2)))
                              for i, n in enumerate(rng.integers(2, 9, 300)))
        for threshold in (0.0, 5.0, 12.0, 30.0):
            want = [t.id for t in ts
                    if np.linalg.norm(np.diff(t.points, axis=0), axis=1).sum() >= threshold]
            assert filter_by_length(ts, threshold).ids == tuple(want)

    def test_idempotent(self, fixtures_dir):
        ts = parse_trajectories((fixtures_dir / "mixed_lengths.jsonl").read_text())
        once = filter_by_length(ts, 5.0)
        twice = filter_by_length(once, 5.0)
        assert [t.id for t in once.trajectories] == [t.id for t in twice.trajectories]


def smooth_one(t, window):
    """smooth_set on the one-trajectory set of t."""
    return smooth_set(TrajectorySet.of([t]), window).trajectories[0]


class TestSmooth:
    def test_window_one_is_identity(self):
        ts = TrajectorySet.of([Trajectory("a", [[0, 0], [1, 5], [2, -3]])])
        assert smooth_set(ts, 1) is ts

    def test_window_three_midpoint(self):
        t = Trajectory("a", [[0, 0], [1, 1], [2, 0]])
        out = smooth_one(t, 3)
        assert np.allclose(out.points[1], [1.0, 1.0 / 3.0])
        # endpoints keep their position (shrunken window radius 0)
        assert np.array_equal(out.points[0], [0, 0])
        assert np.array_equal(out.points[2], [2, 0])

    def test_collinear_unchanged(self):
        t = Trajectory("a", np.column_stack([np.arange(10.0), 2 * np.arange(10.0)]))
        out = smooth_one(t, 5)
        assert np.allclose(out.points, t.points, atol=1e-12)

    def test_point_count_preserved_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            t = Trajectory("a", rng.normal(0, 100, (n, 2)))
            out = smooth_one(t, 5)
            assert len(out.points) == n
            assert np.all(np.isfinite(out.points))

    def test_even_window_rejected(self):
        with pytest.raises(ContractError):
            smooth_set(TrajectorySet.of(()), 4)


def labelled_set(rng, lengths):
    """Random trajectories of the given lengths, labelled, with some -0.0."""
    trajs = []
    for i, n in enumerate(lengths):
        pts = rng.normal(0.0, 50.0, (n, 2))
        pts[rng.random((n, 2)) < 0.1] = -0.0
        trajs.append(Trajectory(f"t{i}", pts, label=["x", i, None][i % 3]))
    return TrajectorySet.of(trajs, "f", 3)


WINDOWS = list(range(1, 16, 2)) + [201, 10**20 + 1]


class TestSmoothMatchesPointLoop:
    """smooth_set is bit-identical to averaging every window with np.mean."""

    def assert_matches(self, ts, window):
        out = smooth_set(ts, window)
        assert (out.frame_id, out.centerline_count) == (ts.frame_id,
                                                        ts.centerline_count)
        assert len(out) == len(ts)
        for got, t in zip(out.trajectories, ts.trajectories):
            want = smooth_by_point_loop(t, window)
            assert (got.id, got.label) == (t.id, t.label)
            assert got.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("window", WINDOWS)
    def test_mixed_lengths(self, window):
        rng = np.random.default_rng(window % 1000)
        for _ in range(5):
            m = int(rng.integers(1, 15))
            self.assert_matches(labelled_set(rng, rng.integers(2, 41, m)), window)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_only_two_point_trajectories(self, window):
        self.assert_matches(labelled_set(np.random.default_rng(1), [2] * 6), window)

    @pytest.mark.parametrize("window", [3, 201, 1001, 10**20 + 1])
    def test_long_beside_short(self, window):
        rng = np.random.default_rng(2)
        self.assert_matches(labelled_set(rng, [3, 2500, 7, 40, 2]), window)

    def test_empty_set_and_window_one_keep_objects(self):
        for window in (1, 5):
            out = smooth_set(TrajectorySet.of((), "f", 2), window)
            assert len(out) == 0 and (out.frame_id, out.centerline_count) == ("f", 2)
        ts = labelled_set(np.random.default_rng(3), [4, 9])
        assert smooth_set(ts, 1) is ts


def test_smooth_reached_once_through_module_attribute(monkeypatch, tmp_path):
    """smooth_set makes one kernel call per set, looked up on the module at
    call time, so a wrapper installed there (a tracer) times all smoothing."""
    calls = []
    kernel = ingest.smooth

    def counting(*args):
        calls.append(len(args[1]) - 1)  # polylines, from the offsets
        return kernel(*args)

    monkeypatch.setattr(ingest, "smooth", counting)
    ts = labelled_set(np.random.default_rng(4), [5, 12, 30])
    smooth_set(ts, 5)
    assert calls == [3]
    src = tmp_path / "in.jsonl"
    src.write_text(serialize_trajectories(ts))
    assert cli.main(["ingest", "--input", str(src), "--min-length", "0",
                     "--out", str(tmp_path / "out.jsonl")]) == 0
    assert calls == [3, 3]


class TestRetention:
    @pytest.mark.parametrize("m,centerlines,expected", [
        (51, 10, True), (50, 10, False), (0, 0, False)])
    def test_strict_inequality(self, m, centerlines, expected):
        trajs = tuple(Trajectory(f"t{i}", [[0, 0], [1, 0]]) for i in range(m))
        ts = TrajectorySet.of(trajs, "f", centerlines)
        assert retention_check(ts) is expected


class TestSynthScene:
    def test_deterministic(self):
        a_ts, a_cl = synth_scene(7, 3, 4, 0.3)
        b_ts, b_cl = synth_scene(7, 3, 4, 0.3)
        for ta, tb in zip(a_ts.trajectories, b_ts.trajectories):
            assert np.array_equal(ta.points, tb.points)
        for ca, cb in zip(a_cl, b_cl):
            assert np.array_equal(ca.points, cb.points)

    def test_zero_noise_on_centerline(self):
        ts, centerlines = synth_scene(1, 2, 3, 0.0)
        by_id = {c.id: c for c in centerlines}
        for t in ts.trajectories:
            lane = t.id.split("_")[0]
            assert np.array_equal(t.points, by_id[lane].points)

    def test_counts(self):
        ts, centerlines = synth_scene(0, 3, 10, 0.1)
        assert len(ts) == 30
        assert len(centerlines) == 3
        assert ts.centerline_count == 3
