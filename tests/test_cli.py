import json
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from trajprior import cli, fusion, tensorio
from trajprior.cli import main
from trajprior.core import FeatureMap, GridSpec
from trajprior.raster import heatmap_to_feature


def run(*argv):
    return main([str(a) for a in argv])


def edit_header(path, edit):
    """Rewrite the JSON header of a .tp file through edit(header)."""
    raw = path.read_bytes()
    end = 12 + struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12:end])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text + raw[end:])


@pytest.fixture
def scene(tmp_path):
    d = tmp_path / "scene"
    assert run("synth", "--seed", 3, "--lanes", 3, "--per-lane", 5,
               "--noise", 0, "--out-dir", d) == 0
    return d


class TestIngest:
    def test_valid_fixture(self, scene, tmp_path, capsys):
        out = tmp_path / "ing.jsonl"
        assert run("ingest", "--input", scene / "trajectories.jsonl",
                   "--out", out) == 0
        assert out.exists()
        assert "retention_check" in capsys.readouterr().out

    def test_truncated_jsonl_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "points": [[0,0],[1,0]]}\n{"id": "b", "poi\n')
        assert run("ingest", "--input", bad, "--out", tmp_path / "o.jsonl") == 2
        assert "line 2" in capsys.readouterr().err

    def test_min_length_reduces_m(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        assert run("ingest", "--input", fixtures_dir / "mixed_lengths.jsonl",
                   "--min-length", 5, "--out", out) == 0
        assert "ingested 3 trajectories, kept 2" in capsys.readouterr().out


class TestRasterize:
    def test_header_dimensions(self, scene, tmp_path):
        out = tmp_path / "hm.tp"
        assert run("rasterize", "--input", scene / "trajectories.jsonl",
                   "--out", out) == 0
        _, meta = tensorio.load_tensors(out)
        assert meta["height"] == 100 and meta["width"] == 200

    def test_bad_roi_exit_2(self, scene, tmp_path):
        assert run("rasterize", "--input", scene / "trajectories.jsonl",
                   "--roi", "50,-50,-25,25", "--out", tmp_path / "hm.tp") == 2

    def test_byte_identical_rerun(self, scene, tmp_path):
        a, b = tmp_path / "a.tp", tmp_path / "b.tp"
        for out in (a, b):
            assert run("rasterize", "--input", scene / "trajectories.jsonl",
                       "--out", out, "--png", str(out) + ".pgm") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.tp.pgm").read_bytes() == \
            (tmp_path / "b.tp.pgm").read_bytes()

    def test_empty_input_warns(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"frame_id": "f", "centerline_count": 0}\n')
        assert run("rasterize", "--input", empty, "--out", tmp_path / "hm.tp") == 0
        assert "all-zero" in capsys.readouterr().err


class TestClusterSample:
    def test_k_equals_m_inertia_zero(self, scene, tmp_path):
        out = tmp_path / "c.json"
        assert run("cluster", "--input", scene / "trajectories.jsonl",
                   "--k", 15, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["inertia"] == pytest.approx(0.0, abs=1e-12)

    def test_k_too_large_exit_2(self, scene, tmp_path):
        assert run("cluster", "--input", scene / "trajectories.jsonl",
                   "--k", 99, "--out", tmp_path / "c.json") == 2

    def test_fixed_seed_identical_json(self, scene, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("cluster", "--input", scene / "trajectories.jsonl",
                       "--k", 3, "--seed", 5, "--out", out,
                       "--queries-out", str(out) + ".q") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.q").read_bytes() == \
            (tmp_path / "b.json.q").read_bytes()

    def test_sample_start_index(self, scene, tmp_path):
        out = tmp_path / "s.json"
        assert run("sample", "--input", scene / "trajectories.jsonl",
                   "--count", 1, "--start-index", 7, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["indices"] == [7]

    def test_sample_rerun_identical(self, scene, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("sample", "--input", scene / "trajectories.jsonl",
                       "--count", 4, "--seed", 2, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_too_large_exit_2(self, scene, tmp_path):
        assert run("sample", "--input", scene / "trajectories.jsonl",
                   "--count", 99, "--out", tmp_path / "s.json") == 2


@pytest.fixture
def fused_inputs(scene, tmp_path):
    hm_path = tmp_path / "hm.tp"
    run("rasterize", "--input", scene / "trajectories.jsonl", "--out", hm_path)
    fm = heatmap_to_feature(tensorio.load_heatmap(hm_path))
    bev, prior = tmp_path / "bev.tp", tmp_path / "prior.tp"
    tensorio.save_feature_map(bev, fm)
    tensorio.save_feature_map(prior, fm)
    params = tmp_path / "params.tp"
    run("gen-params", "--seed", 0, "--channels", 2, "--out", params)
    return bev, prior, params


class TestFuse:
    def test_fuse_and_check_grads(self, fused_inputs, tmp_path, capsys):
        bev, prior, params = fused_inputs
        out = tmp_path / "fused.tp"
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", out, "--check-grads") == 0
        sidecar = json.loads((tmp_path / "fused.tp.json").read_text())
        assert sidecar["grad_check_max_rel_err"] < 1e-5
        assert 0.0 <= sidecar["mean_alpha"] <= 1.0

    def test_check_grads_reports_every_adjoint(self, fused_inputs, tmp_path,
                                               capsys):
        bev, prior, params = fused_inputs
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "fused.tp", "--check-grads") == 0
        sidecar = json.loads((tmp_path / "fused.tp.json").read_text())
        per_output = sidecar["grad_check_rel_err"]
        assert len(per_output) == 16 and "fuse.d_lb" in per_output
        assert sidecar["grad_check_max_rel_err"] == max(per_output.values())
        worst = max(per_output, key=per_output.get)
        assert f"({worst})" in capsys.readouterr().out

    @pytest.mark.parametrize("wrong", [lambda d_la: d_la,
                                       lambda d_la: np.full_like(d_la, np.nan)],
                             ids=["sign", "nan"])
    def test_wrong_adjoint_exit_3_names_it(self, wrong, fused_inputs, tmp_path,
                                           capsys, monkeypatch):
        right = fusion.confidence_fuse_grad

        def wrong_d_lb(*args):
            d_bev, d_prior, d_la, _ = right(*args)
            return d_bev, d_prior, d_la, wrong(d_la)

        monkeypatch.setattr(fusion, "confidence_fuse_grad", wrong_d_lb)
        bev, prior, params = fused_inputs
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "fused.tp", "--check-grads") == 3
        err = capsys.readouterr().err
        assert "fuse.d_lb" in err and "Traceback" not in err
        sidecar = json.loads((tmp_path / "fused.tp.json").read_text())
        assert sidecar["grad_check_rel_err"]["fuse.d_lb"] > 1e-4

    def test_mismatched_shapes_exit_2(self, fused_inputs, tmp_path):
        bev, _, params = fused_inputs
        small = tmp_path / "small.tp"
        run("synth", "--seed", 1, "--lanes", 1, "--per-lane", 1, "--noise", 0,
            "--out-dir", tmp_path / "s2")
        run("rasterize", "--input", tmp_path / "s2" / "trajectories.jsonl",
            "--cell", "1.0", "--out", tmp_path / "hm2.tp")
        fm = heatmap_to_feature(tensorio.load_heatmap(tmp_path / "hm2.tp"))
        tensorio.save_feature_map(small, fm)
        assert run("fuse", "--bev", bev, "--prior", small, "--params", params,
                   "--out", tmp_path / "f.tp") == 2

    def test_zero_params_midpoint(self, fused_inputs, tmp_path):
        bev, prior, _ = fused_inputs
        zp = tmp_path / "zero.tp"
        tensorio.save_params(zp, {"w1": np.zeros((4, 4, 3, 3)), "b1": np.zeros(4),
                                  "w2": np.zeros((2, 4, 3, 3)), "b2": np.zeros(2),
                                  "weight": np.zeros((2, 4)), "bias": np.zeros(2)})
        out = tmp_path / "fused.tp"
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", zp,
                   "--out", out) == 0
        fused = tensorio.load_feature_map(out)
        bev_fm = tensorio.load_feature_map(bev)
        assert np.allclose(fused.data, bev_fm.data)  # bev == prior here
        sidecar = json.loads((tmp_path / "fused.tp.json").read_text())
        assert sidecar["mean_alpha"] == pytest.approx(0.5)

    def test_zero_channel_maps_exit_2(self, tmp_path, capsys):
        # 0-channel maps with params built for them: C >= 1 is required
        empty = tmp_path / "empty.tp"
        tensorio.save_feature_map(empty, FeatureMap(GridSpec(0, 4, 0, 3, 1, 1),
                                                    np.zeros((3, 4, 0))))
        zp = tmp_path / "zero.tp"
        tensorio.save_tensors(zp, {"off_w1": np.zeros((4, 0, 3, 3)), "off_b1": np.zeros(4),
                                   "off_w2": np.zeros((2, 4, 3, 3)), "off_b2": np.zeros(2),
                                   "logit_weight": np.zeros((2, 0)),
                                   "logit_bias": np.zeros(2)},
                              {"kind": "params", "channels": 0, "hidden": 4})
        out = tmp_path / "fused.tp"
        assert run("fuse", "--bev", empty, "--prior", empty, "--params", zp,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert "C >= 1" in err and "channels" in err and "Traceback" not in err
        assert not out.exists()


    def test_heatmap_as_bev_exit_2(self, fused_inputs, tmp_path, capsys):
        _, prior, params = fused_inputs
        assert run("fuse", "--bev", tmp_path / "hm.tp", "--prior", prior,
                   "--params", params, "--out", tmp_path / "f.tp") == 2
        err = capsys.readouterr().err
        assert "expected a feature file" in err and "Traceback" not in err
        assert not (tmp_path / "f.tp").exists()

    def test_unknown_dtype_exit_2(self, fused_inputs, tmp_path, capsys):
        bev, prior, params = fused_inputs
        raw = params.read_bytes()
        params.write_bytes(raw.replace(b'"dtype":"float64"', b'"dtype":"float32"', 1))
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "f.tp") == 2
        assert "unknown dtype 'float32'" in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", [["float64"], {"float64": 1}],
                             ids=["list", "dict"])
    def test_unhashable_dtype_exit_2_names_file(self, dtype, fused_inputs,
                                                tmp_path, capsys):
        bev, prior, params = fused_inputs
        edit_header(bev, lambda h: h["tensors"][0].update(dtype=dtype))
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "f.tp") == 2
        err = capsys.readouterr().err
        assert f"{bev}: tensor 'data' has unknown dtype" in err
        assert "Traceback" not in err

    def test_spec_beyond_float_range_exit_2_names_file(self, fused_inputs,
                                                       tmp_path, capsys):
        bev, prior, params = fused_inputs
        edit_header(prior, lambda h: h["meta"]["spec"].update(x_max=10 ** 400))
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "f.tp") == 2
        err = capsys.readouterr().err
        assert f"{prior}: bad or missing grid spec" in err and "Traceback" not in err

    def test_truncated_params_exit_2(self, fused_inputs, tmp_path, capsys):
        bev, prior, params = fused_inputs
        params.write_bytes(params.read_bytes()[:-16])
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "f.tp") == 2
        assert "past the end" in capsys.readouterr().err

    @pytest.mark.parametrize("name,index,bad", [("off_w2", (1, 0, 2, 2), np.nan),
                                                ("logit_weight", (0, 3), np.inf)],
                             ids=["nan-off_w2", "inf-logit_weight"])
    def test_nonfinite_params_exit_2(self, name, index, bad, fused_inputs, tmp_path,
                                     capsys):
        bev, prior, params = fused_inputs
        tensors, meta = tensorio.load_tensors(params)
        tensors[name] = tensors[name].copy()
        tensors[name][index] = bad
        tensorio.save_tensors(params, tensors, meta)
        assert run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                   "--out", tmp_path / "f.tp") == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "f.tp").exists()

    @pytest.mark.parametrize("name,what", [("off_w2", "offsets"),
                                           ("logit_weight", "logits"),
                                           ("off_b2", "mean absolute offset")],
                             ids=["offsets", "logits", "offset-mean"])
    def test_overflowing_params_exit_2_one_line(self, name, what, fused_inputs,
                                                tmp_path, capsys):
        bev, prior, params = fused_inputs
        tensors, meta = tensorio.load_tensors(params)
        tensors[name] = np.full_like(tensors[name], 1e308)
        tensorio.save_tensors(params, tensors, meta)
        # record warnings: outside pytest numpy's would go to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("fuse", "--bev", bev, "--prior", prior, "--params", params,
                       "--out", tmp_path / "f.tp")
        assert code == 2 and not caught
        assert capsys.readouterr().err == f"error: {what} must be finite\n"
        assert not (tmp_path / "f.tp").exists()


class TestGenParams:
    @pytest.mark.parametrize("flag", ["--channels", "--hidden"])
    def test_empty_dimension_exit_2(self, flag, tmp_path, capsys):
        out = tmp_path / "p.tp"
        assert run("gen-params", flag, 0, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestEval:
    def test_perfect_match(self, scene, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("eval", "--pred", scene / "trajectories.jsonl",
                   "--gt", scene / "centerlines.jsonl", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["iou"] == 1.0
        assert doc["ae_dist"] == pytest.approx(0.0, abs=1e-12)

    def test_rerun_identical(self, scene, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("eval", "--pred", scene / "trajectories.jsonl",
                       "--gt", scene / "centerlines.jsonl", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_ids_keep_their_own_labels(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id": "a", "points": [[0, 0], [9, 0]], "type": "x"}\n'
                       '{"id": "a", "points": [[0, 3], [9, 3]], "type": "y"}\n')
        pred = tmp_path / "pred.jsonl"
        assert run("ingest", "--input", raw, "--out", pred) == 0
        records = [json.loads(line) for line in pred.read_text().splitlines()[1:]]
        assert [r["type"] for r in records] == ["x", "y"]
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"id": "c0", "centerlines": [[0, 0], [9, 0]], "type": "x"}\n'
                      '{"id": "c1", "centerlines": [[0, 3], [9, 3]], "type": "y"}\n')
        out = tmp_path / "report.json"
        assert run("eval", "--pred", pred, "--gt", gt, "--out", out) == 0
        assert json.loads(out.read_text())["ae_type"] == 0.0

    def test_malformed_exit_2(self, scene, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run("eval", "--pred", bad, "--gt", scene / "centerlines.jsonl",
                   "--out", tmp_path / "r.json") == 2


GOOD_TRAJ = '{"id": "a", "points": [[0, 0], [9, 0]]}\n'
GOOD_CL = '{"id": "c", "centerlines": [[0, 0], [9, 0]]}\n'
HEADER = '{"frame_id": "f", "centerline_count": %s}\n'

# (file kind, text, line the error must name)
MALFORMED = {
    "count-list": ("jsonl", HEADER % "[1]" + GOOD_TRAJ, 1),
    "count-overflow": ("jsonl", HEADER % "1e400" + GOOD_TRAJ, 1),
    "count-fraction": ("jsonl", HEADER % "2.7" + GOOD_TRAJ, 1),
    "point-object": ("jsonl", HEADER % 1 + GOOD_TRAJ
                     + '{"id": "b", "points": [[0, 0], {}]}\n', 3),
    "point-string": ("jsonl", GOOD_TRAJ + '{"id": "b", "points": [[0, 0], ["x", 1]]}\n', 2),
    "centerline-point-object": ("centerlines", GOOD_CL
                                + '{"id": "d", "centerlines": [{}, {}]}\n', 2),
    "centerline-number": ("centerlines", GOOD_CL + "5\n", 2),
    "centerline-list": ("centerlines", GOOD_CL + '["centerlines"]\n', 2),
    "csv-nan": ("csv", "traj_id,seq,x,y\nt0,0,0,0\nt0,1,nan,1\n", 3),
    "csv-huge": ("csv", "traj_id,seq,x,y\nt0,0,0,0\nt0,1,1e308,0\n", 3),
}


@pytest.mark.parametrize("kind,text,line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_record_exit_2_names_line(kind, text, line, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_text(text)
    if kind == "centerlines":
        pred = tmp_path / "pred.jsonl"
        pred.write_text(GOOD_TRAJ)
        argv = ["eval", "--pred", pred, "--gt", bad]
    else:
        argv = ["ingest", "--format", kind, "--input", bad]
    assert run(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "Traceback" not in err


# (subcommand, NaN flag, the checked name the error must give)
NAN_FLAGS = {
    "ingest": ("ingest", "--min-length", "min_length_m must be >= 0, got nan"),
    "cluster": ("cluster", "--tol", "tol must be > 0 and max_iter >= 1, got tol=nan"),
    "eval": ("eval", "--sample-step", "step must be > 0, got nan"),
}


@pytest.mark.parametrize("command,flag,message", NAN_FLAGS.values(),
                         ids=NAN_FLAGS.keys())
def test_nan_flag_exit_2_names_value(command, flag, message, scene, tmp_path,
                                     capsys):
    inputs = {"ingest": ["--input", scene / "trajectories.jsonl"],
              "cluster": ["--input", scene / "trajectories.jsonl", "--k", 2],
              "eval": ["--pred", scene / "trajectories.jsonl",
                       "--gt", scene / "centerlines.jsonl"]}
    assert run(command, *inputs[command], flag, "nan",
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert message in err and "nan" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# (argv before the output path, the checked name and value the error must give)
BAD_GENERATOR_ARGS = {
    "synth-noise-nan": (["synth", "--noise", "nan", "--out-dir"],
                        "noise_sigma must be finite and >= 0, got nan"),
    "synth-noise-inf": (["synth", "--noise", "inf", "--out-dir"],
                        "noise_sigma must be finite and >= 0, got inf"),
    "gen-params-channels": (["gen-params", "--channels", -1, "--out"],
                            "channels and hidden must be >= 1, got channels=-1"),
    "gen-params-hidden": (["gen-params", "--hidden", -3, "--out"],
                          "got channels=2 hidden=-3"),
}


@pytest.mark.parametrize("argv,message", BAD_GENERATOR_ARGS.values(),
                         ids=BAD_GENERATOR_ARGS.keys())
def test_bad_generator_arg_exit_2_names_value(argv, message, tmp_path, capsys):
    assert run(*argv, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# (command, argv before the output flag, the error naming the value given)
RANGE_ERRORS = {
    "sample-start-index": ("sample", ["--count", 2, "--start-index", -1],
                           "start_index must be in [0, 15), got -1"),
    "synth-lanes": ("synth", ["--lanes", 0], "got lanes=0 per_lane=10"),
    "synth-per-lane": ("synth", ["--per-lane", 0], "got lanes=3 per_lane=0"),
    "ingest-smooth-window": ("ingest", ["--smooth-window", 2],
                             "smooth_window must be odd and >= 1, got 2"),
    "eval-width": ("eval", ["--width", 0], "width_m must be finite and > 0, got 0.0"),
    "cluster-resample": ("cluster", ["--k", 2, "--resample", 1],
                         "resample count must be >= 2, got 1"),
    "rasterize-roi": ("rasterize", ["--roi", "1,0,0,1"],
                      "got x_min=1.0 x_max=0.0 y_min=0.0 y_max=1.0"),
    "rasterize-cell": ("rasterize", ["--cell", 0],
                       "cell sizes must be > 0, got cell_dx=0.0 cell_dy=0.0"),
    # each asks for far more than memory holds; the cap refuses it first
    "cluster-resample-size": ("cluster", ["--k", 2, "--resample", 10 ** 13],
                              "resample count 10000000000000 for 15 trajectories"),
    "sample-resample-size": ("sample", ["--count", 2, "--resample", 10 ** 13,
                                        "--queries-out", "q.json"],
                             "resample count 10000000000000 for 2 trajectories"),
    "gen-params-size": ("gen-params", ["--channels", 3 * 10 ** 6,
                                       "--hidden", 3 * 10 ** 6],
                        "got channels=3000000 hidden=3000000"),
}


@pytest.mark.parametrize("command,argv,message", RANGE_ERRORS.values(),
                         ids=RANGE_ERRORS.keys())
def test_range_error_exit_2_names_value(command, argv, message, scene, tmp_path,
                                        capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative output path lands in tmp_path
    trajectories = scene / "trajectories.jsonl"
    inputs = {"synth": ["--out-dir"], "gen-params": ["--out"],
              "eval": ["--pred", trajectories, "--gt", scene / "centerlines.jsonl",
                       "--out"]}
    assert run(command, *argv,
               *inputs.get(command, ["--input", trajectories, "--out"]),
               tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["scene"]


@pytest.mark.parametrize("command",
                         ["synth", "gen-params", "cluster", "sample", "fuse"])
def test_negative_seed_exit_2_at_parse_time(command, scene, fused_inputs,
                                            tmp_path, capsys):
    bev, prior, params = fused_inputs
    trajectories = scene / "trajectories.jsonl"
    inputs = {"synth": ["--out-dir"], "gen-params": ["--out"],
              "cluster": ["--input", trajectories, "--k", 2, "--out"],
              "sample": ["--input", trajectories, "--count", 2, "--out"],
              "fuse": ["--bev", bev, "--prior", prior, "--params", params,
                       "--check-grads", "--out"]}
    assert run(command, "--seed", -1, *inputs[command], tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and "'-1'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command,size,with_queries",
                         [("cluster", "--k", True), ("sample", "--count", True),
                          ("sample", "--count", False)],
                         ids=["cluster---k", "sample---count", "sample-no-queries-out"])
def test_resample_below_2_writes_nothing(command, size, with_queries, scene,
                                         tmp_path, capsys):
    out, queries = tmp_path / "out.json", tmp_path / "q.json"
    assert run(command, "--input", scene / "trajectories.jsonl", size, 2,
               "--resample", 1, "--out", out,
               *(["--queries-out", queries] if with_queries else [])) == 2
    assert "resample count must be >= 2" in capsys.readouterr().err
    assert not out.exists() and not queries.exists()


@pytest.mark.parametrize("flag,value", [("--roi", "a,b,c,d"), ("--roi", "1,2,3"),
                                        ("--cell", "x"), ("--cell", "1,2,3")])
def test_bad_grid_flag_exit_2_names_flag(flag, value, scene, tmp_path, capsys):
    assert run("rasterize", "--input", scene / "trajectories.jsonl",
               flag, value, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and repr(value) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestGridCap:
    @pytest.mark.parametrize("command", ["eval", "rasterize"])
    def test_oversized_grid_exit_2(self, command, scene, tmp_path, capsys):
        inputs = {"eval": ["--pred", scene / "trajectories.jsonl",
                           "--gt", scene / "centerlines.jsonl"],
                  "rasterize": ["--input", scene / "trajectories.jsonl"]}
        assert run(command, *inputs[command], "--cell", "1e-4",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "MAX_CELLS" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cell", ["inf", "1e300"])
    def test_empty_grid_exit_2(self, cell, scene, tmp_path, capsys):
        assert run("rasterize", "--input", scene / "trajectories.jsonl",
                   "--cell", cell, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "at least one cell" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSynth:
    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run("synth", "--seed", 9, "--lanes", 2, "--per-lane", 3,
                       "--noise", 0.5, "--out-dir", d) == 0
        for name in ("trajectories.jsonl", "centerlines.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_record_count(self, tmp_path):
        d = tmp_path / "s"
        assert run("synth", "--seed", 0, "--lanes", 3, "--per-lane", 10,
                   "--noise", 0, "--out-dir", d) == 0
        lines = (d / "trajectories.jsonl").read_text().strip().splitlines()
        assert len(lines) == 31  # header + 30 records


def test_directory_input_exit_2_names_path(tmp_path, capsys):
    assert run("ingest", "--input", tmp_path, "--out", tmp_path / "o.jsonl") == 2
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


HUGE = '{"id": "h", "points": [[0, 0], [1e308, 1e308], [-1e308, -1e308]]}\n'


@pytest.mark.parametrize("command", ["ingest", "rasterize", "eval"])
def test_huge_coordinates_exit_2(command, tmp_path, capsys):
    bad = tmp_path / "huge.jsonl"
    bad.write_text(HUGE)
    gt = tmp_path / "gt.jsonl"
    gt.write_text(GOOD_CL)
    inputs = {"ingest": ["--input", bad], "rasterize": ["--input", bad],
              "eval": ["--pred", bad, "--gt", gt]}
    assert run(command, *inputs[command], "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "line 1:" in err and "MAX_COORD" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# 2e7 m at these steps asks for 2e16 and 2e307 points: without the cap the
# allocation fails at once, so a regression cannot exhaust memory
@pytest.mark.parametrize("step", ["1e-9", "1e-300"])
def test_oversized_sample_request_exit_2(step, tmp_path, capsys):
    pred = tmp_path / "far.jsonl"
    pred.write_text('{"id": "f", "points": [[-1e7, 0], [1e7, 0]]}\n')
    gt = tmp_path / "gt.jsonl"
    gt.write_text(GOOD_CL)
    tracemalloc.start()
    try:
        code = run("eval", "--pred", pred, "--gt", gt, "--sample-step", step,
                   "--out", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 16 * 2 ** 20
    err = capsys.readouterr().err
    assert "MAX_SAMPLES" in err and "Traceback" not in err


def test_overflowing_sample_count_prints_only_the_error(scene, tmp_path, capsys):
    # length / 1e-320 overflows float64; the count is inf and refused silently
    assert run("eval", "--pred", scene / "trajectories.jsonl",
               "--gt", scene / "centerlines.jsonl", "--sample-step", "1e-320",
               "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == ("error: sampling at step 1e-320 needs more "
                                       "than MAX_SAMPLES=10000000 points\n")
    assert not (tmp_path / "out").exists()


# the last case is complete but for a stray argument, which the top-level
# parser reports under its own usage line
PARSE_CASES = [[], ["--help"], ["no-such-command"]] + [
    argv for command in cli._COMMANDS
    for argv in ([command, "--help"], [command], [command, "--no-such-flag"])
] + [["synth", "--out-dir", "OUT", "extra"]]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_one_command_parser_matches_full_parser(argv, tmp_path, capsys,
                                                monkeypatch):
    """Help text, usage errors and exit codes do not depend on building only
    the invoked subcommand's parser."""
    argv = [str(tmp_path / "x") if a == "OUT" else a for a in argv]
    build, seen = cli.build_parser, []
    for builder in (build, lambda command: build()):
        monkeypatch.setattr(cli, "build_parser", builder)
        seen.append((main(argv), *capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] == (0 if "--help" in argv else 2)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_dump_json_refuses_nonfinite(bad, tmp_path):
    with pytest.raises(ValueError):
        cli._dump_json(tmp_path / "r.json", {"stats": [1.0, bad]})


def test_cluster_and_sample_do_not_import_numpy_random(scene, fused_inputs, tmp_path):
    """Importing numpy.random costs more than the draws of `cluster`, `sample`
    or the gradient check of `fuse --check-grads`."""
    bev, prior, params = map(str, fused_inputs)
    script = (
        "import sys\n"
        "from trajprior.cli import main\n"
        f"inp, out = {str(scene / 'trajectories.jsonl')!r}, {str(tmp_path)!r}\n"
        "assert main(['cluster', '--input', inp, '--k', '3', '--seed', '5',\n"
        "             '--out', out + '/c.json', '--queries-out', out + '/cq.json']) == 0\n"
        "assert main(['sample', '--input', inp, '--count', '3', '--seed', '5',\n"
        "             '--out', out + '/s.json', '--queries-out', out + '/sq.json']) == 0\n"
        f"assert main(['fuse', '--bev', {bev!r}, '--prior', {prior!r},\n"
        f"             '--params', {params!r}, '--out', out + '/f.tp',\n"
        "             '--check-grads']) == 0\n"
        "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
