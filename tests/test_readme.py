"""README's examples run as written, and write the bytes README promises."""
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from trajprior import cli, tensorio
from trajprior.core import CENTERLINE_KEYS, HEADER_KEYS, TRAJECTORY_KEYS

README = pathlib.Path(__file__).parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S)


def readme_chain():
    """The argv of every `trajprior` line of README's CLI block, and its
    Python block."""
    (shell,) = [b for b in blocks("sh") if "trajprior synth" in b]
    (python,) = blocks("python")
    commands = [shlex.split(line)[1:]
                for line in shell.replace("\\\n", " ").splitlines()
                if line.startswith("trajprior ")]
    return commands, python


def test_cli_example_chain_runs(tmp_path, monkeypatch, capsys):
    """Every `trajprior` line of README's CLI block exits 0, in order, in one
    directory, so the example chain cannot drift from the commands. The
    feature maps that `fuse` reads come from README's Python block, run
    before `fuse` as README says."""
    commands, python = readme_chain()
    assert "fuse" in [argv[0] for argv in commands]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "fuse":
            exec(python, {})
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_names_every_cli_flag():
    """Every flag of every command appears in README, so no option goes
    undocumented."""
    text = README.read_text(encoding="utf-8")
    missing = [f"{command} {flag}" for command, (_, _, flags) in cli._COMMANDS.items()
               for flag, *_ in flags
               if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)]
    assert not missing



def test_readme_names_no_flag_its_command_lacks():
    """The reverse of the test above: every flag README gives a command, in a
    backticked `<command> --flag ...` span or a `trajprior <command>` line of
    an `sh` block, is one the command takes (or `--help`), so a deleted
    option leaves no example behind."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    lines = [line.split() for block in blocks("sh")
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("trajprior ")]
    spans = [span.split() for span in re.findall(r"`([^`]+)`", prose)]
    mentions, unknown = 0, []
    for words in lines + spans:
        words = words[1:] if words[:1] == ["trajprior"] else words
        if words and words[0] in cli._COMMANDS:
            known = [flag for flag, *_ in cli._COMMANDS[words[0]][2]] + ["--help"]
            flags = [w.partition("=")[0] for w in words[1:] if w.startswith("--")]
            mentions += len(flags)
            unknown += [f"{words[0]} {flag}" for flag in flags if flag not in known]
    assert mentions and not unknown


def test_readme_field_table_is_the_record_schema():
    """README's field table names exactly the keys that core lets each kind
    of record hold, so no key goes undocumented or stays documented once
    dropped."""
    rows = re.findall(r"^\| `(\w+)` \| ([\w ]+) \|", README.read_text(encoding="utf-8"),
                      re.M)
    where = {"header": {"header"}, "trajectory": {"each record", "trajectory record"},
             "centerline": {"each record", "centerline record"}}
    assert {place for _, place in rows} == set().union(*where.values())
    table = {kind: {field for field, place in rows if place in places}
             for kind, places in where.items()}
    assert table == {"header": HEADER_KEYS, "trajectory": TRAJECTORY_KEYS,
                     "centerline": CENTERLINE_KEYS}


# What README's CLI section promises: fuse's outputs agree within this bound,
# relative to the largest magnitude, across BLAS kernels and numpy's SIMD
# paths; every other file is byte-identical.
FUSE_REL_BOUND = 1e-12
AVX512_GROUPS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# setting -> (child environment, whether it took effect given the default run's
# (BLAS core, CPU features) and its own)
SETTINGS = {
    "openblas-sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"},
                             lambda base, got: got[0] == "Sandybridge" != base[0]),
    "numpy-no-avx512": ({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_GROUPS)},
                        lambda base, got: any(base[1].get(f) for f in AVX512_GROUPS)
                        and not any(got[1].get(f) for f in AVX512_GROUPS)),
}
CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from trajprior import cli
commands, python = json.load(sys.stdin)
for argv in commands:
    if argv[0] == "fuse":
        exec(python, {})
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
print("CPU-FEATURES", json.dumps({k: bool(v) for k, v in __cpu_features__.items()}))
"""


def run_chain(workdir, setting):
    """README's chain in one child process under ``setting``: its files by
    relative path, the BLAS core OpenBLAS names and numpy's CPU features."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2", **setting)
    paths = [str(pathlib.Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=workdir, env=env,
                          input=json.dumps(readme_chain()), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=300)
    assert done.returncode == 0, done.stdout
    core = re.findall(r"Core: (\w+)", done.stdout)
    features = json.loads(done.stdout.split("CPU-FEATURES ")[-1])
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return files, (core[0] if core else None, features)


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("default")
    return workdir, run_chain(workdir, {})


@pytest.mark.parametrize("name", SETTINGS)
def test_chain_bytes_hold_across_kernels(name, default_chain, tmp_path):
    """Every file of README's chain is byte-identical under another BLAS
    kernel and without numpy's AVX-512 paths, but fuse's, which agree within
    FUSE_REL_BOUND; a setting this machine cannot show is skipped, naming
    what the child ran on."""
    setting, took_effect = SETTINGS[name]
    base_dir, (base, base_ran) = default_chain
    got, ran = run_chain(tmp_path, setting)
    if not took_effect(base_ran, ran):
        pytest.skip(f"{setting} took no effect: BLAS core {ran[0]} (default {base_ran[0]}), "
                    f"{[f for f in AVX512_GROUPS if ran[1].get(f)]} of {AVX512_GROUPS} on "
                    f"(default {[f for f in AVX512_GROUPS if base_ran[1].get(f)]})")
    fused = {"fused.tp", "fused.tp.json"}
    assert sorted(got) == sorted(base) and fused <= set(base)
    assert [f for f in base if f not in fused and got[f] != base[f]] == []
    want = tensorio.load_feature_map(base_dir / "fused.tp").data
    have = tensorio.load_feature_map(tmp_path / "fused.tp").data
    assert np.abs(have - want).max() <= FUSE_REL_BOUND * np.abs(want).max()
    want, have = (json.loads(files["fused.tp.json"]) for files in (base, got))
    assert want.keys() == have.keys()
    for key in ("offset_abs_mean", "offset_abs_max", "mean_alpha"):
        assert abs(have[key] - want[key]) <= FUSE_REL_BOUND * abs(want[key])
