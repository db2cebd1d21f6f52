"""README's examples run as written."""
import pathlib
import re
import shlex

from trajprior import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S)


def test_cli_example_chain_runs(tmp_path, monkeypatch, capsys):
    """Every `trajprior` line of README's CLI block exits 0, in order, in one
    directory, so the example chain cannot drift from the commands. The
    feature maps that `fuse` reads come from README's Python block, run
    before `fuse` as README says."""
    (shell,) = [b for b in blocks("sh") if "trajprior synth" in b]
    (python,) = blocks("python")
    commands = [shlex.split(line)[1:]
                for line in shell.replace("\\\n", " ").splitlines()
                if line.startswith("trajprior ")]
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
