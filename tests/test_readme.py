"""The README's examples run as written: every ``sh`` block through
``belpm.cli.main`` and every ``python`` block in one shared namespace, both in
a scratch directory, so the docs cannot drift from the code unnoticed."""

import json
import re
import shlex
from pathlib import Path

from belpm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# The install-and-test block sets the package up rather than using it.
SETUP_COMMANDS = {"pip", "pytest"}


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)


def test_readme_sh_blocks_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # The README's `bench` example reads a bench.json it does not show.
    (tmp_path / "bench.json").write_text(json.dumps(
        {"generator": "mackey_glass", "gen_n": 200, "n_train": 150, "epochs": 2}))
    ran = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if not argv or argv[0] in SETUP_COMMANDS:
                continue
            assert argv[0] == "belpm", f"README runs {argv[0]!r}, not the CLI"
            code = main(argv[1:])
            assert code == 0, f"{line.strip()!r} exited {code}: {capsys.readouterr().err}"
            ran.append(argv[1])
    assert {"gen", "embed", "train", "predict", "eval", "peaks", "bench"} <= set(ran)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = fenced_blocks("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
