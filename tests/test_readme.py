"""The README's "Library use" block, run as written, and its CLI
walkthrough, parsed by the CLI's own parser, so the README cannot drift
from the package."""

import re
import shlex
from pathlib import Path

from refilter import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    block = _block("Library use", "python")
    namespace: dict = {}
    exec(compile(block, f"{README.name} (Library use)", "exec"), namespace)
    splits, curve = namespace["splits"], namespace["curve"]
    assert [p.k for p in curve] == list(range(1, len(splits.train_batches) + 1))


def test_cli_walkthrough_commands_parse():
    commands = [shlex.split(line, comments=True)
                for line in _block("CLI walkthrough", "sh").replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[0] for argv in commands] == ["refilter"] * 9
    parser, _ = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
