"""The README's "Library use" block, run as written, so the README
cannot drift from the package; `test_walkthrough` runs its CLI
walkthrough."""

import re
from pathlib import Path

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

