"""The README's "Library use" block, run as written, so the README
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (Library use)", "exec"), namespace)
    splits, curve = namespace["splits"], namespace["curve"]
    assert [p.k for p in curve] == list(range(1, len(splits.train_batches) + 1))
