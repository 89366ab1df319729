"""The README's Python examples run as written.

Each fenced ``python`` block of README.md runs in a fresh interpreter from a
temporary directory, so an example that calls a removed or renamed API
fails here instead of going stale.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(
    r"^```python\n(.*?)^```",
    (ROOT / "README.md").read_text(encoding="utf-8"),
    re.DOTALL | re.MULTILINE,
)

#: Blocks left out, by a phrase only that block contains, with the reason.
SKIPPED = {
    'sparsity="measured"': (
        "trains DeepGCNs at the default 2048-vertex scale (about 9 s)"
    ),
    "SweepRunner(store=": (
        "starts 4 worker processes and writes results/.cache"
    ),
}

RUNNABLE = [
    block for block in BLOCKS if not any(phrase in block for phrase in SKIPPED)
]


def test_each_skipped_phrase_names_one_block():
    for phrase in SKIPPED:
        assert sum(phrase in block for block in BLOCKS) == 1, phrase
    assert len(RUNNABLE) == len(BLOCKS) - len(SKIPPED) > 0


@pytest.mark.parametrize("block", RUNNABLE, ids=lambda block: block.split("\n")[0])
def test_readme_python_block_runs(block, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
