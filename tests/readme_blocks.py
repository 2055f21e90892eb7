"""The README beside the tests and its fenced code blocks, for the tests that run them."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    """The README's fenced ``language`` blocks in order; none without a README."""
    if not README.is_file():
        return []
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
