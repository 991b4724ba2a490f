"""Count the code lines of the ``grpn`` package.

    python tools/code_lines.py [DIR]

Counts every ``*.py`` file under DIR (default ``src/grpn``) except DIR's
own ``__init__.py``, and prints one number per file and the total.  A
line counts when it holds a token of code: comments, blank lines and
docstrings (string statements standing alone) are left out, and a
multi-line token other than a docstring counts every line it spans.  It
reads the files with ``tokenize`` and needs only the standard library.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOISE = {tokenize.COMMENT, tokenize.NL}
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with tokenize.open(path) as source:
        tokens = [t for t in tokenize.generate_tokens(source.readline) if t.type not in NOISE]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, tokens[1:]):
        if token.type in LAYOUT:
            continue
        if token.type == tokenize.STRING and (before is None or before.type in LAYOUT) and after.type == tokenize.NEWLINE:
            continue  # a docstring: a string statement standing alone
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    top = Path(argv[0]) if argv else ROOT / "src" / "grpn"
    total = 0
    for path in sorted(top.rglob("*.py")):
        if path == top / "__init__.py":
            continue
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(top)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
