"""Count the code lines of each module in a package directory.

A code line is a physical line that holds a token of code: comments, blank
lines and docstrings (a statement that is only a string literal) do not
count.  A token that spans lines, such as a string literal inside an
expression, counts every line it spans.

    python tools/code_lines.py src/tsvar

prints one ``module count`` line per ``*.py`` file in the directory, in
name order, then ``total count``.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}
# tokens after which a new statement starts
STATEMENT_STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    with tokenize.open(path) as source:
        tokens = list(tokenize.generate_tokens(source.readline))
    code = [t for t in tokens if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip([None, *code], code, code[1:] + [None]):
        if token.type in LAYOUT:
            continue
        starts = before is None or before.type in STATEMENT_STARTS
        if (token.type == tokenize.STRING and starts
                and after is not None and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue   # a docstring, or a string standing alone as a statement
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
