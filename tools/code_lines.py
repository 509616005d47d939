"""Count the code lines of the stkd package, file by file.

A code line is a physical line that holds a token other than a comment or a
docstring.  A docstring is a string literal that makes up a whole statement
(a module, class or function docstring, or any other bare string).  Blank
lines do not count; every line of a multi-line statement does, and so does
every line a multi-line string literal spans.

    python3 tools/code_lines.py            # src/stkd
    python3 tools/code_lines.py DIR        # the *.py files directly in DIR
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that never make a line count: layout, comments, the stream ends
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_STATEMENT_END = {tokenize.NEWLINE, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    before = tokenize.NEWLINE         # the file starts a statement
    for tok, after in zip(tokens, tokens[1:] + [None]):
        docstring = (tok.type == tokenize.STRING and before in _STATEMENT_START
                     and after is not None and after.type in _STATEMENT_END)
        if tok.type not in _NON_CODE and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        before = tok.type
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parents[1] / "src" / "stkd")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
