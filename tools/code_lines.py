"""Count the code lines, or the settable values, of the stkd package, file
by file.

A code line is a physical line that holds a token other than a comment or a
docstring.  A docstring is a string literal that makes up a whole statement
(a module, class or function docstring, or any other bare string).  Blank
lines do not count; every line of a multi-line statement does, and so does
every line a multi-line string literal spans.

A settable value is a field of a dataclass whose name ends in ``Config``, or
a defaulted parameter (positional or keyword-only) of a function or method
whose name does not start with ``_`` (``__init__`` counts), leaving out
parameters whose own name starts with ``_``.  ``--settings`` prints, per
file, the sum and then the two parts: config fields, defaulted parameters.

    python3 tools/code_lines.py                   # src/stkd
    python3 tools/code_lines.py DIR               # the *.py files directly in DIR
    python3 tools/code_lines.py --settings [DIR]  # settable values instead
"""

from __future__ import annotations

import ast
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


def _decorator_names(node: ast.ClassDef):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        yield dec.attr if isinstance(dec, ast.Attribute) else getattr(
            dec, "id", "")


def settings(source: str) -> tuple[int, int]:
    """(config fields, defaulted parameters) in ``source``."""
    fields = params = 0
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
                and "dataclass" in _decorator_names(node)):
            fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and (node.name == "__init__" or not node.name.startswith("_"))):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            params += sum(not arg.arg.startswith("_") for arg in defaulted)
    return fields, params


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    count_settings = "--settings" in argv
    if count_settings:
        argv.remove("--settings")
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parents[1] / "src" / "stkd")
    totals = [0, 0, 0] if count_settings else [0]
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        if count_settings:
            fields, params = settings(source)
            row = [fields + params, fields, params]
        else:
            row = [code_lines(source)]
        totals = [t + n for t, n in zip(totals, row)]
        print("".join(f"{n:6d}  " for n in row) + path.name)
    print("".join(f"{n:6d}  " for n in totals) + "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
