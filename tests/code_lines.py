"""Count the code lines of the package's modules.

usage: python tests/code_lines.py [FILE ...]

A code line is a line of a module that is not blank, not a comment and not
part of a docstring (the string that opens a module, class or function
body).  The lines are those that ``tokenize`` finds a token on, a string
spanning all of its lines, less the lines ``ast`` places a docstring on.
With no FILE the script counts src/pjinv/*.py.  It prints one count per
file and then the total.  The file name keeps pytest from collecting it.
"""

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pjinv"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = set()
    for token in tokens:
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(Path(path).read_bytes())))


def main(argv):
    paths = argv or sorted(SRC.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {Path(path).name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
