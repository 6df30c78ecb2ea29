"""Count the code lines of Python modules: no comments, docstrings or blanks.

A line counts when a token other than a comment or a docstring lies on
it; a token that spans lines, such as a multi-line string, counts every
line it spans.  A docstring is a string that is a statement on its own.
Prints the count of each module and the total:

    python tools/sloc.py            # the modules under src/
    python tools/sloc.py PATH ...   # these files, or the modules under these directories
"""

import sys
import tokenize
from pathlib import Path

# tokens that carry no code
_SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.COMMENT, tokenize.ENCODING}
# tokens after which a statement starts
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and prev.type in _STATEMENT_START
                     and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in _SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src"]
    total = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path.relative_to(root.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
