"""Count the code lines of the stovar package, per module and in total.

A code line holds at least one token that is not a comment, a string
(docstrings included), a line break or an indent change.  An f-string
counts as one string on every Python version, though from 3.12 on it
is tokenized in parts.  The script also prints each file's physical
line count, as ``wc -l`` does.  It only reports and always exits 0.

Run from the repository root: ``python tools/code_lines.py``.
"""

import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.STRING,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
# FSTRING_START and FSTRING_END exist from Python 3.12 on
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_lines(path: Path) -> int:
    """Number of lines of the file that hold a code token."""
    lines = set()
    depth = 0  # f-strings open around the current token
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type == FSTRING_START:
                depth += 1
            elif token.type == FSTRING_END:
                depth -= 1
            elif not depth and token.type not in SKIPPED:
                lines.add(token.start[0])
    return len(lines)


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "stovar"
    total_code = total_lines = 0
    print(f"{'module':<16}{'code':>8}{'wc -l':>8}")
    for path in sorted(root.glob("*.py")):
        code = code_lines(path)
        lines = len(path.read_bytes().splitlines())
        total_code += code
        total_lines += lines
        print(f"{path.name:<16}{code:>8}{lines:>8}")
    print(f"{'total':<16}{total_code:>8}{total_lines:>8}")


if __name__ == "__main__":
    main()
