"""Size bounds on the package: its public names and its code lines.

The code-line count is the one the change log reports: per file, every
line that holds a token other than a comment, a newline, an indent or a
dedent, minus the lines of module, class and function docstrings.
"""

import ast
import io
import tokenize
from pathlib import Path

import klap

SRC = Path(klap.__file__).parent

#: exported names of ``klap``
MAX_EXPORTS = 34

#: code lines of ``src/klap/*.py``
MAX_CODE_LINES = 1845

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def test_code_lines_count_tokens_not_layout_or_docstrings():
    source = '"""Module\n\ndocstring."""\n\n# comment\nx = (1,\n     2)\n\n\ndef f():\n' \
             '    """Doc."""\n    return x\n'
    assert code_lines(source) == 4  # x = (1, / 2) / def f(): / return x


def test_every_exported_name_resolves():
    assert len(klap.__all__) <= MAX_EXPORTS
    assert len(set(klap.__all__)) == len(klap.__all__)
    for name in klap.__all__:
        assert hasattr(klap, name), name


def test_package_code_lines_stay_bounded():
    total = sum(code_lines(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py"))
    assert total <= MAX_CODE_LINES
