"""Size bounds on the package: its public names and its code lines; and
no module of it imports SciPy when it is imported.

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


def import_time_imports(tree: ast.Module):
    """The import statements that run when the module is imported: all but
    those inside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def imported_roots(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [] if node.level else [node.module.split(".")[0]]
    return [alias.name.split(".")[0] for alias in node.names]


def test_no_module_imports_scipy_at_import_time():
    # SciPy costs about 0.2 s to import; the package binds it on first use
    # (klap.linalg._lapack and the Riccati refinement of klap.passivity)
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in import_time_imports(ast.parse(path.read_text(encoding="utf-8")))
        if "scipy" in imported_roots(node)
    ]
    assert offenders == []
