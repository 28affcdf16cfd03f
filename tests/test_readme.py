"""The README's Library snippet runs as written and shows what it returns.

Each expression statement in the ```python block carries its value as a
comment, at the end of its line or alone on the line after it; the test
evaluates the expression and compares its repr with that comment.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def shown_value(lines: list[str], node: ast.stmt) -> str:
    """The comment after the statement: on its last line, or the next line."""
    last = lines[node.end_lineno - 1]
    if "#" in last[node.end_col_offset :]:
        return last[node.end_col_offset :].split("#", 1)[1].strip()
    following = lines[node.end_lineno].strip()
    assert following.startswith("#"), f"no value shown for line {node.lineno}"
    return following[1:].strip()


def test_library_snippet_values():
    source = library_snippet()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == shown_value(lines, node)
            checked.append(repr(value))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == [
        "Fraction(30, 1)",
        "[('6', (6, 7, 8, 9)), ('18', (6, 7, 8))]",
        "3",
        "'1 + 11/6*k + k^2 + 1/6*k^3'",
    ]
