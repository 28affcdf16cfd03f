"""The README's Library section runs as written and names no missing API,
and its Command line section names exactly the options the CLI has.

Each expression statement in the ```python block carries its value as a
comment, at the end of its line or alone on the line after it; the test
evaluates the expression and compares its repr with that comment. Each name
the prose around it puts in backticks must exist in the package.
"""

import ast
import builtins
import re
from pathlib import Path

import bsdecomp
from bsdecomp.cli import main

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


def library_prose_names() -> list[str]:
    """The names in backticks in the prose of the Library section. A call
    such as ``Window.shift(offset)`` gives its dotted name; a token that is
    no name, such as ``min_row..max_row``, is skipped."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = re.split(r"^## ", section, flags=re.M)[0]
    prose = re.sub(r"^```.*?^```$", "", section, flags=re.M | re.S)
    names = []
    for token in re.findall(r"`([^`\n]+)`", prose):
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", token)
        if match:
            names.append(match[1])
    return names


def resolves(name: str) -> bool:
    """A dotted attribute of the package, a method of a class it exports, or
    a builtin."""
    obj = bsdecomp
    try:
        for part in name.split("."):
            obj = getattr(obj, part)
        return True
    except AttributeError:
        pass
    exported = [v for k, v in vars(bsdecomp).items() if isinstance(v, type) and not k.startswith("_")]
    return any(callable(getattr(cls, name, None)) for cls in exported) or hasattr(builtins, name)


def test_library_prose_names_resolve():
    names = library_prose_names()
    assert {"BettiTable.from_entries", "iter_support", "ValueError"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


OPTION = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")


def readme_section(title: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return re.split(r"^## ", section, flags=re.M)[0]


def subcommand_options(capsys) -> list[tuple[str, ...]]:
    """The spellings of each option of each subcommand, as its ``--help``
    prints them in the options list: one line per option, spellings before
    the help text."""
    assert main(["--help"]) == 0
    subcommands = re.search(r"\{([\w,]+)\}", capsys.readouterr().out)[1].split(",")
    options = []
    for subcommand in subcommands:
        assert main([subcommand, "--help"]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                options.append(tuple(OPTION.findall(re.split(r"\s{2,}", line.strip())[0])))
    return options


def test_command_line_section_names_exactly_the_options(capsys):
    options = subcommand_options(capsys)
    assert ("-k", "--power") in options
    named = set(OPTION.findall(readme_section("Command line")))
    assert named - {spelling for option in options for spelling in option} == set()
    # argparse gives every subcommand -h, --help
    unnamed = [option for option in options if option != ("-h", "--help") and not named & set(option)]
    assert unnamed == []
