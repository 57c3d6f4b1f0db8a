"""The README's library example runs as written and prints what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def documented_values(code: str):
    """(expression, value) for every line `expr  # literal` of the example."""
    out = []
    for line in code.splitlines():
        expr, sep, comment = line.partition("#")
        if not sep:
            continue
        try:
            ast.parse(expr.strip(), mode="eval")
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        out.append((expr.strip(), value))
    return out


def test_library_example_runs_verbatim():
    code = library_example()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    checks = documented_values(code)
    assert len(checks) >= 3
    for expr, value in checks:
        assert eval(expr, namespace) == value, expr
    assert namespace["tess"].cells
