"""The library's settable values stay within budget.

A settable value is a function parameter with a default or a dataclass
field with a default: each is a knob a caller may turn, so each must pay
for itself.  The budget is the cap recorded in ROADMAP.md.
"""

import ast
from pathlib import Path

import fracstable

SETTABLE_BUDGET = 18


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settable_values(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            found += [a.arg for a in positional[len(positional)
                                                - len(args.defaults):]]
            found += [a.arg for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults)
                      if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f.target.id for f in node.body
                      if isinstance(f, ast.AnnAssign) and f.value is not None]
    return found


def test_settable_values_within_budget():
    src = Path(fracstable.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        names = _settable_values(ast.parse(path.read_text()))
        found += ["%s:%s" % (path.stem, n) for n in names]
    assert len(found) <= SETTABLE_BUDGET, found
