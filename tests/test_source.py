"""The source under src/blochflow, read with ``ast``: no dead imports, no orphaned public functions or methods."""

import ast
import re
from pathlib import Path

import blochflow
from blochflow import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blochflow"
README = ROOT / "README.md"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_every_module_uses_what_it_imports():
    # __init__ imports to re-export; every other module imports to use
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {n}" for n in sorted(imported - used)]
    assert unused == []


def test_every_public_function_has_a_caller_or_is_documented():
    # every module-level function is called somewhere in src/ (by name or
    # as an attribute), and every method or property of a module-level
    # class is used there as an attribute, unless the README names it;
    # names with a leading underscore are exempt
    modules = _modules()
    called, attributes = set(), set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    readme = README.read_text(encoding="utf-8")

    def orphan(name, used):
        return not name.startswith("_") and name not in used and not re.search(rf"\b{name}\b", readme)

    orphans = [
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and orphan(node.name, called)
    ]
    orphans += [
        f"{name}.{cls.name}.{node.name}"
        for name, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and orphan(node.name, attributes)
    ]
    assert orphans == []


def test_root_exports_match_the_readme():
    # the names the library sketch imports, plus those its export
    # paragraph lists in backticks: the typed errors, all of them
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = {a.name for node in ast.parse(sketch).body if isinstance(node, ast.ImportFrom) for a in node.names}
    paragraph = re.search(r"\nThe package root exports (.*?)\n\n", section, re.S).group(1)
    listed = re.findall(r"`(\w+)`", paragraph)
    assert len(listed) == len(set(listed))
    typed_errors = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, errors.TopologyError)}
    assert set(listed) == typed_errors
    assert sorted(blochflow.__all__) == sorted(imported | set(listed))


def test_zero_bifurcations_has_no_caller_in_src():
    # where c lies against c_p and c_f is decided by model._phase alone;
    # zero_bifurcations stays public for the README and the tests
    calls = [
        name
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "zero_bifurcations" in (getattr(node.func, a, None) for a in ("id", "attr"))
    ]
    assert calls == []
    assert "zero_bifurcations" in blochflow.model.__dict__
