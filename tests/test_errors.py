"""The rule of ``subgrid.errors``, read off the package's source: an error
class exists only where an ``except`` clause names it, and every error raised
is one of them.  Also, every source file parses as the oldest Python that
``pyproject.toml`` declares."""

import ast
import inspect
import re
from pathlib import Path

import subgrid
from subgrid import errors

SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(subgrid.__file__).parent.glob("*.py"))}
CLASSES = {name: cls for name, cls in vars(errors).items()
           if inspect.isclass(cls) and cls.__module__ == errors.__name__}


def _name(node) -> str:
    """The last name of ``node``: ``E`` of both ``E`` and ``errors.E``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_error_class_is_caught_somewhere():
    caught = set()
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_name, types))
    assert sorted(set(CLASSES) - caught) == []
    assert all(issubclass(cls, errors.SubgridError) for cls in CLASSES.values())


def test_every_raise_names_an_error_class():
    others = ["%s:%d %s" % (name, node.lineno, ast.unparse(node.exc.func))
              for name, tree in SOURCES.items() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and _name(node.exc.func) not in CLASSES]
    assert others == []


def test_every_source_parses_at_the_declared_python_floor():
    # newer syntax (``except*``, PEP 695 generics) fails at the floor's parser
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    version = (int(floor[1]), int(floor[2]))
    paths = [p for d in ("src", "tests", "tools", "perfbench") for p in (root / d).rglob("*.py")]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
