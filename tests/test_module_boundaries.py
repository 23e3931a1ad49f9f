"""Each viewgan module uses only the public names of its siblings."""

import ast
from pathlib import Path

import viewgan

PACKAGE = Path(viewgan.__file__).parent


def private_imports(path):
    """(line, module, name) of each underscore name that the module at
    ``path`` imports from another viewgan module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level > 0
        module = node.module or ""
        if relative or module == "viewgan" or module.startswith("viewgan."):
            found += [(node.lineno, module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    leaks = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in leaks.items() if found} == {}


def test_the_scan_sees_a_private_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .data import Views, _pair_dims\n"
                      "from viewgan.train import _check_heldout\n"
                      "from os import _exit\n", encoding="utf-8")
    assert private_imports(source) == [(1, "data", "_pair_dims"),
                                       (2, "viewgan.train", "_check_heldout")]
