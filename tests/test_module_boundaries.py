"""Each viewgan module uses only the public names of its siblings, and one
function owns each piece of the training step that others reuse."""

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


def step_pieces(path):
    """(enclosing function, piece) of each call in the module at ``path`` that
    builds a completed pair or runs a forward pass over ``real_pairs``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                reads_real = any(isinstance(n, ast.Attribute) and n.attr == "real_pairs"
                                 for arg in child.args for n in ast.walk(arg))
                if called == "completed_pair":
                    found.append((owner, "completed pair"))
                elif called == "forward" and reads_real:
                    found.append((owner, "real-pair forward"))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_function_owns_each_piece_of_the_step():
    pieces = {path.name: step_pieces(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in pieces.items() if found} == {
        "train.py": [("complete", "completed pair"), ("real_feature_mean", "real-pair forward")]}


def test_the_scan_sees_the_step_pieces(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f(model, batch, v, g, o):\n"
                      "    pairs = model.completed_pair(v, g, o)\n"
                      "    return forward(model.disc, batch.real_pairs, need=HIDDEN)\n"
                      "x = nn.forward(net, np.abs(batch.real_pairs))\n"
                      "y = forward(net, batch.other_pairs)\n", encoding="utf-8")
    assert step_pieces(source) == [("f", "completed pair"), ("f", "real-pair forward"),
                                   (None, "real-pair forward")]
