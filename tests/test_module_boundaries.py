"""Each viewgan module uses only the public names of its siblings, one
function owns each piece of the training step that others reuse, one
function replaces files, one reader reads text, and one module reads the
numbers in it; one property turns labels into class indices; the command
line keys an error only for a flag or a renamed library key."""

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


def scan_package(scan):
    """{file name: what ``scan`` finds in it} for each viewgan module where it
    finds anything."""
    found = {path.name: scan(path) for path in sorted(PACKAGE.glob("*.py"))}
    return {name: items for name, items in found.items() if items}


def test_no_module_imports_a_private_name_from_a_sibling():
    assert scan_package(private_imports) == {}


def test_the_scan_sees_a_private_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .data import Views, _pair_dims\n"
                      "from viewgan.train import _check_heldout\n"
                      "from os import _exit\n", encoding="utf-8")
    assert private_imports(source) == [(1, "data", "_pair_dims"),
                                       (2, "viewgan.train", "_check_heldout")]


def labelled_nodes(path, label):
    """(enclosing function, label) of each node in the module at ``path`` to
    which ``label`` gives a label other than None, in source order. A method
    is named ``Class.method``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (name := label(child)) is not None:
                found.append((owner, name))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if owner is None else f"{owner}.{child.name}")
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def step_piece(node):
    """"completed pair" for a call that builds one, "real-pair forward" for a
    forward pass over ``real_pairs``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    reads_real = any(isinstance(n, ast.Attribute) and n.attr == "real_pairs"
                     for arg in node.args for n in ast.walk(arg))
    if called == "completed_pair":
        return "completed pair"
    if called == "forward" and reads_real:
        return "real-pair forward"
    return None


def test_one_function_owns_each_piece_of_the_step():
    assert scan_package(lambda path: labelled_nodes(path, step_piece)) == {
        "train.py": [("complete", "completed pair"), ("real_feature_mean", "real-pair forward")]}


def test_the_scan_sees_the_step_pieces(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f(model, batch, v, g, o):\n"
                      "    pairs = model.completed_pair(v, g, o)\n"
                      "    return forward(model.disc, batch.real_pairs, need=HIDDEN)\n"
                      "x = nn.forward(net, np.abs(batch.real_pairs))\n"
                      "y = forward(net, batch.other_pairs)\n", encoding="utf-8")
    assert labelled_nodes(source, step_piece) == [
        ("f", "completed pair"), ("f", "real-pair forward"), (None, "real-pair forward")]


def file_piece(node):
    """"os.replace" or "os.rename" for a call of either, "temporary name" for a
    string that ends in ".tmp", "sidecar name" for one that ends in ".arrays"."""
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func)
        return name if name in ("os.replace", "os.rename") else None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        for suffix, piece in ((".tmp", "temporary name"), (".arrays", "sidecar name")):
            if node.value.endswith(suffix):
                return piece
    return None


def test_one_function_replaces_files_and_one_names_the_sidecar():
    assert scan_package(lambda path: labelled_nodes(path, file_piece)) == {
        "data.py": [("replace_file", "temporary name"), ("replace_file", "os.replace"),
                    ("sidecar_path", "sidecar name")]}


def test_the_scan_sees_the_file_pieces(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os\n"
                      "def save(path):\n"
                      "    tmp = f'{path}.{os.getpid()}.tmp'\n"
                      "    os.replace(tmp, path)\n"
                      "os.rename('a', f'{p}.arrays')\n"
                      "x = replace(view, label=None)\n", encoding="utf-8")
    assert labelled_nodes(source, file_piece) == [
        ("save", "temporary name"), ("save", "os.replace"), (None, "os.rename"),
        (None, "sidecar name")]


def text_piece(node):
    """"line error" for a DataFormatError built with ``line=``, "decode" for a
    call of ``_decode`` or of a ``decode`` method, "open to read" for an open
    whose mode is a constant that writes nothing."""
    if not isinstance(node, ast.Call):
        return None
    name = ast.unparse(node.func)
    if name == "DataFormatError":
        return "line error" if any(k.arg == "line" for k in node.keywords) else None
    if name == "_decode" or name.endswith(".decode"):
        return "decode"
    if name == "open" or name.endswith((".open", ".read_text", ".read_bytes")):
        modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
        mode = modes[0] if modes else ast.Constant("r")
        if isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value):
            return "open to read"
    return None


def test_one_reader_numbers_the_lines_of_every_text_input():
    # TextLines alone opens a file whose bytes are decoded, and only it and
    # _decode name a line; the hash and the sidecar read bytes they never decode
    assert scan_package(lambda path: labelled_nodes(path, text_piece)) == {
        "data.py": [("_decode", "decode"), ("_decode", "decode"), ("_decode", "line error"),
                    ("TextLines.__init__", "open to read"), ("TextLines.__init__", "decode"),
                    ("TextLines.__exit__", "line error"), ("_file_sha256", "open to read"),
                    ("_read_arrays", "open to read")]}


def test_the_scan_sees_the_text_pieces(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("class Reader:\n"
                      "    def read(self, path):\n"
                      "        return open(path).read().decode('ascii')\n"
                      "def load(path, n):\n"
                      "    Path(path).read_text()\n"
                      "    open(path, mode='rb'), open(path, 'w'), open(path, mode)\n"
                      "    raise DataFormatError('bad', line=n, path=path)\n"
                      "raise DataFormatError('bad', path=p)\n", encoding="utf-8")
    assert labelled_nodes(source, text_piece) == [
        ("Reader.read", "decode"), ("Reader.read", "open to read"),
        ("load", "open to read"), ("load", "open to read"), ("load", "line error")]


def number_builtin(node):
    """"int" or "float" for a call of that builtin, or for a call that passes
    it on as a converter, as in ``map(float, parts)`` or ``type=int``."""
    if not isinstance(node, ast.Call):
        return None
    for n in (node.func, *node.args, *(k.value for k in node.keywords)):
        if isinstance(n, ast.Name) and n.id in ("int", "float"):
            return n.id
    return None


def test_only_data_turns_the_text_of_an_input_into_a_number():
    # checkpoints, configs, theory tables and flags are read through
    # data.parse_int, parse_float, float_row and keyed_ints
    found = scan_package(lambda path: labelled_nodes(path, number_builtin))
    assert "model.py" not in found and "config.py" not in found
    readers = ("_load_table", "_positive_int", "build_parser")
    assert [(owner, name) for owner, name in found.get("cli.py", [])
            if owner is not None and owner.split(".")[0] in readers] == []


def test_the_scan_sees_the_number_builtins(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f(cfg, line):\n"
                      "    def convert(text):\n"
                      "        return int(text)\n"
                      "    row = list(map(float, line.split()))\n"
                      "    return cfg.typed('k', None, int, 'an integer')\n"
                      "p.add_argument('--n', type=float)\n"
                      "x: int = len(str(3))\n", encoding="utf-8")
    assert labelled_nodes(source, number_builtin) == [
        ("f.convert", "int"), ("f", "float"), ("f", "int"), (None, "float")]


def label_argmax(node):
    """"label argmax" for ``<x>.argmax(...)`` or ``np.argmax(<x>, ...)`` where
    ``<x>`` is ``label`` or ends in ``.label``."""
    if not isinstance(node, ast.Call):
        return None
    name = ast.unparse(node.func)
    if name == "np.argmax" and node.args:
        operand = ast.unparse(node.args[0])
    elif name.endswith(".argmax"):
        operand = name.removesuffix(".argmax")
    else:
        return None
    return "label argmax" if operand == "label" or operand.endswith(".label") else None


def test_one_property_turns_labels_into_class_indices():
    # Views.classes for blocks; label_index, which perfbench times, for one saved row
    assert scan_package(lambda path: labelled_nodes(path, label_argmax)) == {
        "data.py": [("label_index", "label argmax"), ("Views.classes", "label argmax")]}


def test_the_scan_sees_a_label_argmax(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f(batch, p, label):\n"
                      "    a = np.argmax(batch.label, axis=1)\n"
                      "    b = batch.full.label.argmax(axis=1)\n"
                      "    c = label.argmax()\n"
                      "    return np.argmax(p, axis=1), p.argmax(), a, b, c\n", encoding="utf-8")
    assert labelled_nodes(source, label_argmax) == [("f", "label argmax")] * 3


def keyed_config_error(node):
    """The key, as source text, of a ConfigError built with ``key=``."""
    if not isinstance(node, ast.Call):
        return None
    name = ast.unparse(node.func)
    if name != "ConfigError" and not name.endswith(".ConfigError"):
        return None
    return next((ast.unparse(k.value) for k in node.keywords if k.arg == "key"), None)


def test_the_cli_keys_an_error_only_for_a_flag_or_a_renamed_library_key():
    # the rule on a config value lives in the library type that takes it; the
    # command line keys an error for --seed and --trials, and _view_means gives
    # block_class_means' keys their config names
    assert labelled_nodes(PACKAGE / "cli.py", keyed_config_error) == [
        ("_seed", "'seed'"), ("_view_means", "keys.get(e.key, e.key)"),
        ("cmd_theory_check", "key"), ("cmd_theory_check", "'trials'")]


def test_the_scan_sees_a_keyed_config_error(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f(v):\n"
                      "    if v < 0:\n"
                      "        raise ConfigError('must be at least 0', key='eval_every')\n"
                      "    raise ConfigError('bad')\n"
                      "e = errors.ConfigError('x', key=k)\n"
                      "g = MyConfigError('y', key='z')\n", encoding="utf-8")
    assert labelled_nodes(source, keyed_config_error) == [("f", "'eval_every'"), (None, "k")]
