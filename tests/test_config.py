"""Tests for the flat key=value config reader."""

import pytest

from viewgan.config import load_kv_file
from viewgan.errors import ConfigError, DataFormatError


def config(tmp_path, text):
    """The ConfigMap of a file ``run.cfg`` in ``tmp_path`` that holds ``text``."""
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_kv_file(path)


def test_parse_and_typed_getters(tmp_path):
    cfg = config(tmp_path, """
# comment
iterations = 20
alpha = 1e-3
name = run a
flag = true
""")
    assert cfg.get_int("iterations") == 20
    assert cfg.get_float("alpha") == 1e-3
    assert cfg.get_str("name") == "run a"
    assert cfg.get_bool("flag") is True
    cfg.finish()


def test_defaults_and_missing(tmp_path):
    cfg = config(tmp_path, "a = 1\n")
    assert cfg.get_int("absent", 7) == 7
    assert cfg.get_bool("absent", False) is False
    with pytest.raises(ConfigError, match="missing required key"):
        cfg.get_str("also_absent")
    assert cfg.get_int("a") == 1


def test_type_errors_name_the_key(tmp_path):
    cfg = config(tmp_path, "n = soon\nx = maybe\nb = 2\n")
    with pytest.raises(ConfigError, match="'n'") as err:
        cfg.get_int("n")
    assert "line 1:" in str(err.value)
    with pytest.raises(ConfigError, match="'x'") as err:
        cfg.get_float("x")
    assert "line 2:" in str(err.value)
    with pytest.raises(ConfigError, match="'b'") as err:
        cfg.get_bool("b")
    assert "line 3:" in str(err.value)


def test_finish_rejects_stray_keys(tmp_path):
    cfg = config(tmp_path, "known = 1\n\ntypo_key = 2\n")
    cfg.get_int("known")
    with pytest.raises(ConfigError, match="typo_key") as err:
        cfg.finish()
    assert "line 3:" in str(err.value)


def test_malformed_lines_carry_line_numbers(tmp_path):
    with pytest.raises(DataFormatError) as err:
        config(tmp_path, "a = 1\nno separator here\n")
    assert err.value.line == 2
    with pytest.raises(DataFormatError) as err:
        config(tmp_path, "a = 1\n\na = 2\n")
    assert err.value.line == 3
    path = tmp_path / "latin1.cfg"
    # a CR ends a line for the parser, so it does for a bad byte too
    for text, line in (("a = 1\nname = caf\u00e9\n", 2), ("a = 1\rb = 2\rname = caf\u00e9\r", 3)):
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataFormatError, match="not utf-8") as err:
            load_kv_file(path)
        assert err.value.line == line and str(path) in str(err.value)


@pytest.mark.parametrize("key,want", [
    ("b", "{path}: line 2: key 'b' must be at least 0, got -2"),
    ("absent", "{path}: key 'absent' must be at least 0, got -2"),
    (None, "must be at least 0, got -2"),
], ids=["set-in-the-file", "left-to-its-default", "no-key"])
def test_a_with_block_names_the_file_and_line_of_a_keyed_error(tmp_path, key, want):
    cfg = config(tmp_path, "a = 1\nb = -2\n")
    with pytest.raises(ConfigError) as err, cfg:
        raise ConfigError("must be at least 0, got -2", key=key)
    assert str(err.value) == want.format(path=tmp_path / "run.cfg")
