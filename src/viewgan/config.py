"""Flat key=value config files for the CLI.

One `key = value` pair per line; blank lines and lines starting with # are
skipped. Every consumer pops the keys it understands and then calls
finish(), so a misspelled key is an error instead of a silent default. A
value is checked where it is used: a ConfigError that names a key, raised
inside a ``with`` block on the ConfigMap, leaves it naming the file, the
key's line and the key.
"""

from __future__ import annotations

from .data import TextLines, parse_float, parse_int
from .errors import ConfigError

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _to_bool(v: str) -> bool:
    low = v.strip().lower()
    if low not in _TRUE | _FALSE:
        raise ValueError(v)
    return low in _TRUE


class ConfigMap:
    def __init__(self, pairs: dict, lines: dict, source: str):
        self._pairs = dict(pairs)
        self._lines = lines  # key -> the 1-based line that set it
        self._source = source

    def _pop(self, key, default):
        if key in self._pairs:
            return self._pairs.pop(key)
        return default

    def get_str(self, key: str, default=None):
        v = self._pop(key, default)
        if v is None:
            raise ConfigError(f"{self._source}: missing required key {key!r}")
        return v

    def typed(self, key: str, default, convert, needs: str):
        """``convert`` of key's value; its ValueError names file, line, key and ``needs``."""
        v = self.get_str(key, None if default is None else str(default))
        try:
            return convert(v)
        except ValueError:
            raise ConfigError(f"{self._source}: line {self._lines[key]}: "
                              f"key {key!r} needs {needs}, got {v!r}") from None

    def get_int(self, key: str, default=None) -> int:
        return self.typed(key, default, parse_int, "an integer")

    def get_float(self, key: str, default=None) -> float:
        return self.typed(key, default, parse_float, "a finite number")

    def get_bool(self, key: str, default=None) -> bool:
        return self.typed(key, default, _to_bool, "true/false")

    def has(self, key: str) -> bool:
        return key in self._pairs

    def __enter__(self) -> "ConfigMap":
        return self

    def __exit__(self, kind, error, traceback):
        if isinstance(error, ConfigError) and error.key is not None:
            line = f"line {self._lines[error.key]}: " if error.key in self._lines else ""
            raise ConfigError(f"{self._source}: {line}key {error.key!r} {error.rule}") from None

    def finish(self):
        if self._pairs:
            stray = "; ".join(f"line {self._lines[k]}: unknown key {k!r}"
                              for k in sorted(self._pairs, key=self._lines.get))
            raise ConfigError(f"{self._source}: {stray}")


def load_kv_file(path) -> ConfigMap:
    """The config in file ``path``, read through ``data.TextLines``."""
    pairs, lines = {}, {}
    with TextLines(path, "utf-8") as text:
        for raw in text:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"expected 'key = value', got {raw!r}")
            key = key.strip()
            if key in pairs:
                raise ValueError(f"duplicate key {key!r}")
            pairs[key] = value.strip()
            lines[key] = text.number
    return ConfigMap(pairs, lines, str(path))
