"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or sizes do not line up."""


class NumericError(ValueError):
    """Non-finite values showed up where finite ones are required."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration.

    ``key``, when given, names the setting at fault and the message reads
    ``<key> <rule>``; a config file that set the key then names its line.
    """

    def __init__(self, rule, key=None):
        super().__init__(rule if key is None else f"{key} {rule}")
        self.rule = rule
        self.key = key


class DataFormatError(ValueError):
    """Malformed data file; carries the 1-based line number when known."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line

