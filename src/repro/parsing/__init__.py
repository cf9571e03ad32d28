"""Log parsing substrate: formatters, Spell log-key extraction, sessions."""

from .formatters import (
    Formatter,
    FormatterRegistry,
    GenericFormatter,
    HadoopFormatter,
    SparkFormatter,
    default_registry,
    format_lines,
)
from .records import (
    GroundTruth,
    LogRecord,
    Session,
    session_bucket,
    split_sessions,
    yarn_session_key,
)
from .spell import (
    STAR,
    LogKey,
    MatchResult,
    SpellParser,
    extract_parameters,
    lcs_length,
    lcs_merge,
)

__all__ = [
    "Formatter",
    "FormatterRegistry",
    "GenericFormatter",
    "GroundTruth",
    "HadoopFormatter",
    "LogKey",
    "LogRecord",
    "MatchResult",
    "STAR",
    "Session",
    "SparkFormatter",
    "SpellParser",
    "default_registry",
    "extract_parameters",
    "format_lines",
    "lcs_length",
    "lcs_merge",
    "session_bucket",
    "split_sessions",
    "yarn_session_key",
]
