"""Information extraction: log keys -> Intel Keys (paper §3)."""

from .cache import ExtractionCache
from .entities import Entity, POS_PATTERNS, extract_entities
from .idvalue import (
    FieldClassification,
    FieldClassifier,
    FieldRole,
    identifier_type,
    value_name,
)
from .intelkey import FieldSpec, IntelKey, IntelMessage
from .locality import Locality, LocalityExtractor, classify_locality
from .operations import Operation, extract_operations
from .pipeline import (
    AlignedTemplate,
    InformationExtractor,
    align_template,
    is_key_value_dump,
)

__all__ = [
    "AlignedTemplate",
    "Entity",
    "ExtractionCache",
    "FieldClassification",
    "FieldClassifier",
    "FieldRole",
    "FieldSpec",
    "InformationExtractor",
    "IntelKey",
    "IntelMessage",
    "Locality",
    "LocalityExtractor",
    "Operation",
    "POS_PATTERNS",
    "align_template",
    "classify_locality",
    "extract_entities",
    "extract_operations",
    "identifier_type",
    "is_key_value_dump",
    "value_name",
]
