"""HW-graph modelling: entity grouping, subroutines, lifespans, hierarchy."""

from .grouping import (
    EntityGroup,
    GroupingResult,
    group_entities,
    longest_common_phrase,
    longest_common_word_substring,
)
from .hwgraph import (
    GraphPartial,
    GroupNode,
    GroupPartial,
    HWGraph,
    HWGraphBuilder,
)
from .lifespan import (
    AFTER,
    BEFORE,
    CHILD,
    PARALLEL,
    PARENT,
    Lifespan,
    RelationMatrix,
    session_lifespans,
)
from .render import dump_json, render_summary, render_tree, to_json
from .subroutine import (
    Subroutine,
    SubroutineModel,
    split_instances,
)

__all__ = [
    "AFTER",
    "BEFORE",
    "CHILD",
    "EntityGroup",
    "GraphPartial",
    "GroupNode",
    "GroupPartial",
    "GroupingResult",
    "HWGraph",
    "HWGraphBuilder",
    "Lifespan",
    "PARALLEL",
    "PARENT",
    "RelationMatrix",
    "Subroutine",
    "SubroutineModel",
    "dump_json",
    "group_entities",
    "longest_common_phrase",
    "longest_common_word_substring",
    "render_summary",
    "render_tree",
    "session_lifespans",
    "split_instances",
    "to_json",
]
