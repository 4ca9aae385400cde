"""Synthetic dataset generators standing in for the paper's inputs.

Each generator is seeded and deterministic, and reproduces the *property*
of the original input that the paper's result depends on — degree
distribution shape, key skew, match density — at a size the pure-Python
simulator can run in seconds (see DESIGN.md, "Substitutions").  Each is
built once per process and returned frozen (see :mod:`.memo`).
"""

from .graphs import (
    Graph,
    cage15_like,
    citation_network,
    flight_network,
    graph500_like,
    usa_road,
)
from .mesh import amr_grid
from .points import random_points
from .ratings import movielens_like
from .relations import join_tables
from .strings import darpa_packets, random_strings

__all__ = [
    "Graph",
    "amr_grid",
    "cage15_like",
    "citation_network",
    "darpa_packets",
    "flight_network",
    "graph500_like",
    "join_tables",
    "movielens_like",
    "random_points",
    "random_strings",
    "usa_road",
]
