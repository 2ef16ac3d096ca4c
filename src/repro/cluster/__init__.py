"""Cluster assembly: nodes and topologies.

A :class:`Node` is one complete machine — CPU, physical memory, kernel
(page cache, VFS, VMA SPY), and a Myrinet NIC.  :func:`node_pair` builds
the paper's two-node experimental platform; :func:`star` builds a
switch-centred cluster for multi-client scenarios.
"""

from .node import Node, node_pair, star

__all__ = [
    "Node",
    "node_pair",
    "star",
]
