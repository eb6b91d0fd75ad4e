"""Simulated DEC Memory Channel: regions, mapping table, network model."""

from .network import MC_WORD_BYTES, MemoryChannel
from .regions import MappingTable, MCRegion, VersionedWord

__all__ = ["MemoryChannel", "MCRegion", "VersionedWord", "MappingTable",
           "MC_WORD_BYTES"]
