"""Virtual-memory substrate: permissions, the per-owner record, diffs."""

from .diffs import (Diff, apply_diff, flush_update, incoming_diff, make_twin,
                    outgoing_diff)
from .page import Owner, Perm

__all__ = ["Perm", "Owner", "Diff", "make_twin", "outgoing_diff",
           "apply_diff", "flush_update", "incoming_diff"]
