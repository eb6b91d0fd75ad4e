"""Twins and diffs: the data-movement core of the Cashmere protocols.

A *twin* is a pristine copy of a page representing the node's latest view
of the home node's master copy (Section 2.5). Twins are used two ways:

* **Outgoing diff** — compare the working page to the twin; the differing
  words are the node's local modifications, which a release flushes to
  the home node. A *flush-update* writes them to the twin as well, so a
  later release does not re-flush (and overwrite newer remote changes).

* **Incoming diff** — compare a freshly fetched master copy to the twin;
  the differing words are exactly the modifications made on *remote*
  nodes (data-race-freedom guarantees they never overlap local dirty
  words). Writing them to both the working page and the twin updates the
  page without disturbing concurrent local writers — the paper's novel
  alternative to TLB shootdown ("two-way diffing").

These are pure numpy functions over page-sized arrays; the protocols
charge the measured costs separately.
"""

from __future__ import annotations

import numpy as np

from ..config import WORD_BYTES
from ..errors import DataRaceError


class Diff:
    """A sparse set of modified words: (indices, values)."""

    __slots__ = ("indices", "values")

    def __init__(self, indices: np.ndarray, values: np.ndarray) -> None:
        self.indices = indices
        self.values = values

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Wire size: one word of data plus one word of run header per word.

        Diffs are encoded as (offset, value) runs; charging two words per
        modified word is the conservative per-word encoding.
        """
        return len(self.indices) * 2 * WORD_BYTES


def make_twin(page: np.ndarray) -> np.ndarray:
    """Create a pristine copy of ``page``."""
    return page.copy()


def outgoing_diff(page: np.ndarray, twin: np.ndarray) -> Diff:
    """Local modifications: words where the working page differs from the twin."""
    changed = np.nonzero(page != twin)[0]
    return Diff(changed, page[changed].copy())


def apply_diff(target: np.ndarray, diff: Diff) -> None:
    """Write a diff's words into ``target`` (e.g. the home master copy)."""
    if len(diff):
        target[diff.indices] = diff.values


def flush_update(page: np.ndarray, twin: np.ndarray,
                 master: np.ndarray) -> Diff:
    """Release-time flush: write local modifications to the home *and* the twin.

    Updating the twin records that these modifications are now globally
    available, so subsequent releases on the node skip them (Section 2.5).
    Returns the diff that was flushed (possibly empty).
    """
    diff = outgoing_diff(page, twin)
    apply_diff(master, diff)
    apply_diff(twin, diff)
    return diff


def incoming_diff(fetched: np.ndarray, page: np.ndarray,
                  twin: np.ndarray, *, context: str = "") -> Diff:
    """Apply remote modifications from a fetched master copy (two-way diffing).

    Words where ``fetched`` differs from ``twin`` were modified remotely;
    they are written to both the working ``page`` and the ``twin``. The
    function verifies the data-race-free invariant the protocol relies on:
    a remotely modified word must not also be locally dirty (page != twin
    at the same index).
    """
    remote = np.nonzero(fetched != twin)[0]
    if len(remote):
        locally_dirty = page[remote] != twin[remote]
        if locally_dirty.any():
            bad = remote[np.nonzero(locally_dirty)[0][:4]]
            raise DataRaceError(
                f"incoming diff overlaps local modifications at words "
                f"{bad.tolist()}{' in ' + context if context else ''}; "
                f"the application is not data-race-free")
    diff = Diff(remote, fetched[remote].copy())
    apply_diff(page, diff)
    apply_diff(twin, diff)
    return diff
