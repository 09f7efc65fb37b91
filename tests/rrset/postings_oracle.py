"""Stable-argsort postings: the reference the inverted index is checked against.

:func:`repro.rrset.coverage._inverted_index` builds its node → set-ids map
with a packed-key sort.  This builds the same map the direct way, so the two
can be compared byte for byte without sharing any of that machinery.
"""

import numpy as np


def reference_postings(ptr, nodes, num_nodes):
    """``(inv_ptr, inv_sets)``: each node's set ids in increasing order, int64."""
    ptr = np.asarray(ptr, dtype=np.int64)
    nodes = np.asarray(nodes)
    set_of_entry = np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))
    inv_sets = set_of_entry[np.argsort(nodes, kind="stable")]
    inv_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=inv_ptr[1:])
    return inv_ptr, inv_sets
