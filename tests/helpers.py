"""Test-only builder for datasets given as explicit (prefix, label) pairs."""

import numpy as np

from odup.sessions import SessionDataset


def dataset_of(pairs, vocab_size: int) -> SessionDataset:
    """A SessionDataset whose ``pairs`` are exactly ``pairs``, in order."""
    items, starts, ends = [], [], []
    for prefix, label in pairs:
        starts.append(len(items))
        items.extend(int(i) for i in prefix)
        ends.append(len(items))
        items.append(int(label))
    return SessionDataset(*(np.array(xs, dtype=np.intp) for xs in (items, starts, ends)), vocab_size)
