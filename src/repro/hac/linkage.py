"""Exact complete-linkage agglomerative clustering (numpy, no scipy).

Used on the driver on one eps-connected component at a time, so ``n``
is small (at most 42 at SF=1); the O(n^3) worst case of
the naive Lance-Williams update is irrelevant at that size and keeps the
implementation dependency-free and auditable.

Complete linkage: d(A, B) = max over pairs — merging stops when the next
merge would create a cluster whose *diameter* exceeds the cutoff, which is
exactly the paper's Rule 1 (no two members more than 100 m apart).
"""
from __future__ import annotations

import numpy as np

from repro.geo import pairwise_haversine_np


def complete_linkage_labels(
    lat: np.ndarray, lon: np.ndarray, *, max_diameter_m: float
) -> np.ndarray:
    """Cluster points by complete-linkage HAC with a diameter cutoff.

    Returns integer labels 0..k-1 (label = order of cluster creation,
    deterministic: ties in merge distance break on the smaller pair of
    cluster indices).
    """
    n = len(lat)
    if n == 0:
        return np.zeros(0, dtype=int)
    if n == 1:
        return np.zeros(1, dtype=int)
    d = pairwise_haversine_np(np.asarray(lat, float), np.asarray(lon, float))
    np.fill_diagonal(d, np.inf)

    active = np.ones(n, dtype=bool)
    members: list[list[int]] = [[i] for i in range(n)]
    while True:
        # smallest inter-cluster (complete-linkage) distance among active
        sub = np.where(active)[0]
        if len(sub) < 2:
            break
        dd = d[np.ix_(sub, sub)]
        flat = np.argmin(dd)
        i_, j_ = np.unravel_index(flat, dd.shape)
        if dd[i_, j_] > max_diameter_m:
            break
        a, b = int(sub[min(i_, j_)]), int(sub[max(i_, j_)])
        # merge b into a; complete linkage: new dist = max of the two rows
        d[a, :] = np.maximum(d[a, :], d[b, :])
        d[:, a] = d[a, :]
        d[a, a] = np.inf
        active[b] = False
        members[a].extend(members[b])
        members[b] = []

    labels = np.empty(n, dtype=int)
    next_label = 0
    for a in range(n):
        if active[a]:
            for m in members[a]:
                labels[m] = next_label
            next_label += 1
    return labels
