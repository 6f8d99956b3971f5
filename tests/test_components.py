"""Union-find components (``repro.hac.cluster.min_label_components``) vs a
pure-Python union-find reference, on random graphs and on the eps-graphs
of random point clouds. Pure numpy, no Spark."""
from __future__ import annotations

import numpy as np
import pytest

from repro.geo import eps_pairs, pairwise_haversine_np
from repro.hac.cluster import min_label_components


def _union_find(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    # canonical label = min member id
    labels = {}
    for x in range(n):
        r = find(x)
        labels.setdefault(r, min(i for i in range(n) if find(i) == r))
    return {x: labels[find(x)] for x in range(n)}


def _components(n, edges):
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return dict(enumerate(min_label_components(n, i, j).tolist()))


@pytest.mark.parametrize("seed,n,p", [(0, 30, 0.05), (1, 40, 0.02), (2, 25, 0.15)])
def test_components_match_union_find(seed, n, p):
    rng = np.random.default_rng(seed)
    edges = [
        (int(i), int(j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    assert _components(n, edges) == _union_find(n, edges)


def test_components_singletons():
    assert _components(5, [(0, 0)]) == {i: i for i in range(5)}
    assert _components(5, []) == {i: i for i in range(5)}


def test_components_chain_and_direction_ignored():
    # directed chain 4 -> 3 -> 2 -> 1 -> 0 must still collapse to one comp
    assert set(_components(5, [(i + 1, i) for i in range(4)]).values()) == {0}


@pytest.mark.parametrize("seed,eps", [(0, 100.0), (1, 60.0), (2, 250.0)])
def test_eps_components_match_union_find_over_brute_force_pairs(seed, eps):
    rng = np.random.default_rng(seed)
    n = 300
    lat = rng.uniform(53.33, 53.345, n)
    lon = rng.uniform(-6.28, -6.255, n)
    brute = np.argwhere(np.triu(pairwise_haversine_np(lat, lon) <= eps, k=1)).tolist()
    got = min_label_components(n, *eps_pairs(lat, lon, eps_m=eps))
    assert dict(enumerate(got.tolist())) == _union_find(n, brute)
