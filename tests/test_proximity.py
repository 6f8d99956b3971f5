"""Grid eps-pair search (``repro.geo.eps_pairs``) vs brute-force all-pairs.
Pure numpy, no Spark."""
from __future__ import annotations

import numpy as np
import pytest

from repro.geo import M_PER_DEG_LAT, cell_size_deg, eps_pairs, pairwise_haversine_np


def _brute(lat, lon, eps):
    d = pairwise_haversine_np(lat, lon)
    i, j = np.nonzero(np.triu(d <= eps, k=1))
    return set(zip(i.tolist(), j.tolist()))


def _cloud(seed, eps, n=200):
    """Random points, plus points on grid-cell borders and pairs about
    eps apart across a border (some just inside eps, some just outside)."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(53.33, 53.345, n)
    lon = rng.uniform(-6.28, -6.255, n)
    dlat, dlon = cell_size_deg(eps, ref_lat_deg=54.0)
    k = np.arange(np.ceil(53.33 / dlat), np.ceil(53.33 / dlat) + 6)
    m = np.arange(np.ceil(-6.28 / dlon), np.ceil(-6.28 / dlon) + 6)
    border_lat, border_lon = k * dlat, m * dlon
    far = 1000 * dlon  # the eps pairs sit far east of the cloud and borders
    apart_lat = np.concatenate([
        border_lat, border_lat + eps / M_PER_DEG_LAT, np.nextafter(border_lat, 0.0) + dlat,
    ])
    apart_lon = np.tile(m * dlon + far, 3)
    return (
        np.concatenate([lat, border_lat, np.full(6, lat[0]), apart_lat]),
        np.concatenate([lon, np.full(6, lon[0]), border_lon, apart_lon]),
    )


@pytest.mark.parametrize("seed,eps", [(0, 100.0), (1, 100.0), (2, 60.0), (3, 250.0)])
def test_eps_edges_match_brute_force(seed, eps):
    lat, lon = _cloud(seed, eps)
    perm = np.random.default_rng(seed).permutation(len(lat))
    lat, lon = lat[perm], lon[perm]
    i, j = eps_pairs(lat, lon, eps_m=eps)
    got = set(zip(i.tolist(), j.tolist()))
    assert len(got) == len(i)  # each unordered pair once
    assert got == _brute(lat, lon, eps)


def test_eps_edges_no_self_pairs():
    i, j = eps_pairs(np.full(3, 53.3), np.full(3, -6.26), eps_m=100.0)
    assert (i < j).all()
    assert len(i) == 3  # all coincident pairs, each once


@pytest.mark.parametrize("n", [0, 1])
def test_eps_pairs_fewer_than_two_points(n):
    i, j = eps_pairs(np.full(n, 53.3), np.full(n, -6.26), eps_m=100.0)
    assert len(i) == len(j) == 0
