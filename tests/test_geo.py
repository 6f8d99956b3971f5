"""Unit tests for repro.geo: Haversine, grid cells, the nearest-station
kernel. The eps-pair search is tested in test_proximity.py."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest

from repro.geo import (
    EARTH_RADIUS_M,
    NEAREST_BLOCK,
    cell_size_deg,
    grid_cells,
    haversine_np,
    nearest_np,
    pairwise_haversine_np,
)
from repro.oracle import assert_equivalent

# (lat1, lon1, lat2, lon2, expected metres) — computed from the Haversine
# formula with R=6,371,000 m.
KNOWN = [
    (53.3498, -6.2603, 53.3498, -6.2603, 0.0),  # same point (Dublin)
    (53.3498, -6.2603, 53.3438, -6.2546, 766.99),  # across Dublin centre
    (53.3498, -6.2603, 51.8985, -8.4756, 219985.13),  # Dublin -> Cork
    (0.0, 0.0, 0.0, 1.0, 111194.93),  # 1 degree lon at equator
    (89.0, 0.0, 89.0, 180.0, 222389.85),  # near-pole wrap
]


def _ref_haversine(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1) / 2
    dl = math.radians(lon2 - lon1) / 2
    a = math.sin(dp) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, a)))


@pytest.mark.parametrize("lat1,lon1,lat2,lon2,expected", KNOWN)
def test_haversine_np_known(lat1, lon1, lat2, lon2, expected):
    got = haversine_np(np.array([lat1]), np.array([lon1]), np.array([lat2]), np.array([lon2]))
    assert got[0] == pytest.approx(expected, abs=0.5)


def test_pairwise_matches_scalar_reference():
    rng = np.random.default_rng(0)
    lat = rng.uniform(53.2, 53.45, 20)
    lon = rng.uniform(-6.5, -6.1, 20)
    d = pairwise_haversine_np(lat, lon)
    assert d.shape == (20, 20)
    for i in range(0, 20, 5):
        for j in range(0, 20, 7):
            assert d[i, j] == pytest.approx(_ref_haversine(lat[i], lon[i], lat[j], lon[j]), abs=1e-6)
    np.testing.assert_allclose(d, d.T, atol=1e-9)
    assert np.allclose(np.diag(d), 0.0)


@pytest.mark.parametrize("eps", [50.0, 100.0, 250.0])
def test_cell_size_upper_bounds_eps(eps):
    dlat, dlon = cell_size_deg(eps, ref_lat_deg=53.5)
    # one cell side must be >= eps metres in both axes at the reference lat
    assert dlat * 111_194.9 >= eps * 0.999
    assert dlon * 111_194.9 * math.cos(math.radians(53.5)) >= eps * 0.999


@pytest.mark.parametrize("eps", [60.0, 100.0])
def test_grid_cell_neighbours_cover_eps_pairs(eps):
    """Any pair within eps must be in the same or adjacent grid cell."""
    rng = np.random.default_rng(1)
    n = 300
    lat = rng.uniform(53.30, 53.32, n)
    lon = rng.uniform(-6.28, -6.24, n)
    ci, cj = grid_cells(lat, lon, eps_m=eps)
    d = pairwise_haversine_np(lat, lon)
    ii, jj = np.where((d <= eps) & (d > 0))
    assert (np.abs(ci[ii] - ci[jj]) <= 1).all()
    assert (np.abs(cj[ii] - cj[jj]) <= 1).all()


def test_nearest_station_matches_numpy():
    """nearest_np against a brute-force argmin over the full points x
    stations matrix, at sizes on both sides of every block boundary."""
    rng = np.random.default_rng(2)
    st_id = rng.permutation(np.arange(1, 8))
    st_lat, st_lon = rng.uniform(53.28, 53.40, 7), rng.uniform(-6.4, -6.15, 7)
    for n in (0, 1, NEAREST_BLOCK - 1, NEAREST_BLOCK, NEAREST_BLOCK + 1):
        lat, lon = rng.uniform(53.28, 53.40, n), rng.uniform(-6.4, -6.15, n)
        ids, dist = nearest_np(lat, lon, st_id, st_lat, st_lon)
        d = haversine_np(lat[:, None], lon[:, None], st_lat[None, :], st_lon[None, :])
        assert ids.shape == dist.shape == (n,)
        np.testing.assert_array_equal(ids, st_id[np.argmin(d, axis=1)])
        np.testing.assert_array_equal(dist, d.min(axis=1))


@pytest.mark.parametrize(
    "ids,winner",
    # The first two stations share a position, the loser listed first;
    # string ids compare lexicographically ("S20" < "S3").
    [([20, 3, 9], 3), (["S3", "S20", "S9"], "S20")],
    ids=["int", "str"],
)
def test_nearest_np_tie_goes_to_smaller_id(ids, winner):
    st_lat, st_lon = [53.30, 53.30, 53.40], [-6.30, -6.30, -6.20]
    n = NEAREST_BLOCK + 1
    got, _ = nearest_np(np.full(n, 53.301), np.full(n, -6.301), ids, st_lat, st_lon)
    assert (got == winner).all()


def test_nearest_np_no_stations_raises():
    with pytest.raises(ValueError, match="no stations"):
        nearest_np(np.array([53.3]), np.array([-6.3]), np.array([]), np.array([]), np.array([]))


def test_nearest_station_oracle(spark):
    """Cross-check the kernel's argmin (ties: smaller id) against DuckDB."""
    rng = np.random.default_rng(3)
    pts = pd.DataFrame({
        "location_id": np.arange(300),
        "lat": rng.uniform(53.28, 53.40, 300), "lon": rng.uniform(-6.4, -6.15, 300),
    })
    st = pd.DataFrame({
        "station_id": [40, 10, 20, 30],
        "lat": [53.31, 53.31, 53.36, 53.30], "lon": [-6.31, -6.31, -6.26, -6.20],
    })
    sid, _ = nearest_np(pts.lat, pts.lon, st.station_id, st.lat, st.lon)
    got = spark.createDataFrame(pd.DataFrame({"location_id": pts.location_id, "sid": sid}))
    sql = """
    SELECT p.location_id AS location_id,
           (SELECT s.station_id FROM st s
            ORDER BY 2*6371000*ASIN(SQRT(
               POW(SIN(RADIANS(s.lat-p.lat)/2),2) +
               COS(RADIANS(p.lat))*COS(RADIANS(s.lat))*POW(SIN(RADIANS(s.lon-p.lon)/2),2))),
               s.station_id
            LIMIT 1) AS sid
    FROM pts p
    """
    assert_equivalent(got, sql, pts=pts, st=st)
