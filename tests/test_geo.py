"""Unit tests for repro.geo: Haversine (Spark + numpy), grid cells,
nearest-station assignment. The eps-pair search is tested in
test_proximity.py."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.geo import (
    EARTH_RADIUS_M,
    cell_size_deg,
    grid_cells,
    haversine_col,
    haversine_np,
    nearest_station,
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


@pytest.mark.parametrize("lat1,lon1,lat2,lon2,expected", KNOWN)
def test_haversine_col_known(spark, lat1, lon1, lat2, lon2, expected):
    df = spark.createDataFrame([(lat1, lon1, lat2, lon2)], "a double, b double, c double, d double")
    got = df.select(
        haversine_col(F.col("a"), F.col("b"), F.col("c"), F.col("d")).alias("d_m")
    ).collect()[0]["d_m"]
    assert got == pytest.approx(expected, abs=0.5)


@pytest.mark.parametrize("seed", range(5))
def test_haversine_col_matches_np_random(spark, seed):
    rng = np.random.default_rng(seed)
    n = 50
    pdf = pd.DataFrame(
        {
            "lat1": rng.uniform(53.2, 53.45, n), "lon1": rng.uniform(-6.5, -6.1, n),
            "lat2": rng.uniform(53.2, 53.45, n), "lon2": rng.uniform(-6.5, -6.1, n),
        }
    )
    expected = haversine_np(pdf.lat1.to_numpy(), pdf.lon1.to_numpy(), pdf.lat2.to_numpy(), pdf.lon2.to_numpy())
    got = (
        spark.createDataFrame(pdf)
        .select(haversine_col(F.col("lat1"), F.col("lon1"), F.col("lat2"), F.col("lon2")).alias("d"))
        .toPandas()["d"].to_numpy()
    )
    # row order is preserved for a single narrow partition-parallel select
    np.testing.assert_allclose(np.sort(got), np.sort(expected), rtol=1e-9)


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


def test_nearest_station_matches_numpy(spark):
    rng = np.random.default_rng(2)
    pts = pd.DataFrame(
        {
            "location_id": np.arange(100),
            "lat": rng.uniform(53.28, 53.40, 100),
            "lon": rng.uniform(-6.4, -6.15, 100),
        }
    )
    st = pd.DataFrame(
        {
            "station_id": np.arange(1, 8),
            "lat": rng.uniform(53.28, 53.40, 7),
            "lon": rng.uniform(-6.4, -6.15, 7),
        }
    )
    got = (
        nearest_station(spark.createDataFrame(pts), spark.createDataFrame(st))
        .toPandas().sort_values("location_id").reset_index(drop=True)
    )
    d = haversine_np(
        pts.lat.to_numpy()[:, None], pts.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    expected_station = st.station_id.to_numpy()[np.argmin(d, axis=1)]
    np.testing.assert_array_equal(got["nearest_station_id"].to_numpy(), expected_station)
    np.testing.assert_allclose(got["nearest_station_id_dist_m"].to_numpy(), d.min(axis=1), rtol=1e-9)


def test_nearest_station_oracle(spark):
    """Cross-check the min-struct argmin idiom against DuckDB."""
    pts = pd.DataFrame({"location_id": [1, 2], "lat": [53.30, 53.35], "lon": [-6.30, -6.25]})
    st = pd.DataFrame({"station_id": [10, 20], "lat": [53.31, 53.36], "lon": [-6.31, -6.26]})
    got = nearest_station(spark.createDataFrame(pts), spark.createDataFrame(st)).select(
        "location_id", F.col("nearest_station_id").alias("sid")
    )
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
