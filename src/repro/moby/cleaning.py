"""The paper's six data-cleaning rules (Section III, Table I).

Removed entries:
1. Locations outside Dublin + rentals touching them.
2. Locations not on land (Dublin Bay) + rentals touching them.
3. Locations missing latitude/longitude + rentals touching them.
4. Rentals missing a rental/return location id.
5. Rentals whose rental/return location id is not in the Location table.
6. Locations never referenced by any (surviving) rental.

All rule evaluation happens in Catalyst (joins/filters); only Table I
counts are collected: one aggregation per table before and after.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.moby.generator import DUBLIN_BBOX, SEA_LAT, SEA_LON_MIN


@dataclass(frozen=True)
class CleanResult:
    """Cleaned tables plus the Table I measures."""

    locations: DataFrame
    rentals: DataFrame
    stations: DataFrame  # cleaned stations (location_id, lat, lon, station_id)
    raw_stations: int
    raw_rentals: int
    raw_locations: int
    clean_stations: int
    clean_rentals: int
    clean_locations: int


def in_dublin(lat_col, lon_col):
    """Boolean Column: coordinate inside the Dublin bounding box."""
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    return (
        (lat_col >= lat_min) & (lat_col <= lat_max)
        & (lon_col >= lon_min) & (lon_col <= lon_max)
    )


def on_land(lat_col, lon_col):
    """Boolean Column: not in the (crude half-plane) Dublin Bay region."""
    sea = (lon_col > SEA_LON_MIN) & (lat_col > SEA_LAT[0]) & (lat_col < SEA_LAT[1])
    return ~sea


def _location_counts(locations: DataFrame) -> tuple[int, int]:
    """(#locations, #stations) in one pass over ``locations``."""
    row = locations.agg(
        F.count(F.lit(1)).alias("n"), F.count_if(F.col("is_station")).alias("st")
    ).collect()[0]
    return row["n"], row["st"]


def clean(locations: DataFrame, rentals: DataFrame) -> CleanResult:
    """Apply all six rules and return cleaned tables + Table I counts."""
    raw_locations, raw_stations = _location_counts(locations)
    raw_rentals = rentals.count()

    lat, lon = F.col("lat"), F.col("lon")
    good_loc = locations.filter(
        lat.isNotNull() & lon.isNotNull() & in_dublin(lat, lon) & on_land(lat, lon)
    )

    # Rules 4 + 5 + (1-3 via semi-join on surviving locations): a rental
    # survives iff both endpoint ids are present and resolve to a good
    # location.
    good_ids = good_loc.select(F.col("location_id").alias("__lid"))
    r = rentals.filter(
        F.col("rental_location_id").isNotNull()
        & F.col("return_location_id").isNotNull()
    )
    r = r.join(
        good_ids.withColumnRenamed("__lid", "rental_location_id"),
        "rental_location_id",
        "left_semi",
    ).join(
        good_ids.withColumnRenamed("__lid", "return_location_id"),
        "return_location_id",
        "left_semi",
    )

    # Rule 6: drop locations never referenced by a surviving rental.
    refs = (
        r.select(F.col("rental_location_id").alias("location_id"))
        .unionByName(r.select(F.col("return_location_id").alias("location_id")))
        .distinct()
    )
    # localCheckpoint (not cache): every downstream stage joins these
    # tables repeatedly and nests them in further plans — materialising
    # here keeps all later logical plans shallow.
    loc_clean = good_loc.join(refs, "location_id", "left_semi").localCheckpoint()
    r = r.localCheckpoint()

    stations = loc_clean.filter(F.col("is_station")).select(
        "location_id", "lat", "lon", F.col("station_id").cast("long").alias("station_id")
    )
    clean_locations, clean_stations = _location_counts(loc_clean)
    return CleanResult(
        locations=loc_clean,
        rentals=r,
        stations=stations,
        raw_stations=raw_stations,
        raw_rentals=raw_rentals,
        raw_locations=raw_locations,
        clean_stations=clean_stations,
        clean_rentals=r.count(),
        clean_locations=clean_locations,
    )
