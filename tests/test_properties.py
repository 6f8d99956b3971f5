"""Property-based tests (hypothesis) for the pure-numpy substrates:
Haversine metric axioms, integer allocation, complete-linkage invariants
and the losslessness of its eps-component decomposition,
suppression invariants and reference-modularity bounds. These run without
Spark, so they are cheap enough for many examples."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import eps_pairs, haversine_np, pairwise_haversine_np
from repro.hac.cluster import min_label_components
from repro.hac.linkage import complete_linkage_labels
from repro.louvain.reference import louvain_ref, modularity_ref
from repro.moby.generator import _largest_remainder

lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)


@given(lat_st, lon_st)
def test_haversine_identity(lat, lon):
    assert haversine_np(lat, lon, lat, lon) == pytest.approx(0.0, abs=1e-6)


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_symmetry(lat1, lon1, lat2, lon2):
    a = haversine_np(lat1, lon1, lat2, lon2)
    b = haversine_np(lat2, lon2, lat1, lon1)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_bounded_by_half_circumference(lat1, lon1, lat2, lon2):
    d = haversine_np(lat1, lon1, lat2, lon2)
    assert 0.0 <= d <= np.pi * 6_371_000.0 + 1.0


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=10_000),
)
def test_largest_remainder_sums_to_total(weights, total):
    alloc = _largest_remainder(np.array(weights), total)
    assert alloc.sum() == total
    assert (alloc >= 0).all()


@given(
    st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=10),
    st.integers(min_value=100, max_value=1000),
)
def test_largest_remainder_proportionality(weights, total):
    w = np.array(weights)
    alloc = _largest_remainder(w, total)
    ideal = w / w.sum() * total
    assert (np.abs(alloc - ideal) < 1.0 + 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=30))
def test_linkage_partition_is_valid(seed, n):
    rng = np.random.default_rng(seed)
    lat = 53.33 + rng.normal(0, 0.0006, n)
    lon = -6.27 + rng.normal(0, 0.0009, n)
    labels = complete_linkage_labels(lat, lon, max_diameter_m=100.0)
    assert labels.shape == (n,)
    # labels dense 0..k-1
    assert set(labels) == set(range(labels.max() + 1))
    # diameter rule
    d = pairwise_haversine_np(lat, lon)
    for l in set(labels):
        m = np.where(labels == l)[0]
        if len(m) > 1:
            assert d[np.ix_(m, m)].max() <= 100.0 + 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reference_louvain_modularity_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    edges = []
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.3:
                edges.append((i, j, float(rng.random() + 0.1)))
    if not edges:
        edges = [(0, 1, 1.0)]
    comm = louvain_ref(edges)
    q = modularity_ref(edges, comm)
    assert -1.0 <= q <= 1.0
    # never worse than all-singletons or all-in-one
    nodes = {u for e in edges for u in e[:2]}
    assert q >= modularity_ref(edges, {u: u for u in nodes}) - 1e-12
    assert q >= modularity_ref(edges, {u: 0 for u in nodes}) - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_suppress_result_is_independent_set(seed):
    import pandas as pd

    from repro.geo import haversine_np as hv
    from repro.stations.selection import _suppress

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    pdf = pd.DataFrame(
        {
            "group_id": [f"C{i}" for i in range(n)],
            "lat": 53.33 + rng.uniform(-0.01, 0.01, n),
            "lon": -6.27 + rng.uniform(-0.015, 0.015, n),
            "degree": rng.integers(1, 20, n).astype(float),
        }
    )
    keep = _suppress(pdf, 250.0)
    kept = np.where(keep)[0]
    assert len(kept) >= 1
    if len(kept) > 1:
        d = hv(
            pdf.lat.to_numpy()[kept][:, None], pdf.lon.to_numpy()[kept][:, None],
            pdf.lat.to_numpy()[kept][None, :], pdf.lon.to_numpy()[kept][None, :],
        )
        np.fill_diagonal(d, np.inf)
        assert (d >= 250.0).all()


def _partition(labels, index):
    """Clusters as a set of frozensets of ``index`` values."""
    out: dict[int, set] = {}
    for l, i in zip(labels.tolist(), index):
        out.setdefault(l, set()).add(i)
    return {frozenset(c) for c in out.values()}


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5))
def test_linkage_on_union_of_components_is_lossless(seed, n_clouds):
    """DESIGN §2: complete linkage over the union of several 100 m
    eps-components gives the same clusters as linkage on each component
    alone, so per-component HAC loses nothing."""
    rng = np.random.default_rng(seed)
    # clouds ~220 m apart and ~100-300 m across: they form one or several
    # eps-components
    n = rng.integers(1, 15, n_clouds)
    lat = np.concatenate([53.33 + 0.002 * c + rng.normal(0, 0.0006, k) for c, k in enumerate(n)])
    lon = np.concatenate([-6.27 + rng.normal(0, 0.0009, k) for k in n])
    perm = rng.permutation(len(lat))
    lat, lon = lat[perm], lon[perm]
    comp = min_label_components(len(lat), *eps_pairs(lat, lon, eps_m=100.0))

    whole = _partition(complete_linkage_labels(lat, lon, max_diameter_m=100.0), range(len(lat)))
    apart = set()
    for c in np.unique(comp):
        m = np.flatnonzero(comp == c)
        apart |= _partition(complete_linkage_labels(lat[m], lon[m], max_diameter_m=100.0), m.tolist())
    assert whole == apart
