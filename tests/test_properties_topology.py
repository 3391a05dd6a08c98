"""Property-based tests (hypothesis) on the per-link topology solver.

Five families of invariants (docs/PERFORMANCE.md, "Per-link topology
mode"):

* **conservation** -- ``fair_shares_links`` never oversubscribes a
  link: for every link the shares of the flows crossing it sum to at
  most its unit capacity (counted with multiplicity for flows that
  cross a link twice);
* **max-min fixed point** -- every flow is bottlenecked: it either
  sits at its own cap or crosses at least one saturated link, so no
  allocation can raise any flow without lowering a poorer one;
* **order invariance** -- the shares are a pure function of the flow
  *set*: permuting the rows permutes the shares bit-identically;
* **endpoint adapter** -- ``fair_shares`` is nothing but the
  two-column adapter over ``fair_shares_links``;
* **reference differential** -- the parallel-bottleneck solver lands
  on the allocation of the level-by-level water-filling it replaced
  (``tests.harness.waterfill``, the old loop kept as the oracle) and
  never takes more rounds than that one has share levels.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import flows as flows_mod
from repro.sim.flows import fair_shares, fair_shares_links
from tests.harness.waterfill import waterfill_reference

_EPS = 1e-9

# Paths of 1..4 links over a 10-link fabric; per-flow caps in (0, 1].
path_flows = st.lists(
    st.tuples(
        st.lists(st.integers(0, 9), min_size=1, max_size=4),
        st.floats(0.05, 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)

def _solve(flows):
    paths = [f[0] for f in flows]
    caps = np.array([f[1] for f in flows], dtype=np.float64)
    return paths, caps, fair_shares_links(paths, caps, 10)


@settings(max_examples=200, deadline=None)
@given(flows=path_flows)
def test_links_conservation(flows):
    paths, caps, shares = _solve(flows)
    assert np.all(shares >= 0.0)
    assert np.all(shares <= caps + _EPS)
    for link in range(10):
        # A flow crossing a link twice loads it twice.
        load = sum(s * p.count(link) for p, s in zip(paths, shares))
        assert load <= 1.0 + _EPS, f"link {link} oversubscribed: {load}"


@settings(max_examples=200, deadline=None)
@given(flows=path_flows)
def test_links_maxmin_fixed_point(flows):
    paths, caps, shares = _solve(flows)
    link_load = np.zeros(10)
    for p, s in zip(paths, shares):
        for link in p:
            link_load[link] += s
    for i, (p, s) in enumerate(zip(paths, shares)):
        at_cap = s >= caps[i] - _EPS
        on_saturated = any(link_load[l] >= 1.0 - _EPS for l in p)
        assert at_cap or on_saturated, (
            f"flow {i} ({s}) below cap {caps[i]} with headroom on "
            f"every link of {p}"
        )


@settings(max_examples=150, deadline=None)
@given(flows=path_flows, seed=st.integers(0, 2**31))
def test_links_permutation_invariance(flows, seed):
    paths, caps, shares = _solve(flows)
    perm = np.random.default_rng(seed).permutation(len(flows))
    permuted = fair_shares_links([paths[i] for i in perm], caps[perm], 10)
    assert np.array_equal(shares[perm], permuted)


two_link_flows = st.lists(
    st.tuples(
        st.integers(0, 4),                       # tx link id
        st.integers(5, 9),                       # rx link id
        st.floats(0.05, 1.0, allow_nan=False),   # per-flow cap
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(flows=two_link_flows)
def test_endpoint_adapter_is_the_links_solver(flows):
    """``fair_shares`` only stacks its two columns and delegates."""
    tx = np.array([f[0] for f in flows], dtype=np.intp)
    rx = np.array([f[1] for f in flows], dtype=np.intp)
    caps = np.array([f[2] for f in flows], dtype=np.float64)
    via_endpoints = fair_shares(tx, rx, caps, 10)
    via_links = fair_shares_links(np.stack([tx, rx], axis=1), caps, 10)
    assert np.array_equal(via_endpoints, via_links)


@settings(max_examples=150, deadline=None)
@given(flows=path_flows)
def test_links_padded_matrix_matches_ragged(flows):
    """Pre-padded 2-D input (the engine's cached form) solves identically."""
    paths = [f[0] for f in flows]
    caps = np.array([f[1] for f in flows], dtype=np.float64)
    ragged = fair_shares_links(paths, caps, 10)
    width = max(len(p) for p in paths)
    padded = np.full((len(paths), width), -1, dtype=np.intp)
    for i, p in enumerate(paths):
        padded[i, : len(p)] = p
    assert np.array_equal(ragged, fair_shares_links(padded, caps, 10))


# ---------------------------------------------------------------------------
# differential against the reference water-filling
# ---------------------------------------------------------------------------

_N_LINKS = 12

# Ragged paths that may cross a link more than once; flow caps drawn
# from round decimals as well as arbitrary floats, because levels that
# tie up to float residue are where a freeze rule goes wrong.
diff_flows = st.lists(
    st.tuples(
        st.lists(st.integers(0, _N_LINKS - 1), min_size=1, max_size=5),
        st.one_of(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]),
                  st.floats(0.05, 1.0, allow_nan=False)),
    ),
    min_size=1,
    max_size=200,
)

@settings(max_examples=300, deadline=None)
@given(flows=diff_flows)
def test_links_match_reference_waterfill(flows):
    paths = [f[0] for f in flows]
    caps = np.array([f[1] for f in flows], dtype=np.float64)
    shares, rounds = flows_mod._solve(paths, caps, _N_LINKS)
    reference = waterfill_reference(paths, caps, _N_LINKS)
    assert np.abs(shares - reference).max() <= 1e-12
    # The reference freezes one share level per round, so its distinct
    # levels are a floor on *its* round count; the solver under test
    # freezes every local bottleneck at once and must not exceed it.
    assert rounds <= len(np.unique(reference))
