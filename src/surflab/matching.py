"""Exact minimum-weight matching of fired detectors against the boundary.

Every fired detector must be paired with another fired detector or matched
to the boundary; the solver minimises total path weight and reports the
logical parity of the chosen pairing.

A pair can only be optimal when it is cheaper than sending both detectors
to the boundary (``w_ij < wb_i + wb_j``), so the fired detectors linked by
such pairs form independent clusters.  ``decode_batched`` labels the
clusters of every shot in a batch at once and solves all clusters of one
size together: a lone detector goes to the boundary, a linked pair is
paired, and clusters of up to ``CLUSTER_CAP`` detectors share one subset DP
over their ``2**m`` states, vectorised over the clusters and over the masks
of one popcount.  Larger clusters go to a blossom matching (networkx)
through the standard boundary-doubling construction.

Ties are broken as in ``match_single``: the lowest-index unmatched detector
chooses first, boundary before partners, then the smallest partner index.
Cluster members keep ascending detector order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# fired-detector count up to which the benchmark compares decode with
# match_single shot by shot; decoding does not branch on it
DP_CAP = 12
CLUSTER_CAP = 20  # per-cluster DP limit before falling back to blossom
_DP_STATES = 1 << 20  # masks x clusters held by one DP call


# ---------------------------------------------------------------------------
# reference implementations (also used for the rare-path fallbacks)


def match_single(w: np.ndarray, wb: np.ndarray, par: np.ndarray, par_b: np.ndarray) -> tuple[float, int]:
    """Exact DP for one instance; returns (total weight, logical parity)."""
    m = len(wb)
    if m == 0:
        return 0.0, 0
    size = 1 << m
    dp = np.full(size, np.inf)
    pr = np.zeros(size, dtype=np.uint8)
    dp[0] = 0.0
    for mask in range(1, size):
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = dp[rest] + wb[i]
        bpar = pr[rest] ^ par_b[i]
        jj = rest
        while jj:
            j = (jj & -jj).bit_length() - 1
            jj &= jj - 1
            cand = dp[rest ^ (1 << j)] + w[i, j]
            if cand < best:
                best = cand
                bpar = pr[rest ^ (1 << j)] ^ par[i, j]
        dp[mask] = best
        pr[mask] = bpar
    return float(dp[size - 1]), int(pr[size - 1])


def match_brute(w: np.ndarray, wb: np.ndarray, par: np.ndarray, par_b: np.ndarray) -> tuple[float, int, bool]:
    """Enumerate every pairing; returns (weight, parity, unique_optimum).

    Exponential; intended as an independent test oracle for small m.
    """
    m = len(wb)

    def go(avail: tuple[int, ...]) -> list[tuple[float, int]]:
        if not avail:
            return [(0.0, 0)]
        i, rest = avail[0], avail[1:]
        out = []
        for cost, parity in go(rest):
            out.append((cost + wb[i], parity ^ int(par_b[i])))
        for k, j in enumerate(rest):
            rem = rest[:k] + rest[k + 1 :]
            for cost, parity in go(rem):
                out.append((cost + w[i, j], parity ^ int(par[i, j])))
        return out

    sols = go(tuple(range(m)))
    best = min(s[0] for s in sols)
    winners = {s[1] for s in sols if s[0] <= best + 1e-9}
    parities = [s[1] for s in sols if s[0] <= best + 1e-9]
    return best, parities[0], len(winners) == 1


def _match_blossom(w: np.ndarray, wb: np.ndarray, par: np.ndarray, par_b: np.ndarray) -> tuple[float, int]:
    """Boundary-doubled exact blossom matching; returns (weight, parity)."""
    import networkx as nx

    m = len(wb)
    g = nx.Graph()
    for i in range(m):
        g.add_edge(i, m + i, weight=float(wb[i]))
        for j in range(i + 1, m):
            g.add_edge(i, j, weight=float(w[i, j]))
            g.add_edge(m + i, m + j, weight=0.0)
    pairs = nx.min_weight_matching(g)
    parity = 0
    weight = 0.0
    for u, v in pairs:
        u, v = min(u, v), max(u, v)
        if u < m <= v:
            if v - m == u:
                parity ^= int(par_b[u])
                weight += float(wb[u])
            else:
                raise AssertionError("boundary shadow matched across detectors")
        elif v < m:
            parity ^= int(par[u, v])
            weight += float(w[u, v])
    return weight, parity


# ---------------------------------------------------------------------------
# batched decoding


@lru_cache(maxsize=None)
def _masks_by_popcount(m: int) -> tuple[np.ndarray, list[int]]:
    """All m-bit masks sorted by popcount, and where each popcount starts."""
    masks = np.arange(1 << m, dtype=np.int32)
    pop = sum((masks >> b) & 1 for b in range(m))
    order = np.argsort(pop, kind="stable").astype(np.int32)
    order.setflags(write=False)
    return order, np.searchsorted(pop[order], np.arange(m + 2)).tolist()


def _bit_index(bit: np.ndarray) -> np.ndarray:
    """Position of the single set bit of each mask."""
    return np.frexp(bit)[1] - 1


def _match_layers(wm: np.ndarray, wbm: np.ndarray, pm: np.ndarray, pbm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``match_single`` for n instances of m detectors at once.

    wm, pm (n, m, m); wbm, pbm (n, m).  The DP table is filled one popcount
    layer at a time, vectorised over (masks of the layer x instances), with
    the recurrence and tie-break of ``match_single``: the boundary first,
    then partners j in ascending order, each replacing the best only when
    strictly cheaper.  Returns the (n,) weights and parities.
    """
    n, m = wbm.shape
    masks, starts = _masks_by_popcount(m)
    wt, pt = wm.transpose(1, 2, 0), pm.transpose(1, 2, 0)
    dp = np.empty((1 << m, n))
    pr = np.empty((1 << m, n), dtype=np.uint8)
    dp[0], pr[0] = 0.0, 0
    # one detector: its boundary exit (the popcount-1 masks are 1, 2, 4, ...)
    dp[masks[1 : m + 1]], pr[masks[1 : m + 1]] = wbm.T, pbm.T
    for k in range(2, m + 1):
        layer = masks[starts[k] : starts[k + 1]]
        rest = layer & (layer - 1)  # without the lowest set bit i, which chooses
        i = _bit_index(layer ^ rest)
        best = dp[rest] + wbm.T[i]
        par = pr[rest] ^ pbm.T[i]
        left = rest
        for _ in range(k - 1):  # partners j: the bits of rest, ascending
            bit = left & -left
            left = left ^ bit
            prev = rest ^ bit
            j = _bit_index(bit)
            cand = dp[prev] + wt[i, j]
            take = cand < best
            np.copyto(best, cand, where=take)
            np.copyto(par, pr[prev] ^ pt[i, j], where=take)
        dp[layer], pr[layer] = best, par
    return dp[-1], pr[-1]


def link_pairs(w: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Detector pairs a < b that a minimum-weight matching may pair."""
    return np.nonzero(np.triu(w < wb[:, None] + wb[None, :], 1))


def _cluster_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of n nodes joined by edges (u, v): each node's
    label is the smallest node of its component."""
    lab = np.arange(n)
    while True:
        lu, lv = lab[u], lab[v]
        if (lu == lv).all():
            return lab
        np.minimum.at(lab, np.maximum(lu, lv), np.minimum(lu, lv))
        lab = lab[lab]


def decode_batched(
    w: np.ndarray,
    wb: np.ndarray,
    par: np.ndarray,
    par_b: np.ndarray,
    events: np.ndarray,
    links: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Logical correction for every shot of detection events (S, D).

    ``links`` is ``link_pairs(w, wb)``, for callers that keep it.
    """
    events = np.asarray(events, dtype=bool)
    a, b = link_pairs(w, wb) if links is None else links
    corrections = np.zeros(len(events), dtype=np.uint8)
    if not events.any():
        return corrections
    # a fired detector with no fired link partner is a cluster of one: it
    # goes to the boundary
    s, e = np.nonzero(events[:, a] & events[:, b])
    alone = events.copy()
    alone[s, a[e]] = alone[s, b[e]] = False
    alone_shot, alone_det = np.nonzero(alone)
    np.bitwise_xor.at(corrections, alone_shot, par_b[alone_det])
    if not len(s):
        return corrections
    # nodes are the linked fired (shot, detector) pairs, shot-major
    linked = events & ~alone
    shot, det = np.nonzero(linked)
    node = np.cumsum(linked.reshape(-1)).reshape(linked.shape) - 1
    lab = _cluster_labels(len(det), node[s, a[e]], node[s, b[e]])
    size = np.bincount(lab)[lab]
    # nodes grouped by cluster size, then by cluster, members in detector order
    order = np.lexsort((lab, size))
    per_size = np.bincount(size)
    lo = 0
    for m in np.flatnonzero(per_size).tolist():
        hi = lo + int(per_size[m])
        members = det[order[lo:hi].reshape(-1, m)]
        owner = shot[order[lo:hi:m]]
        lo = hi
        if m == 2:
            # one linked pair, cheaper than its two boundary exits by definition
            parity = par[members[:, 0], members[:, 1]]
        elif m > CLUSTER_CAP:
            parity = np.array(
                [_match_blossom(w[np.ix_(f, f)], wb[f], par[np.ix_(f, f)], par_b[f])[1] for f in members],
                dtype=np.uint8,
            )
        else:
            parity = np.empty(len(members), dtype=np.uint8)
            step = max(1, _DP_STATES >> m)
            for c in range(0, len(members), step):
                f = members[c : c + step]
                ix = (f[:, :, None], f[:, None, :])
                parity[c : c + step] = _match_layers(w[ix], wb[f], par[ix], par_b[f])[1]
        np.bitwise_xor.at(corrections, owner, parity)
    return corrections
