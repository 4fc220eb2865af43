"""Cache placement: marginal construction and block membership sampling.

A placement policy prescribes, for each object, the probability b_j that
any given transmitter caches it, subject to sum(b) <= K cache slots. The
sampler realizes those marginals exactly while never storing more than K
distinct objects per node, by packing the b_j as segments on a line of
length K (wrapping over unit rows) and intersecting the segments with a
single uniform offset replicated once per row: a node with offset u
caches object j when membership(j, u) holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .content import PopularityLaw


@dataclass(frozen=True)
class PlacementPolicy:
    """Per-object cache marginals b with capacity K.

    Segment start offsets are precomputed in descending object-index order
    so that sampling is a pure function of one uniform draw.
    """

    b: np.ndarray
    K: int
    _starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if not (1 <= self.K < math.inf and int(self.K) == self.K):
            raise ValueError("K must be a positive integer")
        if not np.all((b >= 0) & (b <= 1)):
            raise ValueError("marginals must lie in [0, 1]")
        if b.sum() > self.K + 1e-9:
            raise ValueError(f"sum of marginals {b.sum():.6f} exceeds capacity {self.K}")
        # starts[j] = sum of b[k] for k > j: segments packed from the last
        # object backwards, so object j occupies [starts[j], starts[j] + b[j]).
        starts = np.concatenate([np.cumsum(b[::-1])[::-1][1:], [0.0]])
        object.__setattr__(self, "_starts", starts)

    def membership(self, j: int, u) -> np.ndarray:
        """Whether object j is cached for each uniform draw in u."""
        return (np.asarray(u) - self._starts[j]) % 1.0 < self.b[j]


def popularity_weighted_marginals(popularity: PopularityLaw, K: int) -> PlacementPolicy:
    """Marginals b_j = min(K * a_j / sum(a_1..a_2K), 1) for the 2K most
    popular objects, zero beyond them.

    Restricting mass to the top 2K objects and renormalizing by their
    popularity keeps sum(b) <= K while still favoring popular content.
    """
    F = popularity.F
    if 2 * K > F:
        raise ValueError("need 2K <= F")
    head = popularity.a[: 2 * K]
    b = np.zeros(F)
    b[: 2 * K] = np.minimum(K * head / head.sum(), 1.0)
    return PlacementPolicy(b=b, K=K)

