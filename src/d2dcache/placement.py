"""Cache placement: per-object marginals under a cache capacity.

A placement policy prescribes, for each object, the probability b_j that
any given transmitter caches it, subject to sum(b) <= K cache slots. The
simulator realizes these marginals by independent thinning: the
transmitters that cache object j form a Poisson field of density
b_j * lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .content import PopularityLaw, check_integer, check_reals


@dataclass(frozen=True)
class PlacementPolicy:
    """Per-object cache marginals b with capacity K."""

    b: np.ndarray
    K: int

    def __post_init__(self):
        object.__setattr__(self, "b", check_reals("b", self.b, 0, 1, "[]"))
        check_integer("K", self.K, 1)
        if self.b.sum() > self.K + 1e-9:
            raise ValueError(f"sum of marginals {self.b.sum():.6f} exceeds capacity {self.K}")


def popularity_weighted_marginals(popularity: PopularityLaw, K: int) -> PlacementPolicy:
    """Marginals b_j = min(K * a_j / sum(a_1..a_2K), 1) for the 2K most
    popular objects, zero beyond them.

    Restricting mass to the top 2K objects and renormalizing by their
    popularity keeps sum(b) <= K while still favoring popular content.
    """
    check_integer("K", K, 1)
    F = popularity.F
    if 2 * K > F:
        raise ValueError("need 2K <= F")
    head = popularity.a[: 2 * K]
    b = np.zeros(F)
    b[: 2 * K] = np.minimum(K * head / head.sum(), 1.0)
    return PlacementPolicy(b=b, K=K)
