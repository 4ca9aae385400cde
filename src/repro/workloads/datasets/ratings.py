"""MovieLens-like rating data for the product-recommendation benchmark.

Item popularity is power-law distributed (a few blockbusters, a long
tail), so the per-item rater lists that drive the dynamically launched
similarity computations vary from a handful to hundreds of users — the
paper's coarse-grained DFP case (average ≈ 1500 threads per launch).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .memo import memoised


@dataclass(frozen=True)
class RatingSet:
    """User-item ratings in both item-major and user-major CSR forms."""

    num_users: int
    num_items: int
    #: item -> (indptr, user ids, ratings)
    item_indptr: np.ndarray
    item_users: np.ndarray
    item_ratings: np.ndarray
    #: user -> (indptr, item ids, ratings)
    user_indptr: np.ndarray
    user_items: np.ndarray
    user_ratings: np.ndarray

    @property
    def num_ratings(self) -> int:
        return len(self.item_users)


@memoised
def movielens_like(
    num_users: int = 360,
    num_items: int = 160,
    avg_ratings: int = 18,
    popularity_exponent: float = 0.65,
    seed: int = 43,
) -> RatingSet:
    """Power-law item popularity, uniform users.

    ``popularity_exponent`` controls the skew of the item popularity
    (higher = heavier blockbusters); the default keeps the most popular
    item's rater list within an order of magnitude of the median, as in
    the rating-count distribution of the MovieLens catalogues.
    """
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, num_items + 1) ** popularity_exponent
    popularity /= popularity.sum()
    pairs = set()
    total = num_users * avg_ratings
    while len(pairs) < total:
        users = rng.integers(0, num_users, size=total)
        items = rng.choice(num_items, size=total, p=popularity)
        pairs.update(zip(users.tolist(), items.tolist()))
    pair_list = sorted(pairs)[:total]
    users = np.array([u for u, _ in pair_list], dtype=np.int64)
    items = np.array([i for _, i in pair_list], dtype=np.int64)
    ratings = rng.integers(1, 6, size=len(pair_list)).astype(np.int64)

    def csr(keys: np.ndarray, vals_a: np.ndarray, vals_b: np.ndarray, nkeys: int):
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        indptr = np.zeros(nkeys + 1, dtype=np.int64)
        np.add.at(indptr, sorted_keys + 1, 1)
        indptr = np.cumsum(indptr)
        return indptr, vals_a[order], vals_b[order]

    item_indptr, item_users, item_ratings = csr(items, users, ratings, num_items)
    user_indptr, user_items, user_ratings = csr(users, items, ratings, num_users)
    return RatingSet(
        num_users=num_users,
        num_items=num_items,
        item_indptr=item_indptr,
        item_users=item_users,
        item_ratings=item_ratings,
        user_indptr=user_indptr,
        user_items=user_items,
        user_ratings=user_ratings,
    )
