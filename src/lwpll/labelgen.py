"""Label-specific candidate-set generation.

A generation model is a row-stochastic-free matrix q where q[y][z] is the
probability that class z enters the candidate set when the true label is y.
The true label is always included (q[y][y] = 1) and every other entry lies
in [0, 1), so the candidate set

    P(S | y) = prod_{z in S, z != y} q[y][z] * prod_{z not in S} (1 - q[y][z])

always contains y and assigns every label its own contamination rate. With
``reject_full`` the all-classes set gets probability 0 and every other set's
probability is renormalized by 1 - prod_{z != y} q[y][z], so the observed
set always carries information; the sampler draws from that law in one pass.
"""

from __future__ import annotations

import numpy as np


class GenerationModel:
    """Candidate-set sampler and probability oracle for one q matrix, or for
    a stack of them.

    q: (K, K) array with unit diagonal and off-diagonal entries in [0, 1),
    or an (n, K, K) stack of such matrices, one model per instance of a
    batch; every matrix is validated. A stack answers `subset_probabilities`
    for all its models at once; sampling needs one model.
    reject_full: when True, the full set {0..K-1} never occurs and every
    other set's probability is renormalized, in `subset_probabilities` and
    in `sample_sets` alike.
    """

    def __init__(self, q, reject_full: bool = False):
        q = np.array(q, dtype=float)
        if q.ndim not in (2, 3) or q.shape[-2] != q.shape[-1]:
            raise ValueError(f"q must be square, got shape {q.shape}")
        if q.shape[-1] < 1:
            raise ValueError("need at least 1 class")
        own = np.eye(q.shape[-1], dtype=bool)
        if not (q[..., own] == 1.0).all():
            raise ValueError("diagonal entries of q must be exactly 1")
        off = q[..., ~own]
        # Written so that NaN fails the range check.
        if not ((off >= 0.0) & (off < 1.0)).all():
            raise ValueError("off-diagonal entries of q must lie in [0, 1)")
        if reject_full and q.shape[-1] == 1:
            raise ValueError("rejecting the full set leaves no candidate set for K=1")
        q.setflags(write=False)
        self.q = q
        self.num_classes = q.shape[-1]
        self.reject_full = bool(reject_full)

    def _full_set_mass(self, y) -> np.ndarray:
        """P(all other classes enter the set | true label y), per label in y
        (and per model of a stack)."""
        k = self.num_classes
        off = self.q[..., ~np.eye(k, dtype=bool)]
        off = off.reshape(self.q.shape[:-1] + (k - 1,))
        return off.prod(axis=-1)[..., y]

    def _labels(self, y, rows: int | None = None) -> np.ndarray:
        """y checked as class labels, the one check of both methods: an
        integer dtype, every label in [0, K), and a 1-D vector (of `rows`
        labels when rows is given; then a single label, for every row, also
        passes)."""
        labels = np.asarray(y)
        one_per_row = labels.ndim == 1 if rows is None else labels.shape in ((rows,), ())
        if labels.dtype.kind not in "iu" or not one_per_row:
            raise ValueError(
                f"labels must be one integer per row, got {labels.dtype} {labels.shape}"
            )
        if ((labels < 0) | (labels >= self.num_classes)).any():
            raise ValueError("labels out of range")
        return labels

    def subset_probabilities(self, y, subsets) -> np.ndarray:
        """P(candidate set = row | true label) for a stack of boolean rows.

        y is one label for every row or a vector with one label per row.
        Rows not containing their label get probability 0, as does the
        all-classes row under reject_full (whose mass is redistributed over
        the rest of that label's sets). One model gives an (m,) array; a
        stack of n models gives (n, m), row i for model i.

        The product over classes is built one class column at a time,
        z = 0..K-1, each factor gathered from a (1 - q, q) table. NumPy's
        multiply reduction over the last axis of an (..., m, K) factor array
        takes the factors in the same order, so the result is bit-identical
        to that reduction without building the factor array.
        """
        masks = np.asarray(subsets, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.num_classes:
            raise ValueError(
                f"subsets must be (m, {self.num_classes}) boolean, got {masks.shape}"
            )
        labels = self._labels(y, masks.shape[0])
        labels = np.broadcast_to(np.asarray(labels, dtype=np.intp), masks.shape[:1])
        # Row y of the table is (1 - q[y], q[y]), so the factor of class z in
        # a row with label y is entry 2Ky + K + z (z in the set) or 2Ky + z
        # (z not in it) of the flattened table. q[y][y] = 1 makes the
        # own-label factor 1 on rows that contain y.
        k = self.num_classes
        table = np.concatenate([1.0 - self.q, self.q], axis=-1)
        table = table.reshape(self.q.shape[:-2] + (2 * k * k,))
        columns = np.arange(k)[:, None]
        index = 2 * k * labels + np.where(masks.T, columns + k, columns)
        p = table.take(index[0], axis=-1)
        for column in index[1:]:
            p *= table.take(column, axis=-1)
        p[..., ~masks[np.arange(masks.shape[0]), labels]] = 0.0
        if self.reject_full:
            p[..., masks.all(axis=1)] = 0.0
            p /= 1.0 - self._full_set_mass(labels)
        return p

    def sample_sets(self, labels, rng: np.random.Generator) -> np.ndarray:
        """Draw candidate sets for a label vector; returns (n, K) boolean masks."""
        if self.q.ndim != 2:
            raise ValueError("sampling needs one model, not a stack of them")
        labels = self._labels(labels)
        n, k = labels.shape[0], self.num_classes
        rows = self.q[labels]
        u = rng.random((n, k))
        masks = u < rows  # q[y][y] = 1 puts the own label in
        if self.reject_full:
            # Conditioned on "not the full set": while classes 0..z-1 are all
            # in, class z joins with probability q_z (1 - t_{z+1}) / (1 - t_z),
            # t_z = prod_{j >= z} q_j; after the first class left out the
            # rest are the free draws. The own label gets exactly 1; the one
            # 0/0, an own label in the last column, comes after the class
            # before it, which joins with probability 0.
            tails = np.cumprod(rows[:, ::-1], axis=1)[:, ::-1]
            after = np.concatenate([tails[:, 1:], np.ones((n, 1))], axis=1)
            with np.errstate(invalid="ignore"):
                held = u < rows * (1.0 - after) / (1.0 - tails)
            first_out = held.argmin(axis=1)[:, None]
            cols = np.arange(k)
            masks = (cols < first_out) | (masks & (cols > first_out))
        return masks


def make_uniform(num_classes: int, q: float, reject_full: bool = False) -> GenerationModel:
    """Model where every wrong class enters the set with the same probability q."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    mat = np.full((num_classes, num_classes), q, dtype=float)
    np.fill_diagonal(mat, 1.0)
    return GenerationModel(mat, reject_full=reject_full)


def _circulant(num_classes: int, offset_probs: dict[int, float]) -> np.ndarray:
    """q matrix where class (y + d) mod K enters with probability offset_probs[d].
    Each d must be nonzero mod K, as `make_case`'s K > 2|d| makes it."""
    mat = np.zeros((num_classes, num_classes), dtype=float)
    np.fill_diagonal(mat, 1.0)
    for d, p in offset_probs.items():
        for y in range(num_classes):
            mat[y, (y + d) % num_classes] = p
    return mat


def make_case(
    num_classes: int,
    case: int,
    q1: float = 0.5,
    q2: float = 0.3,
    q3: float = 0.1,
    reject_full: bool = False,
) -> GenerationModel:
    """Three structured circulant models over the classes arranged in a ring.

    Case 1: only the next class (y + 1) may enter, with probability q1.
    Case 2: both neighbours (y +- 1) may enter, with probability q1.
    Case 3: neighbours at distance 1, 2, 3 may enter with decreasing
    probabilities q1 > q2 > q3.
    """
    if case == 1:
        offsets = {1: q1}
    elif case == 2:
        offsets = {1: q1, -1: q1}
    elif case == 3:
        if not q1 > q2 > q3:
            raise ValueError(f"case 3 needs q1 > q2 > q3, got {q1}, {q2}, {q3}")
        offsets = {1: q1, -1: q1, 2: q2, -2: q2, 3: q3, -3: q3}
    else:
        raise ValueError(f"case must be 1, 2, or 3, got {case}")
    span = max(abs(d) for d in offsets)
    if num_classes <= 2 * span:
        raise ValueError(
            f"case {case} needs more than {2 * span} classes to keep the "
            f"neighbourhoods disjoint, got {num_classes}"
        )
    return GenerationModel(_circulant(num_classes, offsets), reject_full=reject_full)
