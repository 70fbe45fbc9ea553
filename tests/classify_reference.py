"""Reference for the tests of `classify`: the divisor that classifies a
morphism H_1(S) -> Z/nZ by its image, and the symplectic orbit of one vector
of (Z/n)^{2g}, read off the labels `cohomology_orbit_count` counts.  The
orbit tests check each against the other."""

from math import gcd
from typing import FrozenSet, Sequence, Tuple

from contactbundles import classify as cl


def morphism_image_divisor(vector: Sequence[int], n: int) -> int:
    """Divisor d of n classifying a morphism H_1(S) -> Z/nZ by its image.

    d = gcd of the entries and n; the image is the subgroup of order n/d.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    d = n
    for v in vector:
        d = gcd(d, v % n)
    return d


def orbit_of_vector(vector: Sequence[int], n: int) -> FrozenSet[Tuple[int, ...]]:
    """The symplectic orbit of a single vector in (Z/n)^{2g}.

    The labels of `cohomology_orbit_count` (min-label propagation with pointer
    jumping over one image-index array per generator), decoded back to tuples
    for the indices that share the label of `vector`.  Same domain and memory
    bound: at most MAX_ORBIT_VECTORS vectors, 3g + 2 int64 rows of them.
    """
    dim = len(vector)
    if dim % 2:
        raise ValueError("vector length must be even")
    g = dim // 2
    cl._vector_count(g, n)
    start = 0
    for v in vector:
        start = start * n + v % n
    lab = cl._orbit_labels(g, n)
    members = (lab == lab[start]).nonzero()[0]
    rows = []
    for _ in range(dim):
        members, digit = divmod(members, n)
        rows.append(digit)
    return frozenset(zip(*(row.tolist() for row in reversed(rows))))
