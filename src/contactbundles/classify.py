"""Existence, counting and bound formulas for contact structures on circle bundles.

Inputs are the Euler characteristic chi(S) of the closed orientable base (an
even integer <= 2) and the Euler number chi(V, S) of the bundle.  Everything
here is exact integer / rational arithmetic; the one nontrivial computation
is the brute-force orbit count of the symplectic action on H^1(S; Z/nZ),
which must reproduce the divisor count tau(n).

Enrollment values are rationals with denominator 1 or 2: the twisting of a
plane field along a Legendrian curve isotopic to the fiber is a half-integer
in general and an integer exactly when the field is orientable along fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple


class PreconditionViolated(ValueError):
    """The requested quantity is undefined for these bundle parameters."""


class ScaleExceeded(ValueError):
    """Brute-force enumeration refused: parameters beyond desk scale."""


def _check_chi(chiS: int) -> None:
    if chiS % 2 or chiS > 2:
        raise ValueError("chi(S) must be an even integer <= 2 for a closed orientable base")


@dataclass(frozen=True)
class EnrollmentSpectrum:
    """Set of n > 0 such that a transverse structure of enrollment -n exists.

    `all_n` marks the torus case chi(S) = chi(V, S) = 0, where every n >= 1
    occurs; `values` is then ignored.
    """

    values: FrozenSet[int] = frozenset()
    all_n: bool = False

    def sorted_values(self) -> List[int]:
        return sorted(self.values)


def validate_enrollment(e: Fraction) -> Fraction:
    e = Fraction(e)
    if e.denominator not in (1, 2):
        raise ValueError("enrollment values have denominator 1 or 2")
    return e


# ---------------------------------------------------------------------------
# existence gates

def transverse_exists(chiS: int, euler: int) -> bool:
    """Existence of a positive contact structure transverse to the fibers."""
    _check_chi(chiS)
    if chiS <= 0:
        return euler <= -chiS
    return euler < 0


def flat_exists(chiS: int, euler: int) -> bool:
    """Existence of a foliation transverse to the fibers: |chi(V,S)| <= sup{0, -chi(S)}."""
    _check_chi(chiS)
    return abs(euler) <= max(0, -chiS)


def confoliation_bound(chiS: int, euler: int) -> bool:
    """One-sided bound satisfied by positive confoliations: chi(V,S) <= sup{0, -chi(S)}."""
    _check_chi(chiS)
    return euler <= max(0, -chiS)


# ---------------------------------------------------------------------------
# enrollment arithmetic

def tangent_exists(chiS: int, euler: int) -> Optional[int]:
    """Smallest d > 0 with d * euler = -2 * chiS, or None.

    This is the degree of the fibered covering of the unit tangent line
    bundle realising a fiber-tangent structure.
    """
    _check_chi(chiS)
    target = -2 * chiS
    if euler == 0:
        return 1 if target == 0 else None
    if target % euler:
        return None
    d = target // euler
    return d if d > 0 else None


def transverse_enrollment_spectrum(chiS: int, euler: int) -> EnrollmentSpectrum:
    """{1} union {n > 0 : n * euler = -chiS} for chi(S) <= 0.

    Raises PreconditionViolated when no transverse structure exists or the
    base is a sphere (see `sphere_enrollment`).
    """
    _check_chi(chiS)
    if chiS > 0:
        raise PreconditionViolated("sphere base: use sphere_enrollment")
    if not transverse_exists(chiS, euler):
        raise PreconditionViolated("no transverse contact structure exists")
    if chiS == 0 and euler == 0:
        return EnrollmentSpectrum(all_n=True)
    values = {1}
    if euler != 0 and (-chiS) % euler == 0:
        n = (-chiS) // euler
        if n > 0:
            values.add(n)
    return EnrollmentSpectrum(values=frozenset(values))


def sphere_enrollment(euler: int) -> Fraction:
    """Enrollment of the unique transverse structure over the sphere: -2 on S^3, -1 otherwise."""
    if euler >= 0:
        raise PreconditionViolated("sphere bundles carry transverse structures only for euler < 0")
    return Fraction(-2) if euler == -1 else Fraction(-1)


def legendrian_fibration_enrollment(d: int) -> Fraction:
    """Enrollment -d/2 of the pullback structure under a degree-d fibered covering."""
    if d < 1:
        raise ValueError("covering degree must be positive")
    return Fraction(-d, 2)


def whitney_singular_class(e: Fraction, chiS: int) -> Tuple[int, int]:
    """Homology class (up to global sign) of the singular multicurve on the boundary torus.

    The class is +-2*(e, chiS); the first entry 2*e is an integer because
    enrollment has denominator at most 2.
    """
    _check_chi(chiS)
    e = validate_enrollment(e)
    first = 2 * e
    return (int(first), 2 * chiS)


def boundary_slope(n: int, euler: int, chiS: int) -> Tuple[Tuple[int, int], Fraction]:
    """Class (n, n*euler + chiS - 1) of the singular circles and its slope mu.

    mu = (n*euler + chiS - 1)/n; when n*euler = -chiS this is -1/n.
    """
    _check_chi(chiS)
    if n < 1:
        raise ValueError("n must be a positive integer")
    second = n * euler + chiS - 1
    return ((n, second), Fraction(second, n))


# ---------------------------------------------------------------------------
# counting

#: Largest n whose divisors `count_tangent_conjugacy_classes` counts.  Trial
#: division takes sqrt(n) steps: on a 2-vCPU Intel Xeon VM (Python 3.11.7,
#: best of 7) n = 10^12 takes 0.11 s, the prime 999999999989 0.09 s and
#: n = 10^13 0.30 s; at that rate n = 10^20 would take about 16 minutes.
MAX_DIVISOR_N = 10 ** 12


def count_tangent_conjugacy_classes(n: int) -> int:
    """Number of divisors tau(n), by trial division.

    The domain is 1 <= n <= MAX_DIVISOR_N; above it this raises ScaleExceeded.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_DIVISOR_N:
        raise ScaleExceeded(f"divisor count by trial division refused above n = {MAX_DIVISOR_N}")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def virtually_overtwisted_bound(chiS: int, euler: int) -> int:
    """Upper bound for the number of isotopy classes of virtually overtwisted structures."""
    _check_chi(chiS)
    base = max(0, -chiS - euler - 1)
    return base + (1 if euler > 0 else 0)


#: Largest number n^{2g} of vectors the orbit oracle enumerates; the memory
#: it bounds is derived in `cohomology_orbit_count`.
MAX_ORBIT_VECTORS = 2 ** 16


def _vector_count(g: int, n: int) -> int:
    """n^{2g}, refused with ScaleExceeded above MAX_ORBIT_VECTORS.

    The power is formed one factor at a time and abandoned at the bound, so a
    huge genus costs no more than a small one.
    """
    if g < 1:
        raise ValueError("genus must be a positive integer")
    if n < 1:
        raise ValueError("n must be a positive integer")
    count = 1
    if n > 1:
        for _ in range(2 * g):
            count *= n
            if count > MAX_ORBIT_VECTORS:
                raise ScaleExceeded(f"orbit oracle enumerates n^(2g) vectors; "
                                    f"refused above {MAX_ORBIT_VECTORS}")
    return count


def _generator_images(g: int, n: int):
    """Image index of every vector under each generator of the symplectic
    action on (Z/n)^{2g}, as int64 arrays in propagation order: the chain
    transvections along b_i + a_{i+1}, the cyclic handle permutation (handle
    i to handle i + 1; both only for g >= 2), then the transvections along
    a_1, b_1, ..., a_g, b_g.

    The basis is a_1, b_1, ..., a_g, b_g with <a_i, b_i> = 1, and the index
    of x is sum_k x_k n^(2g-1-k).  The indices form a grid of shape
    (n,) * 2g, with axes[k] = arange(n) along axis k.  A transvection
    x -> x + <x, v> v adds ((x_k + <x, v>) mod n - x_k) n^(2g-1-k) for each
    k in the support of v, and <x, v> is a table over one or two axes, so
    each image is the grid plus one small broadcast table.  The handle
    permutation is one transpose of the grid.
    """
    import numpy as np  # on use, see _orbit_labels
    dim = 2 * g
    grid = np.arange(n ** dim, dtype=np.int64).reshape((n,) * dim)
    axes = [np.arange(n, dtype=np.int64).reshape((n,) + (1,) * (dim - 1 - k))
            for k in range(dim)]

    def transvection(support, pairing):
        # x -> x + <x, v> v, for v the sum of the basis vectors in `support`
        delta = sum(((axes[k] + pairing) % n - axes[k]) * n ** (dim - 1 - k)
                    for k in support)
        return (grid + delta).ravel()

    images = [transvection((2 * i + 1, 2 * i + 2), axes[2 * i] - axes[2 * i + 3])
              for i in range(g - 1)]
    if g > 1:
        images.append(grid.transpose([*range(2, dim), 0, 1]).ravel())
    for i in range(g):
        images.append(transvection((2 * i,), -axes[2 * i + 1]))
        images.append(transvection((2 * i + 1,), axes[2 * i]))
    return images


def _orbit_labels(g: int, n: int):
    """Label of every vector of (Z/n)^{2g}, the smallest index in its orbit
    (algorithm in `cohomology_orbit_count`), as an int64 numpy array.  The
    callers bound n^{2g} through `_vector_count` first."""
    # numpy is imported on use, so that the package and the CLI commands
    # other than `covers` and `forms` load without it
    import numpy as np
    if n == 1:  # whatever the genus: one vector, no generators to build
        return np.zeros(1, dtype=np.int64)
    images = _generator_images(g, n)
    if g == 1:
        lab = np.arange(n * n, dtype=np.int64)
    else:
        # each handle's pair at its own one-handle label, on a (n^2,) * g grid
        one = _orbit_labels(1, n)
        lab = sum(one.reshape((n * n,) + (1,) * (g - 1 - i)) * n ** (2 * (g - 1 - i))
                  for i in range(g)).ravel()
    while True:
        before = int(lab.sum())
        for img in images:
            np.minimum(lab, lab[img], out=lab)
        lab = lab[lab]
        if lab.sum() == before:
            return lab


def cohomology_orbit_count(g: int, n: int) -> int:
    """Count of orbits of the symplectic action on (Z/n)^{2g}; it must equal tau(n).

    Vector x is encoded as the index sum_k x_k n^(2g-1-k), 0 .. n^{2g} - 1 in
    `itertools.product` order.  Each generator becomes one image-index array
    (`_generator_images`).  The labels start at the indices for g = 1; for
    g >= 2 each handle's pair (x_{2i}, x_{2i+1}) starts at its label under
    the g = 1 action, which the transvections along a_i and b_i generate.
    Then lab = min(lab, lab[img]) over the generators, lab = lab[lab]
    (pointer jumping), repeat until nothing changes (Shiloach-Vishkin).

    Any start with lab[x] in the orbit of x and lab[x] <= x reaches the same
    fixed point, and both steps keep that invariant.  The generated group is
    finite, so each orbit is strongly connected along forward images; at the
    fixed point lab does not grow along any image, so it is constant on each
    orbit, and by the invariant it is the smallest index there.  The orbits
    are the labels equal to their own index.  Neither step raises a label
    (lab[lab[x]] <= lab[x] by the invariant), so a round changed nothing
    exactly when the sum of the labels did not fall.

    Memory: the arrays are int64, 8 bytes per vector in each row.  Building
    the images holds the index grid and the images, 3g + 1 rows; the
    propagation holds one image row per generator (2 for g = 1, 3g above),
    the labels and one gathered row: 3g + 2 rows for g >= 2.  Up to
    MAX_ORBIT_VECTORS = 2^16 vectors the worst case is g = 8, n = 2: 26 rows,
    8 B x 26 x 2^16 = 13 MiB (g = 2, n = 16 takes 8 rows, 4 MiB); tracemalloc
    measures the same, plus the small broadcast tables.
    Beyond the bound it raises ScaleExceeded; g < 1 or n < 1 is a ValueError.
    """
    import numpy as np  # on use, see _orbit_labels

    _vector_count(g, n)
    lab = _orbit_labels(g, n)
    return int(np.count_nonzero(lab == np.arange(lab.size)))
