import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import classify_reference as ref
from contactbundles import classify as cl


class TestExistenceGates:
    def test_transverse(self):
        assert cl.transverse_exists(-2, 2)
        assert not cl.transverse_exists(2, 0)
        assert not cl.transverse_exists(0, 1)

    def test_flat(self):
        assert cl.flat_exists(-2, -2)
        assert not cl.flat_exists(-2, 3)
        assert cl.flat_exists(2, 0)

    def test_confoliation(self):
        assert cl.confoliation_bound(-2, 2)
        assert cl.confoliation_bound(-2, -5)
        assert not cl.confoliation_bound(2, 1)

    def test_transverse_monotone_in_euler(self):
        for chiS in (-4, -2, 0, 2):
            for e in range(-10, 10):
                if cl.transverse_exists(chiS, e + 1):
                    assert cl.transverse_exists(chiS, e)

    def test_feasibility_chain(self):
        # flat => confoliation bound => transverse existence (chi(S) <= 0)
        for chiS in (-20, -10, -4, -2, 0):
            for e in range(-20, 21):
                if cl.flat_exists(chiS, e):
                    assert cl.confoliation_bound(chiS, e)
                if cl.confoliation_bound(chiS, e):
                    assert cl.transverse_exists(chiS, e)

    def test_odd_chi_rejected(self):
        with pytest.raises(ValueError):
            cl.transverse_exists(-1, 0)


class TestEnrollment:
    def test_tangent_degree(self):
        assert cl.tangent_exists(-2, 1) == 4
        assert cl.tangent_exists(-2, 3) is None
        assert cl.tangent_exists(0, 0) == 1
        assert cl.tangent_exists(0, -2) is None
        assert cl.tangent_exists(2, -1) == 4

    def test_spectrum(self):
        assert cl.transverse_enrollment_spectrum(-2, 1).sorted_values() == [1, 2]
        assert cl.transverse_enrollment_spectrum(-4, -3).sorted_values() == [1]
        assert cl.transverse_enrollment_spectrum(0, 0) == cl.EnrollmentSpectrum(all_n=True)

    def test_spectrum_contains_one(self):
        for chiS in (-6, -4, -2, 0):
            for e in range(-6, -chiS + 1):
                spec = cl.transverse_enrollment_spectrum(chiS, e)
                assert spec.all_n or 1 in spec.values

    def test_spectrum_preconditions(self):
        with pytest.raises(cl.PreconditionViolated):
            cl.transverse_enrollment_spectrum(-2, 5)
        with pytest.raises(cl.PreconditionViolated):
            cl.transverse_enrollment_spectrum(2, -1)

    def test_sphere_enrollment(self):
        assert cl.sphere_enrollment(-1) == -2
        assert cl.sphere_enrollment(-5) == -1
        with pytest.raises(cl.PreconditionViolated):
            cl.sphere_enrollment(0)

    def test_legendrian_fibration(self):
        assert cl.legendrian_fibration_enrollment(1) == Fraction(-1, 2)
        assert cl.legendrian_fibration_enrollment(2) == -1
        assert cl.legendrian_fibration_enrollment(6) == -3

    def test_half_integer_guard(self):
        with pytest.raises(ValueError):
            cl.validate_enrollment(Fraction(1, 3))


class TestHomologyFormulas:
    def test_boundary_slope(self):
        cls_vec, mu = cl.boundary_slope(2, 1, -2)  # n*euler = -chiS
        assert cls_vec == (2, -1) and mu == Fraction(-1, 2)
        cls_vec, mu = cl.boundary_slope(1, -1, 0)
        assert cls_vec == (1, -2) and mu == -2
        _, mu = cl.boundary_slope(1, 1, 0)  # euler + chiS = 1
        assert mu == 0

    def test_whitney_class(self):
        assert cl.whitney_singular_class(Fraction(-1, 2), -2) == (-1, -4)
        assert cl.whitney_singular_class(Fraction(-3), -2) == (-6, -4)
        assert cl.whitney_singular_class(Fraction(-1), 0) == (-2, 0)


class TestCounting:
    def test_divisor_count(self):
        assert cl.count_tangent_conjugacy_classes(1) == 1
        assert cl.count_tangent_conjugacy_classes(6) == 4
        assert cl.count_tangent_conjugacy_classes(12) == 6
        assert cl.count_tangent_conjugacy_classes(36) == 9

    def test_divisor_count_bound(self):
        assert cl.MAX_DIVISOR_N == 10 ** 12
        assert cl.count_tangent_conjugacy_classes(10 ** 12) == 13 * 13  # 2^12 * 5^12
        for n in (10 ** 12 + 1, 10 ** 20):
            with pytest.raises(cl.ScaleExceeded):
                cl.count_tangent_conjugacy_classes(n)

    def test_vot_bound(self):
        assert cl.virtually_overtwisted_bound(-2, -3) == 4
        assert cl.virtually_overtwisted_bound(-2, 1) == 1
        assert cl.virtually_overtwisted_bound(2, -5) == 2

    def test_image_divisor(self):
        assert ref.morphism_image_divisor((0, 0), 6) == 6
        assert ref.morphism_image_divisor((1, 0, 0, 0), 6) == 1
        assert ref.morphism_image_divisor((4, 6), 8) == 2

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_orbit_count_equals_divisor_count(self, g, n):
        assert cl.cohomology_orbit_count(g, n) == cl.count_tangent_conjugacy_classes(n)

    @pytest.mark.parametrize("g,n", [(2, n) for n in range(7, 17)] + [(3, n) for n in range(1, 7)])
    def test_orbit_count_equals_divisor_count_beyond_old_guard(self, g, n):
        assert cl.cohomology_orbit_count(g, n) == cl.count_tangent_conjugacy_classes(n)

    @pytest.mark.parametrize("g,n", [(1, n) for n in range(1, 9)] + [(2, n) for n in range(1, 9)]
                             + [(3, n) for n in range(1, 4)] + [(4, 2), (4, 3), (5, 2)])
    def test_orbit_partition_equals_tuple_bfs(self, g, n):
        reference = _bfs_orbits(g, n)
        assert cl.cohomology_orbit_count(g, n) == len(reference)
        # the reference orbits cover (Z/n)^{2g}, so one vector of each fixes the partition
        for orbit in reference:
            assert ref.orbit_of_vector(min(orbit), n) == orbit

    @pytest.mark.parametrize("g,n", [(g, n) for g in (1, 2, 3) for n in range(1, 7)]
                             + [(4, 4), (8, 2)])
    def test_generator_images_equal_matrix_product(self, g, n):
        import numpy as np
        weights = n ** np.arange(2 * g - 1, -1, -1, dtype=np.int64)
        index = np.arange(n ** (2 * g), dtype=np.int64)
        digits = index // weights[:, None] % n
        images = cl._generator_images(g, n)
        matrices = _sp_generators(g, n)
        assert len(images) == len(matrices) == (2 if g == 1 else 3 * g)
        for image, m in zip(images, matrices):
            reference = weights @ (np.array(m, dtype=np.int64) @ digits % n)
            assert image.dtype == np.int64
            assert np.array_equal(image, reference)

    @pytest.mark.parametrize("g,n", [(8, 2), (2, 16)])
    def test_orbit_memory_within_documented_bound(self, g, n):
        # 3g + 2 int64 rows of n^{2g} entries, as derived in cohomology_orbit_count;
        # the 64 KiB allowance covers the broadcast tables and the one-handle labels;
        # numpy is imported before tracing starts, so its own allocations are not counted
        import numpy  # noqa: F401
        tracemalloc.start()
        try:
            assert cl.cohomology_orbit_count(g, n) == cl.count_tangent_conjugacy_classes(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * g + 2) * n ** (2 * g) + 2 ** 16

    @pytest.mark.parametrize("g,n", [(1, 12), (1, 30), (2, 6), (2, 12), (3, 4), (3, 6)])
    def test_orbit_is_image_divisor_class(self, g, n):
        rng = random.Random(1000 * g + n)
        space = list(itertools.product(range(n), repeat=2 * g))
        for _ in range(3):
            v = tuple(rng.randrange(-2 * n, 2 * n) for _ in range(2 * g))
            d = ref.morphism_image_divisor(v, n)
            expected = {w for w in space if ref.morphism_image_divisor(w, n) == d}
            assert ref.orbit_of_vector(v, n) == expected

    def test_orbits_are_divisor_classes(self):
        n = 6
        for g in (1, 2):
            start = tuple([2] + [0] * (2 * g - 1))
            orbit = ref.orbit_of_vector(start, n)
            divisors = {ref.morphism_image_divisor(v, n) for v in orbit}
            assert divisors == {2}
            expected = sum(1 for v in itertools.product(range(n), repeat=2 * g)
                           if ref.morphism_image_divisor(v, n) == 2)
            assert len(orbit) == expected

    def test_scale_guard(self):
        # the first (g, n) with n^{2g} above MAX_ORBIT_VECTORS = 2^16
        assert cl.MAX_ORBIT_VECTORS == 2 ** 16
        for g, n in ((1, 257), (2, 17), (3, 7), (4, 5), (8, 3), (9, 2)):
            with pytest.raises(cl.ScaleExceeded):
                cl.cohomology_orbit_count(g, n)
            with pytest.raises(cl.ScaleExceeded):
                ref.orbit_of_vector((1,) + (0,) * (2 * g - 1), n)
        assert cl.cohomology_orbit_count(1, 256) == cl.count_tangent_conjugacy_classes(256)
        assert cl.cohomology_orbit_count(8, 2) == 2

    def test_huge_genus_refused_without_forming_the_power(self):
        tracemalloc.start()
        try:
            with pytest.raises(cl.ScaleExceeded):
                cl.cohomology_orbit_count(10 ** 9, 2)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
        finally:
            tracemalloc.stop()
        assert cl.cohomology_orbit_count(10 ** 9, 1) == 1
        assert ref.orbit_of_vector((5, 7), 1) == {(0, 0)}

    @pytest.mark.parametrize("g,n", [(0, 2), (-1, 2), (2, 0), (1, -3)])
    def test_domain(self, g, n):
        with pytest.raises(ValueError):
            cl.cohomology_orbit_count(g, n)


def _transvection_matrix(v, g, n):
    """Matrix of x -> x + <x, v> v over Z/n, with <a_i, b_i> = 1."""
    dim = 2 * g

    def pairing(x, y):
        s = 0
        for i in range(g):
            s += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
        return s % n

    cols = []
    for j in range(dim):
        e = tuple(1 if k == j else 0 for k in range(dim))
        coef = pairing(e, v)
        cols.append(tuple((e[k] + coef * v[k]) % n for k in range(dim)))
    # column-major to row-major
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def _sp_generators(g, n):
    """Reference: the matrices of the generators of the symplectic action on
    (Z/n)^{2g}, in the order of `cl._generator_images`.

    The chain transvections along b_i + a_{i+1} mix adjacent handles, the
    cyclic handle permutation moves handle i to handle i + 1, and the
    transvections along the 2g basis vectors generate each handle's SL(2).
    """
    dim = 2 * g
    basis = [tuple(1 if k == j else 0 for k in range(dim)) for j in range(dim)]
    gens = []
    for i in range(g - 1):
        v = tuple((1 if k in (2 * i + 1, 2 * i + 2) else 0) for k in range(dim))
        gens.append(_transvection_matrix(v, g, n))
    if g > 1:
        perm = [[0] * dim for _ in range(dim)]
        for i in range(g):
            j = (i + 1) % g
            perm[2 * j][2 * i] = 1
            perm[2 * j + 1][2 * i + 1] = 1
        gens.append(perm)
    for v in basis:
        gens.append(_transvection_matrix(v, g, n))
    return gens


def _bfs_orbits(g, n):
    """Reference: the orbits of `_sp_generators(g, n)` by breadth-first closure
    over tuples, one vector and one generator at a time."""
    gens = _sp_generators(g, n)
    dim = 2 * g
    seen = set()
    orbits = []
    for start in itertools.product(range(n), repeat=dim):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for m in gens:
                y = tuple(sum(m[i][k] * x[k] for k in range(dim)) % n for i in range(dim))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


@pytest.mark.parametrize("call, message", [
    (lambda: cl.legendrian_fibration_enrollment(0), "covering degree must be positive"),
    (lambda: cl.boundary_slope(0, 1, -2), "n must be a positive integer"),
    (lambda: cl.count_tangent_conjugacy_classes(0), "n must be a positive integer"),
    (lambda: ref.morphism_image_divisor((1, 2), 0), "n must be a positive integer"),
    (lambda: ref.orbit_of_vector((1, 0, 1), 2), "vector length must be even"),
], ids=["fibration-degree-0", "boundary-slope-n-0", "divisor-count-0",
        "image-divisor-n-0", "odd-vector"])
def test_refuses_input_outside_the_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()
