import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactbundles import multicurve as mc
from multicurve_reference import format_decomposition, lattice_crossing_count

TC = mc.TorusCurve
UT = mc.TightnessVerdict.UNIVERSALLY_TIGHT
NUT = mc.TightnessVerdict.NOT_UNIVERSALLY_TIGHT
OT = mc.TightnessVerdict.OVERTWISTED_CERTIFICATE





def annuli_cycle(n_curves: int) -> mc.SurfaceDecomposition:
    """Torus decomposed by n parallel essential curves into n annuli."""
    pieces = tuple((0, 2) for _ in range(n_curves))
    curves = tuple(((i, 1), ((i + 1) % n_curves, 0)) for i in range(n_curves))
    return mc.SurfaceDecomposition(pieces, curves, 0, False)


def sphere_disk_chain(k: int) -> mc.SurfaceDecomposition:
    """Sphere decomposed by k parallel circles: 2 disks and k-1 annuli."""
    if k == 0:
        return mc.SurfaceDecomposition(((0, 0),), (), 2, True)
    pieces = [(0, 1)] + [(0, 2)] * (k - 1) + [(0, 1)]
    curves = []
    for i in range(k):
        slot_a = 0 if i == 0 else 1
        curves.append(((i, slot_a), (i + 1, 0)))
    return mc.SurfaceDecomposition(tuple(pieces), tuple(curves), 2, True)


def from_edges(edges, genera) -> mc.SurfaceDecomposition:
    """Pieces of the given genera glued along `edges` (pairs of piece
    indices, loops allowed), slots numbered in edge order."""
    deg = [0] * len(genera)
    curves = []
    for a, b in edges:
        ends = []
        for i in (a, b):
            ends.append((i, deg[i]))
            deg[i] += 1
        curves.append(tuple(ends))
    pieces = tuple((g, d) for g, d in zip(genera, deg))
    chi = sum(2 - 2 * g - d for g, d in pieces)
    return mc.SurfaceDecomposition(pieces, tuple(curves), chi, chi == 2)


def relabeled(dec, piece_perm, slot_perms, curve_order, flips) -> mc.SurfaceDecomposition:
    """The same decorated graph with pieces, slots, curves and curve ends permuted."""
    pieces = [None] * len(dec.pieces)
    for i, p in enumerate(dec.pieces):
        pieces[piece_perm[i]] = p

    def end(i, s):
        return (piece_perm[i], slot_perms[i][s])

    curves = []
    for k in curve_order:
        a, b = (end(*e) for e in dec.curves[k])
        curves.append((b, a) if flips[k] else (a, b))
    return mc.SurfaceDecomposition(tuple(pieces), tuple(curves), dec.ambient_chiS,
                                   dec.ambient_sphere)


def shuffled(dec, rng) -> mc.SurfaceDecomposition:
    def perm(k):
        p = list(range(k))
        rng.shuffle(p)
        return p
    return relabeled(dec, perm(len(dec.pieces)), [perm(b) for _, b in dec.pieces],
                     perm(len(dec.curves)), [rng.random() < 0.5 for _ in dec.curves])


def regular_multigraph(rng, k, degree):
    """A connected degree-regular multigraph on k nodes (configuration model)."""
    while True:
        half = [i for i in range(k) for _ in range(degree)]
        rng.shuffle(half)
        edges = list(zip(half[::2], half[1::2]))
        seen, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for a, b in edges:
                for u, v in ((a, b), (b, a)):
                    if u == x and v not in seen:
                        seen.add(v)
                        frontier.append(v)
        if len(seen) == k:
            return edges


def complete_multigraph(k, multiplicity):
    return [(i, j) for i in range(k) for j in range(i + 1, k) for _ in range(multiplicity)]


def rook_and_shrikhande():
    """The 4 x 4 rook's graph and the Shrikhande graph: both strongly regular
    with parameters (16, 6, 2, 2), so colour refinement cannot tell them
    apart, and not isomorphic."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    index = {c: i for i, c in enumerate(cells)}

    def graph(adjacent):
        return [(index[c], index[d]) for c in cells for d in cells
                if index[c] < index[d] and adjacent(c, d)]

    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    rook = graph(lambda c, d: c[0] == d[0] or c[1] == d[1])
    shrikhande = graph(lambda c, d: ((d[0] - c[0]) % 4, (d[1] - c[1]) % 4) in steps)
    return from_edges(rook, [0] * 16), from_edges(shrikhande, [0] * 16)


def _permutation_key(dec: mc.SurfaceDecomposition) -> tuple:
    """Reference canonical form: the least sorted edge list over every
    relabelling of the pieces within each group of like-labelled pieces,
    prod k! of them.  Only usable up to about 8 pieces."""
    n = len(dec.pieces)
    labels = list(dec.pieces)
    order = sorted(range(n), key=lambda i: labels[i])
    groups = {}
    for pos, i in enumerate(order):
        groups.setdefault(labels[i], []).append(pos)
    group_items = sorted(groups.items())
    perms_per_group = [list(itertools.permutations(positions)) for _, positions in group_items]
    members_per_group = [[i for i in order if labels[i] == lab] for lab, _ in group_items]
    best = None
    for choice in itertools.product(*perms_per_group):
        target = {}
        for perm, members in zip(choice, members_per_group):
            for new_pos, old_index in zip(perm, members):
                target[old_index] = new_pos
        key = tuple(sorted(tuple(sorted((target[ia], target[ib])))
                           for (ia, _), (ib, _) in dec.curves))
        if best is None or key < best:
            best = key
    return (dec.ambient_chiS, dec.ambient_sphere, tuple(sorted(labels)), best)


def equitable_cells(dec, colour):
    """Reference colour refinement: recolour every piece by its colour and the
    sorted (neighbour colour, multiplicity) pairs until the number of colours
    stops growing; returns the colour classes."""
    adj = mc._multiplicities(dec)
    while True:
        signature = [(colour[v], tuple(sorted((colour[w], m) for w, m in adj[v].items())))
                     for v in range(len(colour))]
        if len(set(signature)) == len(set(colour)):
            classes = {}
            for v, c in enumerate(colour):
                classes.setdefault(c, set()).add(v)
            return {frozenset(c) for c in classes.values()}
        rank = {sig: r for r, sig in enumerate(sorted(set(signature)))}
        colour = [rank[sig] for sig in signature]


def partition_cells(part):
    return {frozenset(part.order[p:p + part.size[p]]) for p in set(part.cell)}


@st.composite
def decompositions(draw, max_pieces=40):
    """Connected decompositions up to `max_pieces` pieces: random trees with
    extra curves, and the symmetric cycles, complete multigraphs and rings of
    cliques whose search trees branch most."""
    k = draw(st.integers(1, max_pieces))
    shape = draw(st.sampled_from(["random", "cycle", "complete", "cliques"]))
    if shape == "cycle":
        edges = [(i, (i + 1) % k) for i in range(k)]
    elif shape == "complete":
        k = min(k, 9)
        edges = complete_multigraph(k, draw(st.integers(1, 2))) or [(0, 0)]
    elif shape == "cliques":
        size = draw(st.integers(2, 4))
        ring = max(1, k // size)
        k = ring * size
        edges = [(b * size + i, b * size + j) for b in range(ring)
                 for i in range(size) for j in range(i + 1, size)]
        edges += [(b * size, (b + 1) % ring * size + 1) for b in range(ring)]
    else:
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
        node = st.integers(0, k - 1)
        edges += draw(st.lists(st.tuples(node, node), max_size=2 * k))
    if draw(st.booleans()):
        genera = [0] * k
    else:
        genera = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return from_edges(edges, genera)


class TestTorusCurves:
    def test_basis_crossing(self):
        assert mc.torus_intersection(TC(1, 0), TC(0, 1)) == 1

    def test_self_crossing_zero(self):
        a = TC(2, 3)
        assert mc.torus_intersection(a, a) == 0

    def test_example(self):
        assert mc.torus_intersection(TC(2, 3), TC(1, 1)) == 1

    def test_negation_identified(self):
        assert TC(-2, -3) == TC(2, 3)
        assert TC(0, -1) == TC(0, 1)

    def test_primitivity_enforced(self):
        with pytest.raises(ValueError):
            TC(2, 4)
        with pytest.raises(ValueError):
            TC(0, 0)

    def test_symmetry(self):
        rng = random.Random(30)
        from math import gcd
        pairs = []
        while len(pairs) < 20:
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                pairs.append(TC(p, q))
        for a, b in itertools.combinations(pairs, 2):
            assert mc.torus_intersection(a, b) == mc.torus_intersection(b, a)

    def test_against_lattice_oracle(self):
        from math import gcd
        classes = []
        for p in range(-5, 6):
            for q in range(-5, 6):
                if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                    classes.append(TC(p, q))
        classes = sorted(set(classes), key=lambda c: (c.p, c.q))
        for a in classes:
            for b in classes:
                assert mc.torus_intersection(a, b) == lattice_crossing_count(a, b)


class TestBennequinBound:
    def test_model_dividing_set(self):
        gamma = mc.TorusDividingSet(2 * 3, TC(0, 1))
        assert mc.bennequin_semilocal_bound(gamma, TC(1, 0)) == -3

    def test_parallel_curves_zero(self):
        gamma = mc.TorusDividingSet(2, TC(1, 0))
        assert mc.bennequin_semilocal_bound(gamma, TC(1, 0)) == 0

    def test_nonpositive_and_zero_iff_parallel(self):
        rng = random.Random(31)
        from math import gcd
        for _ in range(50):
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            gamma = mc.TorusDividingSet(2 * rng.randint(1, 4), TC(p, q))
            c = TC(1, 0)
            bound = mc.bennequin_semilocal_bound(gamma, c)
            assert bound <= 0
            assert (bound == 0) == (mc.torus_intersection(gamma.slope, c) == 0)

    def test_component_parity(self):
        with pytest.raises(ValueError):
            mc.TorusDividingSet(3, TC(1, 0))

    def test_tb_from_degree(self):
        for n in (1, 2, 5):
            assert mc.tb_from_degree(-n, n) == -1
        assert mc.tb_from_degree(0, 1) == 0
        assert mc.tb_from_degree(-1, 1) == -1  # deg + n - 1
        with pytest.raises(ValueError, match="n must be a positive integer"):
            mc.tb_from_degree(1, 0)


class TestValidation:
    def test_torus_two_annuli(self):
        ok, diags = mc.validate(annuli_cycle(2))
        assert ok and not diags

    def test_sphere_two_disks(self):
        ok, diags = mc.validate(sphere_disk_chain(1))
        assert ok

    def test_euler_mismatch(self):
        bad = mc.SurfaceDecomposition(((0, 1), (1, 2)), (((0, 0), (1, 0)),), -2, False)
        ok, diags = mc.validate(bad)
        assert not ok and any("euler mismatch" in d for d in diags)

    def test_slot_reuse(self):
        bad = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                      (((0, 0), (1, 0)), ((0, 0), (1, 1))), 0, False)
        ok, diags = mc.validate(bad)
        assert not ok and any("slot" in d for d in diags)

    def test_disconnected(self):
        bad = mc.SurfaceDecomposition(((0, 2), (0, 2), (1, 0)),
                                      (((0, 0), (0, 1)), ((1, 0), (1, 1))), 0, False)
        ok, diags = mc.validate(bad)
        assert not ok and any("disconnected" in d for d in diags)

    def test_negative_counts_are_named(self):
        bad = mc.SurfaceDecomposition(((-1, -2),), (), 0, False)
        ok, diags = mc.validate(bad)
        assert not ok
        assert diags[:2] == ["piece 0: negative genus", "piece 0: negative boundary count"]

    def test_sphere_flag_consistency(self):
        bad = mc.SurfaceDecomposition(((1, 0),), (), 0, True)
        ok, diags = mc.validate(bad)
        assert not ok and any("sphere" in d for d in diags)

    def test_slot_diagnostics_order(self):
        # a reused named slot beyond MAX_LISTED_SLOTS, and endpoints at a missing
        # piece, past the boundary count and at a negative slot, in curve order
        bad = mc.SurfaceDecomposition(
            ((0, 70), (1, 1)),
            (((5, 0), (0, 65)), ((0, 65), (1, 0)), ((0, 80), (0, 66)), ((1, -1), (0, 0)),
             ((0, 69), (3, 2))), -68, False)
        ok, diags = mc.validate(bad)
        assert not ok
        assert diags[0] == "euler mismatch: pieces sum to -69, ambient is -68"
        assert diags[1:64] == [f"slot 0.{k} used 0 times" for k in range(1, 64)]
        assert diags[64:] == ["slot 0.65 used 2 times", "3 more slots of piece 0 used 0 times",
                              "curve endpoint at nonexistent slot 5.0",
                              "curve endpoint at nonexistent slot 0.80",
                              "curve endpoint at nonexistent slot 1.-1",
                              "curve endpoint at nonexistent slot 3.2"]

    def test_negative_piece_index_is_named(self):
        # piece -1 is no piece: named like any other, and joined to nothing
        bad = mc.SurfaceDecomposition(((0, 2),), (((-1, 0), (0, 0)),), 0, False)
        ok, diags = mc.validate(bad)
        assert not ok and "curve endpoint at nonexistent slot -1.0" in diags
        with pytest.raises(mc.InvalidDecomposition, match="nonexistent slot -1.0"):
            mc.is_essential(bad)

    def test_large_star_validates_quickly(self):
        # one (0, k) piece glued to k one-holed tori: each piece's named slots
        # are found without scanning every used slot
        k = 20000
        star = mc.SurfaceDecomposition(((0, k),) + ((1, 1),) * k,
                                       tuple(((0, j), (j + 1, 0)) for j in range(k)),
                                       2 - 2 * k, False)
        start = time.perf_counter()
        assert mc.validate(star) == (True, [])
        assert time.perf_counter() - start < 2.0


class TestEssential:
    def test_torus_parallel_curves(self):
        assert mc.is_essential(annuli_cycle(2))

    def test_disk_piece_not_essential(self):
        dec = mc.SurfaceDecomposition(((0, 1), (2, 1)), (((0, 0), (1, 0)),), -2, False)
        assert not mc.is_essential(dec)

    def test_empty_vacuous(self):
        dec = mc.SurfaceDecomposition(((2, 0),), (), -2, False)
        assert mc.is_essential(dec)

    def test_sphere_curves_never_essential(self):
        assert not mc.is_essential(sphere_disk_chain(1))
        assert mc.is_essential(sphere_disk_chain(0))


class TestTightness:
    def test_no_disk_piece_universally_tight(self):
        assert mc.universal_tightness(annuli_cycle(2), euler=-1) is UT

    def test_sphere_connected_nonempty(self):
        assert mc.universal_tightness(sphere_disk_chain(1), euler=0) is UT
        assert mc.universal_tightness(sphere_disk_chain(1), euler=3) is UT

    def test_disk_and_disconnected_is_overtwisted(self):
        dec = mc.SurfaceDecomposition(((0, 1), (0, 2), (2, 1)),
                                      (((0, 0), (1, 0)), ((1, 1), (2, 0))), -2, False)
        assert mc.universal_tightness(dec, euler=1) is OT

    def test_disk_connected_positive_euler_is_virtual(self):
        dec = mc.SurfaceDecomposition(((0, 1), (1, 1)), (((0, 0), (1, 0)),), 0, False)
        assert mc.universal_tightness(dec, euler=2) is NUT
        assert mc.universal_tightness(dec, euler=0) is OT
        assert mc.universal_tightness(dec, euler=-1) is OT

    def test_sphere_empty_depends_on_euler(self):
        empty = sphere_disk_chain(0)
        assert mc.universal_tightness(empty, euler=-2) is UT
        assert mc.universal_tightness(empty, euler=1) is NUT

    def test_sphere_disconnected_overtwisted(self):
        for k in (2, 3, 4):
            assert mc.universal_tightness(sphere_disk_chain(k), euler=0) is OT

    def test_sphere_universally_tight_iff_one_component(self):
        for k in range(5):
            verdict = mc.universal_tightness(sphere_disk_chain(k), euler=1)
            assert (verdict is UT) == (k == 1)

    def test_every_branch_against_the_three_clause_table(self):
        # on the sphere a multicurve has a disk piece iff it is nonempty, and
        # off it the empty multicurve has none: those keys cannot be built
        found = {}
        for dec in ([sphere_disk_chain(n) for n in range(4)]
                    + [from_edges([(0, i) for i in (1, 2, 3)], [0] * 4),  # pants and 3 disks
                       mc.SurfaceDecomposition(((1, 0),), (), 0, False),
                       mc.SurfaceDecomposition(((2, 0),), (), -2, False)]
                    + [annuli_cycle(n) for n in (1, 2, 3)]
                    + [from_edges([(0, 1)] + [(1, 1)] * (n - 1), [0, 1]) for n in (1, 2, 3)]):
            assert mc.validate(dec)[0]
            key = (dec.ambient_sphere, dec.has_disk_piece(), dec.n_curves())
            found.setdefault(key, []).append(dec)
        assert set(found) == ({(False, False, n) for n in range(4)}
                              | {(False, True, n) for n in (1, 2, 3)}
                              | {(True, False, 0)} | {(True, True, n) for n in (1, 2, 3)})
        for (sphere, disk, n), decs in found.items():
            for euler in range(-3, 4):
                if (not sphere and not disk or sphere and euler < 0 and n == 0
                        or sphere and euler >= 0 and n == 1):
                    want = UT
                elif disk and (n != 1 or (euler < 0 if sphere else euler <= 0)):
                    want = OT
                else:
                    want = NUT
                for dec in decs:
                    assert mc.universal_tightness(dec, euler) is want, (sphere, disk, n, euler)

    def test_invalid_decomposition_raises(self):
        bad = mc.SurfaceDecomposition(((0, 1),), (), -2, False)
        with pytest.raises(mc.InvalidDecomposition):
            mc.universal_tightness(bad, euler=0)


class TestConvexNeighborhood:
    def test_separating_curve_on_genus2(self):
        dec = mc.SurfaceDecomposition(((1, 1), (1, 1)), (((0, 0), (1, 0)),), -2, False)
        assert mc.convex_neighborhood_tight(dec)

    def test_sphere_empty_not_tight(self):
        assert not mc.convex_neighborhood_tight(sphere_disk_chain(0))

    def test_torus_empty_tight(self):
        dec = mc.SurfaceDecomposition(((1, 0),), (), 0, False)
        assert mc.convex_neighborhood_tight(dec)

    def test_disk_piece_not_tight(self):
        dec = mc.SurfaceDecomposition(((0, 1), (1, 1)), (((0, 0), (1, 0)),), 0, False)
        assert not mc.convex_neighborhood_tight(dec)


class TestIsotopyEqual:
    def test_identical(self):
        assert mc.isotopy_equal(annuli_cycle(2), annuli_cycle(2))

    def test_component_count_distinguishes(self):
        assert not mc.isotopy_equal(annuli_cycle(2), annuli_cycle(4))

    def test_relabeled_copy(self):
        a = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                    (((0, 0), (1, 0)), ((0, 1), (1, 1))), 0, False)
        b = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                    (((1, 0), (0, 1)), ((1, 1), (0, 0))), 0, False)
        assert mc.isotopy_equal(a, b)

    def test_piece_labels_distinguish(self):
        a = mc.SurfaceDecomposition(((1, 1), (1, 1)), (((0, 0), (1, 0)),), -2, False)
        b = mc.SurfaceDecomposition(((0, 1), (2, 1)), (((0, 0), (1, 0)),), -2, False)
        assert not mc.isotopy_equal(a, b)

    def test_equivalence_relation_on_random_family(self):
        rng = random.Random(32)
        family = [annuli_cycle(k) for k in (2, 3, 4)]
        family += [shuffled(d, rng) for d in family]
        for a in family:
            assert mc.isotopy_equal(a, a)  # reflexive
        for a in family:
            for b in family:
                assert mc.isotopy_equal(a, b) == mc.isotopy_equal(b, a)  # symmetric
        for a in family:
            for b in family:
                for c in family:
                    if mc.isotopy_equal(a, b) and mc.isotopy_equal(b, c):
                        assert mc.isotopy_equal(a, c)  # transitive

    def test_scale_guard(self, monkeypatch):
        # the old guard refused more than 8 pieces; the bound is now on leaves
        rng = random.Random(35)
        for k in (9, 40):
            assert mc.isotopy_equal(annuli_cycle(k), shuffled(annuli_cycle(k), rng))
        assert not mc.isotopy_equal(annuli_cycle(40), annuli_cycle(39))
        assert mc.MAX_SEARCH_LEAVES == 40320
        # a 9-cycle has two leaves below the piece split off first (the reflection)
        monkeypatch.setattr(mc, "MAX_SEARCH_LEAVES", 1)
        start = time.perf_counter()
        with pytest.raises(mc.ScaleExceeded):
            mc.isotopy_equal(annuli_cycle(9), annuli_cycle(9))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("dec", [sphere_disk_chain(1599), annuli_cycle(1600)],
                             ids=["path", "cycle"])
    def test_long_chain_answers_quickly(self, dec):
        # the splitter queue refines each of these in well under a second;
        # the plain colour refinement of `equitable_cells` takes tens of seconds
        assert len(dec.pieces) == 1600
        start = time.perf_counter()
        assert mc.isotopy_equal(dec, dec)
        assert time.perf_counter() - start < 2.0

    def test_complete_multigraph_is_one_leaf(self, monkeypatch):
        # the 8 pieces are pairwise twins, so twin pruning leaves a single leaf
        # where the unpruned search has 8! = 40320
        rng = random.Random(36)
        dec = from_edges(complete_multigraph(8, 2), [0] * 8)
        monkeypatch.setattr(mc, "MAX_SEARCH_LEAVES", 1)
        assert mc.isotopy_equal(dec, shuffled(dec, rng))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_verdicts_agree_with_permutation_search(self, k):
        # a relabelled copy is isomorphic, a graph with another number of
        # loops is not, and a random one is what the permutation search says
        rng = random.Random(400 + k)

        def loops(dec):
            return sum(a == b for (a, _), (b, _) in dec.curves)

        for _ in range(1 if k == 8 else 3):
            a = from_edges(regular_multigraph(rng, k, 4), [0] * k)
            other_loops = a
            while loops(other_loops) == loops(a):
                other_loops = from_edges(regular_multigraph(rng, k, 4), [0] * k)
            key = _permutation_key(a)
            for b, equal in ((shuffled(a, rng), True), (other_loops, False),
                             (from_edges(regular_multigraph(rng, k, 4), [0] * k), None)):
                expected = key == _permutation_key(b)
                assert equal is None or expected is equal
                assert mc.isotopy_equal(a, b) is expected

    def test_refinement_cannot_separate_strongly_regular_pair(self):
        rook, shrikhande = rook_and_shrikhande()
        rng = random.Random(37)
        for dec in (rook, shrikhande):
            root = mc._equitable_partition(dec, mc._multiplicities(dec))
            assert partition_cells(root) == {frozenset(range(16))}
            assert mc.isotopy_equal(dec, shuffled(dec, rng))
        assert not mc.isotopy_equal(rook, shrikhande)

    @staticmethod
    def check_refinement(dec, choose):
        """The root partition, and the partition after splitting off the piece
        `choose` picks from the target cell, equal colour refinement's."""
        adj = mc._multiplicities(dec)
        root = mc._equitable_partition(dec, adj)
        labels = sorted(set(dec.pieces))
        colour = [labels.index(p) for p in dec.pieces]
        assert partition_cells(root) == equitable_cells(dec, colour)
        cell = root.target_cell()
        if cell is not None:
            v = choose(cell)
            child = root.copy()
            child.refine(child.individualize([v]), adj)
            split = [(root.cell[w], w != v) for w in range(len(colour))]
            assert partition_cells(child) == equitable_cells(dec, split)

    def test_refinement_is_colour_refinement_on_seeded_graphs(self):
        # 1 in about 700 of these graphs needs a part of a still-queued cell
        # to be queued even when it is the largest part
        rng = random.Random(38)
        for _ in range(2000):
            k = rng.randint(2, 14)
            edges = [(rng.randrange(i), i) for i in range(1, k)]
            edges += [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 2 * k))]
            self.check_refinement(from_edges(edges, [0] * k), rng.choice)

    @settings(max_examples=60, deadline=None)
    @given(decompositions(max_pieces=30), st.data())
    def test_refinement_is_colour_refinement(self, dec, data):
        self.check_refinement(dec, lambda cell: data.draw(st.sampled_from(cell)))

    @settings(max_examples=120, deadline=None)
    @given(decompositions(), st.data())
    def test_verdict_invariant_under_relabelling(self, dec, data):
        other = relabeled(
            dec,
            data.draw(st.permutations(range(len(dec.pieces)))),
            [data.draw(st.permutations(range(b))) for _, b in dec.pieces],
            data.draw(st.permutations(range(len(dec.curves)))),
            data.draw(st.lists(st.booleans(), min_size=len(dec.curves),
                               max_size=len(dec.curves))))
        assert mc.isotopy_equal(dec, other)

    def test_one_scale_exceeded_class(self):
        from contactbundles import classify as cl
        assert mc.ScaleExceeded is cl.ScaleExceeded


class TestTextFormat:
    def test_round_trip(self):
        dec = annuli_cycle(3)
        text = format_decomposition(dec)
        back = mc.parse_decomposition(text)
        assert mc.isotopy_equal(dec, back)
        assert back.ambient_chiS == 0 and not back.ambient_sphere

    def test_parse_example(self):
        text = """
        surface chi=2 sphere=true
        piece D1 genus=0 boundaries=1
        piece D2 genus=0 boundaries=1
        curve c D1.0 D2.0
        """
        dec = mc.parse_decomposition(text)
        ok, _ = mc.validate(dec)
        assert ok and dec.ambient_sphere

    def test_parse_errors(self):
        with pytest.raises(mc.InvalidDecomposition):
            mc.parse_decomposition("piece P genus=0 boundaries=1")
        with pytest.raises(mc.InvalidDecomposition):
            mc.parse_decomposition("surface chi=0 sphere=false\ncurve c A.0 B.0")

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("surface sphere=false\npiece P genus=1 boundaries=0", 1, "missing chi="),
        ("surface chi=x sphere=false\npiece P genus=1 boundaries=0", 1, "chi= must be an integer"),
        ("surface chi=0 sphere=false\npiece P genus=x boundaries=0", 2, "genus= must be an integer"),
        ("surface chi=0 sphere=false\npiece P genus boundaries=0", 2, "key=value"),
        ("surface chi=0 sphere=false\npiece P bound=1 boundaries=0", 2, "missing genus="),
        ("surface chi=0 sphere=false\npiece P genus=0 boundaries=2\n"
         "piece P genus=0 boundaries=2\ncurve c P.0 P.1", 3, "duplicate piece id 'P'"),
        ("surface chi=0 sphere=false\npiece P genus=1", 2, "piece takes id, genus=, boundaries="),
        ("surface chi=0 sphere=false\npiece P genus=0 boundaries=2\ncurve P.0 P.1", 3,
         "curve takes id and two endpoints"),
    ])
    def test_malformed_lines_name_their_line(self, text, lineno, fragment):
        with pytest.raises(mc.InvalidDecomposition) as info:
            mc.parse_decomposition(text)
        assert str(info.value).startswith(f"line {lineno}: ")
        assert fragment in str(info.value)
