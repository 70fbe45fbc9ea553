"""Multicurves on closed surfaces encoded by their complement decompositions.

A multicurve is stored as the decorated gluing graph of its complement: the
pieces (genus, number of boundary circles) are the nodes and each curve is an
edge pairing two boundary slots (possibly of the same piece).  This is the
granularity at which the tightness criteria and the isotopy classification
of fiber-partitioned structures operate; no embedded-curve coordinates are
kept.  On the torus, slopes are tracked exactly through `TorusCurve` and the
geometric intersection number is |p*q' - q*p'|.

Non-orientable bases are rejected: pieces carry orientable genus only.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .classify import ScaleExceeded


class InvalidDecomposition(ValueError):
    """The decomposition data violates a structural invariant."""


class TightnessVerdict(Enum):
    UNIVERSALLY_TIGHT = "UniversallyTight"
    NOT_UNIVERSALLY_TIGHT = "NotUniversallyTight"
    OVERTWISTED_CERTIFICATE = "OvertwistedCertificate"


@dataclass(frozen=True)
class TorusCurve:
    """Isotopy class of an essential simple closed curve on the torus.

    (p, q) is primitive and identified with its negation; the stored
    representative has p > 0, or p == 0 and q > 0.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise ValueError("curve class must be nonzero")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError("curve class must be primitive")
        if self.p < 0 or (self.p == 0 and self.q < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)


def torus_intersection(a: TorusCurve, b: TorusCurve) -> int:
    """Geometric intersection number on the torus: |p*q' - q*p'|."""
    return abs(a.p * b.q - a.q * b.p)


@dataclass(frozen=True)
class TorusDividingSet:
    """A dividing set on a torus: 2n parallel curves of one slope."""

    components: int
    slope: TorusCurve

    def __post_init__(self):
        if self.components <= 0 or self.components % 2:
            raise ValueError("a dividing set has a positive even number of components")


def bennequin_semilocal_bound(gamma: TorusDividingSet, c: TorusCurve) -> Fraction:
    """Upper bound -(1/2) * i(Gamma, C) for the twisting of the plane field
    along any Legendrian realisation of C; the bound is attained."""
    return -Fraction(gamma.components, 2) * torus_intersection(gamma.slope, c)


def tb_from_degree(deg: int, n: int) -> int:
    """Thurston-Bennequin invariant deg + n - 1 of the image unknot in the
    standard tube model with 2n dividing curves."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return deg + n - 1


# ---------------------------------------------------------------------------
# decompositions

Slot = Tuple[int, int]  # (piece index, boundary slot)

#: unused slots of one piece that `validate` names one by one; a boundary
#: count read from a file can be any integer
MAX_LISTED_SLOTS = 64


@dataclass(frozen=True)
class SurfaceDecomposition:
    """Complement decomposition of a multicurve on a closed surface.

    pieces[i] = (genus_i, boundaries_i); each curve pairs two boundary slots.
    A piece with zero boundaries is allowed only as the single piece of the
    empty multicurve.  `ambient_chiS` is the Euler characteristic of the
    glued-up surface and `ambient_sphere` marks the sphere.
    """

    pieces: Tuple[Tuple[int, int], ...]
    curves: Tuple[Tuple[Slot, Slot], ...]
    ambient_chiS: int
    ambient_sphere: bool

    def n_curves(self) -> int:
        return len(self.curves)

    def has_disk_piece(self) -> bool:
        return any(g == 0 and b == 1 for g, b in self.pieces)

    # A decomposition is frozen, so each is checked, and its multiplicity table
    # built, once, on first use; `cached_property` writes the instance dict,
    # which frozen leaves open.
    @functools.cached_property
    def _verdict(self) -> Tuple[bool, Tuple[str, ...]]:
        return _check(self)

    @functools.cached_property
    def _table(self) -> List[Dict[int, int]]:
        return _multiplicities(self)


def validate(dec: SurfaceDecomposition) -> Tuple[bool, List[str]]:
    """Check all structural invariants; diagnostics name the first violations.

    The verdict is kept on the decomposition, so every later call returns a
    copy of it.
    """
    ok, diags = dec._verdict
    return ok, list(diags)


def _check(dec: SurfaceDecomposition) -> Tuple[bool, Tuple[str, ...]]:
    diags: List[str] = []
    if dec.ambient_chiS % 2:
        diags.append("ambient chi must be even")
    if dec.ambient_sphere != (dec.ambient_chiS == 2):
        diags.append("sphere flag: a closed orientable surface is a sphere iff chi = 2")
    if not dec.pieces:
        diags.append("no pieces")
        return False, tuple(diags)
    for i, (g, b) in enumerate(dec.pieces):
        if g < 0:
            diags.append(f"piece {i}: negative genus")
        if b < 0:
            diags.append(f"piece {i}: negative boundary count")
        if b == 0 and dec.curves:
            diags.append(f"piece {i}: closed piece in a nonempty decomposition")
    chi_sum = sum(2 - 2 * g - b for g, b in dec.pieces)
    if chi_sum != dec.ambient_chiS:
        diags.append(f"euler mismatch: pieces sum to {chi_sum}, ambient is {dec.ambient_chiS}")
    # every slot used exactly once
    used: Dict[Slot, int] = {}
    for (sa, sb) in dec.curves:
        for s in (sa, sb):
            used[s] = used.get(s, 0) + 1
    by_piece: Dict[int, List[Slot]] = {}
    for s in used:
        by_piece.setdefault(s[0], []).append(s)
    for i, (g, b) in enumerate(dec.pieces):
        listed = min(b, MAX_LISTED_SLOTS)
        for k in range(listed):
            c = used.pop((i, k), 0)
            if c != 1:
                diags.append(f"slot {i}.{k} used {c} times")
        named = sorted(s for s in by_piece.get(i, ()) if listed <= s[1] < b)
        for s in named:
            c = used.pop(s)
            if c != 1:
                diags.append(f"slot {i}.{s[1]} used {c} times")
        if b - listed - len(named) > 0:
            diags.append(f"{b - listed - len(named)} more slots of piece {i} used 0 times")
    for s in used:
        diags.append(f"curve endpoint at nonexistent slot {s[0]}.{s[1]}")
    # connectivity of the gluing graph
    seen = {0}
    frontier = [0]
    while frontier:
        for j in dec._table[frontier.pop()]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != len(dec.pieces):
        diags.append("disconnected gluing graph")
    return (not diags), tuple(diags)


def _require_valid(dec: SurfaceDecomposition) -> None:
    ok, diags = dec._verdict
    if not ok:
        raise InvalidDecomposition("; ".join(diags))


def is_essential(dec: SurfaceDecomposition) -> bool:
    """No component of the multicurve is null-homotopic.

    The empty multicurve is vacuously essential.  On the sphere every closed
    curve bounds, so a nonempty multicurve is never essential.  Elsewhere a
    null-homotopic component forces a disk piece (the innermost piece of the
    disk it bounds has positive Euler characteristic), so essential is
    equivalent to the absence of disk pieces.
    """
    _require_valid(dec)
    if not dec.curves:
        return True
    if dec.ambient_sphere:
        return False
    return not dec.has_disk_piece()


def universal_tightness(dec: SurfaceDecomposition, euler: int) -> TightnessVerdict:
    """Three-clause universal-tightness criterion for an invariant structure
    partitioned by the multicurve, on the bundle with Euler number `euler`.

    UniversallyTight:
      * non-sphere base and no disk complementary piece, or
      * sphere, euler < 0, empty multicurve, or
      * sphere, euler >= 0, connected nonempty multicurve.
    A disk piece together with a disconnected multicurve, or with an Euler
    number of the wrong sign, contradicts the necessary condition for plain
    tightness ("connected multicurve and euler > 0", ">= 0" on the sphere)
    and yields an OvertwistedCertificate; otherwise the structure is at most
    virtually overtwisted: NotUniversallyTight.
    """
    _require_valid(dec)
    n = dec.n_curves()
    if dec.ambient_sphere:
        if n == 0:  # no disk piece, nothing contradicts tightness
            return (TightnessVerdict.UNIVERSALLY_TIGHT if euler < 0
                    else TightnessVerdict.NOT_UNIVERSALLY_TIGHT)
        # every nonempty multicurve on the sphere cuts off a disk
        if n == 1 and euler >= 0:
            return TightnessVerdict.UNIVERSALLY_TIGHT
        return TightnessVerdict.OVERTWISTED_CERTIFICATE
    if not dec.has_disk_piece():
        return TightnessVerdict.UNIVERSALLY_TIGHT
    if n != 1 or euler <= 0:
        return TightnessVerdict.OVERTWISTED_CERTIFICATE
    return TightnessVerdict.NOT_UNIVERSALLY_TIGHT


def convex_neighborhood_tight(dec: SurfaceDecomposition) -> bool:
    """Tightness of the vertically invariant structure on F x R divided by
    the multicurve: no disk piece (sphere: connected and nonempty)."""
    _require_valid(dec)
    if dec.ambient_sphere:
        return dec.n_curves() == 1
    return not dec.has_disk_piece()


# ---------------------------------------------------------------------------
# isotopy classes

#: Leaves the canonical-labelling search may reach before `isotopy_equal`
#: refuses with ScaleExceeded.  The search never reaches more than prod k_i!
#: leaves, k_i the number of pieces with each (genus, boundaries) label, so
#: every decomposition with at most 8 pieces is answered.
MAX_SEARCH_LEAVES = 40320  # 8!


class _Partition:
    """An ordered partition of the pieces into cells.

    `order` lists the pieces cell by cell and `pos` is its inverse; `cell[v]`
    is the first position of v's cell and `size[p]` the size of the cell that
    starts at position p.  A cell is named by its first position, so names
    and order do not depend on how the pieces are numbered.
    """

    def __init__(self, order: List[int], sizes: List[int]):
        n = len(order)
        self.order = order
        self.pos = [0] * n
        self.cell = [0] * n
        self.size = [0] * n
        for p, v in enumerate(order):
            self.pos[v] = p
        p = 0
        for k in sizes:
            self._set_cell(p, p + k)
            p += k

    def copy(self) -> "_Partition":
        part = _Partition([], [])
        part.order, part.pos = self.order[:], self.pos[:]
        part.cell, part.size = self.cell[:], self.size[:]
        return part

    def _set_cell(self, p: int, q: int) -> None:
        self.size[p] = q - p
        for w in self.order[p:q]:
            self.cell[w] = p

    def _move(self, v: int, p: int) -> None:
        """Swap v into position p."""
        w, q = self.order[p], self.pos[v]
        self.order[p], self.order[q] = v, w
        self.pos[v], self.pos[w] = p, q

    def target_cell(self) -> Optional[List[int]]:
        """The pieces of the first smallest cell with more than one, or None."""
        best, p = None, 0
        while p < len(self.order):
            if self.size[p] > 1 and (best is None or self.size[p] < self.size[best]):
                best = p
            p += self.size[p]
        return None if best is None else self.order[best:best + self.size[best]]

    def individualize(self, pieces: List[int]) -> List[int]:
        """Split `pieces`, all of one cell, off its front as cells of their own,
        in the order given; returns the positions of the new cells."""
        c = self.cell[pieces[0]]
        end = c + self.size[c]
        for i, v in enumerate(pieces):
            self._move(v, c + i)
            self._set_cell(c + i, c + i + 1)
        if c + len(pieces) < end:
            self._set_cell(c + len(pieces), end)
        return list(range(c, c + len(pieces)))

    def refine(self, queue: List[int], adj: List[Dict[int, int]]) -> None:
        """Split cells until all pieces of a cell send equally many curves into
        each cell: the coarsest equitable refinement, or 1-dimensional
        Weisfeiler-Leman colour refinement, with the splitter queue of McKay's
        refinement procedure.

        Splitter cells come off the queue in order.  Each cell is split by
        the number of curves its pieces send into the splitter (a loop counts
        once), and the parts keep the cell's place, ordered by that number.
        A part is queued unless its cell was not queued and it is the first
        largest part: counts into it are then the counts into the old cell,
        already equal on every cell, less those into the other parts.
        """
        queued = set(queue)
        queue = deque(queue)
        while queue:
            s = queue.popleft()
            queued.discard(s)
            count: Dict[int, int] = {}
            for u in self.order[s:s + self.size[s]]:
                for w, m in adj[u].items():
                    count[w] = count.get(w, 0) + m
            hits: Dict[int, List[int]] = {}
            for w in count:
                hits.setdefault(self.cell[w], []).append(w)
            for c in sorted(hits):
                hit, end = sorted(hits[c], key=count.__getitem__), c + self.size[c]
                if len(hit) == end - c and count[hit[0]] == count[hit[-1]]:
                    continue
                # the counted pieces go to the end of the cell, by count
                first = end - len(hit)
                for i, w in enumerate(reversed(hit)):
                    self._move(w, end - 1 - i)
                starts = [c] if first > c else []
                starts += [first + i for i, w in enumerate(hit)
                           if i == 0 or count[w] != count[hit[i - 1]]]
                for p, q in zip(starts, starts[1:] + [end]):
                    self._set_cell(p, q)
                if c in queued:
                    fresh = starts[1:]
                else:
                    largest = max(starts, key=lambda p: (self.size[p], -p))
                    fresh = [p for p in starts if p != largest]
                queue.extend(fresh)
                queued.update(fresh)


def _twins(adj: List[Dict[int, int]], u: int, v: int) -> bool:
    """Equal loop counts and equal multiplicities to every third piece, so
    swapping u and v (of one label) is an automorphism."""
    au, av = adj[u], adj[v]
    return au.get(u, 0) == av.get(v, 0) and all(
        au.get(w, 0) == av.get(w, 0) for w in (au.keys() | av.keys()) - {u, v})


def _twin_classes(cell: List[int], adj: List[Dict[int, int]]) -> List[List[int]]:
    """The pieces of the cell grouped into twin classes, in cell order.

    Twins joined by no curve have equal neighbour multisets; twins joined by
    a curve are neighbours, and are compared directly.  Being twins is an
    equivalence relation.
    """
    classes: List[List[int]] = []
    by_nbhd: Dict[tuple, List[int]] = {}
    by_piece: Dict[int, List[int]] = {}
    for v in cell:
        nbrs = adj[v]
        nbhd = (nbrs.get(v, 0), frozenset(item for item in nbrs.items() if item[0] != v))
        cls = by_nbhd.get(nbhd) or next(
            (by_piece[u] for u in nbrs if u in by_piece and _twins(adj, u, v)), None)
        if cls is None:
            cls = []
            classes.append(cls)
        cls.append(v)
        by_nbhd[nbhd] = by_piece[v] = cls
    return classes


class _Node:
    """A non-leaf node of the search: its partition, the pieces split off on
    the way to it, and the twin classes of its target cell to branch on.

    `orbit` is a union-find forest over the cell: twins start joined, and
    every automorphism found that fixes `fixed` joins the orbits it maps
    together.  A class whose orbit holds a class already branched on is
    skipped, because the automorphism carries one subtree onto the other.
    """

    def __init__(self, part: _Partition, fixed: List[int], cell: List[int],
                 adj: List[Dict[int, int]]):
        self.part = part
        self.fixed = fixed
        self.todo = deque(_twin_classes(cell, adj))
        self.orbit = {v: cls[0] for cls in self.todo for v in cls}
        self.done: List[int] = []
        self.folded = 0

    def _root(self, v: int) -> int:
        while self.orbit[v] != v:
            self.orbit[v] = v = self.orbit[self.orbit[v]]
        return v

    def next_branch(self, autos: List[List[int]]) -> Optional[List[int]]:
        """The next twin class to split off, or None when all are done."""
        for gamma in autos[self.folded:]:
            if all(gamma[u] == u for u in self.fixed):
                for v in self.orbit:
                    self.orbit[self._root(v)] = self._root(gamma[v])
        self.folded = len(autos)
        explored = {self._root(u) for u in self.done}
        while self.todo:
            cls = self.todo.popleft()
            if self._root(cls[0]) not in explored:
                self.done.append(cls[0])
                return cls
        return None


def _multiplicities(dec: SurfaceDecomposition) -> List[Dict[int, int]]:
    """adj[i][j]: the number of curves joining pieces i and j (loops at i:
    adj[i][i]); a curve with an end at no piece joins none."""
    n = len(dec.pieces)
    adj: List[Dict[int, int]] = [{} for _ in dec.pieces]
    for (a, _), (b, _) in dec.curves:
        if 0 <= a < n and 0 <= b < n:
            adj[a][b] = adj[a].get(b, 0) + 1
            if a != b:
                adj[b][a] = adj[b].get(a, 0) + 1
    return adj


def _equitable_partition(dec: SurfaceDecomposition, adj: List[Dict[int, int]]) -> _Partition:
    """The pieces in cells by (genus, boundaries), ordered by that label, refined."""
    sizes = [len(list(group)) for _, group in itertools.groupby(sorted(dec.pieces))]
    part = _Partition(sorted(range(len(dec.pieces)), key=dec.pieces.__getitem__), sizes)
    part.refine(list(itertools.accumulate([0] + sizes[:-1])), adj)
    return part


def _canonical_form(dec: SurfaceDecomposition) -> tuple:
    """(ambient chi, sphere flag, sorted labels, least sorted edge list over
    the leaves of the search); algorithm in `isotopy_equal`."""
    n = len(dec.pieces)
    adj = dec._table
    leaves = 0
    first = best = None  # (edge list, positions) of the first and the least leaf
    autos: List[List[int]] = []  # automorphisms found by equal leaves
    stack: List[_Node] = []

    def visit(part: _Partition, fixed: List[int]) -> None:
        nonlocal leaves, first, best
        cell = part.target_cell()
        if cell is not None:
            stack.append(_Node(part, fixed, cell, adj))
            return
        leaves += 1
        if leaves > MAX_SEARCH_LEAVES:
            raise ScaleExceeded(f"canonical labelling search refused above "
                                f"{MAX_SEARCH_LEAVES} leaves")
        pos = part.pos
        edges = tuple(sorted((pos[a], pos[b]) if pos[a] <= pos[b] else (pos[b], pos[a])
                             for (a, _), (b, _) in dec.curves))
        if first is None:
            first = best = (edges, pos)
            return
        for key, ref_pos in (first, best):
            if key == edges:
                autos.append([part.order[ref_pos[v]] for v in range(n)])
                break
        if edges < best[0]:
            best = (edges, pos)

    visit(_equitable_partition(dec, adj), [])
    while stack:
        node = stack[-1]
        cls = node.next_branch(autos)
        if cls is None:
            stack.pop()
            continue
        child = node.part.copy()
        child.refine(child.individualize(cls), adj)
        visit(child, node.fixed + cls)
    return (dec.ambient_chiS, dec.ambient_sphere, tuple(sorted(dec.pieces)), best[0])


def isotopy_equal(a: SurfaceDecomposition, b: SurfaceDecomposition) -> bool:
    """Decorated-graph isomorphism of two decompositions, by comparing
    canonical forms.

    The canonical form is found by individualisation-refinement (McKay and
    Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
    2014).  The pieces start in cells by (genus, boundaries), ordered by that
    label, and the partition is refined until it is equitable (1-dimensional
    Weisfeiler-Leman refinement by curve multiplicities into each cell, see
    `_Partition.refine`).  While a cell has several pieces, the first smallest
    such cell is split: each of its pieces in turn becomes a cell of its own,
    the partition is refined again, and the search recurses.  Every leaf
    orders the pieces; the key is the least sorted list of curves as position
    pairs.  Refinement and the choice of cell depend only on the isomorphism
    class, so equal keys mean isomorphic decompositions.

    Two pruning rules skip subtrees whose leaves repeat keys already seen.
    Twins (equal loop counts and multiplicities to every third piece) can be
    swapped by an automorphism, so each twin class of the cell is split off
    whole, once.  And a class is skipped when an automorphism found by two
    leaves with equal keys, fixing every piece already split off, maps it to
    a class branched on.

    Both decompositions are validated first (InvalidDecomposition).  A search
    that would pass MAX_SEARCH_LEAVES leaves raises ScaleExceeded; with at
    most 8 pieces it cannot.
    """
    _require_valid(a)
    _require_valid(b)
    return _canonical_form(a) == _canonical_form(b)


# ---------------------------------------------------------------------------
# text format

def parse_decomposition(text: str) -> SurfaceDecomposition:
    """Parse the one-decomposition text format.

    surface chi=<int> sphere=<bool>
    piece <id> genus=<g> boundaries=<b>
    curve <id> <pieceA>.<slot> <pieceB>.<slot>
    """
    chi: Optional[int] = None
    sphere: Optional[bool] = None
    piece_ids: Dict[str, int] = {}
    pieces: List[Tuple[int, int]] = []
    curves: List[Tuple[Slot, Slot]] = []

    def parse_end(lineno: int, token: str) -> Slot:
        name, _, slot = token.partition(".")
        try:
            if name in piece_ids and slot.isascii() and slot.isdigit():
                return (piece_ids[name], int(slot))
        except ValueError:  # more digits than int() converts
            pass
        raise InvalidDecomposition(f"line {lineno}: bad curve endpoint {token!r}")

    def options(lineno: int, fields: List[str]) -> Dict[str, str]:
        if not all("=" in f for f in fields):
            raise InvalidDecomposition(f"line {lineno}: expected key=value fields")
        return dict(f.split("=", 1) for f in fields)

    def integer(lineno: int, opts: Dict[str, str], key: str) -> int:
        try:
            return int(opts[key])
        except KeyError:
            raise InvalidDecomposition(f"line {lineno}: missing {key}=")
        except ValueError:
            raise InvalidDecomposition(f"line {lineno}: {key}= must be an integer")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "surface":
            opts = options(lineno, fields[1:])
            chi = integer(lineno, opts, "chi")
            sphere = opts.get("sphere", "false").lower() in ("true", "1", "yes")
        elif kind == "piece":
            if len(fields) != 4:
                raise InvalidDecomposition(f"line {lineno}: piece takes id, genus=, boundaries=")
            if fields[1] in piece_ids:
                raise InvalidDecomposition(f"line {lineno}: duplicate piece id {fields[1]!r}")
            opts = options(lineno, fields[2:])
            piece_ids[fields[1]] = len(pieces)
            pieces.append((integer(lineno, opts, "genus"), integer(lineno, opts, "boundaries")))
        elif kind == "curve":
            if len(fields) != 4:
                raise InvalidDecomposition(f"line {lineno}: curve takes id and two endpoints")
            curves.append((parse_end(lineno, fields[2]), parse_end(lineno, fields[3])))
        else:
            raise InvalidDecomposition(f"line {lineno}: unknown directive {kind!r}")
    if chi is None or sphere is None:
        raise InvalidDecomposition("missing surface line")
    return SurfaceDecomposition(tuple(pieces), tuple(curves), chi, sphere)
