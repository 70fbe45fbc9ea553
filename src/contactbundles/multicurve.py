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

import itertools
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

    def piece_chi(self, i: int) -> int:
        g, b = self.pieces[i]
        return 2 - 2 * g - b

    def n_curves(self) -> int:
        return len(self.curves)

    def has_disk_piece(self) -> bool:
        return any(g == 0 and b == 1 for g, b in self.pieces)


def validate(dec: SurfaceDecomposition) -> Tuple[bool, List[str]]:
    """Check all structural invariants; diagnostics name the first violations."""
    diags: List[str] = []
    if dec.ambient_chiS % 2:
        diags.append("ambient chi must be even")
    if dec.ambient_sphere != (dec.ambient_chiS == 2):
        diags.append("sphere flag: a closed orientable surface is a sphere iff chi = 2")
    if not dec.pieces:
        diags.append("no pieces")
        return False, diags
    for i, (g, b) in enumerate(dec.pieces):
        if g < 0:
            diags.append(f"piece {i}: negative genus")
        if b < 0:
            diags.append(f"piece {i}: negative boundary count")
        if b == 0 and dec.curves:
            diags.append(f"piece {i}: closed piece in a nonempty decomposition")
    chi_sum = sum(dec.piece_chi(i) for i in range(len(dec.pieces)))
    if chi_sum != dec.ambient_chiS:
        diags.append(f"euler mismatch: pieces sum to {chi_sum}, ambient is {dec.ambient_chiS}")
    # every slot used exactly once
    used: Dict[Slot, int] = {}
    for (sa, sb) in dec.curves:
        for s in (sa, sb):
            used[s] = used.get(s, 0) + 1
    for i, (g, b) in enumerate(dec.pieces):
        listed = min(b, MAX_LISTED_SLOTS)
        for k in range(listed):
            c = used.pop((i, k), 0)
            if c != 1:
                diags.append(f"slot {i}.{k} used {c} times")
        named = sorted(s for s in used if s[0] == i and listed <= s[1] < b)
        for s in named:
            c = used.pop(s)
            if c != 1:
                diags.append(f"slot {i}.{s[1]} used {c} times")
        if b - listed - len(named) > 0:
            diags.append(f"{b - listed - len(named)} more slots of piece {i} used 0 times")
    for s in used:
        diags.append(f"curve endpoint at nonexistent slot {s[0]}.{s[1]}")
    # connectivity of the gluing graph
    adj: Dict[int, set] = {i: set() for i in range(len(dec.pieces))}
    for (ia, _), (ib, _) in dec.curves:
        if ia < len(dec.pieces) and ib < len(dec.pieces):
            adj[ia].add(ib)
            adj[ib].add(ia)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != len(dec.pieces):
        diags.append("disconnected gluing graph")
    return (not diags), diags


def _require_valid(dec: SurfaceDecomposition) -> None:
    ok, diags = validate(dec)
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
        if euler < 0 and n == 0:
            return TightnessVerdict.UNIVERSALLY_TIGHT
        if euler >= 0 and n == 1:
            return TightnessVerdict.UNIVERSALLY_TIGHT
        if n == 0:
            # no disk piece, nothing contradicts tightness
            return TightnessVerdict.NOT_UNIVERSALLY_TIGHT
        if n > 1 or euler < 0:
            return TightnessVerdict.OVERTWISTED_CERTIFICATE
        return TightnessVerdict.NOT_UNIVERSALLY_TIGHT
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

class MulticurveClass:
    """A decomposition up to decorated-graph isomorphism, with cached canonical form."""

    def __init__(self, dec: SurfaceDecomposition):
        _require_valid(dec)
        self.decomposition = dec
        self._canonical: Optional[tuple] = None

    def canonical_key(self) -> tuple:
        if self._canonical is None:
            self._canonical = _canonical_form(self.decomposition)
        return self._canonical

    def __eq__(self, other) -> bool:
        if not isinstance(other, MulticurveClass):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())


def _canonical_form(dec: SurfaceDecomposition) -> tuple:
    """Minimal encoding over all label-preserving relabelings of the pieces."""
    n = len(dec.pieces)
    if n > 8:
        raise ScaleExceeded("canonical form implemented for at most 8 pieces")
    labels = list(dec.pieces)
    order = sorted(range(n), key=lambda i: labels[i])
    sorted_labels = tuple(labels[i] for i in order)
    # group positions by label; candidate relabelings permute within groups
    groups: Dict[Tuple[int, int], List[int]] = {}
    for pos, i in enumerate(order):
        groups.setdefault(labels[i], []).append(pos)
    best = None
    group_items = sorted(groups.items())
    perms_per_group = [list(itertools.permutations(positions)) for _, positions in group_items]
    members_per_group = [[i for i in order if labels[i] == lab] for lab, _ in group_items]
    for choice in itertools.product(*perms_per_group):
        target: Dict[int, int] = {}
        for (perm, members) in zip(choice, members_per_group):
            for new_pos, old_index in zip(perm, members):
                target[old_index] = new_pos
        edges = sorted(
            tuple(sorted((target[ia], target[ib])))
            for (ia, _), (ib, _) in dec.curves
        )
        key = tuple(edges)
        if best is None or key < best:
            best = key
    return (dec.ambient_chiS, dec.ambient_sphere, sorted_labels, best)


def isotopy_equal(a, b) -> bool:
    """Decorated-graph isomorphism of two decompositions (<= 8 pieces each)."""
    ca = a if isinstance(a, MulticurveClass) else MulticurveClass(a)
    cb = b if isinstance(b, MulticurveClass) else MulticurveClass(b)
    return ca == cb


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

    def parse_end(token: str) -> Slot:
        name, _, slot = token.partition(".")
        if name not in piece_ids or not slot.isdigit():
            raise InvalidDecomposition(f"bad curve endpoint {token!r}")
        return (piece_ids[name], int(slot))

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
            curves.append((parse_end(fields[2]), parse_end(fields[3])))
        else:
            raise InvalidDecomposition(f"line {lineno}: unknown directive {kind!r}")
    if chi is None or sphere is None:
        raise InvalidDecomposition("missing surface line")
    return SurfaceDecomposition(tuple(pieces), tuple(curves), chi, sphere)


def format_decomposition(dec: SurfaceDecomposition) -> str:
    lines = [f"surface chi={dec.ambient_chiS} sphere={'true' if dec.ambient_sphere else 'false'}"]
    for i, (g, b) in enumerate(dec.pieces):
        lines.append(f"piece P{i} genus={g} boundaries={b}")
    for k, ((ia, sa), (ib, sb)) in enumerate(dec.curves):
        lines.append(f"curve c{k} P{ia}.{sa} P{ib}.{sb}")
    return "\n".join(lines) + "\n"
