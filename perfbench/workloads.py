"""Seeded request generators for the three benchmark workloads.

A workload is a set of request *kinds*, each with a fixed number of
occurrences per cycle.  Occurrence j of a kind is placed at cycle time
(j + phase) / per_cycle, with a seeded phase per kind, and all occurrences
are merged in time order.  Every prefix of the resulting sequence therefore
holds each kind in its cycle proportion to within one request, so the mix a
run measures does not depend on where the clock stops.

Parameters are stratified: each kind draws its values from fixed strata with
a seeded position inside each stratum.  Different seeds give different
inputs with the same mix of costs.

Requests are plain dicts:

* ``{"id", "kind", "argv": [...]}`` for a CLI request through
  ``contactbundles.cli.main``;
* ``{"id", "kind", "call": name, "params": {...}}`` for a library call
  (see ``worker._library_calls``).

A request with ``"scale": "array"`` spends most of its time in numpy on large
arrays, and the worker times it against its array kernel (see ``worker``).

``expect`` carries what the generator knows by construction; the oracles in
``oracles.py`` use it.  Requests with the same ``id`` are byte-identical
repeats.  Input files are written under ``workdir``, and argv lists name them
relative to the repository root, which is the worker's working directory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

WORKLOADS = ("geometry", "forms", "counting")

#: seconds one cycle takes on the seed commit at the reference speed (see
#: run.REFERENCE_KERNEL_S); a run of --seconds S sends about S / this many cycles
CYCLE_SECONDS = {"geometry": 5.0, "forms": 2.0, "counting": 2.8}

#: enough requests that the 90th percentile has 10 samples beyond it
MIN_REQUESTS = 100

#: untimed request answered before measuring (and by every set-up probe)
WARMUP = {
    "geometry": ["polygon", "--genus", "2", "--area", "3pi"],
    "forms": ["forms", "--library", "--grid", "16"],
    "counting": ["classify", "--chi-s", "-2", "--euler", "1"],
}


@dataclass
class Kind:
    name: str
    per_cycle: int
    make: Callable[[int], dict]


def pooled(pool: Sequence[dict]) -> Callable[[int], dict]:
    """Occurrence j reuses pool[j mod len]: every cycle repeats the pool."""
    return lambda j: pool[j % len(pool)]


def interleave(kinds: Sequence[Kind], rng: random.Random, cycles: int) -> List[dict]:
    events = []
    for k in kinds:
        phase = rng.random()
        for j in range(cycles * k.per_cycle):
            events.append(((j + phase) / k.per_cycle, k.name, j, k))
    events.sort(key=lambda e: e[:3])
    return [k.make(j) for _, _, j, k in events]


def strata(rng: random.Random, n: int, lo: float = 0.0, hi: float = 1.0) -> List[float]:
    """One uniform draw inside each of n equal strata of [lo, hi)."""
    w = (hi - lo) / n
    return [lo + (i + rng.random()) * w for i in range(n)]


def cycles_for(workload: str, seconds: float) -> int:
    """Cycles in a run of about `seconds` on the seed commit (at least one,
    and at least MIN_REQUESTS requests)."""
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def generate(workload: str, seed: int, workdir: Path, root: Path,
             cycles: int = 1) -> Tuple[List[dict], int]:
    """The request sequence of `workload` for `seed`, `cycles` cycles long,
    and its cycle length.

    A run sends the whole sequence, so how many requests it attempts and
    which of them fail do not depend on the machine's speed.  Writes the
    input files the requests name under `workdir`.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.resolve().relative_to(root.resolve())
    builder = {"geometry": _geometry, "forms": _forms, "counting": _counting}[workload]
    kinds = builder(rng, workdir, rel)
    cycle = sum(k.per_cycle for k in kinds)
    cycles = max(cycles, -(-MIN_REQUESTS // cycle))
    return interleave(kinds, rng, cycles), cycle


# ---------------------------------------------------------------------------
# geometry: holonomy, polygon, exact piecewise-linear relators

def _area_text(g: int, u: float) -> str:
    """Area u * (4g-2) * pi, written as a multiple of pi."""
    return f"{u * (4 * g - 2)!r}pi"


#: seeded areas are drawn below this share of the top of (0, (4g-2)pi) ...
SEEDED_TOP = 0.9
#: ... and the top itself is sent at these fixed shares for every seed.  Today
#: radius_for_area fails above about 0.93 at g = 2 and within 1e-3 of the top
#: at every genus (2.5e-3 at g = 5..8); with the edge fixed, every seed fails
#: the same requests, so the failure count of a run does not depend on the seed.
TOP_SHARES = (0.95, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6)


def _area_request(cmd: str, g: int, u: float, iters: int = 0) -> dict:
    area = _area_text(g, u)
    argv = [cmd, "--genus", str(g), "--area", area]
    if iters:
        argv += ["--iters", str(iters)]
    return {"id": " ".join(argv), "kind": cmd if not iters else f"{cmd}{iters}",
            "argv": argv, "expect": {"genus": g, "area_coef": u * (4 * g - 2)}}


def random_pl_map(rng: random.Random, knots: int, den: int) -> List[List[str]]:
    """Breakpoints (t, value) of a seeded exact PL lift, as 'p/q' strings."""
    ts = sorted(rng.sample(range(den), knots))
    v0 = Fraction(rng.randrange(den), den)
    incs = sorted(rng.sample(range(1, den), knots - 1))
    vs = [v0] + [v0 + Fraction(i, den) for i in incs]
    return [[str(Fraction(t, den)), str(v)] for t, v in zip(ts, vs)]


def _pl_request(call: str, rng: random.Random, g: int, iterations: int) -> dict:
    maps = [random_pl_map(rng, rng.choice((2, 3, 4)), rng.choice((8, 10, 12)))
            for _ in range(2 * g)]
    params = {"maps": maps}
    if call == "translation_number":
        params["iterations"] = iterations
    ident = f"{call} {maps} {iterations}"
    return {"id": ident, "kind": call, "call": call, "params": params}


def _geometry(rng: random.Random, workdir: Path, rel: Path) -> List[Kind]:
    kinds = []
    for g in range(1, 9):
        polys = [_area_request("polygon", g, u) for u in strata(rng, 14, hi=SEEDED_TOP)]
        polys += [_area_request("polygon", g, u) for u in TOP_SHARES]
        hol4 = [_area_request("holonomy", g, u, 10 ** 4) for u in strata(rng, 2, hi=SEEDED_TOP)]
        hol4.append(_area_request("holonomy", g, TOP_SHARES[3], 10 ** 4))
        hol5 = [_area_request("holonomy", g, u, 10 ** 5) for u in strata(rng, 5, hi=SEEDED_TOP)]
        for name, pool in (("polygon", polys), ("holonomy1e4", hol4), ("holonomy1e5", hol5)):
            rng.shuffle(pool)
            kinds.append(Kind(f"{name}:g{g}", len(pool), pooled(pool)))
    tn = [_pl_request("translation_number", rng, 1 + i % 3, int(n))
          for i, n in enumerate(strata(rng, 12, 100, 1000))]
    wood = [_pl_request("wood_bound_check", rng, 1 + i % 3, 0) for i in range(12)]
    kinds.append(Kind("translation_number", len(tn), pooled(tn)))
    kinds.append(Kind("wood_bound_check", len(wood), pooled(wood)))
    return kinds


# ---------------------------------------------------------------------------
# forms: library grids, fresh form files, pointwise library calls

TWO_PI = "6.283185307179586"


def phase(j: int) -> Fraction:
    """Phase of the j-th fresh file of a kind, distinct for every j.

    Every coordinate-dependent subtree of the file contains it, so no two
    fresh files share a coefficient tree and the symbolic caches stay cold
    however many files a run reads.  Each family below is translated by it
    along a periodic coordinate, which keeps the contact sign.
    """
    return Fraction(j + 1, 997)


def slope_radius(p: int, q: int) -> Fraction:
    """r > 0 with r^2/(r^4 - 1) = p/q, from the quadratic in x = r^2."""
    k = p / q
    root = math.sqrt(1.0 + 4.0 * k * k)
    x = (1.0 - root) / (2.0 * k) if k < 0 else (1.0 + root) / (2.0 * k)
    return Fraction(math.sqrt(x)).limit_denominator(10 ** 12)


def torus_pullback_text(p: int, q: int, sign: int, shift: Fraction) -> str:
    """The solid-torus model (1 - r^4) dz + r^2 dtheta pulled back along
    (a, s, t) -> (R, s + (a/q) sin(2 psi), t) with psi = qs - pt + shift,
    chain rule written out.

    The pullback of a positive contact form along an orientation-preserving
    immersion is positive; here the Jacobian is positive for a < q/2.
    """
    pm = "+" if sign > 0 else "-"
    psi = f"({q}*s - ({p})*t + shift)"
    big_r = f"(2*a*rpq*(1 {pm} (a/{q})*cos({psi})))"
    phase = f"2*{psi}"
    return (f"chart a:[0.05,0.45] s:[0,{TWO_PI}] t:[0,{TWO_PI}];\n"
            f"periodic s t;\nexclude a<1e-3;\nparam rpq={slope_radius(p, q)};\n"
            f"param shift={shift};\n"
            f"form {big_r}^2*(1/{q})*sin({phase})*da"
            f" + {big_r}^2*(1 + 2*a*cos({phase}))*ds"
            f" + (1 - {big_r}^4 + {big_r}^2*(-(2*a*({p})/{q})*cos({phase})))*dt\n")


def connection_text(rng: random.Random, shift: Fraction) -> str:
    """dtheta - u dx with d_y u < 0 everywhere on the chart (u strictly
    decreasing in y), in the chart order (y, x, theta) that makes it Positive."""
    c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    d = Fraction(rng.randint(0, 5), 8)
    e = Fraction(rng.randint(1, 7), 3)
    m = rng.randint(1, 3)
    u = (f"-({c})*y - ({d})*y^3 - y*({e})*cos({m}*theta + shift)^2/8 + "
         f"({e})*sin({m}*theta + shift)*x^2/4 - ({e})*cos(x)")
    # d_y u = -c - 3d y^2 - (e/8) cos^2 < 0 since c > 0
    return (f"chart y:[-2,2] x:[-2,2] theta:[0,{TWO_PI}];\nperiodic theta;\n"
            f"param shift={shift};\nform -({u})*dx + dtheta\n")


def family_text(family: str, n: int, shift: Fraction) -> str:
    if family == "fiber_rotation":
        return ("chart x:[-1,1] y:[-1,1] t:[0,1];\nperiodic t;\nparam n=%d;\n"
                "param shift=%s;\nform cos(2*n*pi*t + shift)*dx - sin(2*n*pi*t + shift)*dy\n"
                % (n, shift))
    if family == "three_torus":
        return (f"chart x1:[0,1] x2:[0,1] theta:[0,{TWO_PI}];\nperiodic x1 x2 theta;\n"
                "param m=%d;\nparam shift=%s;\n"
                "form cos(m*theta + shift)*dx1 - sin(m*theta + shift)*dx2\n" % (n, shift))
    if family == "clairaut_band":
        return ("chart x:[0,2] y:[-1,1] t:[-1,1];\nperiodic x;\nparam n=%d;\n"
                "param shift=%s;\nform cos(n*pi*x + shift)*dy - sin(n*pi*x + shift)*dt\n"
                % (n, shift))
    raise ValueError(family)


def zero_denominator_text(rng: random.Random) -> str:
    """A form whose coefficient divides by an expression identical to 0."""
    a = rng.randint(1, 5)
    den = rng.choice([f"(x+{a})^2 - x^2 - {2 * a}*x - {a * a}",
                      f"{a}*y - y*{a}", f"(z-{a})*(z+{a}) - z^2 + {a * a}"])
    return f"chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz + y/({den})*dx\n"


INVALID_FORMS = [
    "chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz +* y*dx\n",
    "chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz + w*dx\n",
    "chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz + y\n",
]


def _form_file(workdir: Path, rel: Path, name: str, text: str, grid: int,
               kind: str, expect: dict) -> dict:
    (workdir / name).write_text(text, encoding="utf-8")
    argv = ["forms", "--form-file", str(rel / name), "--grid", str(grid)]
    return {"id": " ".join(argv), "kind": kind, "argv": argv, "expect": expect}


def _forms(rng: random.Random, workdir: Path, rel: Path) -> List[Kind]:
    positive = {"sign": "Positive"}
    wraps = [(p, q, sign) for p in range(-9, 10) for q in range(1, 16) for sign in (1, -1)
             if p and gcd(abs(p), q) == 1]
    rng.shuffle(wraps)

    def fresh(kind: str, text_for: Callable[[int, Fraction], str], grids: Sequence[int]):
        return lambda j: _form_file(workdir, rel, f"{kind}-{j}.form", text_for(j, phase(j)),
                                    grids[j % len(grids)], kind, positive)

    lib = {"lo": [round(x) for x in strata(rng, 4, 48, 64)],
           "mid": [round(x) for x in strata(rng, 4, 64, 100)], "top": [128]}
    library = {band: [{"id": f"forms --library --grid {gr}", "kind": "library",
                       "argv": ["forms", "--library", "--grid", str(gr)], "expect": {},
                       "scale": "array"}
                      for gr in grids] for band, grids in lib.items()}
    zero = [_form_file(workdir, rel, f"zero-{i}.form", zero_denominator_text(rng), 16,
                       "invalid_form", {"invalid": True}) for i in range(4)]
    invalid = [_form_file(workdir, rel, f"invalid-{i}.form", text, 16, "invalid_form",
                          {"invalid": True}) for i, text in enumerate(INVALID_FORMS)]
    hopf = [{"id": f"hopf {i}", "kind": "hopf_invariance_check", "call": "hopf_invariance_check",
             "params": {"times": [str(Fraction(rng.randint(0, 40), rng.randint(1, 40)))
                                  for _ in range(2)], "points": 60}} for i in range(4)]
    slopes = [{"id": f"slope {r!r}", "kind": "characteristic_slope_on_torus",
               "call": "characteristic_slope_on_torus", "params": {"r": r}}
              for r in strata(rng, 8, 0.05, 0.95) + strata(rng, 4, 1.05, 1.4)]
    rng.shuffle(slopes)
    fam_params = [(fam, n) for fam in ("fiber_rotation", "three_torus", "clairaut_band")
                  for n in range(1, 41)]
    rng.shuffle(fam_params)
    return [
        Kind("library:lo", 1, pooled(library["lo"])),
        Kind("library:mid", 1, pooled(library["mid"])),
        Kind("library:top", 1, pooled(library["top"])),
        Kind("torus_pullback", 8, fresh("torus", lambda j, c: torus_pullback_text(
            *wraps[j % len(wraps)], c), [20, 24, 28])),
        Kind("connection", 5, fresh("connection", lambda j, c: connection_text(rng, c),
                                    [16, 24, 32])),
        Kind("family", 10, fresh("family", lambda j, c: family_text(
            *fam_params[j % len(fam_params)], c), [24, 32])),
        Kind("zero_denominator", 4, pooled(zero)),
        Kind("invalid_form", 1, pooled(invalid)),
        Kind("hopf", 3, pooled(hopf)),
        Kind("slope", len(slopes), pooled(slopes)),
    ]


# ---------------------------------------------------------------------------
# counting: classify, covers, multicurve

def _classify_pool(rng: random.Random, count: int) -> List[dict]:
    chis = [2, 0, -2, -4, -6, -10, -18, -30, -58, -98]
    pool = []
    for i in range(count):
        chi = chis[i % len(chis)]
        span = max(4, abs(chi) + 3)
        e = rng.randint(-span, span)
        argv = ["classify", "--chi-s", str(chi), "--euler", str(e)]
        pool.append({"id": " ".join(argv), "kind": "classify", "argv": argv,
                     "expect": {"chi_s": chi, "euler": e}})
    return pool


def _covers(g: int, n: int) -> dict:
    argv = ["covers", "--genus", str(g), "--n", str(n)]
    return {"id": " ".join(argv), "kind": f"covers:g{g}", "argv": argv,
            "expect": {"genus": g, "n": n}}


@dataclass
class Decomposition:
    pieces: List[tuple]          # (genus, boundaries)
    curves: List[tuple]          # ((piece, slot), (piece, slot))

    @property
    def chi(self) -> int:
        return sum(2 - 2 * g - b for g, b in self.pieces)

    def text(self) -> str:
        lines = [f"surface chi={self.chi} sphere={'true' if self.chi == 2 else 'false'}"]
        lines += [f"piece P{i} genus={g} boundaries={b}" for i, (g, b) in enumerate(self.pieces)]
        lines += [f"curve c{k} P{a}.{sa} P{b}.{sb}"
                  for k, ((a, sa), (b, sb)) in enumerate(self.curves)]
        return "\n".join(lines) + "\n"

    def relabeled(self, rng: random.Random) -> "Decomposition":
        """The same decorated graph with pieces, slots and curves permuted."""
        n = len(self.pieces)
        perm = list(range(n))
        rng.shuffle(perm)
        slot_perm = {}
        for i, (_, b) in enumerate(self.pieces):
            s = list(range(b))
            rng.shuffle(s)
            slot_perm[i] = s
        pieces = [None] * n
        for i, p in enumerate(self.pieces):
            pieces[perm[i]] = p
        curves = [((perm[a], slot_perm[a][sa]), (perm[b], slot_perm[b][sb]))
                  for (a, sa), (b, sb) in self.curves]
        rng.shuffle(curves)
        return Decomposition(pieces, curves)

    def loops(self) -> int:
        return sum(1 for (a, _), (b, _) in self.curves if a == b)


def build_decomposition(edges: Sequence[tuple], genera: Sequence[int],
                        rng: random.Random) -> Decomposition:
    """Pieces of the given genera glued along `edges` (pairs of piece indices)."""
    k = len(genera)
    deg = [0] * k
    ends = []
    for a, b in edges:
        ends.append((a, deg[a]))
        deg[a] += 1
        ends.append((b, deg[b]))
        deg[b] += 1
    for i in range(k):  # shuffle slot numbers within each piece
        s = list(range(deg[i]))
        rng.shuffle(s)
        ends = [(p, s[slot]) if p == i else (p, slot) for p, slot in ends]
    curves = [(ends[2 * c], ends[2 * c + 1]) for c in range(len(edges))]
    return Decomposition([(genera[i], deg[i]) for i in range(k)], curves)


def random_tree_edges(rng: random.Random, k: int) -> List[tuple]:
    return [(rng.randrange(i), i) for i in range(1, k)]


def regular_multigraph(rng: random.Random, k: int, degree: int) -> List[tuple]:
    """A connected degree-regular multigraph on k nodes (configuration model)."""
    while True:
        half = [i for i in range(k) for _ in range(degree)]
        rng.shuffle(half)
        edges = [(half[2 * c], half[2 * c + 1]) for c in range(len(half) // 2)]
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


def tightness_expectation(dec: Decomposition, euler: int) -> dict:
    """Verdicts of the multicurve criteria, restated from the paper."""
    n = len(dec.curves)
    sphere = dec.chi == 2
    disk = any(g == 0 and b == 1 for g, b in dec.pieces)
    essential = True if n == 0 else (not sphere and not disk)
    if sphere:
        if (euler < 0 and n == 0) or (euler >= 0 and n == 1):
            ut = "UniversallyTight"
        elif n == 0:
            ut = "NotUniversallyTight"
        elif n > 1 or euler < 0:
            ut = "OvertwistedCertificate"
        else:
            ut = "NotUniversallyTight"
        convex = n == 1
    else:
        if not disk:
            ut = "UniversallyTight"
        elif n != 1 or euler <= 0:
            ut = "OvertwistedCertificate"
        else:
            ut = "NotUniversallyTight"
        convex = not disk
    return {"valid": True, "essential": essential, "universal_tightness": ut,
            "convex_neighborhood_tight": convex, "euler": euler}


def _random_valid(rng: random.Random, style: str) -> Decomposition:
    if style == "sphere":  # a tree of genus-0 pieces glues to a sphere
        k = rng.randint(2, 5)
        return build_decomposition(random_tree_edges(rng, k), [0] * k, rng)
    if style == "closed":  # the empty multicurve
        return Decomposition([(rng.randint(0, 3), 0)], [])
    k = rng.randint(1, 5)
    edges = random_tree_edges(rng, k) + [tuple(sorted((rng.randrange(k), rng.randrange(k))))
                                         for _ in range(rng.randint(1, 2))]
    genera = [rng.randint(0, 2) for _ in range(k)]
    deg = [sum((a == i) + (b == i) for a, b in edges) for i in range(k)]
    for i in range(k):
        if style == "no_disk" and deg[i] == 1 and genera[i] == 0:
            genera[i] = 1
    if style == "disk":
        leaf = [i for i in range(k) if deg[i] == 1]
        if not leaf:  # hang a disk off piece 0
            edges.append((0, k))
            genera.append(0)
            leaf = [k]
        genera[leaf[0]] = 0
    return build_decomposition(edges, genera, rng)


def _malformed(dec: Decomposition, how: str) -> str:
    lines = dec.text().splitlines()
    if how == "missing_chi":
        lines[0] = "surface sphere=false"
    elif how == "bad_chi":
        lines[0] = "surface chi=x sphere=false"
    elif how == "bad_genus":
        lines[1] = lines[1].replace("genus=", "genus=x", 1)
    elif how == "genus_without_value":
        parts = lines[1].split()
        parts[2] = "genus"
        lines[1] = " ".join(parts)
    elif how == "euler_mismatch":
        lines[0] = f"surface chi={dec.chi - 2} sphere=false"
    elif how == "sphere_flag":
        lines[0] = f"surface chi={dec.chi} sphere={'false' if dec.chi == 2 else 'true'}"
    elif how == "slot_reuse":
        last = lines[-1].split()
        last[3] = last[2]
        lines[-1] = " ".join(last)
    elif how == "missing_slot":
        last = lines[-1].split()
        last[3] = last[3].split(".")[0] + ".9"
        lines[-1] = " ".join(last)
    elif how == "unknown_directive":
        lines.append("edge e0 P0.0 P0.1")
    elif how == "unknown_piece":
        last = lines[-1].split()
        last[2] = "Q9.0"
        lines[-1] = " ".join(last)
    elif how == "missing_surface":
        lines = lines[1:]
    elif how == "duplicate_piece":
        lines.insert(2, lines[1])
    else:
        raise ValueError(how)
    return "\n".join(lines) + "\n"


MALFORMED = ("missing_chi", "bad_chi", "bad_genus", "genus_without_value")
INVALID = ("euler_mismatch", "sphere_flag", "slot_reuse", "missing_slot",
           "unknown_directive", "unknown_piece", "missing_surface", "duplicate_piece")


def _dec_request(workdir: Path, rel: Path, name: str, text: str, kind: str, expect: dict,
                 euler: int = 0, compare: str = None) -> dict:
    (workdir / name).write_text(text, encoding="utf-8")
    argv = ["multicurve", "--file", str(rel / name), "--euler", str(euler)]
    if compare is not None:
        argv += ["--compare", str(rel / compare)]
    return {"id": " ".join(argv), "kind": kind, "argv": argv, "expect": expect}


def _counting(rng: random.Random, workdir: Path, rel: Path) -> List[Kind]:
    classify = _classify_pool(rng, 30)
    covers1 = [_covers(1, n) for n in range(1, 13)]
    covers2 = [_covers(2, n) for n in range(1, 13)]
    rng.shuffle(covers1)
    rng.shuffle(covers2)

    valid = []
    styles = ["no_disk", "no_disk", "disk", "disk", "sphere", "sphere", "closed", "no_disk"]
    for i in range(16):
        dec = _random_valid(rng, styles[i % len(styles)])
        euler = rng.randint(-3, 3)
        valid.append(_dec_request(workdir, rel, f"valid-{i}.dec", dec.text(),
                                  "multicurve", tightness_expectation(dec, euler), euler))

    def compare_pair(i: int, dec: Decomposition, other: Decomposition, equal: bool, kind: str):
        euler = rng.randint(-3, 3)
        (workdir / f"{kind}-{i}-b.dec").write_text(other.text(), encoding="utf-8")
        expect = dict(tightness_expectation(dec, euler), isotopy_equal=equal)
        return _dec_request(workdir, rel, f"{kind}-{i}-a.dec", dec.text(), kind, expect,
                            euler, compare=f"{kind}-{i}-b.dec")

    small = []
    for i in range(8):
        dec = _random_valid(rng, "no_disk" if i % 2 else "disk")
        if i % 2:
            small.append(compare_pair(i, dec, dec.relabeled(rng), True, "compare"))
        else:
            other = _random_valid(rng, "no_disk")  # has no disk piece, so not isomorphic
            small.append(compare_pair(i, dec, other, False, "compare"))

    def relabel_pool(k: int, size: int) -> List[dict]:
        """Pairs of k like-labelled pieces: the canonical form tries k! orders."""
        pool = []
        for i in range(size):
            dec = build_decomposition(regular_multigraph(rng, k, 4), [0] * k, rng)
            if i % 2 == 0:
                pool.append(compare_pair(i, dec, dec.relabeled(rng), True, f"relabel{k}"))
                continue
            while True:  # a different loop count is an isomorphism invariant
                other = build_decomposition(regular_multigraph(rng, k, 4), [0] * k, rng)
                if other.loops() != dec.loops():
                    break
            pool.append(compare_pair(i, dec, other, False, f"relabel{k}"))
        return pool

    def broken(kinds: Sequence[str], label: str) -> List[dict]:
        out = []
        for i, how in enumerate(kinds):
            dec = _random_valid(rng, "no_disk")
            while len(dec.curves) == 0:
                dec = _random_valid(rng, "no_disk")
            out.append(_dec_request(workdir, rel, f"{label}-{i}.dec", _malformed(dec, how),
                                    label, {"invalid": how}))
        return out

    malformed = broken(MALFORMED, "malformed")
    invalid = broken(INVALID, "invalid")
    return [
        Kind("classify", len(classify), pooled(classify)),
        Kind("covers:g1", 6, pooled(covers1)),
        Kind("covers:g2", 12, pooled(covers2)),
        Kind("multicurve", len(valid), pooled(valid)),
        Kind("compare", len(small), pooled(small)),
        Kind("relabel:k6", 1, pooled(relabel_pool(6, 2))),
        Kind("relabel:k7", 6, pooled(relabel_pool(7, 6))),
        Kind("relabel:k8", 1, pooled(relabel_pool(8, 2))),
        Kind("malformed", len(malformed), pooled(malformed)),
        Kind("invalid", len(invalid), pooled(invalid)),
    ]
