"""Reference for the tests of `multicurve`: crossings of straight curves on
the flat torus, counted on the integer lattice, and a decomposition written
as the text that `parse_decomposition` reads."""

from fractions import Fraction

from contactbundles import multicurve as mc


def lattice_crossing_count(a: mc.TorusCurve, b: mc.TorusCurve) -> int:
    """Straight-representative crossing count on the flat torus.

    The two lines t*(p, q) and s*(p', q') + delta meet once for each integer
    vector (m, k) making the 2x2 system solvable inside the unit box; a
    generic rational offset delta avoids boundary coincidences.  Straight
    representatives of distinct slopes are in minimal position.
    """
    det = a.p * b.q - a.q * b.p
    if det == 0:
        return 0
    d1, d2 = Fraction(1, 37), Fraction(1, 53)
    count = 0
    pmax = abs(a.p) + abs(b.p) + 1
    qmax = abs(a.q) + abs(b.q) + 1
    for m in range(-pmax, pmax + 1):
        for k in range(-qmax, qmax + 1):
            rhs1, rhs2 = d1 + m, d2 + k
            # t*a.p - s*b.p = rhs1 ; t*a.q - s*b.q = rhs2
            t = Fraction(rhs1 * (-b.q) - (-b.p) * rhs2, -det)
            s = Fraction(a.p * rhs2 - a.q * rhs1, -det)
            if 0 <= t < 1 and 0 <= s < 1:
                count += 1
    return count


def format_decomposition(dec: mc.SurfaceDecomposition) -> str:
    lines = [f"surface chi={dec.ambient_chiS} sphere={'true' if dec.ambient_sphere else 'false'}"]
    for i, (g, b) in enumerate(dec.pieces):
        lines.append(f"piece P{i} genus={g} boundaries={b}")
    for k, ((ia, sa), (ib, sb)) in enumerate(dec.curves):
        lines.append(f"curve c{k} P{ia}.{sa} P{ib}.{sb}")
    return "\n".join(lines) + "\n"
