"""Branch parameters from the normalized points: the test oracle of
``hyperfermat.branch_points``.

The Moebius map is built from the normalized Gaussian-rational rows Q_i of
``intersection_points``, and two parameters collide when ``same_point`` says
so, for each of the C(n+1, 2) pairs.  ``branch_points`` reaches the same
points from the line's integer kernel and reduced integer pairs; the
tests compare the two point by point.
"""

import itertools

from eag import hyperfermat as hf
from eag.cx import Mobius, ProjPoint, cross_det
from eag.errors import PreconditionError


def branch_points_by_rows(line, pins) -> hf.BranchSet:
    """The BranchSet of ``hf.branch_points(line, pins)``, up to the
    representative of each projective point, and the same
    PreconditionError where it raises one."""
    if len(pins) != 3:
        raise PreconditionError("exactly three pin values are required")
    pin_pts = tuple(hf.as_proj_point(x) for x in pins)
    for a, b in itertools.combinations(pin_pts, 2):
        if a.same_point(b):
            raise PreconditionError("pin values must be pairwise distinct")
    q = hf.intersection_points(line)
    c2 = q[2][1] / q[0][1]
    d2 = q[2][0] / q[1][0]
    src = (ProjPoint.infinity(), ProjPoint.finite(0), ProjPoint(c2, d2))
    mob = Mobius.through(src, pin_pts)
    pts = list(pin_pts)
    for i in range(3, line.n + 1):
        pts.append(mob.apply(ProjPoint(q[1][i], -1 * q[0][i])))
    for a, b in itertools.combinations(pts, 2):
        if a.same_point(b):
            raise PreconditionError("branch parameters collide; data is degenerate")
    p0, p1, p2 = pin_pts
    u1 = ProjPoint(c2 * cross_det(p0, p2) * p1.den,
                   d2 * cross_det(p2, p1) * p0.den)
    return hf.BranchSet(tuple(pts), u1)
