"""Checks that only the tests use: each restates a fact the package proves
another way, so it lives here rather than in the library."""

from intrinsiclinks.errors import GeneralPositionViolation
from intrinsiclinks.geometry import Point3, Segment3, Triangle3, gp_points3
from intrinsiclinks.graphs import Cycle
from intrinsiclinks.linking import higher_central
from intrinsiclinks.projection import ProjectedDiagram, crossing_parities
from intrinsiclinks.rng import SplitMix64


def check_unique_higher_side(apex_triangle: Triangle3, e: Segment3, other: Triangle3) -> bool:
    """From the vertex of `apex_triangle` opposite side `e`, is exactly one
    side of `other` in front of `e`?

    An affirmative answer certifies that `apex_triangle` and `other` are
    linked: the sides of `other` in front of `e` correspond one to one with
    the points where `other` crosses conv(apex_triangle).
    """
    verts = set(apex_triangle.vertices())
    if e.p not in verts or e.q not in verts:
        raise ValueError("e must be a side of apex_triangle")
    rest = [v for v in apex_triangle.vertices() if v not in (e.p, e.q)]
    if len(rest) != 1:
        raise ValueError("e must span exactly two vertices of apex_triangle")
    apex = rest[0]
    six = list(apex_triangle.vertices()) + list(other.vertices())
    if not gp_points3(six):
        raise GeneralPositionViolation("the six vertices are not in general position")
    count = sum(1 for side in other.sides() if higher_central(apex, side, e))
    return count == 1


def check_crossing_parity_identity(
    diag: ProjectedDiagram, cycle1: Cycle, cycle2: Cycle
) -> bool:
    """True when both front-strand parities agree and the total crossing
    count between the cycles is even."""
    over1, over2, total = crossing_parities(diag, cycle1, cycle2)
    return over1 == over2 and total == 0


def seeded_apexes(rng: SplitMix64, count: int = 3) -> list[Point3]:
    """`count` integer apexes drawn from [-8, 8]^3, none of them certified:
    cone counting must give the exact answer from each."""
    return [Point3(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(count)]
