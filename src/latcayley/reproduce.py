"""Reproductions of the two documented counterexample families.

``example_2_4``: a pair of segments whose dilates are never jointly IDP, so
the Cayley sum of the dilates is not IDP either.  ``example_1_9``: a pair of
segments whose Minkowski sum is level of index 1 while their Cayley sum is
not level.  Each reproduction re-derives every claimed fact with the exact
deciders and reports any deviation as a violation.
"""

from __future__ import annotations

import math

from .campaigns import CampaignReport, Violation
from .geometry import GeometryError
from .polytope import (
    cayley_sum,
    dilate,
    from_vertices,
    lattice_points,
    minkowski_sum,
)
from .properties import (
    Verdict,
    is_idp,
    is_tuple_idp,
    level_status,
    point_set_sum,
)

EXAMPLE_NAMES = ("example_1_9", "example_2_4")


def _report(name: str, params: tuple[int, int], violations, notes) -> CampaignReport:
    """A reproduction is no sampled campaign, so it has no config; its params
    lead the notes."""
    return CampaignReport(
        theorem_id=name,
        trials_run=1,
        violations=tuple(violations),
        config=None,
        notes=(f"params {params}",) + tuple(notes),
    )


def _example_2_4(n1: int, n2: int) -> CampaignReport:
    P1 = from_vertices([(0, 0), (1, 2)])
    P2 = from_vertices([(0, 0), (1, 0)])
    Q1, Q2 = dilate(P1, n1), dilate(P2, n2)
    violations: list[Violation] = []
    notes: list[str] = []
    inputs = (Q1.vertices, Q2.vertices)

    mink_pts = lattice_points(minkowski_sum([Q1, Q2]))
    if (1, 1) not in mink_pts:
        violations.append(Violation(0, inputs, "(1,1) missing from the Minkowski sum"))
    summed = point_set_sum(lattice_points(Q1), lattice_points(Q2))
    if (1, 1) in summed:
        violations.append(Violation(0, inputs, "(1,1) unexpectedly decomposes"))

    tup = is_tuple_idp([Q1, Q2])
    if tup.verdict is not Verdict.FAILS:
        violations.append(Violation(0, inputs, "dilated pair unexpectedly IDP", tup))
    else:
        notes.append(f"tuple witness: subset {tup.witness[0]}, point {tup.witness[1]}")

    cay = is_idp(cayley_sum([Q1, Q2]))
    if cay.verdict is not Verdict.FAILS:
        violations.append(Violation(0, inputs, "Cayley sum of dilates unexpectedly IDP", cay))
    else:
        notes.append(f"Cayley IDP witness: degree {cay.witness[0]}, point {cay.witness[1]}")
    return _report("example_2_4", (n1, n2), violations, notes)


def _example_1_9(h: int, n: int) -> CampaignReport:
    P1 = from_vertices([(1, 0), (0, 1)])
    P2 = from_vertices([(1, 1), (-h, -n * h)])
    violations: list[Violation] = []
    notes: list[str] = []
    inputs = (P1.vertices, P2.vertices)

    M = minkowski_sum([P1, P2])
    repM = level_status(M)
    r = repM.degrees_checked[0]
    if r != 1:
        violations.append(Violation(0, inputs, f"Minkowski sum level index {r}, expected 1"))
    if repM.verdict is Verdict.FAILS:
        violations.append(Violation(0, inputs, "Minkowski sum not level", repM))
    else:
        notes.append(f"Minkowski sum level verified to horizon {repM.horizon_used}")

    C = cayley_sum([P1, P2])
    repC = level_status(C)
    if repC.verdict is not Verdict.FAILS:
        # Sweeping h, n <= 3 shows failures exactly when the second segment
        # is non-primitive; its lattice length is gcd(1+h, 1+nh).
        seg_len = math.gcd(1 + h, 1 + n * h)
        if seg_len == 1:
            note = (
                f"no level violation for the Cayley sum up to horizon {repC.horizon_used}; "
                "the second segment is primitive (lattice length 1), and the "
                "observed failing members all have lattice length >= 2"
            )
        else:
            note = (
                f"no level violation for the Cayley sum up to horizon {repC.horizon_used}; "
                "widen the search"
            )
        violations.append(Violation(0, inputs, note))
    else:
        notes.append(
            f"Cayley sum level fails at degree {repC.witness[0]} with point {repC.witness[1]}"
        )
    return _report("example_1_9", (h, n), violations, notes)


def reproduce_example(name: str, params: tuple[int, int] | None = None) -> CampaignReport:
    """Re-derive one documented counterexample; params default to (1, 1)."""
    if name not in EXAMPLE_NAMES:
        raise GeometryError(
            f"unknown example {name!r}; valid names: {', '.join(EXAMPLE_NAMES)}"
        )
    params = params if params is not None else (1, 1)
    if len(params) != 2 or not all(type(x) is int and x >= 1 for x in params):
        raise GeometryError(f"example parameters must be two positive integers, got {params!r}")
    a, b = params
    if name == "example_2_4":
        return _example_2_4(a, b)
    return _example_1_9(a, b)
