"""Transport of polynomial families along morphisms of ranked instances.

A morphism is an integer matrix on coordinates (``Morphism``), applied by
``apply_morphism`` and checked on a window by ``check_morphism``.  Three
moves make new families from old, mirroring how counting problems are
rearranged: ``pushforward`` sums each fiber, ``pullback`` restricts along
the map, and ``multiply`` takes entrywise products.  Chaining two families
into one on base[T][U] is ``multiply`` of two pullbacks along coordinate
projections: (..., t, u) -> (..., t) and (..., t, u) -> (..., u) when the
two share a base, (..., t, u) -> (..., t) and (..., t, u) -> (t, u) when
the middle coordinate is the second family's rank.

No command runs this layer, so no command loads this module.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence

from .arith import divisors
from .qgauss import PolyFamily
from .qpoly import ZERO
from .semigroup import (
    Chain,
    FamilyReport,
    FreeRanked,
    Record,
    Window,
    _SemigroupBase,
    strict_int,
)


class WindowBoundaryWarning(UserWarning):
    """A pushforward read mass from the edge of its source window.

    Fibers are enumerated inside the declared window, so contributions at
    the boundary suggest the window may be cutting a fiber short.  Widening
    the bounds past the support silences this.
    """


class Morphism(Record):
    """An additive map between instances: an integer matrix applied to the
    coordinate tuple (rows indexed by target coordinates).

    Linear maps with no constant term are exactly the additive ones
    expressible on coordinates.  That covers the rank map (the row of bead
    lengths on a free instance, the first coordinate elsewhere),
    projections, permutations, reindexings like (n, k) -> (n, k, n-k), and
    bead label maps (0/1 columns).  Any iterable of integer rows is
    accepted and stored as a tuple of tuples: one row per target
    coordinate, one entry per source coordinate.
    """

    source: _SemigroupBase
    target: _SemigroupBase
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(self.matrix) if isinstance(self.matrix, Iterable) else ()
        if not all(isinstance(row, Sequence) for row in rows):
            raise ValueError("Morphism: each matrix row must be a sequence")
        rows = tuple(tuple(strict_int(c, "Morphism: matrix entry") for c in row) for row in rows)
        if not rows:
            raise ValueError("Morphism: needs a matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("Morphism: ragged matrix")
        if len(rows[0]) != len(self.source.row):
            raise ValueError("Morphism: matrix width does not match source arity")
        if len(rows) != len(self.target.row):
            raise ValueError("Morphism: matrix height does not match target arity")
        object.__setattr__(self, "matrix", rows)


def apply_morphism(m: Morphism, s):
    m.source.validate(s)
    xs = m.source.coords(s)
    ys = tuple(sum(c * x for c, x in zip(row, xs)) for row in m.matrix)
    out = m.target._build(ys)
    if out is None:
        raise ValueError(f"apply_morphism: image {ys} of {s} is not a valid element")
    return out


def check_morphism(m: Morphism, kind: str, window: Window) -> FamilyReport:
    """Verify morphism health on a window.

    kind is "rank-dividing" (rank of the image divides the rank) or
    "rank-multiplying" (rank divides the image rank).  For rank-multiplying
    maps the root bijection condition needed for pullbacks is checked: for
    every s and d | rank(s), s has a root by d exactly when its image has.
    Additivity needs no check: the image of a coordinate sum under an
    integer matrix is the sum of the images.  Per element s, in window
    order: its image and rank direction (divisor None), then its roots
    (divisor d).
    """
    if kind not in ("rank-dividing", "rank-multiplying"):
        raise ValueError(f"check_morphism: unknown kind {kind!r}")
    source, target = m.source, m.target

    def checks():
        for s in source.elements(window):
            try:
                phi_s = apply_morphism(m, s)
            except ValueError as exc:
                yield s, None, f"image of {s}: {exc}"
                continue
            rs, rp = source.rank(s), target.rank(phi_s)
            if kind == "rank-dividing":
                detail = f"rank {rp} of image of {s} does not divide rank {rs}"
                yield s, None, detail if rs % rp else None
                continue
            detail = f"rank {rs} of {s} does not divide image rank {rp}"
            yield s, None, detail if rp % rs else None
            rooted = {d for _, d in source.unit_divisors(s)}  # the d with a root s/d
            for d in divisors(rs):
                same = (d in rooted) == (target.nth_root(phi_s, d) is not None)
                yield s, d, None if same else f"root sets of {s} and its image differ at d={d}"

    return FamilyReport.collect(checks())


def _fiber_directions(m: Morphism) -> set[int]:
    """Source coordinates along which a fiber of the morphism can move.

    These are the coordinates carrying a nonzero entry in some kernel
    vector of the coordinate matrix; window edges only threaten fiber
    completeness in those directions.
    """
    width = len(m.matrix[0])
    mat = [list(row) for row in m.matrix]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                # fraction-free: scaling row i by pv != 0 keeps its zero pattern
                f = mat[i][c]
                mat[i] = [pv * a - f * b for a, b in zip(mat[i], mat[r])]
        pivots[c] = r
        r += 1
    moving: set[int] = set()
    for fc in (c for c in range(width) if c not in pivots):
        moving.add(fc)
        for c, pr in pivots.items():
            if mat[pr][fc]:
                moving.add(c)
    return moving


def _boundary_contact(
    inst: _SemigroupBase, window: Window, s, moving: set[int]
) -> bool:
    """True when s sits on a window edge along a fiber direction."""
    if isinstance(inst, Chain):
        bounds = inst.resolve_bounds(window)
        coords = inst.coords(s)
        return any(
            i + 1 in moving and coords[i + 1] in pair
            for i, pair in enumerate(bounds)
        )
    if isinstance(inst, FreeRanked):
        return (
            bool(moving)
            and window.max_total is not None
            and inst.size(s) >= window.max_total
        )
    return False


def pushforward(F: PolyFamily, m: Morphism, target_window: Window) -> PolyFamily:
    """Sum each fiber of the morphism into a family on the target window.

    Fibers are enumerated inside F's window; it is the caller's job to make
    the window contain every contributing preimage.  A nonzero contribution
    sitting on a window edge along a direction the fiber moves in triggers
    a WindowBoundaryWarning, as does a contribution whose rank differs from
    its image's rank (fibers of such maps are not exhausted by any single
    max_rank).
    """
    if m.source != F.instance:
        raise ValueError("pushforward: family instance does not match morphism source")
    target = m.target
    moving = _fiber_directions(m)
    sums: dict = {}
    edge = None
    rank_jump = None
    for s, p in F.polys:
        t = apply_morphism(m, s)
        sums[t] = sums.get(t, ZERO) + p
        if p:
            if edge is None and _boundary_contact(F.instance, F.window, s, moving):
                edge = s
            if rank_jump is None and F.instance.rank(s) != target.rank(t):
                rank_jump = s
    if edge is not None:
        warnings.warn(
            f"pushforward support touches the source window edge at {edge!r}",
            WindowBoundaryWarning,
            stacklevel=2,
        )
    if rank_jump is not None:
        warnings.warn(
            f"pushforward does not preserve rank at {rank_jump!r}; "
            "fibers may extend beyond the window",
            WindowBoundaryWarning,
            stacklevel=2,
        )
    return PolyFamily.from_function(
        target, target_window, lambda t: sums.get(t, ZERO)
    )


def pullback(G: PolyFamily, m: Morphism, source_window: Window) -> PolyFamily:
    """Restrict a target family along the morphism: f_s = g at the image of s."""
    if m.target != G.instance:
        raise ValueError("pullback: family instance does not match morphism target")
    lookup = G.as_dict()

    def build(s):
        t = apply_morphism(m, s)
        if t not in lookup:
            raise ValueError(
                f"pullback image {t!r} of {s!r} is outside the family window"
            )
        return lookup[t]

    return PolyFamily.from_function(m.source, source_window, build)


def multiply(F: PolyFamily, G: PolyFamily) -> PolyFamily:
    """Entrywise product of two families on the same torsion-free window."""
    if F.instance != G.instance or F.window != G.window:
        raise ValueError("multiply needs families on the same instance/window")
    g = G.as_dict()
    pairs = tuple((s, p * g[s]) for s, p in F.polys)
    return PolyFamily(F.instance, F.window, pairs)
