"""Classification of singular-locus components into the three generic types.

Every Bruhat-maximal singular point v of a Schubert variety X_w falls into
exactly one family, recognized here from three integers and one frame test:

* codimension d = length(w) - length(v),
* excess e = m(w, v) - length(w) (tangent count minus cell dimension),
* the support S = {i : v(i) != w(i)} of the moved positions.

``4231`` type: the first moved position carries the largest moved value of
w.  Then d = l + m + 1 and e = l.m for integers l, m >= 1, recovered as the
roots of x^2 - (d-1)x + e; the transversal slice is a cone of rank-one
(l+1) x (m+1) matrices.

``3412*`` type (a point of the frame sits inside the central square):
e = 1, d = 2l + 3; the slice is a quadric cone of dimension 2l + 3.

``3412empty`` type (empty central square): e = d - 2 with aggregate
l + m = d - 3; only the sum of the two side counts is determined by (d, e),
and the slice is a cone of rank-one 2 x (l+m+2) matrices.

The signature (d, e) = (3, 1) is claimed by both the smallest 4231 type and
the smallest 3412* type; the frame test decides, and nothing downstream can
tell the difference (a 2 x 2 rank-one cone is the same variety as a
3-dimensional quadric cone).  Any arithmetic that fails to come out exact
raises :class:`ClassificationError`; the slice builder cross-checks the
outcome structurally, so a wrong branch cannot survive the test sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .perms import Permutation, length
from .tangent import singular_components, tangent_dimension

__all__ = [
    "TYPE_4231",
    "TYPE_3412_STAR",
    "TYPE_3412_EMPTY",
    "ClassificationError",
    "Component",
    "classify_component",
    "enumerate_components",
    "verify_formulas",
]

TYPE_4231 = "4231"
TYPE_3412_STAR = "3412*"
TYPE_3412_EMPTY = "3412empty"


class ClassificationError(RuntimeError):
    """A maximal singular point did not fit any of the three generic types."""


@dataclass(frozen=True)
class Component:
    """One component of the singular locus of X_w, labelled by its type.

    ``l`` and ``m`` are the side counts of the generic cone.  For the two
    3412 types only one number is meaningful and ``m`` is None: the 3412*
    slice depends on l alone, and for 3412empty ``l`` stores the aggregate
    l + m (the individual split is not determined by the invariants).
    """

    v: Permutation
    ctype: str
    l: int
    m: int | None
    codim: int
    excess: int


def classify_component(v: Permutation, w: Permutation) -> Component:
    """Classify a Bruhat-maximal singular point v of X_w.

    The caller is expected to pass a component (an element of
    :func:`schubsing.tangent.singular_components`); anything else either
    raises :class:`ClassificationError` or fails the downstream structural
    checks.
    """
    report = tangent_dimension(v, w)
    lw = length(w)
    d = lw - length(v)
    e = report.dim - lw
    if e <= 0:
        raise ClassificationError(
            f"v={v.values} is a smooth point of X_{{{w.values}}} (excess {e})"
        )
    moved = [i for i in range(1, w.n + 1) if v(i) != w(i)]
    if not moved:
        raise ClassificationError("v equals w; nothing to classify")

    if w(moved[0]) == max(w(i) for i in moved):
        # 4231 frame: l, m are the roots of x^2 - (d-1)x + e.
        disc = (d - 1) * (d - 1) - 4 * e
        root = isqrt(disc) if disc >= 0 else -1
        if root < 0 or root * root != disc or (d - 1 - root) % 2:
            raise ClassificationError(
                f"4231 frame with non-integral side counts: d={d}, e={e}"
            )
        l = (d - 1 - root) // 2
        m = (d - 1 + root) // 2
        if l < 1:
            raise ClassificationError(
                f"4231 frame needs side counts >= 1, got l={l}, m={m}"
            )
        ctype, mm = TYPE_4231, m
    elif e == 1:
        if d < 3 or (d - 3) % 2:
            raise ClassificationError(f"3412* frame with bad codimension d={d}")
        l = (d - 3) // 2
        ctype, mm = TYPE_3412_STAR, None
    else:
        if e != d - 2:
            raise ClassificationError(
                f"3412empty frame needs e = d - 2, got d={d}, e={e}"
            )
        l = d - 3  # aggregate l + m
        ctype, mm = TYPE_3412_EMPTY, None

    return Component(v=v, ctype=ctype, l=l, m=mm, codim=d, excess=e)


def enumerate_components(w: Permutation) -> list[Component]:
    """All classified components of Sing(X_w), sorted by one-line notation of v."""
    vs = sorted(singular_components(w), key=lambda u: u.values)
    return [classify_component(v, w) for v in vs]


def verify_formulas(c: Component, w: Permutation) -> bool:
    """Check both closed expressions for the tangent dimension against the count.

    Each type predicts m(w, v) twice, once from length(w) and once from
    length(v); both must match the transposition count exactly.
    """
    dim = tangent_dimension(c.v, w).dim
    lw = length(w)
    lv = length(c.v)
    if c.ctype == TYPE_4231:
        assert c.m is not None
        return (
            lw - lv == c.l + c.m + 1
            and dim == lw + c.l * c.m
            and dim == lv + (c.l + 1) * (c.m + 1)
        )
    if c.ctype == TYPE_3412_STAR:
        return (
            lw - lv == 2 * c.l + 3
            and dim == lw + 1
            and dim == lv + 2 * c.l + 4
        )
    if c.ctype == TYPE_3412_EMPTY:
        agg = c.l
        return (
            lw - lv == agg + 3
            and dim == lw + agg + 1
            and dim == lv + 2 * (agg + 2)
        )
    raise ValueError(f"unknown component type {c.ctype!r}")
