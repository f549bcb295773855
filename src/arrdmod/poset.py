"""Intersection poset of an arrangement: flats, closures, Hasse diagram.

A flat is a nonempty intersection of hyperplanes (the ambient space included,
as the empty intersection).  Every flat is pinned down by its closure set,
the full set of hyperplane indices containing it, so flats are keyed, ordered
and deduplicated purely on those integer sets; order is reverse inclusion of
point sets, which on closure sets is plain inclusion.

The poset is graded by codimension (Orlik-Terao, *Arrangements of
Hyperplanes*, 1.3 and 2.1).  For a flat F and a hyperplane H not containing
it, F n H is empty (H parallel to F) or a flat of one dimension less, which
covers F; every cover of F arises this way.  A second such hyperplane H'
contains F n H exactly when H and H' restrict to proportional affine
functionals on F.  Enumeration therefore needs no closure tests: grouping
the restrictions to F yields F's covers and their closure sets at once.

Hyperplane indices are 1-based throughout, matching report output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from arrdmod import _kernel
from arrdmod.arrangement import Arrangement, check_enum_limit
from arrdmod.errors import PreconditionError
from arrdmod.exactla import AffineSubspace

@dataclass(frozen=True)
class Flat:
    """A flat with its closure set, canonical subspace and codimension."""

    closure_set: tuple[int, ...]
    subspace: AffineSubspace
    codim: int

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def label(self) -> str:
        return "{" + ",".join(str(i) for i in self.closure_set) + "}"


@dataclass(frozen=True)
class IntersectionPoset:
    """All flats sorted by (codim, closure set), plus Hasse cover edges.

    ``cover_relations`` holds index pairs ``(lower, upper)`` into ``flats``
    with ``flats[lower]`` covered by ``flats[upper]`` (the upper flat is the
    smaller point set).
    """

    ambient_dim: int
    flats: tuple[Flat, ...]
    cover_relations: tuple[tuple[int, int], ...]

    @property
    def closure_sets(self) -> set[tuple[int, ...]]:
        return {f.closure_set for f in self.flats}


def closure(arr: Arrangement, indices: Iterable[int]) -> tuple[int, ...]:
    """All hyperplane indices containing the intersection over ``indices``.

    Extensive, monotone and idempotent; raises when the named hyperplanes
    have an empty intersection (the closure of nothing is not a flat).
    """
    subset = sorted(set(indices))
    sub = AffineSubspace.from_rows(arr.equation_rows(subset), arr.dim)
    if sub.is_empty:
        raise PreconditionError(
            f"hyperplanes {{{','.join(map(str, subset))}}} have empty intersection"
        )
    return tuple(i for i, h in enumerate(arr.hyperplanes, start=1) if h.contains(sub))


def enumerate_flats(arr: Arrangement, limit: int | None = None) -> IntersectionPoset:
    """Enumerate all flats and their cover edges by restricting hyperplanes.

    A worklist starts from the ambient flat.  For a popped flat F, every
    hyperplane outside F's closure set is restricted to F in integer affine
    coordinates (:meth:`AffineSubspace.restrict`).  Restrictions with zero
    linear part belong to hyperplanes parallel to F and are skipped.  The
    rest are grouped by their primitive, sign-normalised integer vector:
    each group is one flat G covering F, with closure set cl(F) plus the
    group, and (F, G) is recorded as a cover edge whether or not G was seen
    before.  Only a new G costs a row reduction, and a point is covered by
    no flat.  Every flat is reached, since the poset is graded and each flat
    lies on a chain of covers from the ambient space.
    """
    check_enum_limit(arr.m, limit)
    ambient = Flat((), AffineSubspace.ambient(arr.dim), 0)
    found: dict[tuple[int, ...], Flat] = {(): ambient}
    edges: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    queue = [ambient]
    while queue:
        flat = queue.pop()
        sub = flat.subspace
        if sub.dim == 0:
            continue
        inside = set(flat.closure_set)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, h in enumerate(arr.hyperplanes, start=1):
            if i in inside:
                continue
            row = _kernel.primitive_key(sub.restrict(h.normal, h.constant))
            if row is not None:
                groups.setdefault(row, []).append(i)
        for members in groups.values():
            key = tuple(sorted(inside.union(members)))
            if key not in found:
                h = arr.hyperplanes[members[0] - 1]
                child = sub.intersect_rows([h.equation_row()])
                found[key] = Flat(key, child, child.codim)
                queue.append(found[key])
            edges.append((flat.closure_set, key))
    flats = tuple(sorted(found.values(), key=lambda f: (f.codim, f.closure_set)))
    index = {f.closure_set: k for k, f in enumerate(flats)}
    covers = tuple(sorted((index[lo], index[up]) for lo, up in edges))
    return IntersectionPoset(arr.dim, flats, covers)


def hasse_dot(poset: IntersectionPoset) -> str:
    """Graphviz digraph of the Hasse diagram, byte-stable for equal posets.

    Nodes are labelled by closure sets; edges point from a flat to the flats
    covering it, so with ``rankdir=BT`` the ambient space sits at the bottom.
    """
    lines = ["digraph intersection_poset {", "  rankdir=BT;"]
    for idx, flat in enumerate(poset.flats):
        lines.append(f'  n{idx} [label="{flat.label()}"];')
    for lower, upper in poset.cover_relations:
        lines.append(f"  n{lower} -> n{upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"
