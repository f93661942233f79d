"""Graph bundles (trivial products and single-cut monodromy bundles over a
circle base) and skew-product systems with the fibre-preserving contract:
the base coordinate of the image is always the base map of the base
coordinate, by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .base_systems import BasePoint, BaseSystem, LazyPoints
from .errors import WrongInput
from .graphs import GraphMap, GraphPoint, MetricGraph, eval_et, eval_graph_map


@dataclass(frozen=True)
class Bundle:
    """Fibre bundle descriptor: trivial unless a gluing map is present.

    A monodromy bundle lives over a circle base with one cut at angle 0;
    crossing the cut forward applies ``gluing`` to the fibre coordinate,
    crossing backward applies ``gluing_inverse``.
    """

    fibre: MetricGraph
    gluing: Optional[GraphMap] = None
    gluing_inverse: Optional[GraphMap] = None

    @property
    def is_monodromy(self) -> bool:
        return self.gluing is not None


@dataclass(frozen=True)
class BundlePoint:
    b: BasePoint
    y: GraphPoint


@dataclass(frozen=True)
class SkewSystem:
    """Skew product: base system, bundle, and a fibre-map family indexed by
    the base embedding of the image: the fibre over b maps by
    ``image_family(base.embedding(base.apply(b)))``, so an orbit that has
    already taken and embedded the base step need not do either again.

    ``reference`` holds the named values of the construction that the
    command line and the tests read (orbit seed, exceptional base point, ...).
    """

    base: BaseSystem
    bundle: Bundle
    image_family: Callable[[float], GraphMap]
    reference: dict = field(default_factory=dict, compare=False)
    id: str = "skew"

    def fibre_family(self, b: BasePoint) -> GraphMap:
        """The fibre map over b."""
        return self.image_family(float(self.base.embedding(self.base.apply(b))))


def _check_round_trip(fibre: MetricGraph, g: GraphMap, ginv: GraphMap) -> None:
    for e in fibre.edges:
        for i in range(9):
            p = GraphPoint(e.id, i / 8.0)
            q = eval_graph_map(ginv, eval_graph_map(g, p))
            if fibre.path_distance(p, q) > 1e-9:
                raise WrongInput(f"gluing round trip off by {fibre.path_distance(p, q):.2e} at {p}")


def monodromy_bundle(
    base: BaseSystem, fibre: MetricGraph, gluing: GraphMap, gluing_inverse: GraphMap
) -> Bundle:
    if not base.circular:
        raise WrongInput("monodromy bundles are supported over circle bases only")
    _check_round_trip(fibre, gluing, gluing_inverse)
    _check_round_trip(fibre, gluing_inverse, gluing)
    return Bundle(fibre=fibre, gluing=gluing, gluing_inverse=gluing_inverse)


def apply_skew(s: SkewSystem, x: BundlePoint) -> BundlePoint:
    """One step of the skew product, with chart transition on base wrap: the
    step of the test oracles ``orbit`` and ``mobius_boundary_circle_map``,
    kept also because ``perfbench/tracer.py`` times it by name (until ROADMAP
    item 1b)."""
    b2 = s.base.apply(x.b)
    e2 = float(s.base.embedding(b2))
    y2 = eval_graph_map(s.image_family(e2), x.y)
    # wrap detection: the rotation decreased the angle value
    if s.bundle.is_monodromy and e2 < float(s.base.embedding(x.b)):
        y2 = eval_graph_map(s.bundle.gluing, y2)
    return BundlePoint(b2, y2)


def orbit_blocks(
    s: SkewSystem, x: BundlePoint, transient: int, n: int, size: int
) -> Iterator[tuple[Sequence[BasePoint], list[float], list[int], list[float]]]:
    """Points transient, ..., transient + n - 1 of the orbit of x, in blocks
    of at most ``size``, each four sequences: base points, base embeddings,
    fibre edge indices and fibre ``t``.  Same points as ``apply_skew``
    iterated: the base is stepped a block at a time by ``BaseSystem.walk``,
    which may build its base points only when they are read, and this loop
    steps only the fibre, with ``eval_et`` on plain numbers, reading each base
    embedding for the fibre-map family and the cut-crossing test.  Each
    block is released before the next is walked.  Only the seed is
    validated: the caller checks the rest."""
    walk, family = s.base.walk, s.image_family
    gluing, fibre = s.bundle.gluing, s.bundle.fibre
    fibre.validate_point(x.y)
    b, e, k, t = x.b, float(s.base.embedding(x.b)), fibre.edge_index(x.y.edge), x.y.t
    start, last = 0, transient + n - 1
    while start <= last:
        stop = min(start + size, transient if start < transient else last + 1)
        # walk from the last point of the previous block; the seed is the
        # first point of the first block
        after, embeds = walk(b, stop - start - (start == 0))
        if start == 0:
            bs = LazyPoints(stop, lambda i, b=b, after=after: after[i - 1] if i else b)
            es, ks, ts = [e, *embeds], [k], [t]
        else:
            bs, es, ks, ts = after, embeds, [], []
        for e2 in embeds:
            k, t = eval_et(family(e2), k, t)
            if gluing is not None and e2 < e:
                k, t = eval_et(gluing, k, t)
            e = e2
            ks.append(k)
            ts.append(t)
        if start >= transient:
            yield bs, es, ks, ts
        if embeds:
            b = after[-1]
        start = stop
        del after, embeds, bs, es, ks, ts


def orbit(
    s: SkewSystem, x0: BundlePoint, n: int, transient: int = 0
) -> list[BundlePoint]:
    x = x0
    for _ in range(transient):
        x = apply_skew(s, x)
    out = [x]
    for _ in range(n - 1):
        x = apply_skew(s, x)
        out.append(x)
    return out


def transport_to(
    bundle: Bundle, base: BaseSystem, b_from: BasePoint, b_to: BasePoint, y: GraphPoint
) -> GraphPoint:
    """Express the fibre coordinate of (b_from, y) in the chart of b_to.

    For product bundles this is the identity; for monodromy bundles the
    gluing (or its inverse) is applied when the short base arc joining
    b_from and b_to crosses the cut (``analysis.cut_sides``).  Only the
    tests and ``perfbench/tracer.py``, by name, call it (until ROADMAP item 1b).
    """
    if not bundle.is_monodromy:
        return y
    import numpy as np

    from .analysis import cut_sides

    side = cut_sides(np.array([float(base.embedding(b_from))]), float(base.embedding(b_to)))[0]
    return y if side == 0 else eval_graph_map(bundle.gluing if side > 0 else bundle.gluing_inverse, y)
