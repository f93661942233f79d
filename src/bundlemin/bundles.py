"""Graph bundles (trivial products and single-cut monodromy bundles over a
circle base) and skew-product systems with the fibre-preserving contract:
the base coordinate of the image is always the base map of the base
coordinate, by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .base_systems import BasePoint, BaseSystem
from .errors import NotHomeomorphism, WrongInput
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
    the image base point: the fibre over b maps by ``image_family(base.apply(b))``,
    so an orbit that has already taken the base step need not take it again.

    ``reference`` holds the named values of the construction that the
    command line and the tests read (orbit seed, exceptional base point, ...).
    """

    base: BaseSystem
    bundle: Bundle
    image_family: Callable[[BasePoint], GraphMap]
    reference: dict = field(default_factory=dict, compare=False)
    id: str = "skew"

    def fibre_family(self, b: BasePoint) -> GraphMap:
        """The fibre map over b."""
        return self.image_family(self.base.apply(b))


def product_bundle(base: BaseSystem, fibre: MetricGraph) -> Bundle:
    return Bundle(fibre=fibre)


def _check_round_trip(fibre: MetricGraph, g: GraphMap, ginv: GraphMap, tol: float = 1e-9) -> None:
    for e in fibre.edges:
        for i in range(9):
            p = GraphPoint(e.id, i / 8.0)
            q = eval_graph_map(ginv, eval_graph_map(g, p))
            if fibre.path_distance(p, q) > tol:
                raise NotHomeomorphism(
                    f"gluing round trip off by {fibre.path_distance(p, q):.2e} at {p}"
                )


def monodromy_bundle(
    base: BaseSystem, fibre: MetricGraph, gluing: GraphMap, gluing_inverse: GraphMap
) -> Bundle:
    if not base.circular:
        raise WrongInput("monodromy bundles are supported over circle bases only")
    _check_round_trip(fibre, gluing, gluing_inverse)
    _check_round_trip(fibre, gluing_inverse, gluing)
    return Bundle(fibre=fibre, gluing=gluing, gluing_inverse=gluing_inverse)


def apply_skew(s: SkewSystem, x: BundlePoint) -> BundlePoint:
    """One step of the skew product, with chart transition on base wrap."""
    b2 = s.base.apply(x.b)
    m = s.fibre_family(x.b)
    y2 = eval_graph_map(m, x.y)
    if s.bundle.is_monodromy:
        # wrap detection: the rotation decreased the angle value
        t1 = float(s.base.embedding(x.b))
        t2 = float(s.base.embedding(b2))
        if t2 < t1:
            y2 = eval_graph_map(s.bundle.gluing, y2)
    return BundlePoint(b2, y2)


def orbit_blocks(
    s: SkewSystem, x: BundlePoint, transient: int, n: int, size: int
) -> Iterator[tuple[list[BasePoint], list[float], list[int], list[float]]]:
    """Points transient, ..., transient + n - 1 of the orbit of x, in blocks
    of at most ``size``, each four lists: base points, base embeddings,
    fibre edge indices and fibre ``t``.  Same points as ``apply_skew``
    iterated, stepped with ``eval_et`` on plain numbers; each base point is
    embedded once, for the cut-crossing test and the caller.  Only the seed
    is validated: the caller checks the rest."""
    apply, embedding, family = s.base.apply, s.base.embedding, s.image_family
    gluing, fibre = s.bundle.gluing, s.bundle.fibre
    fibre.validate_point(x.y)
    b, e, k, t = x.b, float(embedding(x.b)), fibre.edge_index(x.y.edge), x.y.t
    start, last = 0, transient + n - 1
    while start <= last:
        stop = min(start + size, transient if start < transient else last + 1)
        bs, es, ks, ts = block = [], [], [], []
        for i in range(start, stop):
            bs.append(b)
            es.append(e)
            ks.append(k)
            ts.append(t)
            if i == last:
                break
            b2 = apply(b)
            k, t = eval_et(family(b2), k, t)
            e2 = float(embedding(b2))
            if gluing is not None and e2 < e:
                k, t = eval_et(gluing, k, t)
            b, e = b2, e2
        if start >= transient:
            yield block
        start = stop


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


def cut_sides(t_from: np.ndarray, t_to: float) -> np.ndarray:
    """Per base angle in t_from: 1 where the short base arc from it to t_to
    crosses the cut at angle 0 forward (the angle wraps past 1 -> 0), -1
    where it crosses backward, 0 where it avoids the cut (a tie avoids it)."""
    t_from = t_from % 1.0
    t_to = t_to % 1.0
    d_direct = np.abs(t_from - t_to)
    return np.where(d_direct <= 1.0 - d_direct, 0, np.where(t_from > t_to, 1, -1))


def transport_to(
    bundle: Bundle, base: BaseSystem, b_from: BasePoint, b_to: BasePoint, y: GraphPoint
) -> GraphPoint:
    """Express the fibre coordinate of (b_from, y) in the chart of b_to.

    For product bundles this is the identity; for monodromy bundles the
    gluing (or its inverse) is applied when the short base arc joining
    b_from and b_to crosses the cut (``cut_sides``).
    """
    if not bundle.is_monodromy:
        return y
    side = cut_sides(np.array([float(base.embedding(b_from))]), float(base.embedding(b_to)))[0]
    return y if side == 0 else eval_graph_map(bundle.gluing if side > 0 else bundle.gluing_inverse, y)
