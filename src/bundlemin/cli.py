"""Command line surface: build a construction, sample its minimal set,
classify the sample, and render plots. All outputs are deterministic for a
fixed config and seed, and files are written atomically.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Any

from .analysis import (
    SampledSet,
    approximate_minimal_set,
    circles_report,
    endpoint_statistics,
    typical_fibre_report,
)
from .base_systems import (
    GOLDEN,
    BasePoint,
    CircleAngle,
    DoubledCode,
    PeriodicIndex,
    SymbolicWord,
    TernaryCode,
    circle_rotation,
)
from .bundles import BundlePoint
from .constructions import (
    ConstructionResult,
    build_circle_minimal_product,
    build_m_circles,
    build_mobius,
    build_sturmian_cylinder,
    build_theorem_d_case1,
    build_theorem_d_case2,
    build_torus_on_mobius,
    chained_loops_graph,
    word_embed,
)
from .errors import (
    BundleMinError,
    CapExceeded,
    ConfigError,
    NotCircleCase,
    NoProbes,
    SchemaError,
)
from .graphs import GraphPoint, circle_graph, enumerate_circles
from .plotting import render_sample_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_CAP = 4

DEFAULT_CAP = 10_000_000
SQRT2_FRAC = math.sqrt(2.0) - 1.0


# ---------------------------------------------------------------------------
# construction registry


def _build_mobius(p: dict) -> ConstructionResult:
    return build_mobius(float(p.get("alpha", GOLDEN)))


def _build_torus_on_mobius(p: dict) -> ConstructionResult:
    return build_torus_on_mobius(float(p.get("alpha", GOLDEN)), float(p.get("beta", SQRT2_FRAC)))


def _build_sturmian(p: dict) -> ConstructionResult:
    return build_sturmian_cylinder(float(p.get("alpha", GOLDEN)), int(p.get("precision", 1500)))


def _build_circle_product(p: dict) -> ConstructionResult:
    g = circle_graph(float(p.get("length", 1.0)))
    c = enumerate_circles(g)[0]
    base = circle_rotation(float(p.get("alpha", GOLDEN)))
    return build_circle_minimal_product(base, g, c, angle=float(p.get("angle", SQRT2_FRAC)))


def _build_m_circles(p: dict) -> ConstructionResult:
    m = int(p.get("m", 3))
    g = chained_loops_graph(m)
    circles = [c for c in enumerate_circles(g) if len(c.steps) == 1]
    base = circle_rotation(float(p.get("alpha", GOLDEN)))
    return build_m_circles(base, g, circles, angle=float(p.get("angle", SQRT2_FRAC)))


def _build_case1(p: dict) -> ConstructionResult:
    return build_theorem_d_case1(int(p.get("precision", 40)))


def _case2(pattern: str):
    def build(p: dict) -> ConstructionResult:
        return build_theorem_d_case2(
            pattern, int(p.get("precision", 40)), float(p.get("theta0", math.pi / 2))
        )

    return build


CONSTRUCTIONS = {
    "mobius": _build_mobius,
    "torus-on-mobius": _build_torus_on_mobius,
    "sturmian-cylinder": _build_sturmian,
    "circle-product": _build_circle_product,
    "m-circles": _build_m_circles,
    "theorem-d-1": _build_case1,
    "theorem-d-2:point": _case2("point"),
    "theorem-d-2:arc": _case2("arc"),
    "theorem-d-2:two": _case2("two"),
}

# per-construction slice width for base proximity during classification
DELTA_BASE = {"sturmian-cylinder": 1e-6}


def default_seed(name: str, result: ConstructionResult, seed_index: int) -> BundlePoint:
    s = result.system
    if name == "mobius":
        return BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0))
    if name == "sturmian-cylinder":
        w = s.base.sampler(seed_index + 1)[-1]
        return BundlePoint(w, GraphPoint("I", word_embed(w)))
    ref_seed = result.reference.get("seed")
    if ref_seed is not None and seed_index == 0:
        return ref_seed
    b = s.base.sampler(seed_index + 1)[-1]
    e = s.bundle.fibre.edges[0]
    return BundlePoint(b, GraphPoint(e.id, 0.37))


# ---------------------------------------------------------------------------
# base-point tags for the CSV round trip


def encode_base_point(b: BasePoint) -> str:
    if isinstance(b, CircleAngle):
        return f"angle:{b.theta!r}"
    if isinstance(b, DoubledCode):
        return f"dcode:{b.code.bits:x}:{b.code.K}:{b.side}"
    if isinstance(b, TernaryCode):
        return f"tern:{b.bits:x}:{b.K}"
    if isinstance(b, SymbolicWord):
        return f"word:{b.bits:x}:{b.K}"
    if isinstance(b, PeriodicIndex):
        return f"per:{b.i}:{b.q}"
    raise SchemaError(f"unknown base point type {type(b).__name__}")


def decode_base_point(tag: str) -> BasePoint:
    kind, _, rest = tag.partition(":")
    try:
        if kind == "angle":
            return CircleAngle(float(rest))
        if kind == "dcode":
            bits, K, side = rest.split(":")
            return DoubledCode(TernaryCode(int(bits, 16), int(K)), int(side))
        if kind == "tern":
            bits, K = rest.split(":")
            return TernaryCode(int(bits, 16), int(K))
        if kind == "word":
            bits, K = rest.split(":")
            return SymbolicWord(int(bits, 16), int(K))
        if kind == "per":
            i, q = rest.split(":")
            return PeriodicIndex(int(i), int(q))
    except ValueError as exc:
        raise SchemaError(f"malformed base tag {tag!r}") from exc
    raise SchemaError(f"unknown base tag kind {kind!r}")


def sample_to_csv(sample: SampledSet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step", "base", "tag", "edge", "parameter"])
    for i, x in enumerate(sample.points):
        w.writerow([i, repr(float(sample.base_embed[i])), encode_base_point(x.b), x.y.edge, repr(x.y.t)])
    return buf.getvalue()


def csv_to_points(text: str) -> list[BundlePoint]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["step", "base", "tag", "edge", "parameter"]:
        raise SchemaError("sample CSV header mismatch")
    out = []
    for row in rows[1:]:
        _, _, tag, edge, t = row
        out.append(BundlePoint(decode_base_point(tag), GraphPoint(edge, float(t))))
    return out


# ---------------------------------------------------------------------------
# file plumbing


def atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def step_cap() -> int:
    raw = os.environ.get("BUNDLEMIN_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"BUNDLEMIN_CAP is not an integer: {raw!r}") from exc


def _jdump(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def _resolve_construction(cfg: dict, name_arg: str | None) -> tuple[str, dict]:
    name = name_arg or cfg.get("construction")
    if not name:
        raise ConfigError("no construction named (positional argument or config key 'construction')")
    if name not in CONSTRUCTIONS:
        raise ConfigError(
            f"unknown construction {name!r}; choose from {sorted(CONSTRUCTIONS)}"
        )
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    return name, params


def _construct(name: str, params: dict) -> ConstructionResult:
    """Build the named construction; a parameter it rejects is a config error."""
    try:
        return CONSTRUCTIONS[name](params)
    except (BundleMinError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad params for {name}: {exc}") from exc


def cmd_build(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    name, params = _resolve_construction(cfg, args.name)
    result = _construct(name, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "system.json", _jdump({"construction": name, "params": params}))
    lines = [f"construction: {name}", f"system: {result.system.id}", f"note: {result.note}"]
    if "exceptional_base" in result.reference:
        lines.append("exceptional fibre tag: c_l (the identified doubled point)")
    atomic_write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"wrote {out / 'system.json'}")
    return EXIT_OK


def _load_system(out: Path, cfg: dict, name_arg: str | None) -> tuple[str, ConstructionResult]:
    sysfile = out / "system.json"
    if sysfile.exists():
        name, params = _resolve_construction(load_config(str(sysfile)), None)
    else:
        name, params = _resolve_construction(cfg, name_arg)
    return name, _construct(name, params)


def cmd_minimal_set(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name, result = _load_system(out, cfg, args.name)
    steps = args.steps if args.steps is not None else int(cfg.get("steps", 100_000))
    if steps < 1:
        raise ConfigError(f"steps {steps} must be at least 1")
    if steps > step_cap():
        raise CapExceeded(f"steps {steps} exceed cap {step_cap()}")
    delta = args.delta if args.delta is not None else float(cfg.get("delta", 0.02))
    if not 1e-4 <= delta <= 1e-1:
        raise ConfigError(f"delta {delta} outside [1e-4, 1e-1]")
    transient = int(cfg.get("transient", 100))
    if transient < 0:
        raise ConfigError(f"transient {transient} is negative")
    seed = default_seed(name, result, args.seed)
    sample = approximate_minimal_set(result.system, seed, transient, steps, delta)
    atomic_write(out / "sample.csv", sample_to_csv(sample))
    prov = dict(sample.provenance)
    prov.update({"construction": name, "delta": delta, "seed_index": args.seed})
    atomic_write(out / "provenance.json", _jdump(prov))
    print(f"wrote {out / 'sample.csv'} ({len(sample.points)} points)")
    return EXIT_OK


def _rebuild_sample(out: Path, result: ConstructionResult, delta: float) -> SampledSet:
    csv_path = out / "sample.csv"
    if not csv_path.exists():
        raise ConfigError(f"sample not found: {csv_path}")
    points = csv_to_points(csv_path.read_text())
    prov_path = out / "provenance.json"
    prov = json.loads(prov_path.read_text()) if prov_path.exists() else {}
    return SampledSet(
        delta=delta,
        points=points,
        provenance=prov,
        base=result.system.base,
        bundle=result.system.bundle,
    )


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    name, result = _load_system(out, cfg, args.name)
    delta = args.delta if args.delta is not None else float(cfg.get("delta", 0.02))
    sample = _rebuild_sample(out, result, delta)
    s = result.system
    g = s.bundle.fibre
    delta_base = DELTA_BASE.get(name, delta)

    dich = endpoint_statistics(g, sample, r=3.0 * delta, delta=delta, delta_base=delta_base)
    atomic_write(
        out / "dichotomy.json",
        _jdump(
            {
                "endpoint_fraction": dich.endpoint_fraction,
                "interior_detected": dich.interior_detected,
                "verdict": dich.verdict,
                "scales": {"r": dich.r, "delta": dich.delta},
                "points_checked": dich.points_checked,
            }
        ),
    )

    n = len(sample.points)
    stride = max(1, n // 20)
    probes = [sample.points[i].b for i in range(0, n, stride)][:20]
    exceptional = result.reference.get("exceptional_base")

    try:
        tri = typical_fibre_report(s, sample, probes, delta, delta_base=delta_base)
        tri_json = {
            "typical": str(tri.typical) if tri.typical else None,
            "N": tri.N,
            "exceptional_tags": list(tri.exceptional_tags),
            "totally_disconnected_fraction": tri.totally_disconnected_fraction,
            "probes_used": tri.probes_used,
        }
    except NoProbes as exc:
        tri_json = {"error": str(exc)}
    atomic_write(out / "trichotomy.json", _jdump(tri_json))

    circ_probes = list(probes)
    if exceptional is not None:
        circ_probes.append(exceptional)
    try:
        crep = circles_report(s, sample, delta, circ_probes, delta_base=delta_base)
        circ_json = {
            "m": crep.m,
            "exceptional_tags": list(crep.exceptional_tags),
            "image_disjointness": crep.image_disjointness,
            "probes_used": crep.probes_used,
        }
    except (NotCircleCase, NoProbes) as exc:
        circ_json = {"not_applicable": str(exc)}
    atomic_write(out / "circles.json", _jdump(circ_json))

    verdict_lines = [
        f"construction: {name}",
        f"dichotomy: {dich.verdict} (endpoint fraction {dich.endpoint_fraction:.4f}, "
        f"interior {dich.interior_detected})",
        f"trichotomy: {tri_json.get('typical', tri_json)}",
        f"circles: {circ_json}",
    ]
    atomic_write(out / "verdict.txt", "\n".join(verdict_lines) + "\n")
    print((out / "verdict.txt").read_text(), end="")
    return EXIT_INCONCLUSIVE if dich.verdict == "Inconclusive" else EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    name, result = _load_system(out, cfg, args.name)
    delta = args.delta if args.delta is not None else float(cfg.get("delta", 0.02))
    sample = _rebuild_sample(out, result, delta)
    rows = [
        (float(sample.base_embed[i]), x.y.edge, x.y.t) for i, x in enumerate(sample.points)
    ]
    highlight = []
    exceptional = result.reference.get("exceptional_base")
    if exceptional is not None:
        highlight.append(float(result.system.base.embedding(exceptional)))
    svg = render_sample_svg(
        result.system.bundle.fibre,
        rows,
        highlight_bases=highlight,
        cut_marker=result.system.bundle.is_monodromy,
        title=name,
    )
    atomic_write(out / "sample.svg", svg)
    print(f"wrote {out / 'sample.svg'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlemin",
        description="Construct fibre-preserving graph-bundle systems, sample "
        "their minimal sets, and classify fibre topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, fn in (
        ("build", cmd_build),
        ("minimal-set", cmd_minimal_set),
        ("classify", cmd_classify),
        ("plot", cmd_plot),
    ):
        p = sub.add_parser(cmd)
        p.add_argument("name", nargs="?", default=None, help="construction name")
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
