"""Command line surface: build a construction, sample its minimal set,
classify the sample, and render plots. All outputs are deterministic for a
fixed config and seed, and files are written atomically.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import (
    SampledSet,
    approximate_minimal_set,
    circles_report,
    endpoint_statistics,
    typical_fibre_report,
)
from .base_systems import (
    BasePoint,
    CircleAngle,
    DoubledCode,
    PeriodicIndex,
    SymbolicWord,
    TernaryCode,
)
from .bundles import BundlePoint
from .constructions import CONSTRUCTIONS, ConstructionResult
from .errors import (
    BundleMinError,
    CapExceeded,
    ConfigError,
    NotCircleCase,
    NoProbes,
    SchemaError,
)
from .graphs import GraphPoint
from .plotting import render_sample_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_CAP = 4

DEFAULT_CAP = 10_000_000


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
    try:
        for row in rows[1:]:
            _, _, tag, edge, t = row
            out.append(BundlePoint(decode_base_point(tag), GraphPoint(edge, float(t))))
    except ValueError as exc:
        raise SchemaError(f"sample CSV line {len(out) + 2}: {exc}") from exc
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
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
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


def _run_settings(args: argparse.Namespace, cfg: dict) -> tuple[float, int, int, int]:
    """(delta, steps, transient, seed index): each flag, else its config key,
    else its default, checked the same way for every command."""
    try:
        delta = args.delta if args.delta is not None else float(cfg.get("delta", 0.02))
        steps = args.steps if args.steps is not None else int(cfg.get("steps", 100_000))
        transient = int(cfg.get("transient", 100))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad run setting: {exc}") from exc
    if not 1e-4 <= delta <= 1e-1:
        raise ConfigError(f"delta {delta} outside [1e-4, 1e-1]")
    if steps < 1:
        raise ConfigError(f"steps {steps} must be at least 1")
    if transient < 0:
        raise ConfigError(f"transient {transient} is negative")
    # a seed rule builds all i + 1 base samples for seed index i
    if not 0 <= args.seed <= 999:
        raise ConfigError(f"seed index {args.seed} outside [0, 999]")
    return delta, steps, transient, args.seed


def cmd_minimal_set(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    delta, steps, transient, seed_index = _run_settings(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name, result = _load_system(out, cfg, args.name)
    cap = step_cap()
    if steps > cap:
        raise CapExceeded(f"steps {steps} exceed cap {cap}")
    if transient > cap:
        raise CapExceeded(f"transient {transient} exceeds cap {cap}")
    sample = approximate_minimal_set(result.system, result.seed(seed_index), transient, steps, delta)
    atomic_write(out / "sample.csv", sample_to_csv(sample))
    prov = dict(sample.provenance)
    prov.update({"construction": name, "delta": delta, "seed_index": seed_index})
    atomic_write(out / "provenance.json", _jdump(prov))
    print(f"wrote {out / 'sample.csv'} ({len(sample.points)} points)")
    return EXIT_OK


def _load_sample(args: argparse.Namespace) -> tuple[Path, str, ConstructionResult, SampledSet]:
    """The system and the orbit sample saved in --out."""
    cfg = load_config(args.config)
    delta = _run_settings(args, cfg)[0]
    out = Path(args.out)
    name, result = _load_system(out, cfg, args.name)
    csv_path = out / "sample.csv"
    if not csv_path.exists():
        raise ConfigError(f"sample not found: {csv_path}")
    try:
        text = csv_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{csv_path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    points = csv_to_points(text)
    if not points:
        raise SchemaError(f"{csv_path} holds no points")
    unknown = {x.y.edge for x in points}.difference(e.id for e in result.system.bundle.fibre.edges)
    if unknown:
        raise SchemaError(f"{csv_path}: unknown fibre edge {min(unknown)!r}")
    prov_path = out / "provenance.json"
    try:
        prov = json.loads(prov_path.read_text()) if prov_path.exists() else {}
    except ValueError as exc:
        raise SchemaError(f"malformed {prov_path}: {exc}") from exc
    sample = SampledSet(
        delta=delta,
        points=points,
        provenance=prov,
        base=result.system.base,
        bundle=result.system.bundle,
    )
    # the negated test also catches NaN
    bad = np.flatnonzero(~((sample.ts >= 0.0) & (sample.ts <= 1.0)))
    if len(bad):
        i = int(bad[0])
        raise SchemaError(f"{csv_path} line {i + 2}: parameter {float(sample.ts[i])!r} outside [0, 1]")
    return out, name, result, sample


def cmd_classify(args: argparse.Namespace) -> int:
    out, name, result, sample = _load_sample(args)
    delta = sample.delta
    s = result.system
    g = s.bundle.fibre
    delta_base = result.delta_base if result.delta_base is not None else delta

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
    out, name, result, sample = _load_sample(args)
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
