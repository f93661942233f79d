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
from typing import Any, Callable, Sequence

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
    BaseSystem,
    CircleAngle,
    DoubledCode,
    SymbolicWord,
    TernaryCode,
)
from .constructions import CONSTRUCTIONS, ConstructionResult, coerce_setting
from .errors import (
    BundleMinError,
    CapExceeded,
    ConfigError,
    InvalidPoint,
    NotCircleCase,
    NoProbes,
    SchemaError,
    WrongInput,
)
from .graphs import MetricGraph
from .plotting import render_sample_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_CAP = 4

#: most orbit steps, and most transient steps, one run may take
STEP_CAP = 10_000_000


# ---------------------------------------------------------------------------
# base-point tags for the CSV round trip


def encode_base_point(b: BasePoint) -> str:
    if isinstance(b, CircleAngle):
        return f"angle:{b.theta!r}"
    if isinstance(b, DoubledCode):
        return f"dcode:{b.code.bits:x}:{b.code.K}:{b.side}"
    if isinstance(b, SymbolicWord):
        return f"word:{b.bits:x}:{b.K}"
    raise SchemaError(f"unknown base point type {type(b).__name__}")


def decode_base_point(tag: str) -> BasePoint:
    """The base point of a tag; a code that is not K digits for a
    precision K >= 1, or a side outside {-1, 0, 1}, is refused like a
    malformed tag."""
    kind, _, rest = tag.partition(":")
    try:
        if kind == "angle":
            return CircleAngle(float(rest))
        if kind == "dcode":
            bits, K, side = rest.split(":")
            if int(side) not in (-1, 0, 1):
                raise SchemaError(f"side {side} outside {{-1, 0, 1}}")
            return DoubledCode(TernaryCode(*_code_fields(bits, K)), int(side))
        if kind == "word":
            bits, K = rest.split(":")
            return SymbolicWord(*_code_fields(bits, K))
    except ValueError as exc:
        raise SchemaError(f"malformed base tag {tag!r}") from exc
    raise SchemaError(f"unknown base tag kind {kind!r}")


def _code_fields(bits: str, K: str) -> tuple[int, int]:
    """A tag's hex digit block and precision K, which must be at least 1;
    the block must be a K-digit code, without a sign."""
    code, k = int(bits, 16), int(K)
    if k < 1:
        raise SchemaError(f"precision {k} below 1")
    if code < 0 or code.bit_length() > k:
        raise SchemaError(f"digits {bits} are not a {k}-digit code")
    return code, k


SAMPLE_HEADER = ["step", "base", "tag", "edge", "parameter"]


def sample_to_csv(sample: SampledSet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SAMPLE_HEADER)
    edges = [e.id for e in sample.bundle.fibre.edges]
    columns = zip(sample.bases, sample.base_embed.tolist(), sample.edge_idx.tolist(), sample.ts.tolist())
    w.writerows(
        (i, repr(e), encode_base_point(b), edges[k], repr(t)) for i, (b, e, k, t) in enumerate(columns)
    )
    return buf.getvalue()


def _read_column(cells: Sequence, read: Callable, what: str) -> list:
    """read(cell) for each cell of a sample CSV column; a cell it refuses
    is a SchemaError naming the cell's line."""
    out: list = []
    try:
        for cell in cells:
            out.append(read(cell))
    except (ValueError, BundleMinError) as exc:
        raise SchemaError(f"sample CSV line {len(out) + 2}: {what} {cell!r}: {exc}") from exc
    return out


def _first_false(ok: np.ndarray | list[bool]) -> int | None:
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    return int(bad[0]) if len(bad) else None


def csv_to_points(
    text: str, base: BaseSystem, fibre: MetricGraph
) -> tuple[list[BasePoint], np.ndarray, np.ndarray, np.ndarray]:
    """The sample in a CSV as columns: base points, fibre edge indices,
    parameters and the ``base`` cells.  Every row is checked for five
    fields, its row number as ``step`` (so reordered or spliced rows are
    refused), a tag of the base's point type, a numeric ``base``, an edge
    of the fibre and a parameter in [0, 1]."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SAMPLE_HEADER:
        raise SchemaError("sample CSV header mismatch")
    body = rows[1:]
    i = _first_false([len(row) == 5 for row in body])
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: {len(body[i])} fields, expected 5")
    step_cells, base_cells, tags, edge_cells, t_cells = zip(*body) if body else ((),) * 5
    i = _first_false([cell == str(k) for k, cell in enumerate(step_cells)])
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: step {step_cells[i]!r}, expected {i}")

    def decode(tag: str) -> BasePoint:
        b = decode_base_point(tag)
        if not isinstance(b, base.point_type):
            raise SchemaError(f"not a {base.point_type.__name__}, the point type of base {base.id}")
        return b

    bases = _read_column(tags, decode, "tag")
    written = np.array(_read_column(base_cells, float, "base"), dtype=float)
    fibre_edges = {e.id: k for k, e in enumerate(fibre.edges)}
    edge_idx = list(map(fibre_edges.get, edge_cells))
    i = _first_false([k is not None for k in edge_idx])
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: unknown fibre edge {edge_cells[i]!r}")
    ts = np.array(_read_column(t_cells, float, "parameter"), dtype=float)
    # the negated test also catches NaN
    i = _first_false((ts >= 0.0) & (ts <= 1.0))
    if i is not None:
        raise SchemaError(f"sample CSV line {i + 2}: parameter {float(ts[i])!r} outside [0, 1]")
    return bases, np.array(edge_idx, dtype=int), ts, written


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
    if "exceptional_base" in result.system.reference:
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
    else its default, checked the same way for every command.  A config
    value may not be a boolean, nor a fraction for steps or transient."""

    def setting(key: str, default: float) -> Any:
        return coerce_setting(key, cfg.get(key, default), default)

    try:
        delta = args.delta if args.delta is not None else setting("delta", 0.02)
        steps = args.steps if args.steps is not None else setting("steps", 100_000)
        transient = setting("transient", 100)
    except (WrongInput, TypeError, ValueError, OverflowError) as exc:
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
    if steps > STEP_CAP:
        raise CapExceeded(f"steps {steps} exceed cap {STEP_CAP}")
    if transient > STEP_CAP:
        raise CapExceeded(f"transient {transient} exceeds cap {STEP_CAP}")
    sample = approximate_minimal_set(result.system, result.seed(seed_index), transient, steps, delta)
    atomic_write(out / "sample.csv", sample_to_csv(sample))
    prov = dict(sample.provenance)
    prov.update({"construction": name, "delta": delta, "seed_index": seed_index})
    atomic_write(out / "provenance.json", _jdump(prov))
    print(f"wrote {out / 'sample.csv'} ({len(sample.bases)} points)")
    return EXIT_OK


def _read_out_file(path: Path) -> str:
    """The text of a file in --out; one that cannot be read is a SchemaError."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _load_sample(args: argparse.Namespace) -> tuple[Path, str, ConstructionResult, SampledSet]:
    """The system and the orbit sample saved in --out."""
    cfg = load_config(args.config)
    delta = _run_settings(args, cfg)[0]
    out = Path(args.out)
    name, result = _load_system(out, cfg, args.name)
    csv_path = out / "sample.csv"
    if not csv_path.exists():
        raise ConfigError(f"sample not found: {csv_path}")
    s = result.system
    bases, edge_idx, ts, written = csv_to_points(_read_out_file(csv_path), s.base, s.bundle.fibre)
    if not bases:
        raise SchemaError(f"{csv_path} holds no points")
    prov_path = out / "provenance.json"
    try:
        prov = json.loads(_read_out_file(prov_path)) if prov_path.exists() else {}
    except ValueError as exc:
        raise SchemaError(f"malformed {prov_path}: {exc}") from exc
    if not isinstance(prov, dict):
        raise SchemaError(f"{prov_path} must hold a JSON object, not {type(prov).__name__}")
    if prov_path.exists() and prov.get("system") != s.id:
        raise SchemaError(f"{prov_path} names system {prov.get('system')!r}, not {s.id!r}")
    try:
        sample = SampledSet(delta, bases, edge_idx, ts, prov, s.base, s.bundle)
    except InvalidPoint as exc:
        # a tag of the right type that the base does not embed
        raise SchemaError(f"{csv_path}: {exc}") from exc
    i = _first_false(written == sample.base_embed)
    if i is not None:
        raise SchemaError(
            f"{csv_path} line {i + 2}: base {float(written[i])!r} is not "
            f"{float(sample.base_embed[i])!r}, the embedding of its tag"
        )
    return out, name, result, sample


def cmd_classify(args: argparse.Namespace) -> int:
    out, name, result, sample = _load_sample(args)
    delta = sample.delta
    s = result.system
    delta_base = result.delta_base if result.delta_base is not None else delta

    dich = endpoint_statistics(sample, delta, delta_base)
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

    n = len(sample.bases)
    probes = sample.bases[:: max(1, n // 20)][:20]
    exceptional = result.system.reference.get("exceptional_base")

    try:
        tri = typical_fibre_report(s, sample, probes, delta, delta_base)
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
        crep = circles_report(s, sample, circ_probes, delta, delta_base)
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
    edges = [e.id for e in sample.bundle.fibre.edges]
    rows = list(zip(sample.base_embed.tolist(), [edges[k] for k in sample.edge_idx.tolist()], sample.ts.tolist()))
    highlight = []
    exceptional = result.system.reference.get("exceptional_base")
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
