"""Command line surface: build a construction, sample its minimal set,
classify the sample, and render plots. All outputs are deterministic for a
fixed config and seed. Each command writes its --out files as one set (a
failed write leaves the previous sample and its verdicts as they were), and
a construction other than system.json's exits 2.  The sample's columns are
read into stdlib ``array``s, and only ``minimal-set`` and ``classify`` import
the analysis layer, and with it numpy, where they run: ``build`` reads no
sample, and ``plot`` draws the checked columns of the sample it reads.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from array import array
from contextlib import closing, suppress
from itertools import count, islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from .base_systems import BasePoint, BaseSystem, LazyPoints
from .constructions import CONSTRUCTIONS, STEP_CAP, ConstructionResult, coerce_setting
from .errors import (
    BundleMinError,
    CapExceeded,
    ConfigError,
    NotCircleCase,
    NoProbes,
    SchemaError,
    WrongInput,
)
from .graphs import MetricGraph

if TYPE_CHECKING:
    from .analysis import SampledSet

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_CAP = 4

#: largest seed index: a seed rule builds all i + 1 base samples for index i
MAX_SEED_INDEX = 999


# ---------------------------------------------------------------------------
# the sample CSV round trip; each base writes and decodes its own tags


SAMPLE_HEADER = ["step", "base", "tag", "edge", "parameter"]

#: the checks on a sample CSV, in the order their failures are reported
SAMPLE_CHECKS = ("header", "fields", "step", "tag", "base", "edge", "parameter", "range")

#: rows ``csv_to_points`` checks and decodes at a time
SAMPLE_BLOCK = 1024


def sample_to_csv(sample: SampledSet, f: TextIO) -> None:
    """Write the sample to f as CSV, one row at a time."""
    w = csv.writer(f, lineterminator="\n")
    w.writerow(SAMPLE_HEADER)
    edges = [e.id for e in sample.bundle.fibre.edges]
    w.writerows(zip(
        range(len(sample.bases)),
        map(repr, sample.base_embed.tolist()),
        (b.tag() for b in sample.bases),
        map(edges.__getitem__, sample.edge_idx.tolist()),
        map(repr, sample.ts.tolist()),
    ))


def csv_to_points(
    lines: Iterable[str], base: BaseSystem, fibre: MetricGraph
) -> tuple[Sequence[BasePoint], array, array, array, array]:
    """The sample in CSV lines as columns: base points, then ``array``s of
    fibre edge indices, parameters, the ``base`` cells and the points'
    embeddings, decoded ``SAMPLE_BLOCK`` rows at a time (and the arrays
    sized once, after the last).  Every row is checked for five fields, its
    row number as ``step`` (so reordered or spliced rows are refused),
    a tag the base decodes, a numeric ``base``, an edge of the fibre and a
    parameter in [0, 1].  Each check keeps its first failing line; after
    the last row the failure of the earliest check in ``SAMPLE_CHECKS`` is
    raised, so a bad step on a late line is reported before a bad tag on an
    early one.  Only a record the csv module cannot parse is refused at once."""
    fibre_edges = {e.id: k for k, e in enumerate(fibre.edges)}
    size = SAMPLE_BLOCK
    blocks: list[tuple] = []
    failures: dict[str, str] = {}

    def read_block(first: int, rows: list[list[str]]) -> tuple | None:
        """The block's columns, or None when a row fails a check."""
        try:
            # a row of another length fails the strict zip or the unpacking
            steps, base_cells, tags, edges, t_cells = zip(*rows, strict=True)
            edge_idx = array("q", map(fibre_edges.__getitem__, edges))
            ts = array("d", map(float, t_cells))
            written = array("d", map(float, base_cells))
            points, embeddings = base.read(tags)
        except (KeyError, ValueError, BundleMinError):
            return None
        if steps != tuple(map(str, range(first, first + len(rows)))) or not all(0.0 <= t <= 1.0 for t in ts):
            return None
        return points, edge_idx, ts, written, array("d", embeddings)

    def read(check: str, cell: str, decode: Callable) -> Any:
        try:
            return decode(cell)
        except (ValueError, BundleMinError) as exc:
            failures.setdefault(check, f"sample CSV line {line}: {check} {cell!r}: {exc}")
            return None

    # record i is line i: zip draws the line number before the record
    line_numbers = count(1)
    records = (record for _, record in zip(line_numbers, csv.reader(lines)))
    n = 0
    try:
        if next(records, None) != SAMPLE_HEADER:
            failures["header"] = "sample CSV header mismatch"
        while rows := list(islice(records, size)):
            blocks.append(read_block(n, rows))
            # the block checks are the row checks, so a block that fails
            # one is read again row by row to find its failing lines
            for i, row in enumerate(rows if blocks[-1] is None else (), n):
                line = i + 2
                if len(row) != 5:
                    failures.setdefault("fields", f"sample CSV line {line}: {len(row)} fields, expected 5")
                    continue
                step, base_cell, tag, edge, t_cell = row
                if step != str(i):
                    failures.setdefault("step", f"sample CSV line {line}: step {step!r}, expected {i}")
                read("tag", tag, base.decode)
                read("base", base_cell, float)
                if edge not in fibre_edges:
                    failures.setdefault("edge", f"sample CSV line {line}: unknown fibre edge {edge!r}")
                t = read("parameter", t_cell, float)
                # the negated test also catches NaN
                if t is not None and not 0.0 <= t <= 1.0:
                    failures.setdefault("range", f"sample CSV line {line}: parameter {t!r} outside [0, 1]")
            n += len(rows)
    except csv.Error as exc:
        raise SchemaError(f"sample CSV line {next(line_numbers) - 1}: {exc}") from exc
    if failures:
        raise SchemaError(failures[min(failures, key=SAMPLE_CHECKS.index)])
    points, *block_columns = zip(*blocks) if blocks else ((),) * 5
    columns = [array(typecode, [0]) * n for typecode in "qddd"]
    for column, pieces in zip(columns, block_columns):
        for i, piece in enumerate(pieces):
            column[i * size:i * size + len(piece)] = piece
    return (LazyPoints(n, lambda i: points[i // size][i % size]), *columns)


# ---------------------------------------------------------------------------
# file plumbing


#: the files classify writes from sample.csv
VERDICT_FILES = ("dichotomy.json", "trichotomy.json", "circles.json", "verdict.txt")


def write_out(
    out: Path, files: dict[str, str | Callable[[TextIO], None]], stale: Iterable[str] = ()
) -> None:
    """Write files into out as one set: each name maps to its text or to a
    writer given the open file.  All go to <name>.tmp; only then are the
    stale names removed and the new files moved in, each old file at one of
    those names first set aside to <name>.old.  A failed write, removal or
    move removes the files this call made, moves the set-aside files back
    and is a ConfigError; a finished call removes the set-aside files."""
    created: list[Path] = []
    aside: list[Path] = []

    def set_aside(name: str) -> Path:
        """out / name, an old file at which is first moved to <name>.old."""
        nonlocal path
        target = path = out / name
        if target.is_file():
            path = out / f"{name}.old"
            os.replace(target, path)
            aside.append(target)
        return target

    verb, path = "write", out
    try:
        for name, content in files.items():
            path = out / f"{name}.tmp"
            with open(path, "w", encoding="utf-8") as f:
                created.append(path)
                path = out / name
                content(f) if callable(content) else f.write(content)
        verb = "remove"
        for name in stale:
            path = set_aside(name)
            path.unlink(missing_ok=True)
        verb = "write"
        for name in files:
            path = set_aside(name)
            os.replace(out / f"{name}.tmp", path)
            created.append(path)
    except BaseException as exc:
        for made in created:
            with suppress(OSError):
                made.unlink(missing_ok=True)
        for old in aside:
            with suppress(OSError):
                os.replace(f"{old}.old", old)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot {verb} {path}: {exc.strerror}") from exc
        raise
    for old in aside:
        with suppress(OSError):
            os.remove(f"{old}.old")


def _make_out(path: str) -> Path:
    """--out as a directory, made if missing; one that cannot be made is a
    ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {out}: {exc.strerror}") from exc
    return out


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
    out = _make_out(args.out)
    lines = [f"construction: {name}", f"system: {result.system.id}", f"note: {result.note}"]
    if "exceptional_base" in result.system.reference:
        lines.append("exceptional fibre tag: c_l (the identified doubled point)")
    system = _jdump({"construction": name, "params": params})
    write_out(out, {"system.json": system, "summary.txt": "\n".join(lines) + "\n"})
    print(f"wrote {out / 'system.json'}")
    return EXIT_OK


def _load_system(out: Path, cfg: dict, name_arg: str | None) -> tuple[str, ConstructionResult]:
    """The construction in out/system.json, else the one named; a name or
    params that differ from system.json's are a ConfigError."""
    sysfile = out / "system.json"
    if not sysfile.exists():
        name, params = _resolve_construction(cfg, name_arg)
    else:
        name, params = _resolve_construction(load_config(str(sysfile)), None)
        asked = (name_arg or cfg.get("construction") or name, cfg.get("params", params))
        if asked != (name, params):
            raise ConfigError(f"{asked[0]} with params {asked[1]} is not {name} with params {params}, "
                              f"the construction in {sysfile}")
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
    if not 0 <= args.seed <= MAX_SEED_INDEX:
        raise ConfigError(f"seed index {args.seed} outside [0, {MAX_SEED_INDEX}]")
    return delta, steps, transient, args.seed


def cmd_minimal_set(args: argparse.Namespace) -> int:
    from .analysis import approximate_minimal_set

    cfg = load_config(args.config)
    delta, steps, transient, seed_index = _run_settings(args, cfg)
    out = _make_out(args.out)
    name, result = _load_system(out, cfg, args.name)
    if steps > STEP_CAP:
        raise CapExceeded(f"steps {steps} exceed cap {STEP_CAP}")
    if transient > STEP_CAP:
        raise CapExceeded(f"transient {transient} exceeds cap {STEP_CAP}")
    try:
        seed = result.seed(seed_index)
    except WrongInput as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    try:
        sample = approximate_minimal_set(result.system, seed, transient, steps, delta)
    except WrongInput as exc:
        # the delta / 4 thinning grid cannot index the fibre or the base
        raise ConfigError(f"{name} at delta {delta}: {exc}") from exc
    prov = dict(sample.provenance)
    prov.update({"construction": name, "delta": delta, "seed_index": seed_index})
    # the verdicts and plot of the sample being replaced go with it
    write_out(out, {"sample.csv": lambda f: sample_to_csv(sample, f), "provenance.json": _jdump(prov)},
              stale=(*VERDICT_FILES, "sample.svg"))
    print(f"wrote {out / 'sample.csv'} ({len(sample.bases)} points)")
    return EXIT_OK


def _read_out_lines(path: Path) -> Iterator[str]:
    """The lines of a UTF-8 file in --out, one at a time, with newlines
    translated as ``Path.read_text`` does; a file that cannot be read, or
    is not UTF-8, is a SchemaError (naming the offset in the file of the
    first byte that does not decode)."""
    try:
        with open(path, "rb") as f:
            offset = 0
            for raw in f:
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SchemaError(
                        f"{path} is not UTF-8 text: {exc.reason} at byte {offset + exc.start}"
                    ) from exc
                offset += len(raw)
                if "\r" in text:
                    *ended, text = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                    yield from (part + "\n" for part in ended)
                if text:
                    yield text
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc


def _check_provenance(prov: dict, path: Path, system_id: str, rows: int) -> None:
    """A provenance that does not name the loaded system, counts fewer
    steps than the sample has rows, holds a separation other than delta / 4,
    a delta outside [1e-4, 1e-1] or a seed index outside [0, MAX_SEED_INDEX]
    is a SchemaError."""
    steps, sep, delta, seed = (prov.get(k) for k in ("steps", "separation", "delta", "seed_index"))
    for ok, what in (
        (prov.get("system") == system_id, f"names system {prov.get('system')!r}, not {system_id!r}"),
        (type(steps) is int and steps >= rows, f"counts steps {steps!r}, not at least the sample's {rows} rows"),
        (type(sep) is type(delta) is float and sep == delta / 4.0,
         f"separation {sep!r} is not delta {delta!r} / 4"),
        (type(delta) is float and 1e-4 <= delta <= 1e-1, f"delta {delta!r} outside [1e-4, 1e-1]"),
        (type(seed) is int and 0 <= seed <= MAX_SEED_INDEX, f"seed_index {seed!r} outside [0, {MAX_SEED_INDEX}]"),
    ):
        if not ok:
            raise SchemaError(f"{path} {what}")


def _load_sample(args: argparse.Namespace) -> tuple[
    Path, str, ConstructionResult, dict, tuple[Sequence[BasePoint], array, array, array]
]:
    """The system saved in --out, the provenance of its orbit sample and
    the sample's checked columns (base points, fibre edge indices, parameters
    and base embeddings).  The sample was thinned at the provenance's delta;
    a --delta flag or config delta that differs is a ConfigError."""
    cfg = load_config(args.config)
    delta = _run_settings(args, cfg)[0]
    out = Path(args.out)
    name, result = _load_system(out, cfg, args.name)
    csv_path = out / "sample.csv"
    if not csv_path.exists():
        raise ConfigError(f"sample not found: {csv_path}")
    s = result.system
    with closing(_read_out_lines(csv_path)) as lines:
        bases, edge_idx, ts, written, embeddings = csv_to_points(lines, s.base, s.bundle.fibre)
    if not bases:
        raise SchemaError(f"{csv_path} holds no points")
    prov_path = out / "provenance.json"
    try:
        prov = json.loads("".join(_read_out_lines(prov_path)))
    except ValueError as exc:
        raise SchemaError(f"malformed {prov_path}: {exc}") from exc
    if not isinstance(prov, dict):
        raise SchemaError(f"{prov_path} must hold a JSON object, not {type(prov).__name__}")
    _check_provenance(prov, prov_path, s.id, len(bases))
    if (args.delta is not None or "delta" in cfg) and delta != prov["delta"]:
        raise ConfigError(f"delta {delta} is not {prov['delta']}, the delta of the sample in {out}")
    for i, (cell, embedding) in enumerate(zip(written, embeddings)):
        if cell != embedding:
            raise SchemaError(f"{csv_path} line {i + 2}: base {cell!r} is not {embedding!r}, the embedding of its tag")
    return out, name, result, prov, (bases, edge_idx, ts, embeddings)


def cmd_classify(args: argparse.Namespace) -> int:
    from .analysis import SampledSet, circles_report, endpoint_statistics, typical_fibre_report

    out, name, result, prov, (bases, edge_idx, ts, embeddings) = _load_sample(args)
    delta = prov["delta"]
    s = result.system
    sample = SampledSet(delta, bases, edge_idx, ts, prov, s.base, s.bundle, embeddings)
    delta_base = result.delta_base if result.delta_base is not None else delta

    dich = endpoint_statistics(sample, delta, delta_base)
    dich_json = {
        "endpoint_fraction": dich.endpoint_fraction,
        "interior_detected": dich.interior_detected,
        "verdict": dich.verdict,
        "scales": {"r": dich.r, "delta": dich.delta},
        "points_checked": dich.points_checked,
    }

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

    verdict_lines = [
        f"construction: {name}",
        f"dichotomy: {dich.verdict} (endpoint fraction {dich.endpoint_fraction:.4f}, "
        f"interior {dich.interior_detected})",
        f"trichotomy: {tri_json.get('typical', tri_json)}",
        f"circles: {circ_json}",
    ]
    verdict = "\n".join(verdict_lines) + "\n"
    texts = (_jdump(dich_json), _jdump(tri_json), _jdump(circ_json), verdict)
    write_out(out, dict(zip(VERDICT_FILES, texts)))
    print(verdict, end="")
    return EXIT_INCONCLUSIVE if dich.verdict == "Inconclusive" else EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    from .plotting import render_sample_svg

    out, name, result, _, (_, edge_idx, ts, embeddings) = _load_sample(args)
    highlight = []
    exceptional = result.system.reference.get("exceptional_base")
    if exceptional is not None:
        highlight.append(float(result.system.base.embedding(exceptional)))
    write_out(out, {"sample.svg": lambda f: render_sample_svg(
        f,
        result.system.bundle.fibre,
        embeddings,
        edge_idx,
        ts,
        highlight_bases=highlight,
        cut_marker=result.system.bundle.is_monodromy,
        title=name,
    )})
    print(f"wrote {out / 'sample.svg'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a ConfigError: one stderr line, exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = make_parser().parse_args(argv)
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
