"""Command-line interface.

Subcommands: ``generate`` (raw datasets), ``homogenize`` (datasets evened
out over one salient variable, with a before/after report), ``stats``
(per-variable histograms and KL-to-uniform of an existing dataset) and
``karel-run`` (execute one program on one grid).

Both domains, calc and karel, are :class:`Domain` entries of one table,
``DOMAINS``, and the subcommands never branch on the domain. Calc expressions
and Karel tasks are sampled, homogenized and measured as trees and tasks, and
serialized once, when written.

Datasets are JSON Lines with LF newlines and a fixed key order, so a given
command line and seed reproduce files byte for byte. Every written dataset
gets a sibling ``<out>.manifest.json`` recording the command, the resolved
seed and parameters, and SHA-256 digests of all outputs. When ``--seed`` is
absent the ``HOMOGEN_SEED`` environment variable is used, then 0; a
negative seed is a usage error. Outputs are written to temporary siblings
and moved into place only when the command succeeds, the manifest last, so
a failed run leaves no file behind.

Exit codes: 0 success, 1 crash reported by ``karel-run``, 2 usage errors,
3 sampling stalls (draw budget or grid retries exhausted).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import hashlib
import json
import os
import random
import stat
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TextIO

from . import __version__, calc
from .diagnostics import Histogram, kl_to_uniform
from .homogenizer import (
    BudgetExhaustedError,
    HomogenizerConfig,
    HomogenizerRun,
    SalientSpec,
    expected_tries_bound,
)
from .karel import gen as karel_gen
from .karel.interp import DEFAULT_STEP_LIMIT, branch_arms, compile_program, execute
from .karel.lang import KarelSyntaxError, parse_program
from .karel.world import grid_from_json, grid_to_json

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_USAGE = 2
EXIT_STALL = 3

# The raw-baseline comparison stream runs on seed + this offset.
BASELINE_SEED_OFFSET = 1


class UsageError(ValueError):
    pass


def resolve_seed(value: int | None) -> int:
    # random.Random seeds with abs(n), so a negative seed would write the
    # bytes of its absolute value under a manifest that records the sign.
    name = "--seed"
    if value is None:
        name = "HOMOGEN_SEED"
        env = os.environ.get(name)
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"HOMOGEN_SEED must be an integer, got {env!r}") from None
    if value < 0:
        raise UsageError(f"{name} must be 0 or more, got {value}")
    return value


def _line_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, separators=(",", ":")) + "\\n"`` as one function.

    ``JSONEncoder.encode`` builds a new C encoder on every call, so one is
    built here and reused. It skips the check for circular references, as
    no record has one (a cyclic object raises ``RecursionError``). Where the
    C accelerator, an interpreter detail, is missing, the encoder's own
    ``encode`` serves.
    """
    encoder = json.JSONEncoder(separators=(",", ":"))
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return lambda obj: encoder.encode(obj) + "\n"
    encode = make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan,
    )
    return lambda obj: "".join(encode(obj, 0)) + "\n"


_json_line = _line_encoder()


class _Outputs:
    """The files one command writes, each first to a temporary sibling.

    Every path the command will write is named when the object is made,
    which rejects a directory at any of them and a parent that is missing or
    not a directory, before anything is drawn or read: ``os.replace`` would
    fail on a directory only after moving the outputs before it, and opening
    a temporary file would find a bad parent only after the run's work. On
    success the files are moved into place in the order they were opened, so
    the manifest, opened last, lands last; on failure every temporary file
    is removed and no output path is touched. A failed open, write, close or
    move is reported against the output path it was for.
    """

    def __init__(self, *paths: Path) -> None:
        for path in paths:
            if path.is_dir():
                raise UsageError(f"{path}: Is a directory")
            try:
                if not stat.S_ISDIR(path.parent.stat().st_mode):
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
            except OSError as exc:
                raise UsageError(f"{path}: {exc.strerror or exc}") from None
        self._pending: list[tuple[Path, Path]] = []

    @contextlib.contextmanager
    def open(self, path: Path) -> Iterator[TextIO]:
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with temp.open("w", encoding="utf-8", newline="\n") as fp:
                self._pending.append((temp, path))
                yield fp
        except OSError as exc:
            raise UsageError(f"{path}: {exc.strerror or exc}") from None

    def digests(self) -> dict[str, str]:
        """SHA-256 of every file written so far, keyed by its final name."""
        return {
            path.name: hashlib.sha256(temp.read_bytes()).hexdigest()
            for temp, path in self._pending
        }

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None:
                for temp, path in self._pending:
                    try:
                        os.replace(temp, path)
                    except OSError as error:
                        raise UsageError(f"{path}: {error.strerror or error}") from None
        finally:
            for temp, _ in self._pending:
                temp.unlink(missing_ok=True)


def _write_manifest(
    outputs: _Outputs,
    out_path: Path,
    argv: list[str],
    seed: int,
    params: dict[str, Any],
    substreams: dict[str, int] | None = None,
) -> None:
    manifest = {
        "tool": "homogen",
        "version": __version__,
        "command": argv,
        "seed": seed,
        "substreams": substreams or {"main": seed},
        "params": params,
        "outputs": outputs.digests(),
    }
    with outputs.open(_sibling(out_path, ".manifest.json")) as fp:
        fp.write(json.dumps(manifest, indent=2) + "\n")


def _sibling(out_path: Path, suffix: str) -> Path:
    """The path of the dataset's manifest or report with this suffix."""
    return out_path.with_name(out_path.name + suffix)


# ---------------------------------------------------------------------------
# domains


Source = Callable[[random.Random], Any]


@dataclass(frozen=True)
class Domain:
    """One dataset domain as the subcommands see it.

    ``source`` builds a seeded item sampler and the manifest parameters,
    raising ``ValueError`` before any output is opened; ``salients`` measures
    every salient variable of an item in one pass; ``read`` validates and
    measures a stored record, which belongs to the domain whose ``key`` it has.
    """

    name: str
    help: str
    key: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    source: Callable[[argparse.Namespace], tuple[Source, dict[str, Any]]]
    to_record: Callable[[Any], dict[str, Any]]
    salients: Callable[[Any], dict[str, Any]]
    read: Callable[[Any], dict[str, Any]]
    salient_specs: Callable[[], dict[str, SalientSpec]]


_CALC_SAMPLERS = {
    "dcfg": lambda args: calc.Dcfg() if args.p is None else calc.Dcfg(p=args.p),
    "t2t": lambda args: calc.T2t(max_depth=args.max_depth),
    "rcfg": lambda args: calc.Rcfg() if args.p is None else calc.Rcfg(p=args.p),
    "bal": lambda args: calc.Bal(),
}


def _calc_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dist", choices=tuple(_CALC_SAMPLERS), default="dcfg", help="expression sampler"
    )
    parser.add_argument("--p", type=float, default=None, help="recursion rate for dcfg/rcfg")
    parser.add_argument("--max-depth", type=int, default=8, help="t2t depth ceiling")


def _calc_source(args: argparse.Namespace) -> tuple[Source, dict[str, Any]]:
    sampler = _CALC_SAMPLERS[args.dist](args)
    params = {"domain": "calc", "dist": args.dist, "sampler": repr(sampler)}

    # A dcfg or rcfg draw can pass the nesting cap, and a t2t draw the node
    # bound; bal depths past the bound are rejected when the sampler is built.
    def draw(rng: random.Random) -> calc.CalcExpr:
        try:
            return calc.sample_expr(rng, sampler)
        except ValueError as exc:
            flag = f"--max-depth {args.max_depth}" if args.dist == "t2t" else f"--p {sampler.p}"
            raise UsageError(f"{flag}: {exc}; choose a smaller value") from None

    return draw, params


def _karel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grids", choices=("uniform", "narrow"), default="uniform",
        help="input grid distribution",
    )
    parser.add_argument("--r-wall", type=float, default=None, help="narrow wall cell rate")
    parser.add_argument("--r-marker", type=float, default=None, help="narrow marker cell rate")
    parser.add_argument(
        "--marker-dist", choices=tuple(d.value for d in karel_gen.MarkerCountDist),
        default="geom", help="narrow pile-size distribution",
    )
    parser.add_argument(
        "--pairs", default="5", help="shown pairs per task: 1..5 or 'uniform' for a per-task draw"
    )
    parser.add_argument(
        "--step-limit", type=int, default=DEFAULT_STEP_LIMIT, help="action budget per execution"
    )
    parser.add_argument(
        "--classic-prune", action="store_true",
        help="only keep programs with two or more actions including a move",
    )


def _karel_source(args: argparse.Namespace) -> tuple[Source, dict[str, Any]]:
    params: dict[str, Any] = {"domain": "karel", "grids": args.grids, "pairs": args.pairs}
    grid_sampler = karel_gen.sample_uniform_grid
    if args.grids == "narrow":
        if args.r_wall is None or args.r_marker is None:
            raise UsageError("narrow grids need --r-wall and --r-marker")
        narrow = karel_gen.NarrowGridParams(
            args.r_wall, args.r_marker, karel_gen.MarkerCountDist(args.marker_dist)
        )
        grid_sampler = lambda rng: karel_gen.sample_narrow_grid(rng, narrow)  # noqa: E731
        params |= {"r_wall": args.r_wall, "r_marker": args.r_marker,
                   "marker_dist": args.marker_dist}
    pairs = args.pairs
    if pairs != "uniform":
        try:
            pairs = int(pairs)
        except ValueError:
            raise UsageError("--pairs must be an integer in 1..5 or 'uniform'") from None
    if args.classic_prune:
        params["classic_prune"] = True
    source = karel_gen.task_source(
        grid_sampler,
        n_pairs=pairs,
        step_limit=args.step_limit,
        program_filter=karel_gen.satisfies_action_pruning if args.classic_prune else None,
    )
    return source, params


def _read_calc(record: dict[str, Any]) -> dict[str, Any]:
    text = record["expr"]
    if not isinstance(text, str):
        raise TypeError(f"'expr' must be a string, not {type(text).__name__}")
    return calc.calc_salients(text)


# Record-level calls go through the module attributes at call time, so that
# wrappers installed on those attributes see every call.
DOMAINS = {
    domain.name: domain
    for domain in (
        Domain(
            name="calc",
            help="mod-10 calculator expressions",
            key="expr",
            add_arguments=_calc_arguments,
            source=_calc_source,
            to_record=lambda expr: calc.expr_record(expr),
            salients=lambda expr: calc.expr_salients(expr),
            read=_read_calc,
            salient_specs=calc.salient_specs,
        ),
        Domain(
            name="karel",
            help="Karel synthesis tasks",
            key="program",
            add_arguments=_karel_arguments,
            source=_karel_source,
            to_record=lambda task: karel_gen.task_to_json(task),
            salients=lambda task: karel_gen.task_salients(task),
            read=lambda record: karel_gen.task_salients(karel_gen.task_from_json(record)),
            salient_specs=karel_gen.salient_specs,
        ),
    )
}


def _domain_source(args: argparse.Namespace) -> tuple[Domain, Source, dict[str, Any]]:
    domain = DOMAINS[args.domain]
    try:
        source, params = domain.source(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return domain, source, params


def _salient_specs(domain: Domain, names: list[str]) -> list[SalientSpec]:
    specs = domain.salient_specs()
    if unknown := [name for name in names if name not in specs]:
        raise UsageError(
            f"unknown {domain.name} variable(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(sorted(specs))}"
        )
    if repeated := dict.fromkeys(name for name in names if names.count(name) > 1):
        raise UsageError(
            f"repeated {domain.name} variable(s) {', '.join(map(repr, repeated))}; "
            "name each variable once"
        )
    return [specs[name] for name in names]


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace, argv: list[str]) -> int:
    seed = resolve_seed(args.seed)
    out_path = Path(args.out)
    outputs = _Outputs(out_path, _sibling(out_path, ".manifest.json"))
    domain, source, params = _domain_source(args)
    params |= {"count": args.count}
    rng = random.Random(seed)
    with outputs:
        with outputs.open(out_path) as fp:
            for _ in range(args.count):
                fp.write(_json_line(domain.to_record(source(rng))))
        _write_manifest(outputs, out_path, argv, seed, params)
    print(f"wrote {args.count} records to {out_path}")
    return EXIT_OK


def cmd_homogenize(args: argparse.Namespace, argv: list[str]) -> int:
    seed = resolve_seed(args.seed)
    out_path = Path(args.out)
    report_json = _sibling(out_path, ".report.json")
    report_csv = _sibling(out_path, ".report.csv")
    outputs = _Outputs(out_path, report_json, report_csv, _sibling(out_path, ".manifest.json"))
    domain, source, params = _domain_source(args)
    (base,) = _salient_specs(domain, [args.var])
    params |= {"variable": args.var, "epsilon": args.eps, "count": args.count}
    if args.max_draws is not None:
        params["max_draws"] = args.max_draws
    try:
        bound = expected_tries_bound(args.eps)
    except ValueError as exc:
        raise UsageError(f"--eps {args.eps}: {exc}") from None
    try:
        config = HomogenizerConfig(
            epsilon=args.eps, target_size=args.count, seed=seed, max_draws=args.max_draws
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    # Each draw is an (item, salient values) pair, so an item is measured
    # once and serialized only when it is accepted.
    def measured(rng: random.Random) -> tuple[Any, dict[str, Any]]:
        item = source(rng)
        return item, domain.salients(item)

    name = base.name
    spec = SalientSpec(name, base.domain, lambda drawn: drawn[1][name])
    run = HomogenizerRun(measured, spec, config)
    after_values = []
    with outputs:
        with outputs.open(out_path) as fp:
            for item, values in run:
                fp.write(_json_line(domain.to_record(item)))
                after_values.append(values[name])

        baseline_seed = seed + BASELINE_SEED_OFFSET
        baseline_rng = random.Random(baseline_seed)
        baseline_values = [spec.extract(measured(baseline_rng)) for _ in range(args.count)]
        before = Histogram.from_values(spec.domain, baseline_values)
        after = Histogram.from_values(spec.domain, after_values)
        kl_before = kl_to_uniform(before)
        kl_after = kl_to_uniform(after)
        reduction = 100.0 * (1.0 - kl_after / kl_before) if kl_before > 0 else 0.0
        # The report's one row; its key order is the CSV column order.
        row = {
            "variable": spec.name,
            "epsilon": args.eps,
            "kl_before": kl_before,
            "kl_after": kl_after,
            "reduction_pct": reduction,
            "draws_per_accept": run.draws_used / args.count,
            "bound": bound,
        }
        with outputs.open(report_json) as fp:
            fp.write(json.dumps([row], indent=2) + "\n")
        with outputs.open(report_csv) as fp:
            csv.writer(fp, lineterminator="\n").writerows([row.keys(), row.values()])
        _write_manifest(
            outputs, out_path, argv, seed, params,
            substreams={"main": seed, "baseline": baseline_seed},
        )
    print(
        f"wrote {args.count} records to {out_path} "
        f"(draws/accept {row['draws_per_accept']:.2f}, KL {kl_before:.4f} -> {kl_after:.4f})"
    )
    return EXIT_OK


def _dataset_columns(path: Path, variables: list[str] | None) -> list[tuple[SalientSpec, list]]:
    """Recognise the dataset's domain by its first record, then validate and
    measure each record once, keeping only the chosen salient values.
    """
    columns: list[tuple[SalientSpec, list]] | None = None
    try:
        with path.open("r", encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    # A JSON value nested past the decoder's depth raises
                    # RecursionError, which has no ``msg``.
                    raise UsageError(
                        f"{path}: line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})"
                    ) from None
                if columns is None:
                    domain = _domain_of(path, record)
                    names = variables or sorted(domain.salient_specs())
                    columns = [(spec, []) for spec in _salient_specs(domain, names)]
                try:
                    if not isinstance(record, dict):
                        raise TypeError("not a JSON object")
                    values = domain.read(record)
                except KeyError as exc:
                    raise UsageError(
                        f"{path}: line {lineno}: bad record (missing key {exc})"
                    ) from None
                except (TypeError, ValueError, RecursionError) as exc:
                    raise UsageError(f"{path}: line {lineno}: bad record ({exc})") from None
                for spec, column in columns:
                    column.append(values[spec.name])
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    if columns is None:
        raise UsageError(f"{path}: empty dataset")
    return columns


def _domain_of(path: Path, record: Any) -> Domain:
    for domain in DOMAINS.values():
        if isinstance(record, dict) and domain.key in record:
            return domain
    raise UsageError(f"{path}: records look like none of the domains {', '.join(DOMAINS)}")


def cmd_stats(args: argparse.Namespace, argv: list[str]) -> int:
    outputs = _Outputs(Path(args.out)) if args.out else None
    variables = args.vars.split(",") if args.vars else None
    report: dict[str, Any] = {"dataset": args.dataset, "variables": {}}
    csv_lines = ["variable,kl_to_uniform,value,count"]
    for spec, values in _dataset_columns(Path(args.dataset), variables):
        histogram = Histogram.from_values(spec.domain, values)
        kl = kl_to_uniform(histogram)
        nonzero = {str(v): c for v, c in histogram.counts.items() if c}
        report["variables"][spec.name] = {
            "count": histogram.total,
            "kl_to_uniform": kl,
            "histogram": nonzero,
        }
        for value, count in nonzero.items():
            csv_lines.append(f"{spec.name},{kl},{value},{count}")
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    if outputs is not None:
        with outputs, outputs.open(Path(args.out)) as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_karel_run(args: argparse.Namespace, argv: list[str]) -> int:
    program_path = Path(args.program)
    grid_path = Path(args.grid)
    try:
        program = parse_program(program_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, KarelSyntaxError, RecursionError) as exc:
        raise UsageError(f"{program_path}: {exc}") from None
    try:
        grid = grid_from_json(json.loads(grid_path.read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"{grid_path}: {exc}") from None

    compiled = compile_program(program)
    try:
        result = execute(compiled, grid, step_limit=args.step_limit)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    arms = branch_arms(compiled)
    coverage = f"coverage: {len(result.branches_taken)}/{len(arms)} arms"
    if result.success:
        sys.stdout.write(_json_line(grid_to_json(result.output)))
        print(coverage)
        return EXIT_OK
    print(f"crash: {result.crash.value}")
    print(coverage)
    return EXIT_CRASH


# ---------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_domain_arguments(parser: argparse.ArgumentParser, *, homogenize: bool = False) -> None:
    sub = parser.add_subparsers(dest="domain", required=True)
    for domain in DOMAINS.values():
        p = sub.add_parser(domain.name, help=domain.help)
        domain.add_arguments(p)
        if homogenize:
            p.add_argument("--var", required=True, help="salient variable to even out")
            p.add_argument(
                "--eps", type=float, default=0.025,
                help="uniformity/throughput trade-off (default 0.025)",
            )
            p.add_argument(
                "--max-draws", type=int, default=None,
                help="source draw budget (default: 20x the expected need)",
            )
        p.add_argument("--count", type=_count, required=True, help="records to write")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default HOMOGEN_SEED or 0)")
        p.add_argument("--out", required=True, help="output JSONL path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homogen",
        description="Generate and homogenize synthetic program-synthesis datasets.",
    )
    parser.add_argument("--version", action="version", version=f"homogen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a raw dataset")
    _add_domain_arguments(generate)
    generate.set_defaults(func=cmd_generate)

    homogenize_p = sub.add_parser(
        "homogenize", help="write a dataset evened out over one salient variable"
    )
    _add_domain_arguments(homogenize_p, homogenize=True)
    homogenize_p.set_defaults(func=cmd_homogenize)

    stats = sub.add_parser("stats", help="histograms and KL-to-uniform of a dataset")
    stats.add_argument("dataset", help="JSONL dataset path")
    stats.add_argument("--vars", default=None, help="comma-separated variables (default: all)")
    stats.add_argument("--format", choices=("json", "csv"), default="json")
    stats.add_argument("--out", default=None, help="write here instead of stdout")
    stats.set_defaults(func=cmd_stats)

    karel_run = sub.add_parser("karel-run", help="run one program on one grid")
    karel_run.add_argument("program", help="program text file")
    karel_run.add_argument("grid", help="grid JSON file")
    karel_run.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)
    karel_run.set_defaults(func=cmd_karel_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused while the command runs and
    restored after it. A Karel record holds about a thousand containers at
    once (JSON lists and dicts, cell tuples, run states), enough to start a
    young-generation pass more than once per record, yet no record forms a
    reference cycle: reference counting frees each one, so those passes find
    nothing to collect and only cost time.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors.
        return int(exc.code or 0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhaustedError as exc:
        print(
            f"error: draw budget exhausted after {exc.draws_used} draws "
            f"({exc.accepted} accepted)",
            file=sys.stderr,
        )
        return EXIT_STALL
    except karel_gen.GenerationStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
