"""Command-line interface.

Subcommands: ``generate`` (raw datasets), ``homogenize`` (datasets evened
out over one salient variable, with a before/after report), ``stats``
(per-variable histograms and KL-to-uniform of an existing dataset) and
``karel-run`` (execute one program on one grid).

Both domains, calc and karel, are :class:`Domain` entries of one table,
``DOMAINS``, and the subcommands never branch on the domain. Calc expressions
and Karel tasks are sampled, homogenized and measured as trees and tasks, and
serialized once, when written, each straight to its JSON line: a calc record
through ``calc.expr_line`` and a Karel task through ``karel.gen.task_line``, so
no record is built as JSON lists and dicts first. A domain builds both
sources of a command at once: the item source ``generate`` draws from and,
for a variable name, ``homogenize``'s, whose draws pair an item with its value.
``stats`` decodes a dataset's first record as JSON to find its domain; after
it, a Karel line in ``task_line``'s exact text is read as text by
``karel.gen.task_from_line``, and any other line is decoded and read by
``task_from_json``, which words every error.

A command runs only its own domain's modules. ``import homogen.cli``
registers ``homogen.calc`` and the four ``homogen.karel`` modules in
``sys.modules``, where the benchmark's tracer finds them, without running
them; each runs at its first attribute access. Building the parser and
parsing a command line run none of them, so a command runs its domain's
modules only once its work starts: the Karel flags' choices and defaults are
literals, which tests pin to ``karel.gen`` and ``karel.interp``, as the rcfg
and bal manifest texts in ``_CALC_DISTS`` are pinned.

Datasets are JSON Lines with LF newlines and a fixed key order, so a given
command line and seed reproduce files byte for byte. Every written dataset
gets a sibling ``<out>.manifest.json`` recording the command, the resolved
seed and parameters, and SHA-256 digests of all outputs. When ``--seed`` is
absent the ``HOMOGEN_SEED`` environment variable is used, then 0. A seed is
ASCII decimal digits, an integer flag an optional ``-`` then ASCII digits,
and a float flag ASCII text with no ``_`` or surrounding spaces; anything
else, a negative seed included, is a usage error. Outputs are written to
temporary siblings and moved into place only when the command succeeds,
the manifest last, so a failed run leaves no file behind: if a move fails,
the outputs already moved are put back as they were.

Exit codes: 0 success, 1 crash reported by ``karel-run``, 2 usage errors,
3 sampling stalls (a ``BudgetExhaustedError``: a homogenizer run's draw
budget or a Karel task stream's program attempts exhausted), 130 and 143 for
a run that SIGINT or SIGTERM interrupted: once ``main`` starts, or, under
``python -m homogen.cli``, once this module starts loading. ``main`` reports
a library ``ValueError`` that opens with a parameter in ``_FLAGS`` as a
usage error against that parameter's flags; any other one propagates.
"""

from __future__ import annotations

import sys
import threading
from typing import Any

# ``signal`` wraps this built-in module and builds its enums on import,
# which would add about 1 ms to every run.
import _signal as signal


def _take_signals(handler: Any) -> dict[int, Any]:
    """Point SIGINT and SIGTERM, unless ignored, at ``handler`` and return
    the handlers they had; in a thread other than the main one, which may
    not set them, change nothing."""
    taken = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            if signal.getsignal(signum) != signal.SIG_IGN:
                taken[signum] = signal.signal(signum, handler)
    return taken


def _end_loading(signum: int, frame: Any) -> None:
    print("error: interrupted", file=sys.stderr)
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # Run as a script, a signal that arrives while the modules below load,
    # before ``main`` takes the signals over, ends the run as it ends a
    # command; nothing is written yet. Imported as a library, the module
    # changes no handler.
    _take_signals(_end_loading)

import argparse
import contextlib
import errno
import functools
import importlib.util
import json
import os
import random
import stat
from collections.abc import Callable, Iterator
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, TextIO

from . import __version__
from .diagnostics import kl_to_uniform
from .homogenizer import (
    BudgetExhaustedError,
    CountTable,
    HomogenizerRun,
    SalientSpec,
    expected_tries_bound,
)


def _lazy(name: str) -> Any:
    """The module ``name``, registered in ``sys.modules`` and on its package
    as ``import`` would register it, but run only at its first attribute
    access; a module already imported is returned as it is, since running it
    again would make a second copy of each of its classes."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


calc = _lazy("homogen.calc")
karel_gen = _lazy("homogen.karel.gen")
karel_interp = _lazy("homogen.karel.interp")
karel_lang = _lazy("homogen.karel.lang")
karel_world = _lazy("homogen.karel.world")

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_USAGE = 2
EXIT_STALL = 3

# The raw-baseline comparison stream runs on seed + this offset.
BASELINE_SEED_OFFSET = 1


class UsageError(ValueError):
    pass


class _Interrupted(BaseException):
    """SIGINT or SIGTERM, raised in the running command so that its outputs
    are cleaned up as for any failure; its one argument is the signal."""


def _interrupt(signum: int, frame: Any) -> None:
    raise _Interrupted(signum)


def _integer(text: str) -> int:
    # int() also takes "1_0", "+3", padding and other scripts' digits.
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # past sys.get_int_max_str_digits()
            return int(text)
    raise argparse.ArgumentTypeError(f"must be ASCII decimal digits, got {text!r}")


def _real(text: str) -> float:
    # float() also takes "0_2", padding and other scripts' digits. It takes
    # "nan" and "inf" too, which the range checks refuse.
    if text.isascii() and "_" not in text and text == text.strip():
        with contextlib.suppress(ValueError):
            return float(text)
    raise argparse.ArgumentTypeError(
        f"must be an ASCII number with no '_' or spaces, got {text!r}"
    )


def resolve_seed(text: str | None) -> int:
    # Random seeds with abs(n), so a negative seed would write the bytes of
    # its absolute value under a manifest that records the sign.
    name = "--seed"
    if text is None:
        name = "HOMOGEN_SEED"
        text = os.environ.get(name)
        if text is None:
            return 0
    try:
        value = _integer(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{name} {exc}") from None
    if text.startswith("-"):
        raise UsageError(f"{name} must be 0 or more, got {text}")
    return value


def _json_line(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


class _Outputs:
    """The files one command writes, each first to a temporary sibling.

    Every path the command will write is named when the object is made,
    which rejects a symbolic link, a directory or other non-regular file at
    any of them and a parent that is missing or not a directory, before
    anything is drawn or read: ``os.replace`` would put a regular file in
    place of a link (its target untouched), a FIFO or a device, and fail on
    a directory only after moving the outputs before it, and opening a
    temporary file would find a bad parent only after the run's work. On
    success the files are moved into place in the order they were opened,
    so the manifest, opened last, lands last; on failure every temporary
    file is removed and every output path holds what it held before, the
    old file or none. A failed open, write, close or move is reported
    against the output path it was for.
    """

    def __init__(self, *paths: Path) -> None:
        for path in paths:
            if path.is_symlink():
                raise UsageError(f"{path}: Is a symbolic link")
            if path.is_dir():
                raise UsageError(f"{path}: Is a directory")
            if path.exists() and not path.is_file():
                raise UsageError(f"{path}: Not a regular file")
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
        """SHA-256 of every file written so far, keyed by its final name.

        Each file is read in 64 KiB chunks, so a large dataset does not join
        the peak memory.
        """
        import hashlib  # here, as it loads OpenSSL, which only writing commands need
        digests = {}
        for temp, path in self._pending:
            digest = hashlib.sha256()
            with open(temp, "rb") as fp:
                while chunk := fp.read(1 << 16):
                    digest.update(chunk)
            digests[path.name] = digest.hexdigest()
        return digests

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None:
                self._commit()
        finally:
            for temp, _ in self._pending:
                temp.unlink(missing_ok=True)

    def _commit(self) -> None:
        """Move every file into place, or, when any step fails, put back
        what each moved-over path held before: its old file, or none.

        Each existing output is first hard-linked to a backup sibling (a
        link, not a rename, so the path is never empty), or copied where the
        file system refuses the link. A backup that cannot be moved back is
        left in place, as the only copy of the old file.
        """
        backups: dict[Path, Path] = {}
        moved: list[Path] = []
        try:
            for _, path in self._pending:
                if path.exists():
                    backups[path] = path.with_name(f".{path.name}.{os.getpid()}.bak")
                    try:
                        os.link(path, backups[path])
                    except OSError:
                        import shutil  # only where hard links fail
                        shutil.copy2(path, backups[path])
            for temp, path in self._pending:
                os.replace(temp, path)
                moved.append(path)
        except BaseException as error:
            for done in reversed(moved):
                with contextlib.suppress(OSError):
                    if done in backups:
                        os.replace(backups.pop(done), done)
                    else:
                        done.unlink()
            if isinstance(error, OSError):
                raise UsageError(f"{path}: {error.strerror or error}") from None
            raise
        finally:
            for backup in backups.values():
                backup.unlink(missing_ok=True)


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
Sources = tuple[Source, Callable[[str], Source], dict[str, Any]]


class Domain(NamedTuple):
    """One dataset domain as the subcommands see it.

    ``sources`` builds, from the parsed arguments, the item source that
    ``generate`` draws from, a function that gives ``homogenize``'s per-run
    source for a variable name, whose draws are ``(item, value of the
    variable)``, and the manifest parameters, raising ``ValueError`` before
    any output is opened. ``read`` validates and measures a stored record,
    which belongs to the domain whose ``key`` it has. ``read_line``, when
    the domain has one, measures a record from its line in the exact text
    ``to_line`` writes, or returns ``None`` for any other line, which
    ``read`` then reads.
    """

    name: str
    help: str
    key: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    sources: Callable[[argparse.Namespace], Sources]
    to_line: Callable[[Any], str]
    read: Callable[[Any], dict[str, Any]]
    read_line: Callable[[str], dict[str, Any] | None] | None
    salient_specs: Callable[[], dict[str, SalientSpec]]


# Each --dist's sampler builder and manifest ``sampler`` text: the sampler's
# repr at manifest version 0.1.0, when the calc constants here were its fields.
_CALC_DISTS = {
    "dcfg": (lambda args: calc.Dcfg() if args.p is None else calc.Dcfg(p=args.p),
             "Dcfg(p={0.p!r})"),
    "t2t": (lambda args: calc.T2t(max_depth=args.max_depth),
            "T2t(max_depth={0.max_depth!r}, depth=None)"),
    "rcfg": (lambda args: calc.Rcfg() if args.p is None else calc.Rcfg(p=args.p),
             "Rcfg(p={0.p!r}, run_lengths=(2, 3, 4))"),
    "bal": (lambda args: calc.Bal(), "Bal(depths=(1, 2, 3, 4, 5, 6))"),
}


def _calc_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dist", choices=tuple(_CALC_DISTS), default="dcfg", help="expression sampler"
    )
    parser.add_argument("--p", type=_real, default=None, help="recursion rate for dcfg/rcfg")
    parser.add_argument("--max-depth", type=_integer, default=8, help="t2t depth ceiling")


def _calc_sources(args: argparse.Namespace) -> Sources:
    build, text = _CALC_DISTS[args.dist]
    sampler = build(args)
    params = {"domain": "calc", "dist": args.dist, "sampler": text.format(sampler)}
    return (functools.partial(calc.sample_expr, sampler=sampler),
            functools.partial(calc.measured_source, sampler), params)


# The --marker-dist choices and the --pairs and --step-limit defaults (the last
# also karel-run's) are ``MarkerCountDist``'s values, ``MAX_PAIRS`` and
# ``DEFAULT_STEP_LIMIT`` written out, so that the parser runs no Karel module.
def _karel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grids", choices=("uniform", "narrow"), default="uniform",
        help="input grid distribution",
    )
    parser.add_argument("--r-wall", type=_real, default=None, help="narrow wall cell rate")
    parser.add_argument("--r-marker", type=_real, default=None, help="narrow marker cell rate")
    parser.add_argument(
        "--marker-dist", choices=("geom", "uniform", "antigeom"),
        default="geom", help="narrow pile-size distribution",
    )
    parser.add_argument(
        "--pairs", default="5",
        help="shown pairs per task: 1..5 or 'uniform' for a per-task draw",
    )
    parser.add_argument(
        "--step-limit", type=_integer, default=200, help="action budget per execution",
    )
    parser.add_argument(
        "--classic-prune", action="store_true",
        help="only keep programs with two or more actions including a move",
    )


def _karel_sources(args: argparse.Namespace) -> Sources:
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
    try:
        pairs = args.pairs if args.pairs == "uniform" else _integer(args.pairs)
    except argparse.ArgumentTypeError:
        raise UsageError(f"--pairs must be an integer in 1..{karel_gen.MAX_PAIRS} or "
                         f"'uniform', got {args.pairs!r}") from None
    if args.classic_prune:
        params["classic_prune"] = True
    source = karel_gen.task_source(
        grid_sampler,
        n_pairs=pairs,
        step_limit=args.step_limit,
        classic_prune=args.classic_prune,
    )
    return source, functools.partial(_karel_measured, source), params


def _karel_measured(source: Source, name: str) -> Source:
    def measured(rng: random.Random) -> tuple[Any, Any]:
        task = source(rng)
        return task, karel_gen.task_salients(task)[name]

    return measured


def _read_calc(record: dict[str, Any]) -> dict[str, Any]:
    text = record["expr"]
    if not isinstance(text, str):
        raise TypeError(f"'expr' must be a string, not {type(text).__name__}")
    return calc.calc_salients(text)


def _read_karel_line(line: str) -> dict[str, Any] | None:
    task = karel_gen.task_from_line(line)
    return None if task is None else karel_gen.task_salients(task)


# Calls into the domain modules look up their attributes when a command
# runs, so wrappers installed before it see them. ``homogenize calc`` draws
# through ``calc.measured_source``, which bypasses ``calc.sample_expr``.
DOMAINS = {
    domain.name: domain
    for domain in (
        Domain(
            name="calc",
            help="mod-10 calculator expressions",
            key="expr",
            add_arguments=_calc_arguments,
            sources=_calc_sources,
            to_line=lambda expr: calc.expr_line(expr),
            read=_read_calc,
            read_line=None,
            salient_specs=lambda: calc.salient_specs(),
        ),
        Domain(
            name="karel",
            help="Karel synthesis tasks",
            key="program",
            add_arguments=_karel_arguments,
            sources=_karel_sources,
            to_line=lambda task: karel_gen.task_line(task),
            read=lambda record: karel_gen.task_salients(karel_gen.task_from_json(record)),
            read_line=_read_karel_line,
            salient_specs=lambda: karel_gen.salient_specs(),
        ),
    )
}


def _domain_source(args: argparse.Namespace) -> tuple[Domain, Source, Callable, dict[str, Any]]:
    domain = DOMAINS[args.domain]
    return domain, *domain.sources(args)


def _salient_specs(domain: Domain, names: list[str]) -> list[SalientSpec]:
    specs = domain.salient_specs()
    if unknown := dict.fromkeys(name for name in names if name not in specs):
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
    domain, source, _, params = _domain_source(args)
    params |= {"count": args.count}
    rng = random.Random(seed)
    with outputs:
        with outputs.open(out_path) as fp:
            for _ in range(args.count):
                fp.write(domain.to_line(source(rng)))
        _write_manifest(outputs, out_path, argv, seed, params)
    print(f"wrote {args.count} records to {out_path}")
    return EXIT_OK


def cmd_homogenize(args: argparse.Namespace, argv: list[str]) -> int:
    seed = resolve_seed(args.seed)
    out_path = Path(args.out)
    report_json = _sibling(out_path, ".report.json")
    report_csv = _sibling(out_path, ".report.csv")
    outputs = _Outputs(out_path, report_json, report_csv, _sibling(out_path, ".manifest.json"))
    domain, _, measured_by, params = _domain_source(args)
    (base,) = _salient_specs(domain, [args.var])
    params |= {"variable": args.var, "epsilon": args.eps, "count": args.count}
    if args.max_draws is not None:
        params["max_draws"] = args.max_draws
    bound = expected_tries_bound(args.eps)
    # Each draw is an (item, value) pair, so an item is measured once and
    # serialized only when it is accepted.
    measured = measured_by(base.name)
    spec = SalientSpec(base.name, base.domain, itemgetter(1))
    run = HomogenizerRun(
        measured, spec,
        epsilon=args.eps, target_size=args.count, seed=seed, max_draws=args.max_draws,
    )
    before, after = CountTable(spec.domain), CountTable(spec.domain)
    baseline_seed = seed + BASELINE_SEED_OFFSET
    with outputs:
        with outputs.open(out_path) as fp:
            for item, value in run:
                fp.write(domain.to_line(item))
                after.increment(value)
        baseline_rng = random.Random(baseline_seed)
        for _ in range(args.count):
            before.increment(measured(baseline_rng)[1])
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
            fp.write(",".join(row) + "\n" + ",".join(map(str, row.values())) + "\n")
        _write_manifest(
            outputs, out_path, argv, seed, params,
            substreams={"main": seed, "baseline": baseline_seed},
        )
    print(
        f"wrote {args.count} records to {out_path} "
        f"(draws/accept {row['draws_per_accept']:.2f}, KL {kl_before:.4f} -> {kl_after:.4f})"
    )
    return EXIT_OK


def _dataset_columns(
    path: Path, variables: list[str] | None
) -> list[tuple[SalientSpec, CountTable]]:
    """Recognise the dataset's domain by its first record, then validate and
    measure each record once, counting each chosen salient value into its
    variable's table as the record is read; no record's values are kept.

    The first record is decoded as JSON. After it, each line goes first to
    the domain's ``read_line``, when it has one; a line that gives ``None``
    there is decoded and read by ``read``, which alone words the error of a
    bad record.
    """
    tables: list[tuple[SalientSpec, CountTable]] | None = None
    read_line = None
    try:
        with path.open("r", encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                values = None if read_line is None else read_line(line)
                if values is None:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        # ValueError covers JSONDecodeError and an int past the
                        # digit limit; that one, like RecursionError from a value
                        # nested past the decoder's depth, has no ``msg``.
                        raise UsageError(
                            f"{path}: line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})"
                        ) from None
                    if tables is None:
                        domain = _domain_of(path, record)
                        names = variables or sorted(domain.salient_specs())
                        tables = [(spec, CountTable(spec.domain))
                                  for spec in _salient_specs(domain, names)]
                        read_line = domain.read_line
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
                # Outside the try: a measured value off its domain is a
                # fault of the program, not of the record.
                for spec, table in tables:
                    table.increment(values[spec.name])
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    if tables is None:
        raise UsageError(f"{path}: empty dataset")
    return tables


def _domain_of(path: Path, record: Any) -> Domain:
    for domain in DOMAINS.values():
        if isinstance(record, dict) and domain.key in record:
            return domain
    raise UsageError(f"{path}: records look like none of the domains {', '.join(DOMAINS)}")


def cmd_stats(args: argparse.Namespace, argv: list[str]) -> int:
    outputs = _Outputs(Path(args.out)) if args.out else None
    variables = args.vars.split(",") if args.vars is not None else None
    report: dict[str, Any] = {"dataset": args.dataset, "variables": {}}
    csv_lines = ["variable,kl_to_uniform,value,count"]
    for spec, table in _dataset_columns(Path(args.dataset), variables):
        kl = kl_to_uniform(table)
        nonzero = {str(v): c for v, c in table.counts.items() if c}
        report["variables"][spec.name] = {
            "count": table.total,
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
        program = karel_lang.parse_program(program_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, karel_lang.KarelSyntaxError, RecursionError) as exc:
        raise UsageError(f"{program_path}: {getattr(exc, 'strerror', None) or exc}") from None
    try:
        grid = karel_world.grid_from_json(json.loads(grid_path.read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"{grid_path}: {getattr(exc, 'strerror', None) or exc}") from None

    compiled = karel_interp.compile_program(program)
    result = karel_interp.execute(compiled, grid, step_limit=args.step_limit)
    arms = karel_interp.branch_arms(compiled)
    coverage = f"coverage: {len(result.branches_taken)}/{len(arms)} arms"
    if result.success:
        sys.stdout.write(_json_line(karel_world.grid_to_json(result.output)))
        print(coverage)
        return EXIT_OK
    print(f"crash: {result.crash.value}")
    print(coverage)
    return EXIT_CRASH


# ---------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _domain_parsers(parser: argparse.ArgumentParser, *, homogenize: bool = False) -> None:
    sub = parser.add_subparsers(dest="domain", required=True)
    for domain in DOMAINS.values():
        p = sub.add_parser(domain.name, help=domain.help)
        domain.add_arguments(p)
        if homogenize:
            p.add_argument("--var", required=True, help="salient variable to even out")
            p.add_argument(
                "--eps", type=_real, default=0.025,
                help="uniformity/throughput trade-off (default 0.025)",
            )
            p.add_argument(
                "--max-draws", type=_integer, default=None,
                help="source draw budget (default: 20x the expected need)",
            )
        p.add_argument("--count", type=_count, required=True, help="records to write")
        p.add_argument("--seed", default=None, help="RNG seed (default HOMOGEN_SEED or 0)")
        p.add_argument("--out", required=True, help="output JSONL path")


def _stats_arguments(stats: argparse.ArgumentParser) -> None:
    stats.add_argument("dataset", help="JSONL dataset path")
    stats.add_argument("--vars", default=None, help="comma-separated variables (default: all)")
    stats.add_argument("--format", choices=("json", "csv"), default="json")
    stats.add_argument("--out", default=None, help="write here instead of stdout")


def _karel_run_arguments(karel_run: argparse.ArgumentParser) -> None:
    karel_run.add_argument("program", help="program text file")
    karel_run.add_argument("grid", help="grid JSON file")
    karel_run.add_argument("--step-limit", type=_integer, default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homogen",
        description="Generate and homogenize synthetic program-synthesis datasets.",
    )
    parser.add_argument("--version", action="version", version=f"homogen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add_arguments, func, summary in (
        ("generate", _domain_parsers, cmd_generate, "write a raw dataset"),
        ("homogenize", functools.partial(_domain_parsers, homogenize=True), cmd_homogenize,
         "write a dataset evened out over one salient variable"),
        ("stats", _stats_arguments, cmd_stats, "histograms and KL-to-uniform of a dataset"),
        ("karel-run", _karel_run_arguments, cmd_karel_run, "run one program on one grid"),
    ):
        command = sub.add_parser(name, help=summary)
        add_arguments(command)
        command.set_defaults(func=func)
    return parser


# The flags that set the library parameter a ``ValueError`` message opens with.
_FLAGS = {"n_pairs": "pairs", "step_limit": "step_limit", "max_depth": "max_depth", "p": "p",
          "r_wall": "r_wall r_marker", "target_size": "count", "max_draws": "max_draws",
          "epsilon": "eps"}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    SIGINT and SIGTERM, unless ignored, raise inside ``main`` from before it
    builds its parser, which removes a running command's temporary files
    and leaves every output path as it was; ``main`` then prints ``error:
    interrupted`` and returns 128 plus the signal's number, as a shell
    reports a process the signal ended.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    handlers = _take_signals(_interrupt)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help/--version and 2 for usage errors.
            return int(exc.code or 0)
        return args.func(args, argv)
    except _Interrupted as exc:
        print("error: interrupted", file=sys.stderr)
        return 128 + exc.args[0]
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALL
    except ValueError as exc:
        # A library parameter refused, before or during the draws: the
        # message opens with its name. Any other ValueError, such as a
        # DomainViolationError, is a fault of the program.
        dests = _FLAGS.get(str(exc).split(" ", 1)[0])
        if dests is None:
            raise
        typed = " ".join(f"--{dest.replace('_', '-')} {getattr(args, dest)}"
                         for dest in dests.split())
        print(f"error: {typed}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
