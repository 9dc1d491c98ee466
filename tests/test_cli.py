"""End-to-end tests of the ``homogen`` command line.

Most tests drive ``cli.main`` in-process for speed; one subprocess test
checks the installed console script. All runs chdir into a tmp dir so the
recorded command lines (and therefore the manifests) are reproducible.
"""

import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from homogen import calc, cli
from homogen.diagnostics import Histogram, kl_to_uniform
from homogen.homogenizer import (
    CountTable,
    DomainViolationError,
    HomogenizerRun,
    SalientSpec,
)
from homogen.karel import gen as karel_gen
from homogen.karel.interp import DEFAULT_STEP_LIMIT
from homogen.karel.world import grid_to_json
from homogen.rng import randbelow
from karel_fixtures import (
    COLLECTOR_A_EXPECTED,
    COLLECTOR_GRID_A,
    COLLECTOR_TEXT,
    CRASH_GRID,
    CRASH_TEXT,
)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate


def test_generate_calc_records_and_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["generate", "calc", "--dist", "dcfg", "--count", "1000", "--seed", "11",
         "--out", "raw.jsonl"],
        capsys,
    )
    assert code == 0
    assert "1000" in out

    lines = (tmp_path / "raw.jsonl").read_text().splitlines()
    assert len(lines) == 1000
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"expr", "label"}
        assert record["label"] in range(10)

    manifest = json.loads((tmp_path / "raw.jsonl.manifest.json").read_text())
    assert manifest["tool"] == "homogen"
    assert manifest["seed"] == 11
    import hashlib

    digest = hashlib.sha256((tmp_path / "raw.jsonl").read_bytes()).hexdigest()
    assert manifest["outputs"]["raw.jsonl"] == digest


def test_generate_is_byte_reproducible(tmp_path, monkeypatch, capsys):
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        code, _, _ = run_cli(
            ["generate", "calc", "--dist", "rcfg", "--count", "200", "--seed", "9",
             "--out", "data.jsonl"],
            capsys,
        )
        assert code == 0
        blobs.append(
            ((d / "data.jsonl").read_bytes(), (d / "data.jsonl.manifest.json").read_bytes())
        )
    assert blobs[0] == blobs[1]

    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["generate", "calc", "--dist", "rcfg", "--count", "200", "--seed", "10",
         "--out", "data.jsonl"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "data.jsonl").read_bytes() != blobs[0][0]


def test_generate_karel_narrow_tasks_round_trip(tmp_path, monkeypatch, capsys):
    from homogen.karel import gen as karel_gen

    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["generate", "karel", "--grids", "narrow", "--r-wall", "0.05",
         "--r-marker", "0.85", "--marker-dist", "geom", "--pairs", "uniform",
         "--count", "40", "--seed", "2", "--out", "tasks.jsonl"],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "tasks.jsonl").read_text().splitlines()
    assert len(lines) == 40
    pair_counts = set()
    for line in lines:
        task = karel_gen.task_from_json(json.loads(line))
        pair_counts.add(len(task.pairs))
    assert pair_counts <= set(range(1, 6))
    assert len(pair_counts) > 1  # uniform pair draw actually varies


def test_generate_missing_narrow_rates_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["generate", "karel", "--grids", "narrow", "--r-marker", "0.5",
         "--count", "1", "--out", "x.jsonl"],
        capsys,
    )
    assert code == 2
    assert "--r-wall" in err


@pytest.mark.parametrize("argv, fragment", [
    pytest.param(["generate", "karel", "--step-limit", "-1"], "step_limit", id="command0"),
    pytest.param(
        ["homogenize", "karel", "--var", "size", "--step-limit", "-1"], "step_limit",
        id="command1",
    ),
    pytest.param(
        ["generate", "calc", "--dist", "dcfg", "--p", "1.5"], "p must be in (0, 1)", id="dcfg-p"
    ),
    pytest.param(
        ["homogenize", "calc", "--var", "length", "--dist", "rcfg", "--p", "0"],
        "p must be in (0, 1)", id="homogenize-rcfg-p",
    ),
    pytest.param(
        ["generate", "calc", "--dist", "t2t", "--max-depth", "0"], "max_depth", id="t2t-depth"
    ),
    pytest.param(
        ["generate", "karel", "--grids", "narrow", "--r-wall", "1.0", "--r-marker", "0"],
        "r_wall", id="narrow-all-walls",
    ),
    # Near-critical branching: the second tree at seed 10 is 1,310 levels deep.
    pytest.param(
        ["generate", "calc", "--dist", "dcfg", "--p", "0.499", "--seed", "10"], "--p 0.499",
        id="dcfg-too-deep",
    ),
    pytest.param(
        ["homogenize", "calc", "--var", "length", "--eps", "nan"],
        "error: --eps nan: epsilon must be finite for the draw bound\n", id="eps-nan",
    ),
    pytest.param(
        ["homogenize", "calc", "--var", "length", "--eps", "inf"],
        "error: --eps inf: epsilon must be finite for the draw bound\n", id="eps-inf",
    ),
    # The report's draw bound, 1 + 1/eps, needs a positive eps.
    pytest.param(
        ["homogenize", "calc", "--var", "length", "--eps", "0"],
        "error: --eps 0.0: epsilon must be > 0 for the draw bound\n", id="eps-zero-calc",
    ),
    pytest.param(
        ["homogenize", "karel", "--var", "size", "--eps", "0"], "--eps 0.0",
        id="eps-zero-karel",
    ),
    pytest.param(
        ["homogenize", "calc", "--var", "length", "--eps", "-0.5"],
        "error: --eps -0.5: epsilon must be > 0 for the draw bound\n", id="eps-negative",
    ),
    # 1/eps overflows a float, with or without a draw budget of its own.
    pytest.param(
        ["homogenize", "calc", "--var", "length", "--eps", "1e-320"],
        "error: --eps 1e-320: epsilon is too small: the draw bound 1 + 1/epsilon overflows",
        id="eps-subnormal",
    ),
    pytest.param(
        ["homogenize", "karel", "--var", "size", "--eps", "1e-320", "--max-draws", "9"],
        "error: --eps 1e-320: epsilon is too small: the draw bound 1 + 1/epsilon overflows",
        id="eps-subnormal-budget",
    ),
])
def test_negative_step_limit_is_usage_error_and_writes_nothing(
    argv, fragment, tmp_path, monkeypatch, capsys
):
    # Bad source parameters of either domain, the negative step limit first
    # among them, are rejected before any output file is opened.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv + ["--count", "2", "--out", "k.jsonl"], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert fragment in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["generate", "karel", "--pairs", "0", "--count", "2"],
     "--pairs 0: n_pairs must be an int in 1..5 or the string 'uniform'"),
    (["homogenize", "karel", "--var", "size", "--step-limit", "-1", "--count", "2"],
     "--step-limit -1: step_limit must be >= 0"),
    (["generate", "calc", "--dist", "t2t", "--max-depth", "0", "--count", "2"],
     "--max-depth 0: max_depth must be in 1..500"),
    (["generate", "calc", "--p", "1.5", "--count", "2"], "--p 1.5: p must be in (0, 1)"),
    (["generate", "karel", "--grids", "narrow", "--r-wall", "1.0", "--r-marker", "0",
      "--count", "2"],
     "--r-wall 1.0 --r-marker 0.0: r_wall must be in [0, 1) and r_marker in [0, 1]"),
    (["homogenize", "calc", "--var", "length", "--count", "0"],
     "--count 0: target_size must be >= 1"),
    (["homogenize", "calc", "--var", "length", "--max-draws", "0", "--count", "2"],
     "--max-draws 0: max_draws must be >= 1 when given"),
], ids=["pairs", "step-limit", "max-depth", "p", "r-wall", "count", "max-draws"])
def test_out_of_range_source_parameter_names_its_flag(argv, message, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv + ["--out", "k.jsonl"], capsys) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, exit_code, message", [
    (["homogenize", "calc", "--var", "length", "--count", "100", "--max-draws", "50",
      "--seed", "1", "--out", "h.jsonl"], 3, "draw budget exhausted after 50 draws (4 accepted)"),
    (["generate", "calc", "--dist", "dcfg", "--p", "0.499", "--count", "2000", "--seed", "1",
      "--out", "d.jsonl"], 2,
     "--p 0.499: p is too large: a sampled expression nested deeper than 500 levels"),
], ids=["homogenize-stall", "generate-too-deep"])
def test_failed_run_leaves_no_file(argv, exit_code, message, tmp_path, monkeypatch, capsys):
    # Both fail after records were written; neither the partial output nor a
    # temporary file stays behind, and the reason is one line, no traceback.
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, capsys) == (exit_code, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "homogenize"])
def test_karel_stall_is_one_line_and_leaves_no_file(command, tmp_path, monkeypatch, capsys):
    # With no step allowed, every program the filter keeps crashes in its one
    # grid batch, so 100 programs in a row fail and the stream stalls.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(karel_gen, "_RETRY_LIMIT", 1)
    var = ["--var", "size"] if command == "homogenize" else []
    for seed in range(5):
        code, out, err = run_cli([command, "karel", *var, "--step-limit", "0", "--classic-prune",
                                  "--count", "2", "--seed", str(seed), "--out", "k.jsonl"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: 100 consecutive programs failed task assembly (")
        assert err.endswith("the grid distribution likely cannot exercise the sampled programs\n")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class _NoSpaceOnWrite(io.TextIOWrapper):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _NoSpaceOnClose(io.TextIOWrapper):
    def close(self):
        super().close()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", [_NoSpaceOnWrite, _NoSpaceOnClose], ids=["write", "close"])
@pytest.mark.parametrize("argv, target", [
    (["generate", "calc", "--count", "5", "--out", "h.jsonl"], "h.jsonl"),
    (["generate", "calc", "--count", "5", "--out", "h.jsonl"], "h.jsonl.manifest.json"),
    (["homogenize", "calc", "--var", "length", "--count", "20", "--out", "h.jsonl"],
     "h.jsonl.report.csv"),
    (["stats", "c.jsonl", "--out", "s.json"], "s.json"),
], ids=["generate", "generate-manifest", "homogenize-report", "stats"])
def test_failed_write_is_usage_error_and_leaves_no_file(
    argv, target, failing, tmp_path, monkeypatch, capsys
):
    # A full disk, simulated on the temporary file behind one output, is
    # reported against that output; no file is left behind.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    before = sorted(p.name for p in tmp_path.iterdir())
    real_open = Path.open

    def open_on_full_disk(self, mode="r", *args, **kwargs):
        if self.name.startswith(f".{target}.") and self.name.endswith(".tmp"):
            return failing(real_open(self, "wb"), encoding="utf-8", newline="\n")
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_on_full_disk)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == f"error: {target}: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["generate", "calc", "--count", "5", "--seed", "1"],
    ["homogenize", "calc", "--var", "length", "--count", "20", "--seed", "1"],
], ids=["generate", "homogenize"])
def test_failed_move_of_the_manifest_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # The manifest is moved last, so the files before it are already in
    # place when its move fails; they are put back as they were: absent in
    # the first run, the old files in the second.
    monkeypatch.chdir(tmp_path)
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".manifest.json"):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    code, _, err = run_cli(argv + ["--out", "h.jsonl"], capsys)
    assert code == 2
    assert err == f"error: h.jsonl.manifest.json: {os.strerror(errno.EACCES)}\n"
    assert list(tmp_path.iterdir()) == []

    old = {"h.jsonl": "old\n", "h.jsonl.manifest.json": "old manifest\n"}
    for name, text in old.items():
        (tmp_path / name).write_text(text)
    code, _, err = run_cli(argv + ["--out", "h.jsonl"], capsys)
    assert code == 2
    assert err == f"error: h.jsonl.manifest.json: {os.strerror(errno.EACCES)}\n"
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == old


HOMOGENIZE_OUTPUTS = ("h.jsonl", "h.jsonl.report.json", "h.jsonl.report.csv",
                      "h.jsonl.manifest.json")


@pytest.mark.parametrize("old_names", [(), ("h.jsonl",), HOMOGENIZE_OUTPUTS],
                         ids=["none", "dataset", "all"])
@pytest.mark.parametrize("failing", range(len(HOMOGENIZE_OUTPUTS)))
def test_a_failed_move_puts_back_every_old_output(failing, old_names, tmp_path, monkeypatch,
                                                  capsys):
    # The move of the output at index ``failing`` fails, after the moves
    # before it succeeded: every output path then holds its old bytes, or
    # is absent as before, and no temporary file or backup is left.
    monkeypatch.chdir(tmp_path)
    old = {name: f"old {name}\n" for name in old_names}
    for name, text in old.items():
        (tmp_path / name).write_text(text)
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == HOMOGENIZE_OUTPUTS[failing]:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    code, _, err = run_cli(["homogenize", "calc", "--var", "length", "--count", "20",
                            "--seed", "1", "--out", "h.jsonl"], capsys)
    assert code == 2
    assert err == f"error: {HOMOGENIZE_OUTPUTS[failing]}: {os.strerror(errno.EIO)}\n"
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == old


def test_the_backup_is_a_copy_where_hard_links_fail(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.jsonl").write_text("old\n")
    real_replace = os.replace
    linked = []

    def link(src, dst):
        linked.append(Path(src).name)
        raise OSError(errno.EPERM, os.strerror(errno.EPERM))

    def replace(src, dst):
        if str(dst).endswith(".manifest.json"):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        real_replace(src, dst)

    monkeypatch.setattr(os, "link", link)
    monkeypatch.setattr(os, "replace", replace)
    code, _, _ = run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "h.jsonl"],
                         capsys)
    assert code == 2
    assert linked == ["h.jsonl"]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"h.jsonl": "old\n"}

    monkeypatch.setattr(os, "replace", real_replace)
    code, _, _ = run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "h.jsonl"],
                         capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.jsonl", "h.jsonl.manifest.json"]
    assert (tmp_path / "h.jsonl").read_text() != "old\n"


def test_digests_read_a_large_output_in_chunks(tmp_path):
    # Hashing a 16 MiB output adds far less than its size to the peak memory.
    path = tmp_path / "big.jsonl"
    block = "0123456789abcdef" * 4096  # 64 KiB
    expected = hashlib.sha256()
    outputs = cli._Outputs(path)
    with outputs:
        with outputs.open(path) as fp:
            for _ in range(256):
                fp.write(block)
                expected.update(block.encode())
        tracemalloc.start()
        try:
            digests = outputs.digests()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert digests == {"big.jsonl": expected.hexdigest()}
    assert peak < 1 << 20
    assert path.stat().st_size == 1 << 24


@pytest.mark.parametrize("argv, directory", [
    (["homogenize", "calc", "--var", "length", "--count", "20", "--seed", "1"],
     "h.jsonl.report.csv"),
    (["generate", "calc", "--count", "20", "--seed", "1"], "h.jsonl.manifest.json"),
], ids=["homogenize-report", "generate-manifest"])
def test_directory_at_an_output_path_leaves_the_old_dataset(
    argv, directory, tmp_path, monkeypatch, capsys
):
    # The directory is found before its file would be written, so nothing is
    # moved into place: the dataset written first stays as it was.
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir()
    (tmp_path / "h.jsonl").write_text("old\n")
    code, _, err = run_cli(argv + ["--out", "h.jsonl"], capsys)
    assert code == 2
    assert err == f"error: {directory}: Is a directory\n"
    assert (tmp_path / "h.jsonl").read_text() == "old\n"
    assert {p.name for p in tmp_path.iterdir()} == {directory, "h.jsonl"}
    assert list((tmp_path / directory).iterdir()) == []


def _fail_on_call(*args, **kwargs):
    raise AssertionError("the source was built or drawn from before the output paths were checked")


# Where each command starts building or drawing from its source: the domain
# table's source builder, calc's draw for generate and its per-run function
# for homogenize, and Karel's task stream for both.
DRAW_SEAMS = [
    (cli, "_domain_source"),
    (calc, "sample_expr"),
    (calc, "measured_source"),
    (karel_gen, "task_source"),
]


# Each case runs with ``--out <out>`` after putting ``blocker`` in the way:
# a directory when it ends in "/", a FIFO when it ends in "|", a symbolic
# link when it holds "@" (to a regular file named after the "@", or to no
# file when nothing follows it), a file otherwise.
@pytest.mark.parametrize("domain", ["calc", "karel"])
@pytest.mark.parametrize("command, out, blocker, error", [
    pytest.param("generate", "h.jsonl", "h.jsonl/", "h.jsonl: Is a directory",
                 id="generate-"),
    pytest.param("generate", "h.jsonl", "h.jsonl.manifest.json/",
                 "h.jsonl.manifest.json: Is a directory", id="generate-.manifest.json"),
    pytest.param("homogenize", "h.jsonl", "h.jsonl/", "h.jsonl: Is a directory",
                 id="homogenize-"),
    pytest.param("homogenize", "h.jsonl", "h.jsonl.report.json/",
                 "h.jsonl.report.json: Is a directory", id="homogenize-.report.json"),
    pytest.param("homogenize", "h.jsonl", "h.jsonl.report.csv/",
                 "h.jsonl.report.csv: Is a directory", id="homogenize-.report.csv"),
    pytest.param("homogenize", "h.jsonl", "h.jsonl.manifest.json/",
                 "h.jsonl.manifest.json: Is a directory", id="homogenize-.manifest.json"),
    pytest.param("generate", "h.jsonl", "h.jsonl|", "h.jsonl: Not a regular file",
                 id="generate-fifo"),
    pytest.param("homogenize", "h.jsonl", "h.jsonl.report.json|",
                 "h.jsonl.report.json: Not a regular file", id="homogenize-.report.json-fifo"),
    pytest.param("generate", "h.jsonl", "h.jsonl@t.jsonl", "h.jsonl: Is a symbolic link",
                 id="generate-link"),
    pytest.param("homogenize", "h.jsonl", "h.jsonl.manifest.json@",
                 "h.jsonl.manifest.json: Is a symbolic link",
                 id="homogenize-.manifest.json-dangling-link"),
    pytest.param("generate", "nodir/h.jsonl", None,
                 "nodir/h.jsonl: No such file or directory", id="generate-missing-parent"),
    pytest.param("homogenize", "nodir/h.jsonl", None,
                 "nodir/h.jsonl: No such file or directory", id="homogenize-missing-parent"),
    pytest.param("generate", "c.jsonl/h.jsonl", "c.jsonl",
                 "c.jsonl/h.jsonl: Not a directory", id="generate-file-parent"),
    pytest.param("homogenize", "c.jsonl/h.jsonl", "c.jsonl",
                 "c.jsonl/h.jsonl: Not a directory", id="homogenize-file-parent"),
])
def test_directory_at_any_output_path_exits_2_before_the_first_draw(
    command, out, blocker, error, domain, tmp_path, monkeypatch, capsys
):
    # Every path the command will write, and its parent, is checked before
    # its source is built, so a run that would fail later fails at once.
    monkeypatch.chdir(tmp_path)
    for module, name in DRAW_SEAMS:
        monkeypatch.setattr(module, name, _fail_on_call)
    if blocker and blocker.endswith("/"):
        (tmp_path / blocker).mkdir()
    elif blocker and blocker.endswith("|"):
        os.mkfifo(tmp_path / blocker[:-1])
    elif blocker and "@" in blocker:
        link, target = blocker.split("@")
        if target:
            (tmp_path / target).write_text("old\n")
        (tmp_path / link).symlink_to(target or "nowhere")
    elif blocker:
        (tmp_path / blocker).write_text("old\n")
    before = _tree(tmp_path)
    argv = [command, domain, "--count", "50000", "--seed", "1", "--out", out]
    if command == "homogenize":
        argv += ["--var", "length" if domain == "calc" else "size"]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {error}\n"
    assert _tree(tmp_path) == before


def _tree(root):
    """Each path under ``root``: whether it is a link, and its bytes if it
    is, or points to, a regular file."""
    return {p: (p.is_symlink(), p.read_bytes() if p.is_file() else None)
            for p in root.rglob("*")}


@pytest.mark.parametrize("command, domain, seam", [
    ("generate", "calc", "sample_expr"),
    ("homogenize", "calc", "measured_source"),
    ("generate", "karel", "task_source"),
    ("homogenize", "karel", "task_source"),
])
def test_a_valid_run_reaches_the_patched_draw_seams(
    command, domain, seam, tmp_path, monkeypatch, capsys
):
    # The positive control of the test above: patched the same way, a valid
    # run reaches its domain's seams, so a patch there stops a draw.
    reached = []
    for module, name in DRAW_SEAMS:
        def recording(*args, _name=name, _original=getattr(module, name), **kwargs):
            reached.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)
    monkeypatch.chdir(tmp_path)
    argv = [command, domain, "--count", "3", "--seed", "1", "--out", "h.jsonl"]
    if command == "homogenize":
        argv += ["--var", "length" if domain == "calc" else "size"]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert reached[0] == "_domain_source"
    assert seam in reached


def test_t2t_past_the_node_bound_exits_2_quickly(tmp_path, monkeypatch, capsys):
    # Tree size grows about as e^(1.8 sqrt(d)); the node bound stops the
    # first draw that passes it instead of letting it run for minutes.
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, _, err = run_cli(
        ["generate", "calc", "--dist", "t2t", "--max-depth", "500", "--count", "5",
         "--seed", "3", "--out", "t.jsonl"],
        capsys,
    )
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert "--max-depth 500" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def run_in(directory, argv):
    """``cli.main`` run in ``directory``; returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def written(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def assert_clean_and_deterministic(argv, inputs=None):
    """Run ``argv`` in two fresh directories holding ``inputs``: every exit is
    documented, no traceback reaches stderr, a failure leaves only the inputs
    behind, and a success writes the same bytes both times. Returns the files
    a success leaves, or None after a failure."""
    inputs = inputs or {}
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in inputs.items():
                (Path(tmp) / name).write_bytes(data)
            code, out, err = run_in(tmp, argv)
            event(f"exit {code}")
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            left = written(tmp)
            if code:
                assert left == inputs
                return None
            assert not [name for name in left if name.endswith(".tmp")]
            runs.append((out, left))
    assert runs[0] == runs[1]
    return runs[0][1]


@st.composite
def calc_argv(draw):
    command = draw(st.sampled_from(["generate", "homogenize"]))
    argv = [command, "calc", "--dist", draw(st.sampled_from(["dcfg", "t2t", "rcfg", "bal"]))]
    p = draw(st.none() | st.just(0.499) | st.floats(min_value=0.0, max_value=0.499))
    if p is not None:
        argv += ["--p", repr(p)]
    # t2t trees grow too fast to draw much past depth 10; at the nesting cap
    # a draw soon passes the node bound, and deeper values are rejected
    # before drawing.
    max_depth = draw(
        st.none() | st.integers(-1, 10) | st.just(calc.MAX_NESTING)
        | st.integers(calc.MAX_NESTING + 1, 10**6)
    )
    if max_depth is not None:
        argv += ["--max-depth", str(max_depth)]
    if command == "homogenize":
        argv += ["--var", draw(st.sampled_from(sorted(calc.salient_specs())))]
        eps = draw(st.sampled_from([0.0, math.nan, math.inf, -0.5]) | st.floats(0.02, 1.0))
        argv += ["--eps", repr(eps)]
        max_draws = draw(st.none() | st.integers(1, 200))
        if max_draws is not None:
            argv += ["--max-draws", str(max_draws)]
    return argv + ["--count", str(draw(st.integers(0, 20))),
                   "--seed", str(draw(st.integers(0, 2**32 - 1)))]


@settings(max_examples=60, deadline=None)
@given(argv=calc_argv())
def test_calc_commands_exit_cleanly(argv):
    # In-process: every exit is documented, no traceback reaches stderr, a
    # failed run leaves no file behind, temporary siblings included, and a
    # successful one writes the same bytes when run again.
    files = assert_clean_and_deterministic(argv + ["--out", "c.jsonl"])
    if files is not None:
        assert "c.jsonl" in files


KAREL_RATES = st.none() | st.sampled_from(["0.05", "0.25", "0.65", "-0.1", "1.0", "nan", "x"])


@st.composite
def karel_argv(draw):
    command = draw(st.sampled_from(["generate", "homogenize"]))
    argv = [command, "karel"]
    grids = draw(st.sampled_from([None, "uniform", "narrow"]))
    if grids:
        argv += ["--grids", grids]
    for flag in ("--r-wall", "--r-marker"):
        rate = draw(KAREL_RATES)
        if rate is not None:
            argv += [flag, rate]
    if grids == "narrow":
        argv += ["--marker-dist", draw(st.sampled_from(["geom", "uniform", "antigeom"]))]
    pairs = draw(st.none() | st.sampled_from(["1", "2", "3", "4", "5", "uniform", "0", "x"]))
    if pairs is not None:
        argv += ["--pairs", pairs]
    step_limit = draw(st.none() | st.sampled_from([-1, 8, 200]))
    if step_limit is not None:
        argv += ["--step-limit", str(step_limit)]
    if draw(st.booleans()):
        argv.append("--classic-prune")
    if command == "homogenize":
        argv += ["--var", draw(st.sampled_from(sorted(karel_gen.salient_specs()) + ["bogus"]))]
        # Draws per accept stay under 1 + 1/eps, so valid eps stay large.
        eps = draw(st.sampled_from([0.0, math.nan, -0.5]) | st.floats(0.25, 1.0))
        argv += ["--eps", repr(eps)]
        max_draws = draw(st.none() | st.integers(1, 20))
        if max_draws is not None:
            argv += ["--max-draws", str(max_draws)]
    return argv + ["--count", str(draw(st.integers(0, 3))),
                   "--seed", str(draw(st.integers(0, 2**32 - 1))), "--out", "k.jsonl"]


@settings(max_examples=60, deadline=None)
@given(argv=karel_argv())
def test_karel_commands_exit_cleanly_and_deterministically(argv):
    assert_clean_and_deterministic(argv)


def _stats_lines():
    rng = random.Random(6)
    source = karel_gen.task_source(karel_gen.sample_uniform_grid, n_pairs="uniform")
    karel = [json.dumps(karel_gen.task_to_json(source(rng))) for _ in range(3)]
    return {
        "karel": karel,
        "calc": ['{"expr":"1+2*3","label":7}', '{"expr":"(1-2)*3","label":7}'],
        "malformed": [
            '{"program": ',
            '{"expr":"1+","label":1}',
            '{"program":"def main(","pairs":[],"held_out":{}}',
            "[1, 2]",
        ],
        "blank": [""],
    }


STATS_LINES = _stats_lines()
STATS_VARS = sorted(set(karel_gen.salient_specs()) | set(calc.salient_specs())) + ["bogus"]


@st.composite
def stats_case(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(STATS_LINES)), max_size=4))
    lines = [draw(st.sampled_from(STATS_LINES[kind])) for kind in kinds]
    argv = ["stats", "d.jsonl"]
    variables = draw(st.none() | st.lists(st.sampled_from(STATS_VARS), min_size=1, max_size=3))
    if variables is not None:
        argv += ["--vars", ",".join(variables)]
    fmt = draw(st.none() | st.sampled_from(["json", "csv"]))
    if fmt is not None:
        argv += ["--format", fmt]
    if draw(st.booleans()):
        argv += ["--out", "s.out"]
    data = "".join(line + "\n" for line in lines).encode()
    return argv, {"d.jsonl": data}


@settings(max_examples=60, deadline=None)
@given(case=stats_case())
def test_stats_commands_exit_cleanly_and_deterministically(case):
    argv, inputs = case
    assert_clean_and_deterministic(argv, inputs)


def test_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["generate", "calc", "--count", "3", "--out", "nodir/x.jsonl"], capsys
    )
    assert code == 2
    assert "nodir/x.jsonl" in err
    assert list(tmp_path.iterdir()) == []


def test_negative_count_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["generate", "calc", "--count", "-5", "--out", "c.jsonl"], capsys)
    assert code == 2
    assert "--count" in err
    assert list(tmp_path.iterdir()) == []


# Output digests recorded before the CLI's per-domain code was folded into one
# domain table, and before the calc draw path was rebuilt. Each entry is a list
# of command lines run in order in one directory, then the digests of the files
# they leave. They pin the narrow sampler, the action-pruning filter, per-task
# pair draws, homogenize on both domains with its report files and manifest
# (the benchmark's dcfg/length shape among them), all four calc samplers, and
# ``stats`` in JSON and CSV on a calc and on a Karel dataset.
GOLDEN_SHA256 = [
    (
        [["generate", "karel", "--grids", "narrow", "--r-wall", "0.25", "--r-marker", "0.65",
          "--classic-prune", "--count", "8", "--seed", "3", "--out", "out.jsonl"]],
        {"out.jsonl": "3bf0775eabd9d502fe24a55f0cc58ac90d30198ac56f60f3a30585d96660c30b"},
    ),
    (
        [["generate", "karel", "--pairs", "uniform", "--count", "12", "--seed", "4",
          "--out", "out.jsonl"]],
        {"out.jsonl": "58233c8787878ff6a752636d314defcb225df271447b080e62ace8f45a3af0a6"},
    ),
    (
        [["homogenize", "karel", "--var", "size", "--count", "6", "--seed", "5",
          "--out", "out.jsonl"]],
        {
            "out.jsonl": "3fb9c0ab7bb47a838403f981af8f0e3a344da775d2a0c29672c8509781da60f9",
            "out.jsonl.report.json":
                "6df802c66604a28210e6bcaf097b73c2fb8e7ce138322b4892acade8f8a20cd1",
            "out.jsonl.report.csv":
                "fb1a77b1771314b7fa51fa0c591fa82b3efb1ea87b360ae1ae09f4d031d8ea6e",
        },
    ),
    (
        [["homogenize", "calc", "--dist", "t2t", "--var", "max_depth", "--count", "150",
          "--seed", "8", "--out", "out.jsonl"]],
        {
            "out.jsonl": "3b8d004a61488644c601f4ef1d302a407892594fe6691ce2018417226b4deeab",
            "out.jsonl.report.json":
                "19c50ba69e92c2868d65817a46512189ed1a9a46f6c7d9dc1bdefce10b258e7c",
            "out.jsonl.report.csv":
                "ab48109194ff91baf8d4c8b68bdbcad95867b1bb7d25ebf3db2c543d7413209f",
            "out.jsonl.manifest.json":
                "bbc2cb637bffaa50d6bbed51af6ecd23bea283d02a1f7e1a0df0b28bb6bf159e",
        },
    ),
    (
        [["generate", "calc", "--dist", "rcfg", "--count", "300", "--seed", "12",
          "--out", "out.jsonl"]],
        {
            "out.jsonl":
                "38d0fba2c5c63746b371c72917e393c7149ede252cfc7b479d9e377e677c5986",
            "out.jsonl.manifest.json":
                "ad53e511c776990bd113b19ed095e27f87c91b37aa2d3d4b90cf20f58e1ca57e",
        },
    ),
    (
        [["generate", "calc", "--dist", "bal", "--count", "300", "--seed", "13",
          "--out", "out.jsonl"]],
        {
            "out.jsonl":
                "f7bc2222c153c4c5e66e2236403a65176a059ba8cdc8372aceaf8a9abdb81698",
            "out.jsonl.manifest.json":
                "86116ebc31132f76490c9932c762e3c2fa706311568faf812bdac12afc7dee82",
        },
    ),
    (
        [["generate", "calc", "--count", "200", "--seed", "6", "--out", "d.jsonl"],
         ["stats", "d.jsonl", "--out", "s.json"],
         ["stats", "d.jsonl", "--format", "csv", "--out", "s.csv"]],
        {
            "d.jsonl":
                "9164d387ee7ed95d0d311b2bdcec60af8e26a0109370fa6914614143510634dc",
            "s.json":
                "329ab87a2cd2fa599b74b9322860cd1e8b846933eb8e1558092770ab682da394",
            "s.csv":
                "47e3e8e3ac2e1c3104436e8044b9f233bfb06398325fc2726942c325c8489281",
        },
    ),
    (
        [["homogenize", "calc", "--dist", "dcfg", "--var", "length", "--eps", "0.025",
          "--count", "500", "--seed", "14", "--out", "out.jsonl"]],
        {
            "out.jsonl": "e230978c81d7ef1842198e58911b5c7886d2e2c68bdc860d5e844cfbb5349bad",
            "out.jsonl.report.json":
                "1e4bb3bf000c297c760cd427e3540d832d27e73844c99d31364ac2feba4d6a62",
            "out.jsonl.report.csv":
                "e56c003ba173a284956bb429317f481c3f3d1ba8e17acb987d7968ff7214ebea",
            "out.jsonl.manifest.json":
                "62797e77f75068922fb61e78512fcbe4c4044d53b48225ba9d96a5d26b90caee",
        },
    ),
    (
        [["generate", "calc", "--dist", "t2t", "--count", "300", "--seed", "15",
          "--out", "out.jsonl"]],
        {
            "out.jsonl":
                "cfa2de872697f3faf939ef92ad0507934d1ae74ae3304594d5e7792fc0a2ffa3",
            "out.jsonl.manifest.json":
                "ae2e60b2b12269c36850f29b38271c8f9fdbfc59e50221f414bd982c7d1f78b1",
        },
    ),
    (
        [["homogenize", "calc", "--dist", "rcfg", "--var", "num_parens", "--count", "200",
          "--seed", "16", "--out", "out.jsonl"]],
        {
            "out.jsonl": "48e17dc29afbcf8dc7bd3b3264f68a41314d539be069c52ccc3f6b7ba6fdaace",
            "out.jsonl.report.json":
                "22341514ebd4558c163be8098ec6813da55a5894e29fb1f8f61b9751ae399007",
            "out.jsonl.report.csv":
                "41e8793bba4b73c90a2aa87060f00ef2e5fab66291021c9192516f3ca658793d",
            "out.jsonl.manifest.json":
                "979fef3b7e4871718f53b57ee474617979d54d9a24b856f439dd9f8bca577495",
        },
    ),
    (
        [["generate", "karel", "--count", "8", "--seed", "2", "--out", "d.jsonl"],
         ["stats", "d.jsonl", "--out", "s.json"],
         ["stats", "d.jsonl", "--format", "csv", "--out", "s.csv"]],
        {
            "d.jsonl":
                "1dbad82fa2e12f507f639038d2367e431e8a0fdb9db8c1ec72d48e70ee626243",
            "s.json":
                "70a900d02f2c9b1398d31625ff9a99617d20f262541c099714d12b6bfb6055ac",
            "s.csv":
                "310271960a1ce8a392a1cd7bde1217a8623ab4d5a147853686cacfd8926d49ce",
        },
    ),
]


GOLDEN_IDS = ["narrow", "pairs", "homogenize", "homogenize-calc", "rcfg", "bal", "stats-calc",
              "homogenize-dcfg", "t2t", "homogenize-rcfg", "stats-karel"]


@pytest.mark.parametrize("commands, digests", GOLDEN_SHA256, ids=GOLDEN_IDS)
def test_outputs_match_golden_digests(commands, digests, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, _ = run_cli(argv, capsys)
        assert code == 0, argv
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _other_interpreters():
    """Each CPython 3.10 or later under ``~/.pyenv/versions`` but the running
    one, keyed by version."""
    running = "{}.{}.{}".format(*sys.version_info[:3])
    found = {}
    for python in sorted((Path.home() / ".pyenv" / "versions").glob("3.*/bin/python3")):
        version = python.parents[1].name
        numbers = version.split(".")
        if (len(numbers) == 3 and all(n.isdigit() for n in numbers)
                and int(numbers[1]) >= 10 and version != running):
            found[version] = python
    return found


# Runs each (directory, argv) pair of its JSON argument through ``cli.main``
# in one process, so an interpreter pays its start-up and imports once.
_RUN_COMMANDS = """
import json, os, sys
from homogen import cli
for directory, argv in json.loads(sys.argv[1]):
    os.chdir(directory)
    if cli.main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def test_golden_digests_match_on_every_other_interpreter(tmp_path):
    # The samplers draw through getrandbits, a manifest formats floats with
    # repr, and Karel runs go through the interpreter's cycle check; none may
    # differ between the interpreters that README supports. The interpreters
    # run side by side, one process each.
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no CPython 3.10 or later other than the running one in ~/.pyenv/versions")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    runs = {}
    for version, python in interpreters.items():
        jobs = []
        for name, (commands, _) in zip(GOLDEN_IDS, GOLDEN_SHA256):
            directory = tmp_path / version / name
            directory.mkdir(parents=True)
            jobs += [(str(directory), argv) for argv in commands]
        runs[version] = subprocess.Popen(
            [python, "-c", _RUN_COMMANDS, json.dumps(jobs)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    stderr = {version: run.communicate()[1] for version, run in runs.items()}
    for version, run in runs.items():
        assert run.returncode == 0, (version, stderr[version])
        for name, (_, digests) in zip(GOLDEN_IDS, GOLDEN_SHA256):
            for file, digest in digests.items():
                written = hashlib.sha256((tmp_path / version / name / file).read_bytes())
                assert written.hexdigest() == digest, (version, name, file)


def test_argparse_usage_error_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["generate", "calc", "--out", "x.jsonl"])  # missing --count
    capsys.readouterr()
    assert code == 2


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# seeds


def test_env_seed_fallback_and_flag_priority(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOMOGEN_SEED", "77")
    code, _, _ = run_cli(["generate", "calc", "--count", "5", "--out", "env.jsonl"], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "env.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 77

    code, _, _ = run_cli(
        ["generate", "calc", "--count", "5", "--seed", "3", "--out", "flag.jsonl"], capsys
    )
    assert code == 0
    manifest = json.loads((tmp_path / "flag.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 3


def test_bad_env_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOMOGEN_SEED", "banana")
    code, _, err = run_cli(["generate", "calc", "--count", "1", "--out", "x.jsonl"], capsys)
    assert code == 2
    assert "HOMOGEN_SEED" in err


@pytest.mark.parametrize("args, env, message", [
    (["--seed=-1"], None, "--seed must be 0 or more, got -1"),
    ([], "-1", "HOMOGEN_SEED must be 0 or more, got -1"),
], ids=["flag", "env"])
def test_negative_seed_is_usage_error(args, env, message, tmp_path, monkeypatch, capsys):
    # random.Random(-1) draws what random.Random(1) draws, so a negative
    # seed would alias its absolute value.
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("HOMOGEN_SEED", raising=False)
    else:
        monkeypatch.setenv("HOMOGEN_SEED", env)
    code, out, err = run_cli(["generate", "calc", "--count", "5", *args, "--out", "x.jsonl"],
                             capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["flag", "env"])
@pytest.mark.parametrize("spelling", [
    " 1_0 ", "1_0", " 7", "7\n", "+3", "0x10", "1e3", "", "-", "--1", "-\u0663",
    "\u0663", "\uff17", "9" * 5000,
], ids=["padded-underscore", "underscore", "leading-space", "trailing-newline", "plus",
        "hex", "exponent", "empty", "bare-minus", "double-minus", "minus-arabic-indic",
        "arabic-indic", "fullwidth", "past-int-digit-limit"])
def test_a_seed_is_ascii_decimal_digits(where, spelling, tmp_path, monkeypatch, capsys):
    # int() accepts each of these (or, past the digit limit, fails late);
    # a seed is [0-9]+ and nothing else.
    monkeypatch.chdir(tmp_path)
    if where == "flag":
        monkeypatch.delenv("HOMOGEN_SEED", raising=False)
        args, name = [f"--seed={spelling}"], "--seed"
    else:
        monkeypatch.setenv("HOMOGEN_SEED", spelling)
        args, name = [], "HOMOGEN_SEED"
    code, out, err = run_cli(["generate", "calc", "--count", "2", *args, "--out", "x.jsonl"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be ASCII decimal digits, got {spelling!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["flag", "env"])
def test_ascii_digit_seeds_resolve_to_their_integer(where, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for spelling, seed in [("0", 0), ("007", 7), ("18446744073709551616", 2**64)]:
        if where == "flag":
            monkeypatch.delenv("HOMOGEN_SEED", raising=False)
            args = ["--seed", spelling]
        else:
            monkeypatch.setenv("HOMOGEN_SEED", spelling)
            args = []
        code, _, _ = run_cli(["generate", "calc", "--count", "2", *args, "--out", "x.jsonl"],
                             capsys)
        assert code == 0
        assert json.loads((tmp_path / "x.jsonl.manifest.json").read_text())["seed"] == seed


# Every other number flag is read the way the seed is: an integer is an
# optional "-" then ASCII digits, and a float is ASCII text with no "_" and
# no padding. int() and float() accept each spelling below.
@pytest.mark.parametrize("spelling", [" 1_0", "٣", "+3"],
                         ids=["padded-underscore", "arabic-indic", "plus"])
@pytest.mark.parametrize("flag, argv", [
    ("--count", ["generate", "calc", "--count", "{}", "--out", "x.jsonl"]),
    ("--max-depth", ["generate", "calc", "--dist", "t2t", "--max-depth", "{}",
                     "--count", "2", "--out", "x.jsonl"]),
    ("--max-draws", ["homogenize", "calc", "--var", "length", "--max-draws", "{}",
                     "--count", "2", "--out", "x.jsonl"]),
    ("--step-limit", ["generate", "karel", "--step-limit", "{}", "--count", "2",
                      "--out", "x.jsonl"]),
    ("--step-limit", ["karel-run", "p.txt", "g.json", "--step-limit", "{}"]),
    ("--pairs", ["generate", "karel", "--pairs", "{}", "--count", "2", "--out", "x.jsonl"]),
], ids=["count", "max-depth", "max-draws", "step-limit", "karel-run-step-limit", "pairs"])
def test_integer_flags_take_only_ascii_decimal_digits(
    flag, argv, spelling, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([spelling if arg == "{}" else arg for arg in argv], capsys)
    assert (code, out) == (2, "")
    if flag == "--pairs":
        assert err == f"error: --pairs must be an integer in 1..5 or 'uniform', got {spelling!r}\n"
    else:
        assert err.endswith(
            f": error: argument {flag}: must be ASCII decimal digits, got {spelling!r}\n"
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", [" 0.2", "٠.٢", "0_2"],
                         ids=["leading-space", "arabic-indic", "underscore"])
@pytest.mark.parametrize("flag, argv", [
    ("--p", ["generate", "calc", "--p", "{}"]),
    ("--r-wall", ["generate", "karel", "--grids", "narrow", "--r-wall", "{}",
                  "--r-marker", "0.5"]),
    ("--r-marker", ["generate", "karel", "--grids", "narrow", "--r-wall", "0.2",
                    "--r-marker", "{}"]),
    ("--eps", ["homogenize", "calc", "--var", "length", "--eps", "{}"]),
], ids=["p", "r-wall", "r-marker", "eps"])
def test_float_flags_take_only_plain_ascii(flag, argv, spelling, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [spelling if arg == "{}" else arg for arg in argv]
    code, out, err = run_cli(argv + ["--count", "2", "--out", "x.jsonl"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        f": error: argument {flag}: must be an ASCII number with no '_' or spaces, "
        f"got {spelling!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# homogenize


def test_homogenize_reduces_kl_and_writes_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["homogenize", "calc", "--dist", "dcfg", "--var", "length", "--eps", "0.1",
         "--count", "300", "--seed", "4", "--out", "homog.jsonl"],
        capsys,
    )
    assert code == 0
    assert len((tmp_path / "homog.jsonl").read_text().splitlines()) == 300

    rows = json.loads((tmp_path / "homog.jsonl.report.json").read_text())
    assert len(rows) == 1
    row = rows[0]
    assert row["variable"] == "length"
    assert row["kl_after"] < row["kl_before"]
    assert row["reduction_pct"] > 0
    assert row["draws_per_accept"] <= row["bound"]

    csv_text = (tmp_path / "homog.jsonl.report.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "variable,epsilon,kl_before,kl_after,reduction_pct,draws_per_accept,bound"
    )

    manifest = json.loads((tmp_path / "homog.jsonl.manifest.json").read_text())
    assert manifest["substreams"] == {"main": 4, "baseline": 5}
    assert set(manifest["outputs"]) == {
        "homog.jsonl", "homog.jsonl.report.json", "homog.jsonl.report.csv",
    }


def test_homogenize_default_epsilon():
    parser = cli.build_parser()
    args = parser.parse_args(["homogenize", "calc", "--var", "length",
                              "--count", "1", "--out", "x.jsonl"])
    assert args.eps == 0.025


def test_step_limit_defaults_to_the_interpreter_default():
    parser = cli.build_parser()
    for argv in (
        ["generate", "karel", "--count", "1", "--out", "x.jsonl"],
        ["homogenize", "karel", "--var", "size", "--count", "1", "--out", "x.jsonl"],
        ["karel-run", "p.txt", "g.json"],
    ):
        assert parser.parse_args(argv).step_limit == DEFAULT_STEP_LIMIT


def test_homogenize_unknown_variable_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["homogenize", "calc", "--var", "girth", "--count", "10", "--out", "x.jsonl"],
        capsys,
    )
    assert code == 2
    assert "girth" in err and "length" in err


def test_homogenize_tiny_budget_stalls_with_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["homogenize", "calc", "--var", "length", "--eps", "0.025", "--count", "5000",
         "--max-draws", "40", "--seed", "1", "--out", "stall.jsonl"],
        capsys,
    )
    assert code == 3
    assert "budget" in err
    # no manifest for an incomplete dataset
    assert not (tmp_path / "stall.jsonl.manifest.json").exists()


def test_calc_manifest_sampler_text_is_pinned():
    # Every calc manifest records this text, the sampler's repr when the
    # rcfg run lengths and bal depths were sampler fields; a flag that the
    # dist does not read leaves it as it is.
    cases = {
        "--dist dcfg": "Dcfg(p=0.3)",
        "--dist dcfg --p 0.25 --max-depth 3": "Dcfg(p=0.25)",
        "--dist dcfg --p 1e-5": "Dcfg(p=1e-05)",
        "--dist t2t": "T2t(max_depth=8, depth=None)",
        "--dist t2t --max-depth 11 --p 0.25": "T2t(max_depth=11, depth=None)",
        "--dist rcfg": "Rcfg(p=0.3, run_lengths=(2, 3, 4))",
        "--dist rcfg --p 0.250 --max-depth 3": "Rcfg(p=0.25, run_lengths=(2, 3, 4))",
        "--dist bal": "Bal(depths=(1, 2, 3, 4, 5, 6))",
        "--dist bal --p 0.25 --max-depth 3": "Bal(depths=(1, 2, 3, 4, 5, 6))",
    }
    parser = cli.build_parser()
    for flags, text in cases.items():
        args = parser.parse_args(["generate", "calc", *flags.split(), "--count", "1",
                                  "--out", "x.jsonl"])
        *_, params = cli._calc_sources(args)
        assert params["sampler"] == text, flags


# The samplers the CLI builds for each --dist at its defaults.
DEFAULT_SAMPLERS = {
    "dcfg": calc.Dcfg(), "t2t": calc.T2t(), "rcfg": calc.Rcfg(), "bal": calc.Bal(),
}


@pytest.mark.parametrize("var", sorted(calc.salient_specs()))
@pytest.mark.parametrize("dist", sorted(DEFAULT_SAMPLERS))
def test_homogenize_calc_matches_the_composed_reference(dist, var, tmp_path, monkeypatch, capsys):
    # The CLI draws through calc.measured_source and writes formatted lines;
    # the reference composes the public pieces: sample_expr, expr_salients,
    # a HomogenizerRun, and the JSON encoder on expr_record.
    count, seed, eps = 60, 7, 0.025
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["homogenize", "calc", "--dist", dist, "--var", var, "--count", str(count),
         "--seed", str(seed), "--out", "h.jsonl"], capsys,
    )
    assert (code, err) == (0, "")

    sampler = DEFAULT_SAMPLERS[dist]
    domain = calc.salient_specs()[var].domain
    spec = SalientSpec(var, domain, lambda expr: calc.expr_salients(expr)[var])
    run = HomogenizerRun(lambda rng: calc.sample_expr(rng, sampler), spec,
                         epsilon=eps, target_size=count, seed=seed)
    accepted = list(run)
    baseline_rng = random.Random(seed + cli.BASELINE_SEED_OFFSET)
    baseline = [spec.extract(calc.sample_expr(baseline_rng, sampler)) for _ in range(count)]
    kl_before = kl_to_uniform(Histogram.from_values(domain, baseline))
    kl_after = kl_to_uniform(Histogram.from_values(domain, map(spec.extract, accepted)))

    lines = "".join(cli._json_line(calc.expr_record(expr)) for expr in accepted)
    assert (tmp_path / "h.jsonl").read_text() == lines
    (row,) = json.loads((tmp_path / "h.jsonl.report.json").read_text())
    assert (row["kl_before"], row["kl_after"]) == (kl_before, kl_after)
    assert row["draws_per_accept"] == run.draws_used / count


TOO_DEEP = "--p 0.499: p is too large: a sampled expression nested deeper than 500 levels"
TOO_BIG = "--max-depth 500: max_depth is too large: a sampled expression grew past 100000 nodes"


@pytest.mark.parametrize("command, argv, message", [
    ("generate", ["--dist", "dcfg", "--p", "0.499", "--count", "2000", "--seed", "1"], TOO_DEEP),
    ("homogenize", ["--dist", "dcfg", "--p", "0.499", "--count", "2000", "--seed", "1"],
     TOO_DEEP),
    # The run's draws at seed 9 stay under the cap; the baseline's, at seed
    # 10, pass it on the second draw.
    ("homogenize", ["--dist", "dcfg", "--p", "0.499", "--count", "3", "--seed", "9"], TOO_DEEP),
    ("generate", ["--dist", "t2t", "--max-depth", "500", "--count", "5", "--seed", "3"], TOO_BIG),
    ("homogenize", ["--dist", "t2t", "--max-depth", "500", "--count", "5", "--seed", "3"],
     TOO_BIG),
], ids=["generate-dcfg", "homogenize-dcfg", "homogenize-dcfg-baseline", "generate-t2t",
        "homogenize-t2t"])
def test_a_draw_past_a_sampler_bound_is_usage_error_and_writes_nothing(
    command, argv, message, tmp_path, monkeypatch, capsys
):
    # A draw is refused in each command's draw loops, the homogenize run and
    # its baseline included, and reported as its sampler parameter's flag.
    monkeypatch.chdir(tmp_path)
    if command == "homogenize":
        argv = argv + ["--var", "length"]
    code, out, err = run_cli([command, "calc", *argv, "--out", "d.jsonl"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_homogenize_lets_a_domain_violation_through(tmp_path, monkeypatch, capsys):
    # A salient value outside its domain is a fault of the program, not of
    # the command line, so it is not reported as a usage error.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(calc, "expr_salients", lambda expr: {"length": 999})
    with pytest.raises(DomainViolationError, match="salient 'length'"):
        cli.main(["homogenize", "calc", "--var", "length", "--count", "5", "--seed", "1",
                  "--out", "h.jsonl"])
    assert list(tmp_path.iterdir()) == []


def test_homogenize_lets_a_fault_in_a_draw_through(tmp_path, monkeypatch, capsys):
    # A ValueError that names no parameter is a fault of the program, not a
    # sampler bound, so it is not blamed on --p.
    monkeypatch.chdir(tmp_path)

    def faulty(expr):
        raise ValueError("boom")

    monkeypatch.setattr(calc, "expr_salients", faulty)
    with pytest.raises(ValueError, match="^boom$"):
        cli.main(["homogenize", "calc", "--var", "length", "--count", "5", "--seed", "1",
                  "--out", "h.jsonl"])
    assert capsys.readouterr().err == ""
    assert list(tmp_path.iterdir()) == []


def test_stats_lets_a_domain_violation_through(tmp_path, monkeypatch, capsys):
    # As for homogenize: a measured value off its domain is a fault of the
    # program, so it is not reported as a bad record.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.jsonl").write_text('{"expr":"1+2","label":3}\n')
    monkeypatch.setattr(calc, "calc_salients", lambda text: {"length": 999})
    with pytest.raises(DomainViolationError, match="999"):
        cli.main(["stats", "c.jsonl", "--vars", "length"])


def test_homogenize_calc_makes_at_most_three_wrapper_calls_per_draw(
    tmp_path, monkeypatch, capsys
):
    # A rejection run measures most of its draws only to throw them away,
    # so the Python calls around each draw's sampling and measuring work
    # cost the whole run. Counted here: every call outside that work,
    # divided by the run's draws plus the baseline's.
    work = {
        function.__code__
        for function in (
            calc._sample_dcfg, calc._sample_t2t, calc._sample_rcfg, calc._sample_bal,
            calc.expr_salients, calc._clamped, calc.BinOp.__new__, CountTable.increment,
            randbelow,
        )
    }
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code not in work:
            calls += 1

    count = 2000
    monkeypatch.chdir(tmp_path)
    sys.setprofile(profile)
    try:
        code = cli.main(["homogenize", "calc", "--dist", "dcfg", "--var", "length",
                         "--count", str(count), "--seed", "1", "--out", "h.jsonl"])
    finally:
        sys.setprofile(None)
    assert code == 0
    (row,) = json.loads((tmp_path / "h.jsonl.report.json").read_text())
    draws = round(row["draws_per_accept"] * count) + count
    assert calls / draws <= 3.0


# ---------------------------------------------------------------------------
# stats


def test_stats_json_and_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "80", "--seed", "6", "--out", "d.jsonl"], capsys)

    code, out, _ = run_cli(["stats", "d.jsonl", "--vars", "length,num_ops"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report["variables"]) == {"length", "num_ops"}
    assert report["variables"]["length"]["count"] == 80
    assert report["variables"]["length"]["kl_to_uniform"] >= 0

    code, out, _ = run_cli(["stats", "d.jsonl", "--vars", "length", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "variable,kl_to_uniform,value,count"

    code, _, _ = run_cli(
        ["stats", "d.jsonl", "--vars", "length", "--out", "report.json"], capsys
    )
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text())["dataset"] == "d.jsonl"


def test_stats_defaults_to_all_variables_per_domain(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "30", "--seed", "1", "--out", "c.jsonl"], capsys)
    code, out, _ = run_cli(["stats", "c.jsonl"], capsys)
    assert code == 0
    assert set(json.loads(out)["variables"]) == {
        "length", "num_ops", "num_parens", "mean_depth", "max_depth",
    }

    run_cli(["generate", "karel", "--count", "10", "--seed", "1", "--out", "k.jsonl"], capsys)
    code, out, _ = run_cli(["stats", "k.jsonl"], capsys)
    assert code == 0
    assert set(json.loads(out)["variables"]) == {
        "number_of_grids", "size", "control_flow_count", "nesting_depth",
        "marker_ratio_decile", "wall_ratio_decile",
    }


def test_stats_memory_does_not_grow_with_the_dataset(tmp_path, monkeypatch, capsys):
    # stats counts each value as its record is read and keeps no record's
    # values, so ten times the records must not raise its traced peak.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "20000", "--seed", "1", "--out", "all.jsonl"],
            capsys)
    with open("all.jsonl", encoding="utf-8") as src, open("head.jsonl", "w", encoding="utf-8") as head:
        head.writelines(line for _, line in zip(range(2000), src))
    # A first, untraced run pays the one-time costs, such as lazy imports.
    assert run_cli(["stats", "head.jsonl"], capsys)[0] == 0
    peaks = []
    for name in ("head.jsonl", "all.jsonl"):
        tracemalloc.start()
        try:
            code = cli.main(["stats", name])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_stats_corrupt_line_reports_line_number(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text('{"expr":"1+2","label":3}\n{oops\n')
    code, _, err = run_cli(["stats", "bad.jsonl"], capsys)
    assert code == 2
    assert "line 2" in err


def test_stats_json_nested_past_the_decoder_depth_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    deep = '{"expr": ' + "[" * 100_000 + "]" * 100_000 + "}"
    (tmp_path / "deep.jsonl").write_text('{"expr":"1+2","label":3}\n' + deep + "\n")
    code, out, err = run_cli(["stats", "deep.jsonl"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: deep.jsonl: line 2: invalid JSON (")
    assert "Traceback" not in err


@pytest.mark.parametrize("first, line", [
    ('{"expr":"1+2","label":3}', '{"expr": ' + "1" * 5_000 + "}"),
    (STATS_LINES["karel"][0], STATS_LINES["karel"][1].replace('"w": ', '"w": ' + "1" * 5_000, 1)),
], ids=["calc", "karel"])
def test_stats_json_int_past_the_digit_limit_is_usage_error(first, line, tmp_path, monkeypatch,
                                                           capsys):
    # Python's int conversion refuses more than 4,300 digits by default.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.jsonl").write_text(first + "\n" + line + "\n")
    code, out, err = run_cli(["stats", "big.jsonl"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: big.jsonl: line 2: invalid JSON (Exceeds the limit (4300 digits)")
    assert "Traceback" not in err


@pytest.mark.parametrize("line", [
    '{"expr":"1++2","label":3}',
    '{"expr":"((((","label":0}',
    '{"expr":12,"label":2}',
    '{"label":3}',
    '[1, 2]',
    # One closing parenthesis short, 1200 levels down.
    '{"expr":"' + "(" * 1200 + "1" + ")" * 1199 + '","label":1}',
], ids=["double-op", "unclosed", "not-text", "no-expr", "not-object", "deep-unclosed"])
def test_stats_malformed_calc_record_reports_line_number(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text('{"expr":"1+2","label":3}\n' + line + "\n")
    code, _, err = run_cli(["stats", "bad.jsonl"], capsys)
    assert code == 2
    assert "line 2: bad record" in err
    assert "Traceback" not in err


def test_stats_accepts_deeply_nested_calc_record(tmp_path, monkeypatch, capsys):
    # Well formed, and nested far deeper than Python's recursion limit.
    monkeypatch.chdir(tmp_path)
    deep = "(" * 1200 + "1" + ")" * 1200
    (tmp_path / "deep.jsonl").write_text(json.dumps({"expr": deep, "label": 1}) + "\n")
    code, out, err = run_cli(["stats", "deep.jsonl"], capsys)
    assert code == 0, err
    variables = json.loads(out)["variables"]
    assert variables["num_parens"]["histogram"] == {"30": 1}
    assert variables["max_depth"]["histogram"] == {"15": 1}
    assert variables["length"]["histogram"] == {"120": 1}


def test_stats_accepts_long_karel_record(tmp_path, monkeypatch, capsys):
    # A body of 1,500 statements, more than Python's recursion limit.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "karel", "--count", "1", "--seed", "1", "--out", "k.jsonl"], capsys)
    record = json.loads((tmp_path / "k.jsonl").read_text())
    record["program"] = ("def main ( ) : " + " ; ".join(["turnLeft ( )"] * 1500)).split()
    (tmp_path / "k.jsonl").write_text(json.dumps(record) + "\n")
    code, out, err = run_cli(["stats", "k.jsonl"], capsys)
    assert code == 0, err
    variables = json.loads(out)["variables"]
    assert variables["size"]["histogram"] == {"160": 1}
    assert variables["control_flow_count"]["histogram"] == {"0": 1}
    assert variables["nesting_depth"]["histogram"] == {"0": 1}


def _repeat_program(count):
    return ["def", "main", "(", ")", ":", "repeat", "(", count, ")", ":", "move", "(", ")"]


def _with_input_grid(record, **changes):
    grid = {"w": 4, "h": 4, "walls": [], "markers": [], "karel": {"pos": [1, 1], "dir": "E"}}
    record["pairs"][0]["in"] = grid | changes


def _spaced_and_compact(cases, ids):
    """Each case twice: with its corrupted record written by ``json.dumps``'
    defaults, which put a space after each separator, and, under the id's
    ``-compact`` form, with no spaces, as ``generate`` writes records, so
    that ``stats`` tries the record as text before it decodes it."""
    return [
        param
        for case, name in zip(cases, ids)
        for param in (pytest.param(*case, None, id=name),
                      pytest.param(*case, (",", ":"), id=f"{name}-compact"))
    ]


@pytest.mark.parametrize("corrupt, separators", _spaced_and_compact([
    (lambda r: r.update(program="def run(): move()"),),
    (lambda r: r.update(pairs=[]),),
    (lambda r: r["held_out"].pop("in"),),
    (lambda r: _with_input_grid(r, w=2.5),),
    (lambda r: _with_input_grid(r, markers=[[0, 0, True]]),),
    (lambda r: _with_input_grid(r, karel={"pos": [0.0, 1.5], "dir": "E"}),),
    (lambda r: r.update(program=_repeat_program(5)),),
    (lambda r: r.update(program=_repeat_program([5])),),
    (lambda r: r.update(program=_repeat_program(None)),),
    (lambda r: r.update(program=_repeat_program("0005")),),
], ["bad-program", "no-pairs", "no-held-out-input", "float-side", "pile-of-true",
    "float-position", "int-repeat-count", "list-token", "null-token", "leading-zero-count"]))
def test_stats_malformed_karel_record_reports_line_number(
    corrupt, separators, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "karel", "--count", "2", "--seed", "1", "--out", "k.jsonl"], capsys)
    first, second = (tmp_path / "k.jsonl").read_text().splitlines()
    record = json.loads(second)
    corrupt(record)
    (tmp_path / "k.jsonl").write_text(
        first + "\n" + json.dumps(record, separators=separators) + "\n")
    code, _, err = run_cli(["stats", "k.jsonl"], capsys)
    assert code == 2
    assert "line 2: bad record" in err
    assert "Traceback" not in err
    (tmp_path / "k.jsonl").write_text(first + "\n" + json.dumps(record) + "\n")
    assert run_cli(["stats", "k.jsonl"], capsys) == (code, "", err)


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("bad_record", [False, True], ids=["exit-0", "exit-2"])
def test_stats_leaves_the_collector_as_it_found_it(
    collecting, bad_record, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "karel", "--count", "3", "--seed", "1", "--out", "k.jsonl"], capsys)
    if bad_record:
        with (tmp_path / "k.jsonl").open("a") as fp:
            fp.write(json.dumps({"program": "def run(): move()"}) + "\n")
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        code, _, _ = run_cli(["stats", "k.jsonl"], capsys)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    assert code == (2 if bad_record else 0)


@contextlib.contextmanager
def collector_paused():
    was_collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_collecting:
            gc.enable()


@pytest.mark.parametrize("domain", ["calc", "karel"])
def test_reading_a_dataset_creates_no_reference_cycles(domain, tmp_path, monkeypatch, capsys):
    # Commands run with the cyclic collector paused, so any cycle the stats
    # read loop made would outlive the loop.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", domain, "--count", "40", "--seed", "3", "--out", "d.jsonl"], capsys)
    with collector_paused():
        gc.collect()
        columns = cli._dataset_columns(Path("d.jsonl"), None)
        assert gc.collect() == 0
    assert all(table.total == 40 for _, table in columns)


@pytest.mark.parametrize("command", [
    ["generate", "karel"],
    ["homogenize", "calc", "--var", "length"],
    ["homogenize", "karel", "--var", "size", "--eps", "0.5"],
    ["stats"],
], ids=["generate-karel", "homogenize-calc", "homogenize-karel", "stats"])
def test_paused_collector_leaves_garbage_that_does_not_grow_with_count(
    command, tmp_path, monkeypatch, capsys
):
    # main() pauses the cyclic collector for the whole command. That is safe
    # only if no record forms a reference cycle: the cyclic garbage one
    # command leaves behind (argparse's parser) must not depend on --count.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "karel", "--count", "20", "--seed", "4", "--out", "k.jsonl"], capsys)
    records = (tmp_path / "k.jsonl").read_text().splitlines(keepends=True)

    def garbage_after(count):
        if command == ["stats"]:
            (tmp_path / f"in{count}.jsonl").write_text("".join(records[:count]))
            argv = ["stats", f"in{count}.jsonl", "--out", f"stats{count}.json"]
        else:
            argv = command + ["--count", str(count), "--seed", "5", "--out", f"out{count}.jsonl"]
        assert run_cli(argv, capsys)[0] == 0
        return gc.collect()

    with collector_paused():
        gc.collect()
        garbage_after(2)  # warms every cache first
        assert garbage_after(2) == garbage_after(20)


def test_stats_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    code, _, err = run_cli(["stats", "c.jsonl", "--out", "nodir/x.json"], capsys)
    assert code == 2
    assert err.startswith("error: nodir/x.json: ")
    assert "Traceback" not in err


def test_stats_directory_at_out_exits_2_before_reading(tmp_path, monkeypatch, capsys):
    # A directory, a FIFO or a symbolic link at the path, a missing parent
    # and a file as the parent are each found before the dataset is read.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    (tmp_path / "report").mkdir()
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "old.json").write_text("old\n")
    (tmp_path / "link").symlink_to("old.json")
    before = _tree(tmp_path)

    def read_too_early(*args):
        raise AssertionError("the dataset was read before the output path was checked")

    monkeypatch.setattr(cli, "_dataset_columns", read_too_early)
    for path, error in [
        ("report", "Is a directory"),
        ("fifo", "Not a regular file"),
        ("link", "Is a symbolic link"),
        ("nodir/x.json", "No such file or directory"),
        ("c.jsonl/x.json", "Not a directory"),
    ]:
        code, out, err = run_cli(["stats", "c.jsonl", "--out", path], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {error}\n"
        assert _tree(tmp_path) == before


def test_stats_missing_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["stats", "missing.jsonl"], capsys)
    assert code == 2
    assert err.startswith("error: missing.jsonl: ")
    assert "Traceback" not in err


def test_stats_undecodable_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.jsonl").write_bytes(b'{"expr":"1+2","label":3}\n\xff\n')
    code, _, err = run_cli(["stats", "latin1.jsonl"], capsys)
    assert code == 2
    assert err.startswith("error: latin1.jsonl: ")
    assert "Traceback" not in err


def test_stats_empty_dataset_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.jsonl").write_text("")
    code, _, err = run_cli(["stats", "empty.jsonl"], capsys)
    assert code == 2
    assert "empty" in err


def test_stats_unrecognized_records_are_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "odd.jsonl").write_text('{"weird": 1}\n')
    code, _, err = run_cli(["stats", "odd.jsonl"], capsys)
    assert code == 2


def test_stats_unknown_variable_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    code, _, err = run_cli(["stats", "c.jsonl", "--vars", "entropy"], capsys)
    assert code == 2
    assert "entropy" in err


def test_stats_empty_variable_name_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    for names in ("length,", ""):
        code, _, err = run_cli(["stats", "c.jsonl", "--vars", names], capsys)
        assert code == 2
        assert err.startswith("error: unknown calc variable(s) ''; choose from ")


def test_stats_repeated_variable_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    code, out, err = run_cli(
        ["stats", "c.jsonl", "--vars", "length,num_ops,length", "--format", "csv"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: repeated calc variable(s) 'length'; name each variable once\n"


@pytest.mark.parametrize("names, shown", [
    ("foo,foo", "'foo'"), (",", "''"), ("foo,length,bar,foo,bar", "'foo', 'bar'"),
], ids=["twice", "two-empty", "first-seen-order"])
def test_stats_unknown_variable_is_named_once(names, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "calc", "--count", "5", "--seed", "1", "--out", "c.jsonl"], capsys)
    code, out, err = run_cli(["stats", "c.jsonl", "--vars", names], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: unknown calc variable(s) {shown}; "
                   "choose from length, max_depth, mean_depth, num_ops, num_parens\n")


@pytest.mark.parametrize("line, message", [
    ('{"program":"def run(): move()"}', "bad record (missing key 'expr')"),
    ('{"expr":5,"label":5}', "bad record ('expr' must be a string, not int)"),
    ('[1, 2]', "bad record (not a JSON object)"),
], ids=["karel-in-calc", "int-expr", "list"])
def test_stats_bad_calc_record_messages(line, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text('{"expr":"1+2","label":3}\n' + line + "\n")
    code, _, err = run_cli(["stats", "bad.jsonl"], capsys)
    assert code == 2
    assert err == f"error: bad.jsonl: line 2: {message}\n"


def test_stats_rejects_non_ascii_digits(tmp_path, monkeypatch, capsys):
    # str.isdigit() accepts Arabic-Indic digits; the parser must not.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text('{"expr":"\u0663+\u0664","label":7}\n', "utf-8")
    code, out, err = run_cli(["stats", "bad.jsonl"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: bad.jsonl: line 1: bad record (unexpected character '\u0663' at position 0)\n"
    )


def _without_width(record):
    del record["held_out"]["in"]["w"]
    return record


def _with_pairs(count):
    def corrupt(record):
        record["pairs"] = (record["pairs"] * count)[:count]
        return record
    return corrupt


def _repeated_cell(key, cell):
    def corrupt(record):
        grid = record["pairs"][0]["in"]
        grid |= {"walls": [], "markers": [], "karel": {"pos": [0, 0], "dir": "E"}}
        grid[key] = [cell, cell]
        return record
    return corrupt


def _output_of_first_pair(changes):
    def corrupt(record):
        pair = record["pairs"][0]
        pair["in"] |= {"walls": [[1, 1]], "markers": [], "karel": {"pos": [0, 0], "dir": "E"}}
        pair["out"] = copy.deepcopy(pair["in"]) | changes
        return record
    return corrupt


LONG_REPEAT_TOKENS = ["def", "main", "(", ")", ":", "repeat", "(", "1" * 5000, ")", ":",
                      "move", "(", ")"]


@pytest.mark.parametrize("corrupt, message, separators", _spaced_and_compact([
    (lambda r: {"expr": "1+2", "label": 3}, "malformed task object: missing key 'program'"),
    (_without_width, "malformed grid object: missing key 'w'"),
    (_repeated_cell("walls", [1, 1]), "malformed grid object: a cell is listed twice in 'walls'"),
    (_repeated_cell("markers", [1, 1, 2]),
     "malformed grid object: a cell is listed twice in 'markers'"),
    (_output_of_first_pair({"walls": [[1, 1], [1, 1]]}),
     "malformed grid object: a cell is listed twice in 'walls'"),
    (_output_of_first_pair({"markers": [[1, 1, 3]]}), "cell (1, 1) holds both a wall and markers"),
    (_with_pairs(6), "malformed task object: 6 shown pairs, not 1..5"),
    (_with_pairs(0), "malformed task object: 0 shown pairs, not 1..5"),
    (lambda r: r | {"program": LONG_REPEAT_TOKENS}, "repeat count must be in 0..19 at 7"),
], ["calc-in-karel", "grid-without-width", "wall-listed-twice", "pile-listed-twice",
    "output-wall-listed-twice", "marker-on-an-output-wall", "six-pairs", "no-pairs",
    "long-repeat-count"]))
def test_stats_bad_karel_record_names_the_missing_key(
    corrupt, message, separators, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "karel", "--count", "2", "--seed", "1", "--out", "k.jsonl"], capsys)
    first, second = (tmp_path / "k.jsonl").read_text().splitlines()
    bad = json.dumps(corrupt(json.loads(second)), separators=separators)
    (tmp_path / "k.jsonl").write_text(first + "\n" + bad + "\n")
    code, _, err = run_cli(["stats", "k.jsonl"], capsys)
    assert code == 2
    assert err == f"error: k.jsonl: line 2: bad record ({message})\n"


def test_json_line_matches_json_dumps():
    rng = random.Random(8)
    source = karel_gen.task_source(karel_gen.sample_uniform_grid, n_pairs="uniform")
    objects = [calc.sample_record(rng, calc.Dcfg()) for _ in range(20)]
    objects += [karel_gen.task_to_json(source(rng)) for _ in range(2)]
    objects.append({"expr": 'a"b\\c\n\t\u00e9\u2028\x00\ud83d\ude00', "label": -0.5})
    for obj in objects:
        assert cli._json_line(obj) == json.dumps(obj, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# karel-run


def write_run_inputs(tmp_path, text, grid):
    (tmp_path / "prog.txt").write_text(text)
    (tmp_path / "grid.json").write_text(json.dumps(grid_to_json(grid)))
    return str(tmp_path / "prog.txt"), str(tmp_path / "grid.json")


def test_karel_run_success_prints_output_grid(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, COLLECTOR_TEXT, COLLECTOR_GRID_A)
    code, out, _ = run_cli(["karel-run", prog, grid], capsys)
    assert code == 0
    first, second = out.splitlines()
    assert json.loads(first) == grid_to_json(COLLECTOR_A_EXPECTED)
    assert second == "coverage: 2/2 arms"


def test_karel_run_crash_exits_1(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, CRASH_TEXT, CRASH_GRID)
    code, out, _ = run_cli(["karel-run", prog, grid], capsys)
    assert code == 1
    assert out.splitlines()[0] == "crash: MoveIntoWall"


def test_karel_run_step_limit_flag(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, COLLECTOR_TEXT, COLLECTOR_GRID_A)
    code, out, _ = run_cli(["karel-run", prog, grid, "--step-limit", "3"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "crash: StepLimit"


def test_karel_run_negative_step_limit_is_usage_error(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, COLLECTOR_TEXT, COLLECTOR_GRID_A)
    code, _, err = run_cli(["karel-run", prog, grid, "--step-limit", "-1"], capsys)
    assert code == 2
    assert "step_limit" in err


def test_karel_run_bad_program_is_usage_error(tmp_path, capsys):
    (tmp_path / "prog.txt").write_text("def main(): frobnicate()")
    (tmp_path / "grid.json").write_text(json.dumps(grid_to_json(CRASH_GRID)))
    code, _, err = run_cli(
        ["karel-run", str(tmp_path / "prog.txt"), str(tmp_path / "grid.json")], capsys
    )
    assert code == 2


def test_karel_run_program_nested_past_parser_depth_is_usage_error(tmp_path, capsys):
    text = "def main(): " + "repeat ( 1 ) : { " * 1200 + "move ( )" + " }" * 1200
    prog, grid = write_run_inputs(tmp_path, text, CRASH_GRID)
    code, out, err = run_cli(["karel-run", prog, grid], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {prog}: ")
    assert "Traceback" not in err


def test_karel_run_long_repeat_count_is_usage_error(tmp_path, monkeypatch, capsys):
    # A count past Python's int digit limit is still just out of range.
    monkeypatch.chdir(tmp_path)
    Path("p.txt").write_text("def main(): repeat(" + "1" * 5000 + "): move()")
    Path("g.json").write_text(json.dumps(grid_to_json(CRASH_GRID)))
    code, out, err = run_cli(["karel-run", "p.txt", "g.json"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: p.txt: repeat count must be in 0..19 at 19\n"


def test_karel_run_undecodable_program_is_usage_error(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, CRASH_TEXT, CRASH_GRID)
    Path(prog).write_bytes(CRASH_TEXT.encode() + b"\xff")
    code, out, err = run_cli(["karel-run", prog, grid], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {prog}: 'utf-8' codec can't decode byte 0xff")


def test_karel_run_grid_listing_a_cell_twice_is_usage_error(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, CRASH_TEXT, CRASH_GRID)
    obj = json.loads(Path(grid).read_text())
    obj["markers"] = [[0, 0, 1], [0, 0, 7]]
    Path(grid).write_text(json.dumps(obj))
    code, out, err = run_cli(["karel-run", prog, grid], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {grid}: malformed grid object: a cell is listed twice in 'markers'\n"


def test_karel_run_output_keeps_the_input_grids_own_wall_cells(tmp_path, capsys):
    # A wall given as [1.0, 1] equals the int cell (1, 1): the run treats it
    # as a wall, and the output grid prints the input's wall as it was read.
    (tmp_path / "prog.txt").write_text(
        "def main(): move() ; turnRight() ; while(frontIsClear()): move()")
    (tmp_path / "grid.json").write_text(
        '{"w":3,"h":3,"walls":[[1.0,1]],"markers":[[2,2,3]],"karel":{"pos":[0,0],"dir":"E"}}')
    code, out, err = run_cli(
        ["karel-run", str(tmp_path / "prog.txt"), str(tmp_path / "grid.json")], capsys)
    assert (code, err) == (0, "")
    assert out == ('{"w":3,"h":3,"walls":[[1.0,1]],"markers":[[2,2,3]],'
                   '"karel":{"pos":[1,0],"dir":"S"}}\n'
                   "coverage: 1/2 arms\n")


def test_karel_run_grid_nested_past_the_decoder_depth_is_usage_error(tmp_path, capsys):
    prog, grid = write_run_inputs(tmp_path, CRASH_TEXT, CRASH_GRID)
    Path(grid).write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["karel-run", prog, grid], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {grid}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["program", "grid"])
@pytest.mark.parametrize(("make", "reason"), [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["missing", "directory"])
def test_karel_run_unreadable_input_names_its_path_and_reason(
        tmp_path, monkeypatch, capsys, which, make, reason):
    monkeypatch.chdir(tmp_path)
    Path("p.txt").write_text(CRASH_TEXT)
    Path("g.json").write_text(json.dumps(grid_to_json(CRASH_GRID)))
    make(Path("bad"))
    args = ["bad", "g.json"] if which == "program" else ["p.txt", "bad"]
    code, out, err = run_cli(["karel-run", *args], capsys)
    assert (code, out, err) == (2, "", f"error: bad: {reason}\n")


# ---------------------------------------------------------------------------
# console script


def test_importing_the_cli_loads_every_traced_module_and_no_heavy_one(tmp_path):
    # Every command pays for what ``import homogen.cli`` loads. The cost is
    # compared by module, not by timing: ``dataclasses`` brings ``inspect``,
    # ``hashlib`` only serves the commands that write, and none needs ``csv``.
    show = "import sys; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    bare, loaded = (
        set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, cwd=tmp_path, check=True).stdout.split())
        for code in (show, f"import homogen.cli; {show}")
    )
    added = loaded - bare
    assert added & {"dataclasses", "inspect", "hashlib", "_hashlib", "csv"} == set()
    traced = {"homogen.calc", "homogen.diagnostics", "homogen.homogenizer", "homogen.karel.gen",
              "homogen.karel.world", "homogen.karel.interp", "homogen.karel.lang"}
    assert traced <= added


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"])
def test_a_signal_ends_a_run_with_one_line_and_leaves_no_file(signum, tmp_path):
    (tmp_path / "k.jsonl").write_text("old\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    run = subprocess.Popen(
        [sys.executable, "-m", "homogen.cli", "generate", "karel", "--count", "100000",
         "--seed", "1", "--out", "k.jsonl"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # A shell may start a job with SIGINT ignored, which Python and main keep.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".k.jsonl.*.tmp")):
            assert run.poll() is None and time.monotonic() < deadline, run.communicate()
            time.sleep(0.01)
        run.send_signal(signum)
        out, err = run.communicate(timeout=60)
    finally:
        run.kill()
    assert (run.returncode, out, err) == (128 + signum, "", "error: interrupted\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_installed_console_script_round_trip(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "homogen.cli", "generate", "calc", "--count", "3",
         "--seed", "0", "--out", str(tmp_path / "s.jsonl")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 3
