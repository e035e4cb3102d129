"""The block splitter behind the matched filter: coverage, errors, thread
lifetime, the ISACSIM_THREADS rule it shares with the CLI, and the one-thread
BLAS pool it leaves behind."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from isacsim._threads import BLOCKS_PER_WORKER, for_blocks, thread_count
from isacsim.errors import ParameterError


@pytest.fixture
def threads(monkeypatch):
    def set_threads(value):
        monkeypatch.setenv("ISACSIM_THREADS", value)

    return set_threads


def record_blocks(n):
    blocks = []
    before = threading.active_count()
    for_blocks(blocks.append, n)
    assert threading.active_count() == before
    return blocks


@pytest.mark.parametrize(
    "workers, n",
    [(5, 1), (5, 2), (5, 4), (2, 37), (3, 13), (3, 12), (1, 7), (2, 0), (4, 1000)],
)
def test_blocks_cover_every_index_exactly_once(threads, workers, n):
    threads(str(workers))
    blocks = record_blocks(n)
    covered = sorted(i for block in blocks for i in range(n)[block])
    assert covered == list(range(n))
    assert all(block.step is None and block.start < block.stop for block in blocks if n)
    used = min(workers, n)
    assert len(blocks) <= max(1, BLOCKS_PER_WORKER * used)


def test_blocks_split_into_about_four_per_worker(threads):
    threads("2")
    sizes = sorted(block.stop - block.start for block in record_blocks(37))
    assert len(sizes) == 2 * BLOCKS_PER_WORKER
    assert sizes[-1] - sizes[0] <= 1


def test_one_worker_runs_inline_and_starts_no_thread(threads):
    threads("1")
    calls = []
    before = threading.active_count()

    def fn(block):
        calls.append((block, threading.get_ident(), threading.active_count()))

    for_blocks(fn, 50)
    assert [block for block, _, _ in calls] == [
        slice(0, 12), slice(12, 25), slice(25, 37), slice(37, 50)
    ]
    assert {(ident, count) for _, ident, count in calls} == {(threading.get_ident(), before)}


@pytest.mark.parametrize("workers", ["1", "2", "5"])
def test_a_raising_block_propagates_its_exception(threads, workers):
    threads(workers)
    before = threading.active_count()

    def fn(block):
        if 17 in range(100)[block]:
            raise ValueError("block 17 failed")

    with pytest.raises(ValueError, match="block 17 failed"):
        for_blocks(fn, 100)
    assert threading.active_count() == before


def test_many_workers_with_fast_switching_lose_no_block(threads):
    threads("8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (31, 32, 33, 500):
            blocks = record_blocks(n)
            assert sorted(i for block in blocks for i in range(n)[block]) == list(range(n))
    finally:
        sys.setswitchinterval(interval)


def test_thread_count_follows_isacsim_threads(threads, monkeypatch):
    threads("3")
    assert thread_count() == 3
    monkeypatch.delenv("ISACSIM_THREADS")
    assert thread_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", " 2"])
def test_malformed_thread_count_raises_the_cli_message(threads, value):
    threads(value)
    message = f"ISACSIM_THREADS must be a positive integer, got {value!r}"
    with pytest.raises(ParameterError) as info:
        thread_count()
    assert str(info.value) == message
    with pytest.raises(ParameterError):
        for_blocks(lambda block: None, 10)


def test_min_block_keeps_every_slice_at_least_that_long(threads):
    threads("5")

    def blocks_of(n):
        blocks = []
        for_blocks(blocks.append, n, min_block=2)
        return sorted(blocks, key=lambda block: block.start)

    for n in (2, 3, 5, 9, 40, 41):
        blocks = blocks_of(n)
        assert sorted(i for block in blocks for i in range(n)[block]) == list(range(n))
        assert all(block.stop - block.start >= 2 for block in blocks)
    assert blocks_of(1) == [slice(0, 1)]


SRC = Path(__file__).resolve().parent.parent / "src"
CAR_INI = """\
[radar]
pri_s = 2.909090909090909e-07
packets = 16
code_length = 256
[scene]
target = car
position_m = 20, 5, 0
radial_speed_mps = 5
snr_db = 10
[doppler]
bins = 15
"""
# numpy (and with it OpenBLAS) loads before isacsim, as in a library caller
# or a benchmark that forks its runs from one warm process
LOADED_FIRST = """\
import sys
import numpy
from isacsim import _threads, cli
before = _threads.blas_pool_size()
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(before, _threads.blas_pool_size(), code)
"""


def test_a_run_caps_a_blas_pool_that_loaded_first(tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS sizes its pool to at most the CPU count")
    config = tmp_path / "car.ini"
    config.write_text(CAR_INI)

    def run(blas_threads, out):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, ISACSIM_THREADS="2")
        env["PYTHONPATH"] = path
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_FIRST, str(config), str(tmp_path / out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    before, after, code = run("2", "two")
    if before == "None":
        pytest.skip("numpy's BLAS exports no OpenBLAS pool size")
    assert (before, after, code) == ("2", "1", "0")
    assert run("1", "one") == ["1", "1", "0"]
    csvs = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
    assert len(csvs) == 8
    for name in csvs:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
