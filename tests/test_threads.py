"""The block splitter behind the matched filter: coverage, errors, thread
lifetime, the ISACSIM_THREADS rule it shares with the CLI, and the one-thread
BLAS pool it leaves behind; and the ordered pipeline behind the CSV writer:
consume order, errors, thread lifetime and the results it keeps at a time."""

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from isacsim._threads import BLOCKS_PER_WORKER, for_blocks, ordered, thread_count
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


def run_ordered(n, produce=lambda i: i):
    """ordered with produce(i) and consumed.append -> consumed, checking that
    every thread it started is gone."""
    consumed = []
    before = threading.active_count()
    ordered(lambda i, s: produce(i), consumed.append, n, scratch=lambda: None)
    assert threading.active_count() == before
    return consumed


def test_ordered_consumes_in_index_order_under_fast_switching(threads):
    threads("8")
    rng = random.Random(3)
    spins = [rng.randrange(2000) for _ in range(300)]

    def produce(i):  # uneven work, so results complete out of order
        for _ in range(spins[i]):
            pass
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 7, 8, 9, 300):
            assert run_ordered(n, produce) == list(range(n))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", ["1", "5"])
def test_ordered_with_no_index_calls_nothing(threads, workers):
    threads(workers)
    calls = []
    before = threading.active_count()
    ordered(lambda i, s: calls.append(i), calls.append, 0, scratch=lambda: None)
    assert calls == []
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "workers, n, started", [("5", 2, 1), ("5", 1, 0), ("3", 3, 2), ("3", 40, 2), ("1", 3, 0)]
)
def test_ordered_starts_min_workers_n_less_one_threads(threads, monkeypatch, workers, n, started):
    threads(workers)
    new = []

    class Counted(threading.Thread):
        def start(self):
            new.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    assert run_ordered(n) == list(range(n))
    assert len(new) == started


def test_ordered_keeps_at_most_one_result_per_worker(threads):
    """While the result of index 0 is held up, the other two workers produce
    one result each and then wait: three results exist, never four."""
    threads("3")
    lock = threading.Lock()
    two_more = threading.Event()
    produced = consumed = most = 0
    held_up_with = []

    def produce(i):
        nonlocal produced, most
        if i == 0:
            assert two_more.wait(timeout=10)
            time.sleep(0.2)  # time for a fourth result, if one could start
            held_up_with.append(produced)
        with lock:
            produced += 1
            most = max(most, produced - consumed)
            if produced == 2 and i != 0:
                two_more.set()
        return i

    def consume(i):
        nonlocal consumed
        with lock:
            consumed += 1

    before = threading.active_count()
    ordered(lambda i, s: produce(i), consume, 30, scratch=lambda: None)
    assert threading.active_count() == before
    assert held_up_with == [2]
    assert most == 3
    assert consumed == 30


@pytest.mark.parametrize("workers", ["1", "2", "5"])
@pytest.mark.parametrize("failing", ["produce", "consume"])
def test_ordered_reraises_the_first_error_and_consumes_nothing_after(threads, workers, failing):
    threads(workers)
    consumed = []
    later = threading.Event()  # index 18 is produced and waits its turn

    def fail_at_17(i):
        if i == 17:
            if workers != "1":
                later.wait(timeout=10)
            raise ValueError("index 17 failed")

    def produce(i):
        if i == 18:
            later.set()
        if failing == "produce":
            fail_at_17(i)
        return i

    def consume(i):
        if failing == "consume":
            fail_at_17(i)
        consumed.append(i)

    before = threading.active_count()
    with pytest.raises(ValueError, match="index 17 failed"):
        ordered(lambda i, s: produce(i), consume, 100, scratch=lambda: None)
    assert threading.active_count() == before
    assert consumed == list(range(len(consumed)))
    assert len(consumed) <= 17
    if workers == "1":
        assert len(consumed) == 17


def test_ordered_releases_the_workers_waiting_their_turn(threads):
    """Index 0 fails after every other worker holds a result and waits for
    its turn: each must give up, and the call must return."""
    threads("4")
    ready = threading.Semaphore(0)

    def produce(i):
        if i == 0:
            for _ in range(3):
                assert ready.acquire(timeout=10)
            raise ValueError("index 0 failed")
        ready.release()
        return i

    raised = []

    def call():
        try:
            ordered(lambda i, s: produce(i), lambda i: None, 50, scratch=lambda: None)
        except ValueError as exc:
            raised.append(exc)

    before = threading.active_count()
    # daemon, and so are the workers it starts: a hang cannot outlive the run
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "a worker was left waiting for its turn"
    assert threading.active_count() == before
    assert [str(exc) for exc in raised] == ["index 0 failed"]


@pytest.mark.parametrize("workers, n, made", [("1", 5, 1), ("3", 40, 3), ("5", 2, 2)])
def test_ordered_gives_each_worker_its_own_scratch_made_by_the_caller(threads, workers, n, made):
    """scratch() runs on the calling thread, once per worker, before any
    thread starts; each worker passes its own s to produce, so a result may
    live in s until it is consumed."""
    threads(workers)
    caller = threading.current_thread()
    scratches, users = [], {}
    lock = threading.Lock()

    def scratch():
        assert threading.current_thread() is caller
        assert threading.active_count() == before
        scratches.append([])
        return scratches[-1]

    def produce(i, s):
        with lock:
            users.setdefault(id(s), set()).add(threading.current_thread())
        assert s == []  # the previous result in s was consumed and cleared
        s.append(i)
        return s

    def consume(s):
        consumed.append(s.pop())

    consumed = []
    before = threading.active_count()
    ordered(produce, consume, n, scratch=scratch)
    assert threading.active_count() == before
    assert consumed == list(range(n))
    assert len(scratches) == made
    assert all(len(user) == 1 for user in users.values())
    assert len({next(iter(user)) for user in users.values()}) == len(users)


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
