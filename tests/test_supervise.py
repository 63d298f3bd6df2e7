"""The one supervised worker process: framing, liveness, respawn, hygiene."""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time

import pytest

from repro import faults
from repro.core import ParallelLogKDecomposer
from repro.core import parallel as parallel_module
from repro.faults.supervise import (
    DEAD_STRIKES,
    WorkerProcess,
    encode_frame,
    poll,
    read_frame,
    write_frame,
)

_FORK = mp.get_context("fork")


def _frame(message) -> bytes:
    data = pickle.dumps(message)
    return len(data).to_bytes(4, "big") + data


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _worker(target, *args) -> WorkerProcess:
    """A worker whose child calls ``target(result_wfd, attempt, *args)``."""
    return WorkerProcess(
        _FORK,
        0,
        lambda worker: {"target": target, "args": (worker.result_wfd, worker.attempt, *args)},
    )


def _report_attempt(fd, attempt):
    write_frame(fd, ("attempt", attempt))


def _exit_silently(fd, attempt):
    pass


def _sleep(fd, attempt):
    time.sleep(60)


def _wait_dead(worker):
    deadline = time.monotonic() + 10
    while worker.process.is_alive():
        assert time.monotonic() < deadline
        time.sleep(0.005)


@pytest.fixture
def idle():
    """A never-started worker: the tests write to its pipe themselves."""
    worker = WorkerProcess(_FORK, 0, spawn=None)
    yield worker
    worker.stop()


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def test_two_frames_in_one_read_both_decode(idle):
    write_frame(idle.result_wfd, "first")
    write_frame(idle.result_wfd, {"second": 2})
    assert poll([idle], 0) == [(idle, "first"), (idle, {"second": 2})]
    assert poll([idle], 0) == []


def test_frame_split_across_two_reads_decodes(idle):
    data = _frame(list(range(50)))
    for cut in (2, 4, len(data) - 1):  # inside the length prefix, at it, in the body
        os.write(idle.result_wfd, data[:cut])
        assert poll([idle], 0) == []
        os.write(idle.result_wfd, data[cut:])
        assert poll([idle], 0) == [(idle, list(range(50)))]
    assert not idle.rbuf


def test_truncated_trailing_frame_stays_buffered(idle):
    # All a dying worker can leave behind: a whole frame, then half of one.
    half = _frame("never finished")[:9]
    os.write(idle.result_wfd, _frame("whole") + half)
    assert poll([idle], 0) == [(idle, "whole")]
    assert poll([idle], 0) == []
    assert bytes(idle.rbuf) == half


@pytest.mark.parametrize("message", [b"x", os.urandom(200 * 1024)], ids=["1-byte", "200KiB"])
def test_read_frame_blocks_until_the_whole_frame_arrived(message):
    # The request direction: a blocking exact read against a writer that
    # delivers the frame in 7-byte slices (more than a pipe holds, for the
    # large one, so reader and writer must make progress together).
    rfd, wfd = os.pipe()
    data = encode_frame(message)

    def dribble():
        for start in range(0, len(data), 7):
            os.write(wfd, data[start : start + 7])

    writer = threading.Thread(target=dribble)
    writer.start()
    try:
        assert read_frame(rfd) == message
        write_frame(wfd, ("then", "whole"))
        assert read_frame(rfd) == ("then", "whole")
    finally:
        writer.join(10)
        os.close(wfd)
    assert not writer.is_alive()
    with pytest.raises(EOFError):
        read_frame(rfd)
    os.close(rfd)


def test_read_frame_raises_eof_inside_a_torn_frame():
    rfd, wfd = os.pipe()
    os.write(wfd, _frame("never finished")[:9])
    os.close(wfd)
    with pytest.raises(EOFError):
        read_frame(rfd)
    os.close(rfd)


# --------------------------------------------------------------------------- #
# liveness and respawn
# --------------------------------------------------------------------------- #
def test_crashed_needs_two_dead_sweeps_and_a_frame_resets_the_count():
    assert DEAD_STRIKES == 2
    worker = _worker(_report_attempt)
    try:
        worker.start()
        _wait_dead(worker)
        assert not worker.crashed()  # its frame may still be in the pipe
        assert poll([worker], 0) == [(worker, ("attempt", 0))]
        assert not worker.crashed()  # ... and it was: count starts over
        assert worker.crashed()
    finally:
        worker.stop()


def test_live_worker_is_never_crashed():
    worker = _worker(_sleep)
    try:
        worker.start()
        pid = worker.pid
        assert not any(worker.crashed() for _ in range(5))
    finally:
        worker.stop()
    assert not worker.alive() and not mp.active_children()
    assert worker.pid == pid  # still readable: stats after shutdown report it


def test_respawn_starts_the_next_attempt_on_a_fresh_pipe():
    worker = _worker(_exit_silently)
    try:
        worker.start()
        _wait_dead(worker)
        first = worker.process
        # The dead attempt's half-written frame must not desync its successor.
        os.write(worker.result_wfd, _frame("torn")[:7])
        assert poll([worker], 0) == []
        old_pipe = os.fstat(worker.result_rfd).st_ino
        worker.spawn = lambda w: {"target": _report_attempt, "args": (w.result_wfd, w.attempt)}
        worker.respawn()
        assert worker.attempt == 1 and worker.process is not first
        assert os.fstat(worker.result_rfd).st_ino != old_pipe
        assert not worker.rbuf and worker.strikes == 0
        assert poll([worker], 10) == [(worker, ("attempt", 1))]
    finally:
        worker.stop()


# --------------------------------------------------------------------------- #
# hygiene: no process, no descriptor left behind
# --------------------------------------------------------------------------- #
def test_stop_leaves_no_child_and_no_descriptor():
    before = _open_fds()
    workers = [_worker(_sleep), _worker(_exit_silently)]
    for worker in workers:
        worker.start()
    _wait_dead(workers[1])
    workers[1].respawn()
    for worker in workers:
        worker.stop()
    assert not mp.active_children()
    # stop() and respawn() close the pipes and the Process sentinels
    # themselves; nothing waits for the garbage collector.
    assert _open_fds() == before


@pytest.mark.parametrize("kill_every_attempt", [False, True], ids=["first-success", "budget-exhausted"])
def test_parallel_decomposer_leaves_no_child_and_no_descriptor(cycle10, kill_every_attempt):
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False)
    before = _open_fds()
    if kill_every_attempt:
        with faults.injected(faults.FaultRule(point="parallel.worker", kill=True)):
            result = decomposer.decompose_raw(cycle10, 2)
        assert result.timed_out and not result.success
    else:
        result = decomposer.decompose_raw(cycle10, 2)
        assert result.success
    assert not mp.active_children()
    assert _open_fds() == before


def test_a_forked_parallel_worker_holds_no_sibling_pipe_end(cycle10, monkeypatch, tmp_path):
    # Each child lists the pipes it holds; of the run's result pipes it may
    # hold exactly one end: the write end of its own.  A refutation, so that
    # every worker runs to its end.
    pipes = set()
    start, search = WorkerProcess.start, parallel_module._worker_search

    def recording_start(worker):
        pipes.add(f"pipe:[{os.fstat(worker.result_rfd).st_ino}]")
        start(worker)

    def listing_search(*args):
        held = []
        for name in os.listdir("/proc/self/fd"):
            try:
                held.append(os.readlink(f"/proc/self/fd/{name}"))
            except FileNotFoundError:  # the listing's own directory fd
                pass
        (tmp_path / str(os.getpid())).write_text("\n".join(held))
        return search(*args)

    monkeypatch.setattr(WorkerProcess, "start", recording_start)
    monkeypatch.setattr(parallel_module, "_worker_search", listing_search)
    decomposer = ParallelLogKDecomposer(num_workers=3, hybrid=False)
    result = decomposer.decompose_raw(cycle10, 1)
    assert not result.success and not result.timed_out
    listings = [path.read_text().split("\n") for path in tmp_path.iterdir()]
    assert len(pipes) == len(listings) == 3
    for held in listings:
        assert len([link for link in held if link in pipes]) == 1
