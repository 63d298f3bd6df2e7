"""One supervised worker process: private result pipe, liveness, respawn, stop.

The parallel decomposer's per-partition workers and the serving layer's
long-lived process pool both hold their children through
:class:`WorkerProcess` and read their results through :func:`poll`, so the
transport and liveness rules live here once:

* **A per-worker pipe with exactly one writer**, not a shared ``mp.Queue``:
  a queue's writers serialise on a shared write lock, and a worker killed
  between ``send_bytes`` and the lock release (SIGTERM lands there routinely
  on a loaded single-core host) would take that lock to the grave and
  silently starve every sibling's results.  Single-writer pipes need no lock
  at all, and the parent's framed non-blocking reads mean a half-written
  frame from a dying worker can never block the reader.  The write end rides
  across the fork as a raw file descriptor, so callers must use the ``fork``
  start method.  A worker that also *takes* requests (the serving layer's)
  gets them the same way, over a second private pipe in the other direction:
  the parent is its one writer, the worker blocks in :func:`read_frame`.
* **Two strikes before a dead worker counts as crashed**: its last frame may
  still sit unread in the pipe when ``is_alive`` first reports False; only
  :data:`DEAD_STRIKES` consecutive :meth:`WorkerProcess.crashed` sweeps with
  no frame in between make it a crash.
* **Fresh pipes on respawn, in both directions**: the dead worker may have
  left a half-written result frame or a half-read request frame behind,
  which would desync its successor's frames on a reused pipe.

What to do about a crash (respawn budget, requeueing the dead worker's
tasks) is the caller's policy and stays with the caller.
"""

from __future__ import annotations

import os
import pickle
import select

__all__ = [
    "DEAD_STRIKES",
    "WorkerProcess",
    "encode_frame",
    "poll",
    "read_frame",
    "write_frame",
]

#: Consecutive frame-less sweeps before a non-alive worker counts as crashed.
DEAD_STRIKES = 2


def encode_frame(message) -> bytes:
    """One length-prefixed pickle, as :func:`poll` and :func:`read_frame` read it."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


def write_frame(fd: int, message) -> None:
    """Ship one frame over a blocking pipe end."""
    view = memoryview(encode_frame(message))
    while view:
        written = os.write(fd, view)
        view = view[written:]


def read_frame(fd: int):
    """Block until one whole frame has arrived (:func:`write_frame`'s
    counterpart); ``EOFError`` once every writer has closed the pipe."""

    def exactly(size: int) -> bytearray:
        data = bytearray()
        while len(data) < size:
            chunk = os.read(fd, size - len(data))
            if not chunk:
                raise EOFError("frame pipe closed by its writer")
            data += chunk
        return data

    return pickle.loads(exactly(int.from_bytes(exactly(4), "big")))


class WorkerProcess:
    """Parent-side handle of one worker slot (stable across respawns).

    ``spawn(worker)`` returns the ``Process`` keyword arguments (``target``,
    ``args``, ``name``) of the next attempt, built from ``worker.index``,
    ``worker.attempt`` and ``worker.result_wfd`` (the child's
    :func:`write_frame` fd).
    """

    def __init__(self, context, index: int, spawn) -> None:
        self.context = context
        self.index = index
        self.spawn = spawn
        self.process = None
        self.pid: int | None = None
        self.attempt = 0
        self._open_pipe()

    # What a worker's attempt owns and its successor must not inherit;
    # subclasses with more per-attempt channel state extend the pair.
    def _open_pipe(self) -> None:
        self.result_rfd, self.result_wfd = os.pipe()
        self.rbuf = bytearray()
        self.strikes = 0

    def _close_pipe(self) -> None:
        os.close(self.result_rfd)
        os.close(self.result_wfd)

    def fileno(self) -> int:
        """The read end of the result pipe (what :func:`poll` selects on)."""
        return self.result_rfd

    def start(self) -> None:
        # Daemonic, so a parent that exits ends its workers.  A parent killed
        # outright skips that exit handler; a worker that waits on a request
        # pipe must then see EOF there (see process_backend._spawn).
        self.process = self.context.Process(daemon=True, **self.spawn(self))
        self.process.start()
        self.pid = self.process.pid

    def alive(self) -> bool:
        """Whether the current attempt is running (False once stopped)."""
        return self.process is not None and self.process.is_alive()

    def crashed(self) -> bool:
        """One liveness sweep; True once the worker is dead beyond doubt."""
        if self.process.is_alive():
            self.strikes = 0
            return False
        self.strikes += 1
        return self.strikes >= DEAD_STRIKES

    def respawn(self) -> None:
        """Start the next attempt on a fresh pipe; the dead one's pipe and
        ``Process`` (its sentinel descriptor) are closed."""
        self.process.close()
        self._close_pipe()
        self._open_pipe()
        self.attempt += 1
        self.start()

    def stop(self, grace: float = 0.0) -> None:
        """Give the worker ``grace`` seconds to exit, terminate it, close the
        pipe and the ``Process`` (its sentinel descriptor); ``pid`` stays."""
        if self.process is not None:
            self.process.join(grace)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(1.0)
            if self.process.is_alive():
                # SIGTERM blocked or not yet delivered: close() needs it reaped.
                self.process.kill()
                self.process.join()
            self.process.close()
            self.process = None
        self._close_pipe()


def poll(workers, timeout: float) -> list[tuple[WorkerProcess, object]]:
    """Wait up to ``timeout`` seconds; return ``(worker, message)`` per frame read.

    Call it from the thread that also calls ``respawn``/``stop`` on these
    workers: fds are replaced and closed there without locking.
    """
    ready, _, _ = select.select(workers, [], [], timeout)
    received = []
    for worker in ready:
        buffer = worker.rbuf
        buffer += os.read(worker.result_rfd, 1 << 16)
        # A trailing partial frame — all a dying worker can leave behind —
        # stays buffered until respawn() replaces the pipe.
        while len(buffer) >= 4:
            end = 4 + int.from_bytes(buffer[:4], "big")
            if len(buffer) < end:
                break
            worker.strikes = 0
            received.append((worker, pickle.loads(bytes(buffer[4:end]))))
            del buffer[:end]
    return received
