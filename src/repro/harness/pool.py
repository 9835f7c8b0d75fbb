"""Persistent worker-process pool with per-task timeouts and crash isolation.

:class:`WorkerPool` keeps a fixed set of long-lived worker processes alive
(across :func:`~repro.harness.runner.run_suite` calls, via
:func:`get_pool`), so suites of many tiny scenarios amortise
interpreter/import startup instead of paying it per scenario the way a
fresh ``multiprocessing.Pool`` per run does.

One dispatcher thread owns the workers.  Callers :meth:`~WorkerPool.submit`
tasks from any thread and get a :class:`concurrent.futures.Future` back;
the dispatcher hands queued tasks to idle workers in FIFO order.  A batch
(:meth:`~WorkerPool.run_tasks`, used by ``repro suite run``) is submit-all
+ wait; ``repro serve`` submits one job span at a time.  Both therefore
get the same guarantees.

Tasks travel over one duplex :func:`multiprocessing.Pipe` per worker rather
than a shared queue.  That buys two properties a ``Pool`` cannot offer:

* **Hard per-task timeouts.**  The parent knows exactly which worker runs
  which task, so an overdue task is handled by killing *that* worker and
  respawning a replacement — sibling tasks keep running, and the task
  resolves as ``timeout`` instead of hanging.
* **Crash containment.**  A worker that dies mid-task (OOM kill, segfault)
  closes its pipe; :func:`multiprocessing.connection.wait` wakes the
  dispatcher, which resolves that task as ``error`` and respawns.  Pipes
  carry whole pickled messages, so killing a worker can never corrupt a
  shared queue the way terminating a ``multiprocessing.Queue`` feeder can.

Task callables must be module-level functions (they are pickled by
reference); arguments and results must be picklable.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A task is a module-level callable plus its positional arguments.
Task = Tuple[Callable[..., Any], Tuple[Any, ...]]

#: Grace period (seconds) for a killed or shut-down worker to be reaped.
_JOIN_GRACE_S = 2.0


@dataclass
class TaskResult:
    """Outcome of one pool task, in submission order."""

    status: str  # "ok" | "error" | "timeout"
    value: Any = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worker_main(conn) -> None:
    """Worker loop: receive ``(task_id, fn, args)``, send back the result.

    ``None`` is the shutdown sentinel.  Exceptions (including ``SystemExit``
    raised by task code) are caught and shipped back as tracebacks so a
    failing task never takes the worker down with it.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        task_id, fn, args = item
        try:
            conn.send((task_id, "ok", fn(*args)))
        except BaseException:
            conn.send((task_id, "error", traceback.format_exc()))


class _Worker:
    """One live worker process and the parent's end of its pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        # The child holds its own copy; closing ours makes EOF detection
        # (worker death -> readable pipe) work in the parent.
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Terminate the process and release the pipe (timeout/shutdown path)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_GRACE_S)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(_JOIN_GRACE_S)
        self.conn.close()

    def stop(self) -> None:
        """Ask the worker to exit cleanly; escalate to kill if it won't."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_JOIN_GRACE_S)
        self.kill()


@dataclass
class _Task:
    """One submitted task: queued until dispatch, then in flight on a worker."""

    future: Future
    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    timeout: Optional[float]
    task_id: int = 0  # batch index (observability only)
    started: float = 0.0
    deadline: Optional[float] = None
    pid: int = 0
    start_ns: int = 0  # tracer-clock dispatch time (observability only)


class WorkerPool:
    """Warm worker processes behind one thread-safe dispatcher.

    Any number of threads :meth:`submit` single tasks; the dispatcher
    thread hands them to idle workers in FIFO order, enforces each task's
    hard ``timeout`` (the overdue worker is killed and replaced), and
    confines a worker crash to the task that triggered it.  A batch
    (:meth:`run_tasks`) is the same submit-all + wait, so ``repro suite
    run`` and ``repro serve`` share one scheduler.

    ``_lock`` guards the queue and the closed flag; the worker list and
    the idle/busy sets belong to the dispatcher thread.
    """

    def __init__(self, workers: int, *, context=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._ctx = context or multiprocessing.get_context()
        self._workers: List[_Worker] = [_Worker(self._ctx)
                                        for _ in range(workers)]
        self._idle: deque = deque(self._workers)
        self._busy: Dict[_Worker, _Task] = {}
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        #: Respawn count (timeouts, crashes, idle deaths), for service metrics.
        self.respawns = 0
        #: Observability (repro.obs), attached by run_suite for the span of
        #: one suite.  Parent-side only: task spans measure dispatch→result
        #: on the parent clock (tid = worker pid), so nothing crosses the
        #: process boundary and worker payloads stay untouched.
        self.tracer = None
        self.metrics = None
        # Wake channel: submit()/shutdown() nudge the dispatcher out of its
        # connection wait without a polling interval.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._thread = threading.Thread(
            target=self._loop, name="worker-pool", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return not self._closed

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (changes when one is killed)."""
        return [w.process.pid for w in list(self._workers)
                if w.process.pid is not None]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
               *, timeout: Optional[float] = None) -> Future:
        """Queue one task; returns at once with a future of its TaskResult.

        ``timeout`` is the task's wall-clock budget in seconds from
        dispatch (``None`` disables the guard).  The future never raises:
        failures resolve it with an ``error`` or ``timeout`` result.
        """
        return self._submit(fn, args, timeout, 0)

    def _submit(self, fn: Callable[..., Any], args: Tuple[Any, ...],
                timeout: Optional[float], task_id: int) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()  # pool tasks cannot be cancelled
        with self._lock:
            if self._closed:
                raise RuntimeError("pool has been shut down")
            self._pending.append(_Task(future, fn, tuple(args), timeout,
                                       task_id))
        self._wake()
        return future

    def run(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
            *, timeout: Optional[float] = None) -> TaskResult:
        """Submit one task and block until it resolves."""
        return self.submit(fn, args, timeout=timeout).result()

    def run_tasks(self, tasks: List[Task], *, timeout: Optional[float] = None,
                  max_workers: Optional[int] = None) -> List[TaskResult]:
        """Run a batch of tasks, returning results in submission order.

        Every task gets the per-task ``timeout`` of :meth:`submit`.
        ``max_workers`` caps this batch's outstanding tasks, refilling as
        each finishes, so a caller can honour a smaller parallelism request
        on a larger shared pool without tearing it down.
        """
        cap = max_workers or len(tasks)
        futures: List[Future] = []
        outstanding: set = set()
        for task_id, (fn, args) in enumerate(tasks):
            if len(outstanding) >= cap:
                _, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            futures.append(self._submit(fn, args, timeout, task_id))
            outstanding.add(futures[-1])
        return [f.result() for f in futures]

    def _wake(self) -> None:
        try:
            self._wake_w.send(None)
        except (BrokenPipeError, OSError):  # pragma: no cover - shutdown race
            pass

    # ------------------------------------------------------------------
    # The dispatcher thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        try:
            self._dispatch_until_closed()
        except Exception:  # e.g. a respawn that cannot fork
            # Fail every waiting caller instead of leaving it blocked.
            error = traceback.format_exc()
            with self._lock:
                self._closed = True
                stranded = [*self._pending, *self._busy.values()]
                self._pending.clear()
            for worker in self._workers:
                worker.kill()
            self._workers = []
            for task in stranded:
                task.future.set_result(TaskResult(status="error", error=error))

    def _dispatch_until_closed(self) -> None:
        while True:
            with self._lock:
                self._dispatch_locked()
                if self._closed and not self._busy:
                    return
            deadlines = [t.deadline for t in self._busy.values()
                         if t.deadline is not None]
            poll = None
            if deadlines:
                poll = max(0.0, min(deadlines) - time.monotonic())
            by_conn = {w.conn: w for w in self._busy}
            ready = _wait_connections([*by_conn, self._wake_r], timeout=poll)

            if self._wake_r in ready:
                while self._wake_r.poll():
                    self._wake_r.recv()
            for conn in ready:
                worker = by_conn.get(conn)
                if worker is None:
                    continue
                try:
                    _task_id, status, payload = conn.recv()
                except (EOFError, OSError):
                    # Worker died without reporting (crash, OOM kill).
                    self._finish(worker, TaskResult(
                        status="error",
                        error="worker process died before returning a result",
                    ), replace=True)
                    continue
                except Exception:  # an unloadable result; the pipe is intact
                    self._finish(worker, TaskResult(
                        status="error", error=traceback.format_exc()))
                    continue
                if status == "ok":
                    self._finish(worker, TaskResult(status="ok", value=payload))
                else:
                    self._finish(worker, TaskResult(status="error",
                                                    error=payload))

            now = time.monotonic()
            for worker in [w for w, t in self._busy.items()
                           if t.deadline is not None and t.deadline <= now]:
                task = self._busy[worker]
                if self.tracer is not None:
                    self.tracer.instant("task_timeout", "pool", tid=task.pid,
                                        task_id=task.task_id)
                self._finish(worker, TaskResult(status="timeout"),
                             replace=True)

    def _dispatch_locked(self) -> None:
        """Hand queued tasks to idle workers, oldest first (lock held)."""
        while self._pending and self._idle and not self._closed:
            worker = self._idle.popleft()
            # A worker can die while idle (OOM kill between tasks of a
            # long-lived pool); replace it instead of failing the send.
            if not worker.alive:
                self._replace(worker)
                continue
            task = self._pending.popleft()
            try:
                worker.conn.send((task.task_id, task.fn, task.args))
            except (BrokenPipeError, OSError):
                self._pending.appendleft(task)
                self._replace(worker)
                continue
            except Exception:  # unpicklable task: nothing reached the pipe
                self._idle.appendleft(worker)
                task.future.set_result(TaskResult(
                    status="error", error=traceback.format_exc()))
                continue
            task.started = time.monotonic()
            if task.timeout is not None:
                task.deadline = task.started + task.timeout
            task.pid = worker.process.pid or 0
            self._busy[worker] = task
            tracer, metrics = self.tracer, self.metrics
            if tracer is not None:
                task.start_ns = tracer.now_ns()
                tracer.thread_name(task.pid, f"worker-{task.pid}")
            if metrics is not None:
                with metrics.locked():
                    metrics.gauge("pool_queue_depth",
                                  "Tasks not yet dispatched").set(
                        len(self._pending))

    def _finish(self, worker: _Worker, result: TaskResult,
                replace: bool = False) -> None:
        """Record a task's outcome, recycle its worker, resolve its future."""
        task = self._busy.pop(worker)
        result.elapsed_s = time.monotonic() - task.started
        tracer, metrics = self.tracer, self.metrics
        if tracer is not None:
            tracer.complete(
                "pool_task", "pool", start_ns=task.start_ns,
                dur_ns=tracer.now_ns() - task.start_ns, tid=task.pid,
                task_id=task.task_id, status=result.status)
        if metrics is not None:
            with metrics.locked():
                metrics.counter("pool_tasks_total", "Pool tasks by outcome",
                                ("status",)).inc(status=result.status)
                metrics.histogram(
                    "pool_task_seconds",
                    "Pool task wall time (dispatch→result)",
                ).observe(result.elapsed_s)
        # Resolve last: a batch caller may detach the observers as soon as
        # its final future resolves.
        try:
            if replace:
                self._replace(worker)
            else:
                self._idle.append(worker)
        finally:
            task.future.set_result(result)

    def _replace(self, worker: _Worker) -> None:
        """Kill a worker and put a fresh replacement into the idle set."""
        old_pid = worker.process.pid or 0
        worker.kill()
        self._workers.remove(worker)
        replacement = _Worker(self._ctx)
        self._workers.append(replacement)
        self._idle.append(replacement)
        self.respawns += 1
        if self.tracer is not None:
            self.tracer.instant("worker_respawn", "pool", tid=old_pid,
                                new_pid=replacement.process.pid or 0)
        if self.metrics is not None:
            with self.metrics.locked():
                self.metrics.counter(
                    "pool_respawns_total",
                    "Workers killed and replaced (timeout or crash)").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop accepting work, resolve queued tasks as errors, reap workers.

        In-flight tasks are allowed to finish.  Idempotent; the pool is
        unusable afterwards.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = list(self._pending)
            self._pending.clear()
        for task in dropped:
            task.future.set_result(TaskResult(
                status="error", error="pool shut down before dispatch"))
        self._wake()
        self._thread.join()
        for worker in self._workers:
            worker.stop()
        self._workers = []
        self._wake_r.close()
        self._wake_w.close()


#: Former name of the service-side pool; perfbench/serve_launcher.py
#: still imports it.
DispatchPool = WorkerPool


# ----------------------------------------------------------------------
# Shared pool: reused across run_suite calls within one process
# ----------------------------------------------------------------------
_shared_pool: Optional[WorkerPool] = None


def get_pool(workers: int) -> WorkerPool:
    """The process-wide shared pool, with at least ``workers`` workers.

    A live pool that is already big enough is reused as-is — callers wanting
    less parallelism cap it per batch via ``run_tasks(max_workers=...)``
    rather than forcing a teardown.  Only asking for *more* workers (or
    hitting a shut-down pool) rebuilds, so successive ``run_suite`` calls
    with varying pending counts keep their warm workers.
    """
    global _shared_pool
    if _shared_pool is not None and (_shared_pool.size < workers
                                     or not _shared_pool.alive):
        _shared_pool.shutdown()
        _shared_pool = None
    if _shared_pool is None:
        _shared_pool = WorkerPool(workers)
    return _shared_pool


def shutdown_pool() -> None:
    """Tear down the shared pool (no-op when none exists)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown()
        _shared_pool = None


atexit.register(shutdown_pool)
