"""Independent work run one item per usable core, on one BLAS thread each.

``fork_map`` is the package's one way to run independent work at once: the
cells of ``run_grid`` and the baselines and GCN search points of ``tune`` all
go through it, and it times each item and catches its failure where the item
ran. Two or more numpy computations at once each wake OpenBLAS's own thread
pool for their matrix products, which oversubscribes the cores; so
``fork_map`` pins OpenBLAS to one thread before it forks its workers and puts
the previous count back when it is done. Importing this module starts
nothing, pins nothing and loads neither ``multiprocessing`` nor
``concurrent.futures.process``.
"""

import math
import os
import sys
import time

# (set, get) thread-count symbols of the OpenBLAS numpy links, in the order
# tried: numpy 2 wheels' scipy-openblas, 64-bit-integer builds, plain builds
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_thread_calls():
    """(set, get) for the thread count of the OpenBLAS numpy links, or None.

    dlsym on numpy's extension module also searches the libraries it links,
    so this finds a bundled OpenBLAS without knowing its file name.
    """
    import ctypes
    import numpy  # noqa: F401  (loads the extension module looked up below)
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError, TypeError):
        return None
    for set_name, get_name in OPENBLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        return set_threads, get_threads
    return None


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_job = None  # fork_map's function, set in each worker by _start_worker


def _start_worker(fn):
    global _job
    _job = fn


def _run_job(item):
    return _timed(_job, item)


def _timed(fn, item):
    """(fn(item), "", seconds), or (None, "Type: message", seconds) if it raised."""
    start = time.perf_counter()
    try:
        result, error = fn(item), ""
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def fork_map(fn, items):
    """Yield ``(i, result, error, seconds)`` for every item, as each finishes.

    ``result`` is ``fn(items[i])`` and ``error`` is ``""``, or ``result`` is
    None and ``error`` reads "Type: message"; a failing item does not stop
    the others. ``seconds`` is the item's wall time where it ran, or NaN when
    no result came back: its worker died or the result does not pickle.

    With two or more items and cores, the items run in forked worker
    processes, one per usable core, each inheriting OpenBLAS pinned to one
    thread; the previous count comes back when the generator ends. A forked
    worker starts from this process's memory, so ``fn`` may be a closure over
    large arrays: only its result crosses back, pickled. Where fork or the
    OpenBLAS thread symbols are missing, or there is one item or one core,
    the items run here, in order, with BLAS left as it is. Closing the
    generator early cancels the items not started.
    """
    import multiprocessing  # not at import time
    workers = min(len(items), usable_cores())
    forks = workers > 1 and "fork" in multiprocessing.get_all_start_methods()
    calls = openblas_thread_calls() if forks else None
    if calls is None:
        yield from ((i, *_timed(fn, item)) for i, item in enumerate(items))
        return
    set_threads, get_threads = calls
    before = get_threads()
    # fork, not spawn: the workers read the caller's arrays and any patched
    # module functions without pickling them. Forking starts them from the
    # calling thread before the pool's own thread, and OpenBLAS stops its
    # thread pool at fork.
    from concurrent.futures import Future, ProcessPoolExecutor, as_completed
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    set_threads(1)
    try:
        futures = {pool.submit(_run_job, item): i for i, item in enumerate(items)}
        for future in as_completed(futures):
            # no outcome comes back from a dead worker or an unpicklable result
            outcome, error, _ = _timed(Future.result, future)
            yield (futures[future], *(outcome or (None, error, math.nan)))
    finally:  # a caller that stops early does not wait for the rest
        pool.shutdown(cancel_futures=True)
        set_threads(before)
