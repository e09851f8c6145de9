"""Independent work run one item per usable core, on one BLAS thread each.

``fork_map`` is the package's one way to run independent work at once: the
cells of ``run_grid`` and the GCN search points of ``tune`` both go through
it. Two or more numpy computations at once each wake OpenBLAS's own thread
pool for their matrix products, which oversubscribes the cores; so
``fork_map`` pins OpenBLAS to one thread before it forks its workers and puts
the previous count back when it is done. Importing this module starts
nothing, pins nothing and loads neither ``multiprocessing`` nor
``concurrent.futures.process``.
"""

import os
import sys

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
    return _job(item)


def fork_map(fn, items):
    """Yield ``(i, fn(items[i]))`` for every item, as each one finishes.

    With two or more items and cores, the items run in forked worker
    processes, one per usable core, each inheriting OpenBLAS pinned to one
    thread; the previous count comes back when the generator ends. A forked
    worker starts from this process's memory, so ``fn`` may be a closure over
    large arrays: only its result crosses back, pickled. Where fork or the
    OpenBLAS thread symbols are missing, or there is one item or one core,
    the items run here, in order, with BLAS left as it is. On either path an
    item whose ``fn`` raises, or whose result does not come back because its
    worker died or the result does not pickle, yields the exception instead
    of a result. Closing the generator early cancels the items not started.
    """
    import multiprocessing  # not at import time
    workers = min(len(items), usable_cores())
    forks = workers > 1 and "fork" in multiprocessing.get_all_start_methods()
    calls = openblas_thread_calls() if forks else None
    if calls is None:
        yield from ((i, _outcome(fn, item)) for i, item in enumerate(items))
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield from _forked(fn, items, workers, multiprocessing.get_context("fork"))
    finally:
        set_threads(before)


def _outcome(call, *args):
    """call(*args), or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def _forked(fn, items, workers, context):
    # fork, not spawn: the workers read the caller's arrays and any patched
    # module functions without pickling them. Forking starts them from the
    # calling thread before the pool's own thread, and OpenBLAS stops its
    # thread pool at fork.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                             initializer=_start_worker,
                             initargs=(fn,)) as pool:
        futures = {pool.submit(_run_job, item): i for i, item in enumerate(items)}
        try:
            for future in as_completed(futures):
                yield futures[future], _outcome(future.result)
        finally:  # a caller that stops early does not wait for the rest
            pool.shutdown(cancel_futures=True)
