"""Independent work run one item per usable core, on one BLAS thread each.

Two or more numpy computations at once each wake OpenBLAS's own thread pool
for their matrix products, which oversubscribes the cores; so concurrent
work runs with OpenBLAS pinned to one thread. `tune` spreads its GCN
trainings over threads (`one_blas_thread`, `usable_cores`); `run_grid`
spreads its cells over forked processes (`fork_map`). Importing this module
starts nothing and loads neither ``multiprocessing`` nor
``concurrent.futures.process``.
"""

import os
import sys
from contextlib import contextmanager

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


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; yields whether it is.

    The previous count comes back afterwards. Where the symbols are missing
    nothing changes and the block is told so.
    """
    calls = openblas_thread_calls()
    if calls is None:
        yield False
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)


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
    thread. A forked worker starts from this process's memory, so ``fn`` may
    be a closure over large arrays: only its result crosses back, pickled.
    Where fork or the pin is unavailable, or there is one item or one core,
    the items run here, in order, with BLAS left as it is. An item whose
    result does not come back, because its worker died or the result does
    not pickle, yields the exception instead of a result.
    """
    import multiprocessing  # not at import time
    workers = min(len(items), usable_cores())
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with one_blas_thread() as pinned:
            if pinned:
                yield from _forked(fn, items, workers,
                                   multiprocessing.get_context("fork"))
                return
    yield from enumerate(map(fn, items))


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
        for future in as_completed(futures):
            try:
                outcome = future.result()
            except Exception as exc:  # its worker died or its result did not pickle
                outcome = exc
            yield futures[future], outcome
