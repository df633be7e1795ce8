"""Keyed randomness derivation for reproducible parallel Monte Carlo.

Every stochastic routine in the package draws from a Generator obtained via
:func:`derive_rng`: an SFC64 generator seeded by ``SeedSequence`` from the
entropy tuple ``(master_seed, stream, index, ...)``.  The tuple alone pins
down the stream, with no shared mutable state, so a stream is the same
whichever thread draws it and whenever.  In ``models.reduce_paths`` the index
is a path, or the first path of a block of paths drawn as the rows of one
stream; the overshoot table keys a stream by (level, first path of a chunk).
Results are bit-identical for any number of worker threads because work is
split into fixed-size chunks, tiled by whole blocks, that are reduced in
chunk order."""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Stream tags keep draws of unrelated stages decorrelated under one master seed.
STREAM_PATH = 1        # top-level path simulation
STREAM_INNER = 2       # inner paths shared by every probe of the Batty check

# Paths per work unit.  Fixed (never derived from the thread count) so that
# the float accumulation order cannot depend on parallelism.
DEFAULT_CHUNK = 256


def derive_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for one logical stream of the experiment.

    The entropy tuple is fed to ``SeedSequence`` verbatim, so equal tuples give
    equal streams and distinct tuples give statistically independent ones.
    """
    ss = np.random.SeedSequence(entropy=(int(master_seed), *map(int, indices)))
    return np.random.Generator(np.random.SFC64(ss))


def chunk_ranges(n: int, chunk: int = DEFAULT_CHUNK) -> list[tuple[int, int]]:
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


def _check_threads(threads) -> int:
    """``threads`` as an int, refused by name unless it is an integer >= 1.

    Integers are read as ``operator.index`` reads them (numpy integers pass);
    a float, even 2.0, and a bool are refused, and so is NaN, on which a pool
    would wait forever for a worker it never starts.
    """
    try:
        count = 0 if isinstance(threads, bool) else operator.index(threads)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"threads must be >= 1 and an integer, got {threads!r}")
    return count


def map_chunks(n: int, worker, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> list:
    """Apply ``worker(start, stop)`` over index chunks, results in chunk order.

    Thread scheduling may finish chunks out of order; the returned list is
    always ordered by chunk index so downstream reductions are deterministic.
    A single chunk runs on the calling thread: a pool would only add a thread.
    A ``threads`` that is not an integer >= 1 is refused, one chunk or many.
    """
    threads = _check_threads(threads)
    ranges = chunk_ranges(n, chunk)
    if threads <= 1 or len(ranges) <= 1:
        return [worker(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, *zip(*ranges)))
