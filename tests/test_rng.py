import threading

import numpy as np
import pytest

from levyint import rng
from levyint.models import reduce_paths


def test_same_indices_same_stream():
    a = rng.derive_rng(123, rng.STREAM_PATH, 0).random(8)
    b = rng.derive_rng(123, rng.STREAM_PATH, 0).random(8)
    assert np.array_equal(a, b)


def test_different_indices_different_streams():
    a = rng.derive_rng(123, rng.STREAM_PATH, 0).random(8)
    b = rng.derive_rng(123, rng.STREAM_PATH, 1).random(8)
    c = rng.derive_rng(123, rng.STREAM_INNER, 0).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("ix", [(), (rng.STREAM_PATH, 0), (rng.STREAM_PATH, 3, 512),
                                (rng.STREAM_INNER, 7, 2**40)])
def test_stream_is_sfc64_keyed_by_the_entropy_tuple(ix):
    """A stream is SFC64 seeded from SeedSequence(entropy=(seed, *indices)),
    so the tuple alone fixes it."""
    want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=(99, *ix))))
    got = rng.derive_rng(99, *ix)
    assert isinstance(got.bit_generator, np.random.SFC64)
    assert np.array_equal(got.bit_generator.state["state"]["state"],
                          want.bit_generator.state["state"]["state"])
    assert np.array_equal(got.random(16), want.random(16))


def test_chunk_ranges_cover_exactly():
    spans = rng.chunk_ranges(1000)
    assert spans[0][0] == 0 and spans[-1][1] == 1000
    for (a0, b0), (a1, _) in zip(spans[:-1], spans[1:]):
        assert b0 == a1
    assert all(b - a <= rng.DEFAULT_CHUNK for a, b in spans)


def test_map_chunks_result_independent_of_threads():
    def worker(a, b):
        g = rng.derive_rng(7, rng.STREAM_PATH, a)  # deterministic per chunk
        return float(g.random()) + a + b

    r1 = rng.map_chunks(1000, worker, threads=1)
    r2 = rng.map_chunks(1000, worker, threads=2)
    r8 = rng.map_chunks(1000, worker, threads=8)
    assert r1 == r2 == r8


def test_map_chunks_preserves_order():
    out = rng.map_chunks(100, lambda a, b: (a, b), threads=4, chunk=16)
    flat = [a for a, _ in out]
    assert flat == sorted(flat)


@pytest.mark.parametrize("key", [(1.9,), (True,), (-1,), (1, 2.5), (1, False), (1, -2),
                                 (float("nan"),), ("1",)])
def test_derive_rng_refuses_an_entropy_value_that_is_not_an_integer_at_least_0(key):
    """No stream is keyed by a truncated value: 1.9 and True are not seed 1."""
    with pytest.raises(ValueError, match=r"(seed|stream index) must be >= 0 and an integer"):
        rng.derive_rng(*key)


def test_derive_rng_takes_numpy_integers():
    want = rng.derive_rng(5, rng.STREAM_PATH, 7).random(4)
    got = rng.derive_rng(np.int64(5), np.uint8(rng.STREAM_PATH), np.int32(7)).random(4)
    assert np.array_equal(got, want)


def test_map_chunks_single_chunk_runs_on_calling_thread():
    ran_on = []

    def worker(a, b):
        ran_on.append(threading.get_ident())
        return a, b

    assert rng.map_chunks(rng.DEFAULT_CHUNK, worker, threads=4) == [(0, rng.DEFAULT_CHUNK)]
    assert ran_on == [threading.get_ident()]


def test_map_chunks_refuses_threads_below_one(lattice_model):
    """Both engines meet here: a worker count below 1 is refused, also for
    block-cut paths, which would otherwise run serially and hide it."""
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            rng.map_chunks(10, lambda a, b: b - a, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            reduce_paths(lattice_model, 5.0, 10, 1, list, threads=threads)


@pytest.mark.parametrize("threads", [float("nan"), 2.5, 2.0, 1.0, True, np.bool_(True), "2", None],
                         ids=["nan", "2.5", "2.0", "1.0", "True", "np.True_", "str", "None"])
def test_map_chunks_refuses_threads_that_are_not_integers(threads, lattice_model, ts_model):
    """NaN passes a ``< 1`` test, and a pool of NaN workers never starts one;
    a float, a bool or a string is not a worker count either.  One chunk, so
    a call that slipped through would return rather than hang."""
    with pytest.raises(ValueError, match="threads must be >= 1 and an integer"):
        rng.map_chunks(10, lambda a, b: b - a, threads=threads)
    for m in (lattice_model, ts_model):
        with pytest.raises(ValueError, match="threads must be >= 1 and an integer"):
            reduce_paths(m, 5.0, 10, 1, list, threads=threads)


def test_map_chunks_takes_numpy_integers():
    worker = lambda a, b: (a, b)
    want = rng.map_chunks(600, worker, threads=2)
    for threads in (np.int64(2), np.int32(2), np.uint8(2)):
        assert rng.map_chunks(600, worker, threads=threads) == want
