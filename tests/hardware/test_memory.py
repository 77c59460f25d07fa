"""Memory manager and buffer semantics."""

import pytest

from repro.hardware.memory import PAGE_SIZE, MemoryBuffer, MemoryManager


def test_alloc_tracks_usage():
    mm = MemoryManager(capacity=1 << 20)
    buf = mm.alloc(4096)
    assert buf.size == 4096
    assert mm.used == 4096
    assert mm.capacity - mm.used == (1 << 20) - 4096


def test_alloc_exhaustion():
    mm = MemoryManager(capacity=8192)
    mm.alloc(8192)
    with pytest.raises(MemoryError):
        mm.alloc(1)


def test_free_returns_bytes():
    """Registered memory stays pinned for the run, so nothing frees it:
    ``used`` grows by the bytes asked for, not the page-aligned span."""
    mm = MemoryManager(capacity=1 << 20)
    a = mm.alloc(1000)
    b = mm.alloc(1000)
    assert mm.used == 2000
    assert b.addr - a.addr == PAGE_SIZE


def test_allocations_do_not_overlap():
    mm = MemoryManager(capacity=1 << 20)
    a = mm.alloc(5000)
    b = mm.alloc(5000)
    assert a.end <= b.addr or b.end <= a.addr


def test_allocations_page_aligned():
    mm = MemoryManager(capacity=1 << 20)
    mm.alloc(100)
    b = mm.alloc(100)
    assert b.addr % PAGE_SIZE == 0


def test_invalid_sizes():
    mm = MemoryManager(capacity=100)
    with pytest.raises(ValueError):
        mm.alloc(0)
    with pytest.raises(ValueError):
        MemoryBuffer(addr=0, size=0)
    with pytest.raises(ValueError):
        MemoryBuffer(addr=-1, size=10)


def test_buffer_contains():
    buf = MemoryBuffer(addr=1000, size=100)
    assert buf.contains(1000, 100)
    assert buf.contains(1050, 50)
    assert not buf.contains(1050, 51)
    assert not buf.contains(999, 1)
