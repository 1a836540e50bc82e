"""The traced-memory probe the memory-bound tests share."""

import tracemalloc


def traced_peak(call) -> int:
    """Bytes ``call()`` holds at its peak above what was allocated before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
