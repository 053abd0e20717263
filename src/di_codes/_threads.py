"""The one parser of DI_CODES_THREADS; it imports only os, so it runs before numpy."""

import os


def env_threads() -> int | None:
    """A positive integer capped at the usable CPUs, or None for anything else."""
    try:
        threads = int(os.environ.get("DI_CODES_THREADS", ""))
    except ValueError:
        return None
    return min(threads, len(os.sched_getaffinity(0))) if threads > 0 else None


def worker_count() -> int:
    """Workers for the k-d-tree queries and the Monte Carlo driver: ``env_threads()``, else 1."""
    return env_threads() or 1
