"""Generation-latency simulation by real, deterministic per-token work.

The paper's Table II measures wall-clock seconds for the RAG stage and
the LLM response separately.  For those measurements to be honest in
this reproduction, the simulated model must *spend* time generating
rather than report fabricated numbers — so the engine iterates a small
arithmetic recurrence per generated token.  The per-token cost is
configurable; ``cost=0`` disables the burn entirely for unit tests.

Two execution shapes perform the same number of recurrence steps:

* :meth:`LatencyEngine.burn` — the sequential path: a scalar Python
  loop, one request at a time, mirroring single-request decode.
* :class:`TokenBurnCollector` + :func:`burn_vectorized` — the batched
  path: requests defer their token work into a shared collector, and the
  batch coordinator flushes the accumulated iterations through a
  NumPy-vectorized kernel.  Same iteration count, executed at vector
  throughput — the simulation analogue of how real LLM serving amortizes
  per-token cost by batching requests into wide GEMMs.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import ModelError

#: Default vector width for the batched burn kernel.
DEFAULT_BURN_LANES = 4096


def burn_scalar(iterations: int) -> float:
    """Run ``iterations`` logistic-map steps in a scalar Python loop.

    Returns the recurrence value so the work cannot be optimized away.
    """
    x = 0.5
    for _ in range(iterations):
        x = 3.6 * x * (1.0 - x)
    return x


def burn_vectorized(total_iterations: int, *, lanes: int = DEFAULT_BURN_LANES) -> float:
    """Run ``total_iterations`` logistic-map element-steps, NumPy-wide.

    The recurrence is the same one :func:`burn_scalar` iterates; here
    each step advances ``lanes`` independent lanes at once, so the
    per-iteration cost drops by roughly the vector width's
    dispatch amortization (~20x on one core).  Returns the recurrence
    value so the work cannot be optimized away.
    """
    if lanes <= 0:
        raise ModelError(f"lanes must be positive, got {lanes}")
    if total_iterations <= 0:
        return 0.5
    steps = -(-total_iterations // lanes)  # ceil division
    x = np.full(lanes, 0.5, dtype=np.float64)
    tmp = np.empty_like(x)
    for _ in range(steps):
        np.subtract(1.0, x, out=tmp)
        np.multiply(x, tmp, out=tmp)
        np.multiply(3.6, tmp, out=x)
    return float(x[0])


class TokenBurnCollector:
    """Thread-safe sink for deferred token work during a batch.

    Worker threads account their completion tokens here instead of
    burning inline; the (single-threaded) batch coordinator calls
    :meth:`flush` after the barrier to spend the accumulated iterations
    through the vectorized kernel.  Totals are pure functions of the
    workload, so deferral never perturbs metric digests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tokens = 0
        self.iterations = 0
        self.flushes = 0

    def add(self, n_tokens: int, iterations: int) -> None:
        if n_tokens < 0 or iterations < 0:
            raise ModelError(f"negative burn accounting: {n_tokens} tokens, {iterations} iters")
        with self._lock:
            self.tokens += n_tokens
            self.iterations += iterations

    def pending(self) -> tuple[int, int]:
        with self._lock:
            return self.tokens, self.iterations

    def flush(self, *, lanes: int = DEFAULT_BURN_LANES) -> float:
        """Spend every deferred iteration; returns wall seconds burned."""
        with self._lock:
            total = self.iterations
            self.tokens = 0
            self.iterations = 0
            self.flushes += 1
        start = time.perf_counter()
        burn_vectorized(total, lanes=lanes)
        return time.perf_counter() - start


class LatencyEngine:
    """Burns deterministic CPU time proportional to token count.

    Parameters
    ----------
    iterations_per_token:
        Inner-loop iterations of the logistic-map recurrence per token.
        Roughly 4e-8 s per iteration on a modern core; the default of
        ``6000`` gives ~0.25 ms/token, so a 300-token answer costs about
        75 ms — fast enough for benchmarks, slow enough to dominate the
        few-millisecond RAG stage, preserving the paper's ordering
        (RAG time ≪ LLM response time).
    """

    def __init__(self, *, iterations_per_token: int = 6000) -> None:
        if iterations_per_token < 0:
            raise ModelError(
                f"iterations_per_token must be >= 0, got {iterations_per_token}"
            )
        self.iterations_per_token = iterations_per_token

    def burn(self, n_tokens: int, *, collector: TokenBurnCollector | None = None) -> float:
        """Do the work for ``n_tokens`` tokens; returns the recurrence value.

        With a ``collector``, the work is deferred: the iteration budget
        is accounted for a later vectorized flush instead of being spent
        inline (the batched-serving path).  The return value is consumed
        by the caller only to stop the interpreter from optimizing the
        loop away; the *time spent* is the effect.
        """
        if n_tokens < 0:
            raise ModelError(f"n_tokens must be >= 0, got {n_tokens}")
        total = self.iterations_per_token * n_tokens
        if collector is not None:
            collector.add(n_tokens, total)
            return 0.5
        return burn_scalar(total)
