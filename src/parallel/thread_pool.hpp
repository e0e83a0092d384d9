// Shared-memory parallel substrate: fork-join dispatch and gangs over the
// process-wide WorkerPool.
//
// The paper's algorithms were designed for distributed-memory machines; the
// quantities its evaluation reports (communication volumes, tree sizes) are
// analytic counts, so this library executes on shared memory and uses the
// pool to parallelize the heavy loops (metric accounting, global search,
// per-snapshot processing). ThreadPool owns a WorkerPool (threads plus a
// round-robin scheduler, worker_pool.hpp) and runs every dispatch itself.
//
// Dispatches are claim-based: chunk boundaries are fixed at dispatch time
// (a pure function of n and width()), one helper job per extra participant
// is submitted to a TaskArena the pool owns, and every participant — the
// caller included — claims chunks from a shared atomic cursor. The caller
// always participates, so a dispatch completes even if no worker ever runs
// a helper job; a helper that runs late, even after its dispatch returned,
// finds nothing left to claim and returns. Results are bit-identical
// whether zero or all helpers take part, because chunking is fixed up
// front and combination is ordered (docs/parallelism.md).
//
// Multi-session hosts (src/service/) create one TaskArena per session on
// ThreadPool::workers() and submit each session's step jobs there. A step
// job runs on a pool worker, where every dispatch runs inline
// (in_worker()), so library code inside a session never submits helpers.
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <span>
#include <vector>

#include "parallel/task_arena.hpp"
#include "parallel/worker_pool.hpp"
#include "util/common.hpp"

namespace cpart {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  /// Requests above the hardware concurrency are honored (oversubscribed):
  /// a worker is also a unit of gang-phased SPMD execution, so sweeps
  /// and sanitizer runs get W real workers regardless of the host. Results
  /// are identical at any pool size; only speed differs.
  explicit ThreadPool(unsigned num_threads = 0)
      : pool_(num_threads), helpers_(pool_) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return pool_.num_threads(); }

  /// Worker count one dispatch spreads across: the pool size capped at the
  /// machine's concurrency. A pool wider than the hardware exists so
  /// thread-count sweeps keep W real workers on any host; fanning one
  /// dispatch across more runnable workers than physical threads only adds
  /// context switches.
  unsigned width() const;

  /// The underlying worker pool — what multi-session hosts build their
  /// per-session TaskArenas on.
  WorkerPool& workers() { return pool_; }

  /// Runs fn(chunk_index, begin, end) on every chunk of [0, n), blocked into
  /// one contiguous range per participant, and waits for completion. Runs
  /// inline when n is small, the width is 1, or the caller is already
  /// inside parallel work. If a chunk throws, the remaining chunks still
  /// run; a single failure is rethrown unchanged, and multiple failures are
  /// aggregated into one ParallelGroupError.
  void parallel_for_chunks(
      idx_t n, const std::function<void(unsigned, idx_t, idx_t)>& fn);

  /// Element-wise parallel for: body(i) for i in [0, n).
  template <typename Body>
  void parallel_for(idx_t n, Body&& body) {
    parallel_for_chunks(n, [&body](unsigned, idx_t begin, idx_t end) {
      for (idx_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Runs task(i) for each i in [0, n) with one claimable unit per index,
  /// distributed across workers. For small counts of coarse-grained tasks
  /// where parallel_for's inline threshold would serialize them. Every task
  /// runs to completion even when siblings throw (BSP semantics: the
  /// superstep finishes for every rank). A single failing task has its
  /// exception rethrown unchanged on the calling thread; several failing
  /// tasks are aggregated into one ParallelGroupError carrying each task
  /// index (== rank id for rank programs) and message — this is what lets
  /// rank programs use require() and have every failure surface to the
  /// step driver at once.
  void parallel_tasks(idx_t n, const std::function<void(idx_t)>& task);

  /// Parallel sum-reduction: combines per-chunk partial results in chunk
  /// order, so the result is deterministic for a fixed width.
  template <typename T, typename Body>
  T parallel_reduce(idx_t n, T init, Body&& body) {
    std::vector<T> partial(std::max(1u, num_threads()), T{});
    parallel_for_chunks(n, [&](unsigned chunk, idx_t begin, idx_t end) {
      assert(static_cast<std::size_t>(chunk) < partial.size());
      T local{};
      for (idx_t i = begin; i < end; ++i) local += body(i);
      partial[static_cast<std::size_t>(chunk)] = local;
    });
    T total = init;
    for (const T& p : partial) total += p;
    return total;
  }

  /// In-place parallel exclusive prefix scan: data[i] becomes the sum of all
  /// elements before i; returns the grand total. Two passes over the same
  /// chunking (per-chunk sums, ordered combine, per-chunk rewrite). For
  /// integral T the result is bit-identical regardless of thread count
  /// (integer addition is associative), which is what the partitioner's
  /// deterministic contraction relies on.
  template <typename T>
  T parallel_exclusive_scan(std::span<T> data) {
    const idx_t n = to_idx(data.size());
    std::vector<T> chunk_sum(std::max(1u, num_threads()), T{});
    parallel_for_chunks(n, [&](unsigned chunk, idx_t begin, idx_t end) {
      assert(static_cast<std::size_t>(chunk) < chunk_sum.size());
      T local{};
      for (idx_t i = begin; i < end; ++i) {
        local += data[static_cast<std::size_t>(i)];
      }
      chunk_sum[static_cast<std::size_t>(chunk)] = local;
    });
    T running{};
    for (T& cs : chunk_sum) {
      const T next = running + cs;
      cs = running;
      running = next;
    }
    parallel_for_chunks(n, [&](unsigned chunk, idx_t begin, idx_t end) {
      T prefix = chunk_sum[static_cast<std::size_t>(chunk)];
      for (idx_t i = begin; i < end; ++i) {
        const T value = data[static_cast<std::size_t>(i)];
        data[static_cast<std::size_t>(i)] = prefix;
        prefix += value;
      }
    });
    return running;
  }

  /// Runs fn(participant, granted_width) on `granted_width` concurrent
  /// participants, where granted_width = min(want, 1 + idle workers) and
  /// the caller is participant 0. Unlike dispatch bodies, gang participants
  /// MAY block on each other (the async executor's futex handshakes): every
  /// granted helper is backed by a live idle worker, taken with strict
  /// priority, so the gang always runs at its granted width. Returns the
  /// granted width. From inside a worker, or with want <= 1, runs fn(0, 1)
  /// inline.
  unsigned run_gang(unsigned want,
                    const std::function<void(idx_t, unsigned)>& fn) {
    return pool_.run_gang(want, fn);
  }

  /// True on a thread currently executing a chunk, task, job, or gang slot
  /// of some dispatch (any pool). Dispatches issued from such a thread run
  /// inline on the caller — so library code that uses the pool internally
  /// (the partitioner, graph builders) stays safe to call from inside
  /// parallel_tasks bodies. Inline execution is observationally identical:
  /// every parallel computation here is bit-identical at any dispatch
  /// width, including width 1.
  static bool in_worker() { return WorkerPool::in_worker(); }

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& global();

  /// Replaces the process-wide pool with one of `num_threads` workers
  /// (0 = hardware concurrency; larger requests are honored, see the
  /// constructor). Used by benches and tests that sweep thread counts.
  /// Must not be called while parallel work is in flight.
  static void set_global_threads(unsigned num_threads);

 private:
  struct DispatchState;

  void run_dispatch(idx_t n, idx_t chunk_size, unsigned num_chunks,
                    unsigned width_now,
                    const std::function<void(unsigned, idx_t, idx_t)>& fn);
  static void drain_dispatch(DispatchState& s);

  // Declaration order is destruction order in reverse: the helper arena
  // must run its queued helpers and unregister before the pool joins its
  // workers.
  WorkerPool pool_;
  TaskArena helpers_;
};

}  // namespace cpart
