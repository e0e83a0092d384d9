// Shared-memory parallel substrate: the process-wide WorkerPool plus a
// default TaskArena, behind the original single-owner facade.
//
// The paper's algorithms were designed for distributed-memory machines; the
// quantities its evaluation reports (communication volumes, tree sizes) are
// analytic counts, so this library executes on shared memory and uses the
// pool to parallelize the heavy loops (metric accounting, global search,
// per-snapshot processing). The multi-tenant refactor split the machinery
// into WorkerPool (threads + round-robin scheduler over arena queues) and
// TaskArena (per-session dispatch handle); ThreadPool bundles one of each
// and keeps the historical surface, so single-sim code — the solvers, the
// benches, the tests — is unaware of tenancy. Dispatch
// semantics are unchanged: static blocked chunking fixed at dispatch time,
// deterministic results for associative reductions via ordered per-chunk
// combination, bit-identical output at any width (docs/parallelism.md).
//
// Multi-session hosts (src/service/) create one TaskArena per session on
// ThreadPool::workers() and submit each session's step jobs there. A step
// job runs on a pool worker, where every facade dispatch runs inline
// (in_worker()), so library code inside a session never reaches the
// default arena's queue.
#pragma once

#include <functional>
#include <span>

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
      : pool_(num_threads), default_arena_(pool_) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return pool_.num_threads(); }

  /// Worker count one dispatch spreads across: the pool size capped at the
  /// machine's concurrency (TaskArena::width of the default arena).
  unsigned width() const { return default_arena_.width(); }

  /// The underlying worker pool — what multi-session hosts build their
  /// per-session TaskArenas on.
  WorkerPool& workers() { return pool_; }

  /// Runs fn(chunk_index, begin, end) on every chunk of [0, n), blocked into
  /// one contiguous range per participant, and waits for completion. Runs
  /// inline when n is small or the width is 1. If a chunk throws, the
  /// remaining chunks still run; a single failure is rethrown unchanged, and
  /// multiple failures are aggregated into one ParallelGroupError.
  void parallel_for_chunks(
      idx_t n, const std::function<void(unsigned, idx_t, idx_t)>& fn) {
    default_arena_.parallel_for_chunks(n, fn);
  }

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
  void parallel_tasks(idx_t n, const std::function<void(idx_t)>& task) {
    default_arena_.parallel_tasks(n, task);
  }

  /// Parallel sum-reduction: combines per-chunk partial results in chunk
  /// order, so the result is deterministic for a fixed thread count.
  template <typename T, typename Body>
  T parallel_reduce(idx_t n, T init, Body&& body) {
    return default_arena_.parallel_reduce(n, init, std::forward<Body>(body));
  }

  /// In-place parallel exclusive prefix scan: data[i] becomes the sum of all
  /// elements before i; returns the grand total. For integral T the result
  /// is bit-identical regardless of thread count (integer addition is
  /// associative), which is what the partitioner's deterministic
  /// contraction relies on.
  template <typename T>
  T parallel_exclusive_scan(std::span<T> data) {
    return default_arena_.parallel_exclusive_scan(data);
  }

  /// Gang dispatch: fn(participant, granted_width) on min(want, 1 + idle
  /// workers) concurrent participants, caller included as participant 0.
  /// Gang bodies MAY block on each other (the async executor's futex
  /// handshakes) — see TaskArena::run_gang. Returns the granted width.
  unsigned run_gang(unsigned want,
                    const std::function<void(idx_t, unsigned)>& fn) {
    return default_arena_.run_gang(want, fn);
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
  // Declaration order is destruction order in reverse: the default arena
  // must unregister from the pool before the pool joins its workers.
  WorkerPool pool_;
  TaskArena default_arena_;
};

}  // namespace cpart
