// Per-session dispatch handle over the shared WorkerPool.
//
// A TaskArena is the unit of tenancy: it owns one scheduler queue in the
// pool and exposes the same fork-join surface the old single-owner
// ThreadPool had (parallel_for / parallel_tasks / reductions) plus
// fire-and-forget job submission for session step execution. Every session
// gets its own arena; the pool's round-robin scheduler serves the arenas'
// queues one item per turn, so one arena's backlog cannot starve the
// others.
//
// Dispatches are claim-based: chunk boundaries are fixed at dispatch time
// (pure function of n and the arena width), participant slots are queued
// for idle workers, and every participant — the caller included — claims
// chunks from a shared atomic cursor. The caller always participates, so a
// dispatch completes even if no worker ever picks up a slot; workers that
// arrive late simply find nothing left to claim. Results are bit-identical
// whether zero or all slots are served, because chunking is fixed up front
// and combination is ordered (docs/parallelism.md).
#pragma once

#include <atomic>
#include <cassert>
#include <functional>
#include <memory>
#include <span>

#include "parallel/worker_pool.hpp"
#include "util/common.hpp"

namespace cpart {

/// Point-in-time view of one arena, for service-level observability.
struct ArenaStats {
  idx_t queue_depth = 0;   // items waiting in this arena's queue
  unsigned width = 1;      // current dispatch width
  wgt_t items_run = 0;     // lifetime items executed by pool workers
  wgt_t jobs_failed = 0;   // submitted jobs that threw (backstop counter)
};

class TaskArena {
 public:
  explicit TaskArena(WorkerPool& pool);
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  WorkerPool& pool() const { return pool_; }

  /// Worker count a single dispatch spreads across: pool size capped at
  /// the machine's concurrency. A pool wider than the hardware exists so
  /// thread-count sweeps keep W real workers on any host; fanning one
  /// dispatch across more runnable workers than physical threads only adds
  /// context switches.
  unsigned width() const;

  ArenaStats stats() const;

  /// Runs fn(chunk_index, begin, end) on every chunk of [0, n), blocked
  /// into one contiguous range per participant, and waits for completion.
  /// Runs inline when n is small, the width is 1, or the caller is already
  /// inside parallel work. If a chunk throws, the remaining chunks still
  /// run; a single failure is rethrown unchanged, and multiple failures
  /// are aggregated into one ParallelGroupError.
  void parallel_for_chunks(
      idx_t n, const std::function<void(unsigned, idx_t, idx_t)>& fn);

  /// Element-wise parallel for: body(i) for i in [0, n).
  template <typename Body>
  void parallel_for(idx_t n, Body&& body) {
    parallel_for_chunks(n, [&body](unsigned, idx_t begin, idx_t end) {
      for (idx_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Runs task(i) for each i in [0, n) with one claimable unit per index.
  /// For small counts of coarse-grained tasks where parallel_for's inline
  /// threshold would serialize them. Every task runs to completion even
  /// when siblings throw (BSP semantics: the superstep finishes for every
  /// rank). A single failing task has its exception rethrown unchanged;
  /// several failing tasks aggregate into one ParallelGroupError carrying
  /// each task index (== rank id for rank programs) and message.
  void parallel_tasks(idx_t n, const std::function<void(idx_t)>& task);

  /// Parallel sum-reduction: combines per-chunk partial results in chunk
  /// order, so the result is deterministic for a fixed width.
  template <typename T, typename Body>
  T parallel_reduce(idx_t n, T init, Body&& body) {
    std::vector<T> partial(std::max(1u, pool_.num_threads()), T{});
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

  /// In-place parallel exclusive prefix scan: data[i] becomes the sum of
  /// all elements before i; returns the grand total. Two passes over the
  /// same chunking (per-chunk sums, ordered combine, per-chunk rewrite).
  /// For integral T the result is bit-identical regardless of width.
  template <typename T>
  T parallel_exclusive_scan(std::span<T> data) {
    const idx_t n = to_idx(data.size());
    std::vector<T> chunk_sum(std::max(1u, pool_.num_threads()), T{});
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
  /// the caller is participant 0. Unlike parallel dispatch bodies, gang
  /// participants MAY block on each other (futex handshakes): every
  /// granted helper is backed by a live idle worker, taken with strict
  /// priority, so the gang always runs at its granted width. Returns the
  /// granted width. From inside a worker, or with want <= 1, runs
  /// fn(0, 1) inline.
  unsigned run_gang(unsigned want,
                    const std::function<void(idx_t, unsigned)>& fn);

  /// Queues a fire-and-forget job on this arena (session step execution).
  /// The job runs on some pool worker with in_worker() true, so every
  /// dispatch it issues runs inline at width 1 — which is why a session's
  /// results are bit-identical to running it alone (width-independence).
  /// A throwing job is counted in stats().jobs_failed and swallowed;
  /// callers that need the error must capture it inside the job.
  void submit(std::function<void()> job);

  /// Blocks until this arena's queue is empty and nothing it popped is
  /// still executing. Must not be called from inside a worker.
  void drain();

 private:
  struct DispatchState;

  void run_dispatch(idx_t n, idx_t chunk_size, unsigned num_chunks,
                    unsigned width_now,
                    const std::function<void(unsigned, idx_t, idx_t)>& fn);
  static void drain_dispatch(DispatchState& s);

  WorkerPool& pool_;
  std::unique_ptr<WorkerPool::ArenaQueue> queue_;
  std::atomic<wgt_t> jobs_failed_{0};
};

/// Binds an arena to the current thread for the duration: ThreadPool's
/// facade dispatch methods route through the bound arena instead of the
/// default one, so library code deep inside a session's step (partitioner,
/// graph builders, the async executor) lands on the session's queue —
/// without threading an arena reference through every call signature.
class ArenaScope {
 public:
  explicit ArenaScope(TaskArena& arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// Arena bound to the current thread, or nullptr.
  static TaskArena* current();

 private:
  TaskArena* prev_;
};

}  // namespace cpart
