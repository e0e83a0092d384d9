// Process-wide worker pool with round-robin scheduling over arena queues.
//
// The pool is the process's threads plus a scheduler; it has two clients.
// TaskArena (task_arena.hpp) is a job queue registered with the pool, and
// ThreadPool (thread_pool.hpp) runs fork-join dispatches and gangs on it.
// One pool serves every session; the scheduler decides whose queued job
// the next free worker takes, so a session with a deep backlog cannot
// starve a hundred small sessions: each arena with queued jobs is served
// one job per turn, round after round.
//
// Two kinds of work reach the workers:
//   * arena jobs — queued session steps and the helper jobs of fork-join
//     dispatches (ThreadPool owns an arena for the latter). Jobs never
//     block on other jobs, so any number can be queued regardless of pool
//     size (a dispatch's caller claims chunks itself and always makes
//     progress; see thread_pool.cpp).
//   * gang slots — participants of a gang dispatch (ThreadPool::run_gang),
//     whose bodies MAY block on each other (the async executor's futex
//     handshakes). Gangs are granted only currently-idle workers and take
//     strict priority, so every granted participant is backed by a live
//     thread and two concurrent gangs can never deadlock on each other.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace cpart {

/// Thrown when more than one chunk (or task) of a single dispatch throws.
/// Carries every failure — for parallel_tasks the index is the task index,
/// i.e. the rank id of a failing rank program — so a superstep in which
/// several ranks fail reports all of them, not an arbitrary first one.
/// A dispatch with exactly one failing chunk rethrows the original
/// exception unchanged.
class ParallelGroupError : public std::runtime_error {
 public:
  struct Failure {
    idx_t index = 0;      // chunk/task index, ascending
    std::string message;  // what() of the original exception
  };

  explicit ParallelGroupError(std::vector<Failure> failures);

  const std::vector<Failure>& failures() const { return failures_; }

 private:
  std::vector<Failure> failures_;
};

namespace detail {

/// Turns a collected (index, exception) list into the dispatch's outcome:
/// the single original exception rethrown unchanged, or one aggregated
/// ParallelGroupError sorted by index (chunk, gang participant or rank).
/// The list must be non-empty.
[[noreturn]] void raise_collected(
    std::vector<std::pair<idx_t, std::exception_ptr>>&& errors);

/// RAII: marks the current thread as executing parallel work for the
/// duration (WorkerPool::in_worker() returns true), restoring the previous
/// state on destruction. Workers set it around every job; dispatch callers
/// set it while claiming chunks of their own dispatch, so nested dispatches
/// from chunk bodies run inline wherever the chunk happens to execute.
class ScopedWorkerFlag {
 public:
  ScopedWorkerFlag();
  ~ScopedWorkerFlag();
  ScopedWorkerFlag(const ScopedWorkerFlag&) = delete;
  ScopedWorkerFlag& operator=(const ScopedWorkerFlag&) = delete;

 private:
  bool prev_;
};

}  // namespace detail

/// Point-in-time scheduler counters (queue depths are instantaneous, the
/// *_executed totals are lifetime sums). bench_service and the SPMD health
/// probe report these so scheduler saturation — queued work per free
/// worker — is visible next to the transport health.
struct SchedulerStats {
  idx_t total_workers = 0;
  idx_t active_workers = 0;     // executing a job or gang slot right now
  idx_t idle_workers = 0;       // parked, waiting for work
  idx_t queued_items = 0;       // arena jobs waiting across all queues
  idx_t queued_gang_slots = 0;  // granted gang participants not yet running
  idx_t registered_arenas = 0;
  wgt_t items_executed = 0;      // lifetime arena jobs run by pool workers
  wgt_t gang_slots_executed = 0; // lifetime gang participants run by workers
};

class TaskArena;
class ThreadPool;

class WorkerPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  /// Requests above the hardware concurrency are honored (oversubscribed):
  /// a worker is also a unit of gang-phased SPMD execution, so sweeps and
  /// sanitizer runs get W real workers regardless of the host. Results are
  /// identical at any pool size; only speed differs.
  explicit WorkerPool(unsigned num_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  SchedulerStats stats() const;

  /// True on a thread currently executing a chunk, task, job, or gang slot
  /// of some dispatch (any pool). Dispatches issued from such a thread run
  /// inline on the caller; inline execution is observationally identical
  /// because every parallel computation here is bit-identical at any
  /// dispatch width, including width 1 (docs/parallelism.md).
  static bool in_worker();

 private:
  friend class TaskArena;
  friend class ThreadPool;

  /// Scheduler-side state of one registered arena. Owned by the TaskArena
  /// (via unique_ptr); every field is guarded by the pool mutex.
  struct ArenaQueue {
    std::deque<std::function<void()>> jobs;
    bool linked = false; // member of ring_ (has queued jobs)
    idx_t inflight = 0;  // popped jobs still executing
    wgt_t items_run = 0; // lifetime jobs executed from this queue
  };

  /// Shared state of one gang dispatch (see ThreadPool::run_gang). The
  /// caller is participant 0; granted slots 1..width-1 are queued for
  /// idle workers. remaining counts unfinished *helper* participants.
  struct GangState {
    const std::function<void(idx_t, unsigned)>* fn = nullptr;
    unsigned width = 0;
    std::mutex m;
    std::condition_variable cv;
    unsigned remaining = 0;
    std::vector<std::pair<idx_t, std::exception_ptr>> errors;  // under m
  };

  struct GangSlot {
    std::shared_ptr<GangState> gang;
    unsigned participant = 0;
  };

  std::unique_ptr<ArenaQueue> register_arena();
  /// Waits until the queue is empty and nothing is inflight, then unlinks
  /// it from the scheduler. The queue's storage stays with the arena.
  void unregister_arena(ArenaQueue* q);

  void enqueue_job(ArenaQueue* q, std::function<void()> job);
  /// Blocks until the arena's queue is empty and no popped job is still
  /// executing. Must not be called from a worker.
  void wait_arena_idle(ArenaQueue* q);
  idx_t queue_depth(ArenaQueue* q) const;
  wgt_t items_run(ArenaQueue* q) const;

  /// Gang dispatch mechanics (width decision + slot grant + caller
  /// participation); the caller-facing contract is ThreadPool::run_gang.
  unsigned run_gang(unsigned want,
                    const std::function<void(idx_t, unsigned)>& fn);

  static void run_gang_participant(GangState& gang, unsigned participant);

  /// Round-robin pick across the ring of arenas with queued jobs. Returns
  /// false when every queue is empty. Caller holds mutex_.
  bool pop_next(ArenaQueue** q_out, std::function<void()>* job_out);

  void worker_loop();

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;  // an arena queue went idle
  std::vector<ArenaQueue*> ring_;  // arenas with queued jobs
  std::size_t cursor_ = 0;         // round-robin position in ring_
  std::deque<GangSlot> gang_slots_;
  idx_t idle_count_ = 0;
  idx_t active_count_ = 0;
  idx_t registered_ = 0;
  wgt_t items_executed_ = 0;
  wgt_t gang_slots_executed_ = 0;
  bool stop_ = false;
};

}  // namespace cpart
