// A job queue registered with the shared WorkerPool.
//
// A TaskArena is the unit of tenancy: every session gets its own arena and
// submits its step jobs there. The pool's round-robin scheduler serves the
// arenas' queues one job per turn, so one arena's backlog cannot starve
// the others. ThreadPool owns one arena more for the helper jobs of its
// fork-join dispatches (thread_pool.hpp).
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "parallel/worker_pool.hpp"
#include "util/common.hpp"

namespace cpart {

/// Point-in-time view of one arena, for service-level observability.
struct ArenaStats {
  idx_t queue_depth = 0;   // jobs waiting in this arena's queue
  wgt_t items_run = 0;     // lifetime jobs executed by pool workers
  wgt_t jobs_failed = 0;   // submitted jobs that threw (backstop counter)
};

class TaskArena {
 public:
  explicit TaskArena(WorkerPool& pool);
  /// Waits until every submitted job has run.
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Queues a fire-and-forget job on this arena. The job runs on some pool
  /// worker with in_worker() true, so every ThreadPool dispatch it issues
  /// runs inline at width 1 — which is why a session's results are
  /// bit-identical to running it alone (width-independence). A throwing
  /// job is counted in stats().jobs_failed and swallowed; callers that
  /// need the error must capture it inside the job.
  void submit(std::function<void()> job);

  /// Blocks until this arena's queue is empty and nothing it popped is
  /// still executing. Must not be called from inside a worker.
  void drain();

  ArenaStats stats() const;

 private:
  WorkerPool& pool_;
  std::unique_ptr<WorkerPool::ArenaQueue> queue_;
  std::atomic<wgt_t> jobs_failed_{0};
};

}  // namespace cpart
