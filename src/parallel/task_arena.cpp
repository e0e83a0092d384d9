#include "parallel/task_arena.hpp"

#include <utility>

namespace cpart {

TaskArena::TaskArena(WorkerPool& pool)
    : pool_(pool), queue_(pool.register_arena()) {}

TaskArena::~TaskArena() { pool_.unregister_arena(queue_.get()); }

void TaskArena::submit(std::function<void()> job) {
  pool_.enqueue_job(queue_.get(), [this, job = std::move(job)] {
    try {
      job();
    } catch (...) {
      jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

void TaskArena::drain() { pool_.wait_arena_idle(queue_.get()); }

ArenaStats TaskArena::stats() const {
  ArenaStats s;
  s.queue_depth = pool_.queue_depth(queue_.get());
  s.items_run = pool_.items_run(queue_.get());
  s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cpart
