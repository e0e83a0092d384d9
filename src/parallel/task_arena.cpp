#include "parallel/task_arena.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cpart {

/// Shared state of one claim-based dispatch. Heap-allocated and shared
/// with the queued participant slots, so a slot popped after the dispatch
/// completed (a stale slot that remove_stale raced with) still touches
/// live memory: it claims a chunk index past num_chunks and returns.
struct TaskArena::DispatchState {
  const std::function<void(unsigned, idx_t, idx_t)>* fn = nullptr;
  idx_t n = 0;
  idx_t chunk_size = 0;
  unsigned num_chunks = 0;
  std::atomic<unsigned> next{0};       // claim cursor
  std::atomic<unsigned> completed{0};  // finished chunks (acq_rel: the
                                       // last increment publishes every
                                       // chunk's writes to the waiter)
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::pair<unsigned, std::exception_ptr>> errors;  // under m
};

TaskArena::TaskArena(WorkerPool& pool)
    : pool_(pool), queue_(pool.register_arena()) {}

TaskArena::~TaskArena() { pool_.unregister_arena(queue_.get()); }

unsigned TaskArena::width() const {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = pool_.num_threads();  // unknown: trust the pool size
  return std::max(1u, std::min(pool_.num_threads(), hw));
}

ArenaStats TaskArena::stats() const {
  ArenaStats s;
  s.queue_depth = pool_.queue_depth(queue_.get());
  s.width = width();
  s.items_run = pool_.items_run(queue_.get());
  s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  return s;
}

void TaskArena::drain_dispatch(DispatchState& s) {
  for (;;) {
    const unsigned c = s.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= s.num_chunks) return;
    const idx_t begin = static_cast<idx_t>(c) * s.chunk_size;
    const idx_t end = std::min<idx_t>(s.n, begin + s.chunk_size);
    if (begin < end) {
      try {
        (*s.fn)(c, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.m);
        s.errors.emplace_back(c, std::current_exception());
      }
    }
    if (s.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        s.num_chunks) {
      std::lock_guard<std::mutex> lock(s.m);
      s.cv.notify_all();
    }
  }
}

void TaskArena::run_dispatch(
    idx_t n, idx_t chunk_size, unsigned num_chunks, unsigned width_now,
    const std::function<void(unsigned, idx_t, idx_t)>& fn) {
  auto state = std::make_shared<DispatchState>();
  // fn outlives the dispatch: the caller returns only after every claimed
  // chunk checked in, and a participant holding no claim never touches fn.
  state->fn = &fn;
  state->n = n;
  state->chunk_size = chunk_size;
  state->num_chunks = num_chunks;
  const unsigned helpers = std::min(width_now, num_chunks) - 1;
  if (helpers > 0) {
    const std::function<void()> slot = [state] { drain_dispatch(*state); };
    pool_.enqueue_slots(queue_.get(), state.get(),
                        static_cast<idx_t>(helpers), slot);
  }
  {
    // The caller is a participant: it claims chunks alongside the workers,
    // so the dispatch completes even if every slot lingers in the queue.
    detail::ScopedWorkerFlag flag;
    drain_dispatch(*state);
  }
  {
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] {
      return state->completed.load(std::memory_order_acquire) == num_chunks;
    });
  }
  // Slots no worker got to claim nothing; sweep them so queue depths and
  // drain() reflect real work.
  pool_.remove_stale(queue_.get(), state.get());
  if (!state->errors.empty()) {
    detail::raise_collected(std::move(state->errors));
  }
}

void TaskArena::parallel_for_chunks(
    idx_t n, const std::function<void(unsigned, idx_t, idx_t)>& fn) {
  if (n <= 0) return;
  const unsigned width_now = width();
  // Small ranges, single-wide dispatches, and dispatches issued from inside
  // parallel work run inline: the first two are cheaper that way, the last
  // keeps nesting safe — an inner dispatch queued behind the outer one's
  // unclaimed slots would contend for the same workers for no benefit.
  constexpr idx_t kInlineThreshold = 2048;
  if (width_now <= 1 || n <= kInlineThreshold || WorkerPool::in_worker()) {
    fn(0, 0, n);
    return;
  }
  const unsigned num_chunks = std::min<unsigned>(
      width_now,
      static_cast<unsigned>(ceil_div<idx_t>(n, kInlineThreshold / 2)));
  // Callers size per-chunk scratch buffers by the pool size; the chunk
  // index handed to fn must stay below that.
  assert(num_chunks <= pool_.num_threads());
  const idx_t chunk_size =
      ceil_div<idx_t>(n, static_cast<idx_t>(num_chunks));
  run_dispatch(n, chunk_size, num_chunks, width_now, fn);
}

void TaskArena::parallel_tasks(idx_t n,
                               const std::function<void(idx_t)>& task) {
  if (n <= 0) return;
  const unsigned width_now = width();
  if (width_now <= 1 || n == 1 || WorkerPool::in_worker()) {
    // The inline path keeps the BSP failure semantics: every task runs
    // even when an earlier one throws, and multiple failures aggregate
    // exactly as the threaded path would.
    std::vector<std::pair<unsigned, std::exception_ptr>> errors;
    for (idx_t i = 0; i < n; ++i) {
      try {
        task(i);
      } catch (...) {
        errors.emplace_back(static_cast<unsigned>(i),
                            std::current_exception());
      }
    }
    if (!errors.empty()) detail::raise_collected(std::move(errors));
    return;
  }
  const std::function<void(unsigned, idx_t, idx_t)> fn =
      [&task](unsigned, idx_t begin, idx_t end) {
        for (idx_t i = begin; i < end; ++i) task(i);
      };
  // One chunk per task: the chunk index recorded for a failure is the task
  // index (== rank id for rank programs).
  run_dispatch(n, /*chunk_size=*/1, static_cast<unsigned>(n), width_now, fn);
}

unsigned TaskArena::run_gang(
    unsigned want, const std::function<void(idx_t, unsigned)>& fn) {
  return pool_.run_gang(want, fn);
}

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

}  // namespace cpart
