#include "parallel/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace cpart {

namespace {

std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

/// Shared state of one claim-based dispatch. Heap-allocated and shared
/// with the helper jobs, so a helper that runs after the dispatch returned
/// still touches live memory: it claims a chunk index past num_chunks and
/// returns without touching fn.
struct ThreadPool::DispatchState {
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
  std::vector<std::pair<idx_t, std::exception_ptr>> errors;  // under m
};

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_global_threads(unsigned num_threads) {
  // Build the replacement first so the old pool's workers are joined only
  // after the swap; callers guarantee no parallel work is in flight.
  auto fresh = std::make_unique<ThreadPool>(num_threads);
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  global_pool_slot().swap(fresh);
}

unsigned ThreadPool::width() const {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = num_threads();  // unknown: trust the pool size
  return std::max(1u, std::min(num_threads(), hw));
}

void ThreadPool::drain_dispatch(DispatchState& s) {
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
        s.errors.emplace_back(static_cast<idx_t>(c), std::current_exception());
      }
    }
    if (s.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        s.num_chunks) {
      std::lock_guard<std::mutex> lock(s.m);
      s.cv.notify_all();
    }
  }
}

void ThreadPool::run_dispatch(
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
  for (unsigned h = 0; h < helpers; ++h) {
    helpers_.submit([state] { drain_dispatch(*state); });
  }
  {
    // The caller is a participant: it claims chunks alongside the workers,
    // so the dispatch completes even if every helper lingers in the queue.
    detail::ScopedWorkerFlag flag;
    drain_dispatch(*state);
  }
  {
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] {
      return state->completed.load(std::memory_order_acquire) == num_chunks;
    });
  }
  if (!state->errors.empty()) {
    detail::raise_collected(std::move(state->errors));
  }
}

void ThreadPool::parallel_for_chunks(
    idx_t n, const std::function<void(unsigned, idx_t, idx_t)>& fn) {
  if (n <= 0) return;
  const unsigned width_now = width();
  // Small ranges, single-wide dispatches, and dispatches issued from inside
  // parallel work run inline: the first two are cheaper that way, the last
  // keeps nesting safe — an inner dispatch queued behind the outer one's
  // unclaimed helpers would contend for the same workers for no benefit.
  constexpr idx_t kInlineThreshold = 2048;
  if (width_now <= 1 || n <= kInlineThreshold || in_worker()) {
    fn(0, 0, n);
    return;
  }
  const unsigned num_chunks = std::min<unsigned>(
      width_now,
      static_cast<unsigned>(ceil_div<idx_t>(n, kInlineThreshold / 2)));
  // Callers size per-chunk scratch buffers by the pool size; the chunk
  // index handed to fn must stay below that.
  assert(num_chunks <= num_threads());
  const idx_t chunk_size =
      ceil_div<idx_t>(n, static_cast<idx_t>(num_chunks));
  run_dispatch(n, chunk_size, num_chunks, width_now, fn);
}

void ThreadPool::parallel_tasks(idx_t n,
                                const std::function<void(idx_t)>& task) {
  if (n <= 0) return;
  const unsigned width_now = width();
  if (width_now <= 1 || n == 1 || in_worker()) {
    // The inline path keeps the BSP failure semantics: every task runs
    // even when an earlier one throws, and multiple failures aggregate
    // exactly as the threaded path would.
    std::vector<std::pair<idx_t, std::exception_ptr>> errors;
    for (idx_t i = 0; i < n; ++i) {
      try {
        task(i);
      } catch (...) {
        errors.emplace_back(i, std::current_exception());
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

}  // namespace cpart
