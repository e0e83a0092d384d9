#include "parallel/worker_pool.hpp"

#include <algorithm>
#include <sstream>

namespace cpart {

namespace {

std::string group_message(const std::vector<ParallelGroupError::Failure>& fs) {
  std::ostringstream os;
  os << fs.size() << " parallel tasks failed:";
  for (const auto& f : fs) {
    os << " [" << f.index << "] " << f.message << ";";
  }
  return os.str();
}

/// Set while this thread executes a chunk, task, job, or gang slot of any
/// dispatch. Nested dispatches check it and run inline: an inner dispatch
/// queued behind the outer one's unclaimed slots could otherwise wait on
/// workers that are all busy executing outer chunks, and inline execution
/// is observationally identical anyway (width-independence invariant).
thread_local bool t_in_worker = false;

}  // namespace

ParallelGroupError::ParallelGroupError(std::vector<Failure> failures)
    : std::runtime_error(group_message(failures)),
      failures_(std::move(failures)) {}

namespace detail {

void raise_collected(
    std::vector<std::pair<idx_t, std::exception_ptr>>&& errors) {
  if (errors.size() == 1) {
    std::rethrow_exception(errors.front().second);
  }
  std::sort(errors.begin(), errors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ParallelGroupError::Failure> failures;
  failures.reserve(errors.size());
  for (auto& [index, err] : errors) {
    ParallelGroupError::Failure f;
    f.index = index;
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      f.message = e.what();
    } catch (...) {
      f.message = "unknown exception";
    }
    failures.push_back(std::move(f));
  }
  throw ParallelGroupError(std::move(failures));
}

ScopedWorkerFlag::ScopedWorkerFlag() : prev_(t_in_worker) {
  t_in_worker = true;
}

ScopedWorkerFlag::~ScopedWorkerFlag() { t_in_worker = prev_; }

}  // namespace detail

bool WorkerPool::in_worker() { return t_in_worker; }

WorkerPool::WorkerPool(unsigned num_threads) {
  // The requested worker count is honored even above the hardware
  // concurrency. Oversubscription costs context switches, but a worker is
  // also a unit of gang-phased SPMD execution (runtime/async_executor):
  // thread-count sweeps and sanitizer runs need W real workers to exercise
  // W-way interleavings whatever box they land on. Results are unaffected —
  // every parallel computation in this library is bit-identical at any pool
  // size (see docs/parallelism.md).
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

SchedulerStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats s;
  s.total_workers = static_cast<idx_t>(workers_.size());
  s.active_workers = active_count_;
  s.idle_workers = idle_count_;
  idx_t queued = 0;
  for (const ArenaQueue* q : ring_) queued += to_idx(q->jobs.size());
  s.queued_items = queued;
  s.queued_gang_slots = to_idx(gang_slots_.size());
  s.registered_arenas = registered_;
  s.items_executed = items_executed_;
  s.gang_slots_executed = gang_slots_executed_;
  return s;
}

std::unique_ptr<WorkerPool::ArenaQueue> WorkerPool::register_arena() {
  auto q = std::make_unique<ArenaQueue>();
  std::lock_guard<std::mutex> lock(mutex_);
  ++registered_;
  return q;
}

void WorkerPool::unregister_arena(ArenaQueue* q) {
  wait_arena_idle(q);
  std::lock_guard<std::mutex> lock(mutex_);
  // wait_arena_idle left the queue empty, so it is already unlinked.
  require(!q->linked && q->jobs.empty() && q->inflight == 0,
          "WorkerPool: arena still has work at unregister");
  --registered_;
}

void WorkerPool::enqueue_job(ArenaQueue* q, std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    q->jobs.push_back(std::move(job));
    if (!q->linked) {
      ring_.push_back(q);
      q->linked = true;
    }
  }
  cv_work_.notify_one();
}

void WorkerPool::wait_arena_idle(ArenaQueue* q) {
  require(!in_worker(),
          "WorkerPool: cannot wait for an arena from inside a worker");
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return q->jobs.empty() && q->inflight == 0; });
}

idx_t WorkerPool::queue_depth(ArenaQueue* q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return to_idx(q->jobs.size());
}

wgt_t WorkerPool::items_run(ArenaQueue* q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return q->items_run;
}

bool WorkerPool::pop_next(ArenaQueue** q_out,
                          std::function<void()>* job_out) {
  if (ring_.empty()) return false;
  if (cursor_ >= ring_.size()) cursor_ = 0;
  ArenaQueue* q = ring_[cursor_];
  // Round robin: the queue at the cursor yields one job, then the cursor
  // moves on. Ring membership is maintained as linked <=> has queued
  // jobs, so the queue at the cursor always yields a job.
  *job_out = std::move(q->jobs.front());
  q->jobs.pop_front();
  ++q->inflight;
  *q_out = q;
  if (q->jobs.empty()) {
    ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    q->linked = false;
  } else {
    ++cursor_;
  }
  if (cursor_ >= ring_.size()) cursor_ = 0;
  return true;
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Gang slots first, strictly: each queued slot was granted against an
    // idle worker, and a gang's participants may block on one another, so
    // delaying a slot behind arena jobs could stall a whole gang.
    if (!gang_slots_.empty()) {
      GangSlot slot = std::move(gang_slots_.front());
      gang_slots_.pop_front();
      ++active_count_;
      lock.unlock();
      {
        detail::ScopedWorkerFlag flag;
        run_gang_participant(*slot.gang, slot.participant);
      }
      slot.gang.reset();
      lock.lock();
      --active_count_;
      ++gang_slots_executed_;
      continue;
    }
    ArenaQueue* q = nullptr;
    std::function<void()> job;
    if (pop_next(&q, &job)) {
      ++active_count_;
      lock.unlock();
      {
        detail::ScopedWorkerFlag flag;
        job();
      }
      job = nullptr;  // release captures before reporting completion
      lock.lock();
      --active_count_;
      ++items_executed_;
      ++q->items_run;
      --q->inflight;
      if (q->jobs.empty() && q->inflight == 0) cv_done_.notify_all();
      continue;
    }
    if (stop_) return;
    ++idle_count_;
    cv_work_.wait(lock);
    --idle_count_;
  }
}

unsigned WorkerPool::run_gang(unsigned want,
                              const std::function<void(idx_t, unsigned)>& fn) {
  if (want <= 1 || in_worker()) {
    detail::ScopedWorkerFlag flag;
    fn(0, 1);
    return 1;
  }
  auto gang = std::make_shared<GangState>();
  gang->fn = &fn;
  unsigned helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Grant only workers that are idle right now and not already spoken
    // for by a queued slot of another gang: every granted participant is
    // then backed by a distinct live thread (gang slots are consumed
    // before anything else), so participants may block on each other and
    // two concurrent gangs can never deadlock.
    const idx_t promised = to_idx(gang_slots_.size());
    const idx_t avail = idle_count_ > promised ? idle_count_ - promised : 0;
    helpers = static_cast<unsigned>(
        std::min<idx_t>(static_cast<idx_t>(want - 1), avail));
    gang->width = 1 + helpers;
    gang->remaining = helpers;
    for (unsigned p = 1; p <= helpers; ++p) {
      gang_slots_.push_back(GangSlot{gang, p});
    }
  }
  if (helpers > 0) cv_work_.notify_all();
  {
    detail::ScopedWorkerFlag flag;
    run_gang_participant(*gang, 0);  // the caller is participant 0
  }
  {
    std::unique_lock<std::mutex> lock(gang->m);
    gang->cv.wait(lock, [&] { return gang->remaining == 0; });
  }
  if (!gang->errors.empty()) detail::raise_collected(std::move(gang->errors));
  return gang->width;
}

void WorkerPool::run_gang_participant(GangState& gang, unsigned participant) {
  try {
    (*gang.fn)(static_cast<idx_t>(participant), gang.width);
  } catch (...) {
    std::lock_guard<std::mutex> lock(gang.m);
    gang.errors.emplace_back(static_cast<idx_t>(participant),
                             std::current_exception());
  }
  if (participant != 0) {
    std::lock_guard<std::mutex> lock(gang.m);
    if (--gang.remaining == 0) gang.cv.notify_all();
  }
}

}  // namespace cpart
