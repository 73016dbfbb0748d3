#include "support/parallel.hpp"

#include <algorithm>
#include <memory>

namespace lazymc {
namespace {

thread_local ThreadPool* g_current_pool = nullptr;

std::size_t default_num_threads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_num_threads();
  // The calling thread participates, so spawn num_threads-1 workers.
  std::size_t spawn = num_threads > 0 ? num_threads - 1 : 0;
  threads_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::in_worker() const { return g_current_pool == this; }

void ThreadPool::worker_loop(std::size_t worker_index) {
  g_current_pool = this;
  // Participant index: the caller is 0, workers are 1..threads_.size().
  const std::size_t participant = worker_index + 1;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    detail::JobBase* job = nullptr;
    {
      // Explicit wait loop (not wait(lock, pred)): the predicate reads
      // epoch state guarded by mutex_, and spelling the loop out keeps
      // those reads in a scope the thread-safety analysis can see holds
      // the capability.
      MutexLock lock(mutex_);
      while (!shutting_down_ &&
             (current_job_ == nullptr || job_epoch_ == seen_epoch)) {
        cv_start_.wait(lock.native());
      }
      if (shutting_down_) return;
      seen_epoch = job_epoch_;
      job = current_job_;
    }
    job->run(*job, participant);
    {
      MutexLock lock(mutex_);
      ++workers_done_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::run_job(detail::JobBase& job) {
  // Launcher gate: concurrent external launchers (e.g. daemon request
  // executors) serialize here, so the single current_job_ slot and the
  // workers_done_ count only ever describe one job at a time.  The gate
  // is held through the join; the caller participates in its own job, so
  // a waiting launcher costs nothing but its own latency.
  std::exception_ptr error;
  {
    MutexLock launch(launch_mutex_);
    error = publish_and_join(job);
  }
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::try_run_job(detail::JobBase& job) {
  if (!launch_mutex_.try_lock()) return false;
  std::exception_ptr error = publish_and_join(job);
  launch_mutex_.unlock();
  if (error) std::rethrow_exception(error);
  return true;
}

std::exception_ptr ThreadPool::publish_and_join(detail::JobBase& job) {
  {
    MutexLock lock(mutex_);
    current_job_ = &job;
    ++job_epoch_;
    workers_done_ = 0;
  }
  cv_start_.notify_all();

  // The caller participates as participant 0.  While it runs its share it
  // is "inside" the pool exactly like a worker: a nested launch from the
  // job body must take the inline path, not re-enter this gate.
  ThreadPool* const enclosing = g_current_pool;
  g_current_pool = this;
  job.run(job, 0);
  g_current_pool = enclosing;

  {
    MutexLock lock(mutex_);
    while (workers_done_ != threads_.size()) cv_done_.wait(lock.native());
    current_job_ = nullptr;
  }
  // Read under the error lock (take_error): the join above orders every
  // worker's capture before this point, but the protocol is simplest to
  // verify when the field is only ever touched with its lock held.
  return job.take_error();
}

namespace {
Mutex g_pool_mutex;
// The pointer (not the pool) is guarded: callers hold references to the
// pool beyond the registry lock by the documented contract that
// set_num_threads is not called concurrently with library operations.
std::unique_ptr<ThreadPool> g_pool LAZYMC_GUARDED_BY(g_pool_mutex);
}  // namespace

ThreadPool& thread_pool() {
  MutexLock lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_num_threads(std::size_t n) {
  MutexLock lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(n == 0 ? default_num_threads() : n);
}

std::size_t num_threads() { return thread_pool().num_threads(); }

}  // namespace lazymc
