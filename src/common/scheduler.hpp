#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_mutex.hpp"

namespace hpac {

/// Process-wide work-stealing task scheduler shared by every host-side
/// fan-out in the harness: the Explorer's configuration sweep, the
/// Campaign's participants and the region executor's team sharding all
/// submit to one set of workers, so inner and outer parallelism cooperate
/// instead of carving up the cores per layer.
///
/// Structure: each worker owns a Chase–Lev-style deque — the owner pushes
/// and pops at the bottom (LIFO, so freshly spawned nested work stays
/// hot), thieves take from the top (FIFO, so the oldest waiting fan-out is
/// helped first). An extra "inbox" deque receives submissions from
/// threads that are not scheduler workers. Tasks here are coarse (a
/// benchmark configuration, a team range — milliseconds and up), so the
/// deques are guarded by plain per-deque mutexes rather than lock-free
/// buffers: contention is negligible at this granularity and every
/// transition stays visible to ThreadSanitizer.
///
/// `parallel_for` is a *blocking join in which the caller works*: the
/// calling thread claims indices exactly like a worker instead of parking
/// on a condition variable while the job runs (the pre-scheduler
/// ThreadPool wasted a core per nesting level that way). Nesting is
/// re-entrant by construction — a body may call `parallel_for` again; the
/// nested job's join tickets go onto the current worker's deque, where any
/// idle worker (including one whose outer task finished early) can steal
/// them. A thread only ever blocks waiting for indices that are actively
/// executing on other threads, so nested joins cannot deadlock.
class Scheduler {
 public:
  /// Spawn `num_workers` workers. A scheduler with 0 workers is valid:
  /// `parallel_for` then runs every index inline on the calling thread.
  explicit Scheduler(std::size_t num_workers);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  std::size_t workers() const { return workers_.size(); }

  /// Threads that can cooperate on one job: every worker plus the calling
  /// thread itself.
  std::size_t parallelism() const { return workers_.size() + 1; }

  /// Run `body(slot, index)` for every index in [0, count), blocking until
  /// all indices complete. Indices are claimed dynamically (uneven costs
  /// balance); the calling thread participates. `slot` is dense in
  /// [0, limit) where limit = min(max_participants or parallelism(),
  /// count, parallelism()), and is exclusive to one participating thread
  /// for the whole job — callers may index per-participant state (e.g. a
  /// forked benchmark) with it, unsynchronized.
  ///
  /// If a body throws, unstarted indices are abandoned and the first
  /// exception is rethrown here once in-flight indices drain
  /// (first-exception-wins across all participants, stolen or not).
  ///
  /// `max_participants` bounds the number of threads that may execute
  /// bodies concurrently (0 = no bound beyond parallelism()). It is an
  /// upper bound, not a reservation: busy workers simply never join.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t max_participants = 0);

  /// The process-wide instance every harness layer shares. Sized
  /// max(2, hardware_concurrency) so stealing is exercisable even on
  /// one-core machines.
  static Scheduler& shared();

  /// Participant count worth using for `count` independent tasks:
  /// `requested` if nonzero, otherwise the hardware concurrency; clamped
  /// to `count` and never less than 1.
  static std::size_t recommended_threads(std::size_t requested, std::size_t count);

  /// True while the calling thread is inside a `parallel_for` body (of any
  /// Scheduler, inline or not). Diagnostic only — unlike the retired
  /// `ThreadPool::on_worker_thread()`, nothing gates nested fan-out on it.
  static bool in_task();

 private:
  struct Job;

  /// One Chase–Lev-style deque: owner bottom, thieves top.
  struct TaskDeque {
    common::Mutex mutex;
    std::deque<std::shared_ptr<Job>> tickets GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t worker_index);
  std::shared_ptr<Job> next_ticket(std::size_t home);
  void push_tickets(const std::shared_ptr<Job>& job, std::size_t n);
  static void participate(Job& job);

  /// One deque per worker plus the external-submitter inbox at index
  /// workers().
  std::vector<TaskDeque> deques_;
  std::vector<std::thread> workers_;
  common::Mutex sleep_mutex_;
  common::CondVar wake_cv_;
  std::size_t unpopped_tickets_ GUARDED_BY(sleep_mutex_) = 0;
  bool stop_ GUARDED_BY(sleep_mutex_) = false;
};

}  // namespace hpac
