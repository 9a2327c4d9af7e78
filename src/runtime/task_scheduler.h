#ifndef CEP2ASP_RUNTIME_TASK_SCHEDULER_H_
#define CEP2ASP_RUNTIME_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/metrics.h"

namespace cep2asp {

class TaskScheduler;

/// Reason a parked task is waiting; wake-ups carry the same kinds and a
/// parked task only resumes on a matching (or kAny) wake. A task parks for
/// exactly one reason at a time — e.g. a task parked on input has no stuck
/// output (it flushed before parking), so filtering cannot lose a needed
/// wake; it only suppresses spurious re-runs.
enum class WakeKind : uint8_t {
  kInput,   ///< input channel went from empty to non-empty
  kCredit,  ///< a full output channel freed space
  kTimer,   ///< a park-until-deadline expired (rate-limited sources)
  kAny,     ///< matches any wait reason (shutdown / error unwind)
};

/// What one cooperative task reports back from a quantum of work.
struct Quantum {
  enum class Outcome : uint8_t {
    kYielded,   ///< quantum exhausted with more work pending: requeue
    kWaiting,   ///< nothing to do until a wake of `wait_kind` arrives: park
    kFinished,  ///< the task is done for good
  };
  Outcome outcome = Outcome::kYielded;
  WakeKind wait_kind = WakeKind::kAny;  // valid when kWaiting
  /// Absolute deadline in TaskScheduler::SteadyNanos() time; valid when
  /// wait_kind == kTimer. The scheduler fires a kTimer wake at or after it.
  int64_t deadline_nanos = 0;
  /// Input batches actually processed this quantum (quantum-utilization
  /// accounting; sources count staged batches).
  int batches = 0;
};

/// \brief A cooperative unit of work multiplexed onto the worker pool.
///
/// RunQuantum must never block: instead of waiting on a full or empty
/// channel it returns kWaiting and the scheduler parks the task until the
/// matching readiness wake. State private to the task needs no locking —
/// episodes of one task are serialized by the scheduler (the state-machine
/// RMWs and run-queue hand-offs establish happens-before between them).
class Task {
 public:
  virtual ~Task() = default;
  virtual std::string label() const = 0;
  virtual Quantum RunQuantum() = 0;

 private:
  friend class TaskScheduler;

  // Task state machine (values ordered for debuggability, not compared):
  //   kQueued          in exactly one run queue, awaiting a worker
  //   kQueuedNotified  queued, and a wake arrived meanwhile
  //   kRunning         a worker is inside RunQuantum
  //   kRunningNotified running, and a wake arrived meanwhile — if the
  //                    quantum ends in kWaiting the task requeues instead
  //                    of parking, so the condition the wake signalled is
  //                    re-polled with the wake's happens-before edge (this
  //                    is what makes missed wake-ups impossible: readiness
  //                    hooks fire unconditionally after every push/pop, and
  //                    a hook firing in any state leaves a sticky notify)
  //   kParked          waiting for a wake matching wait_kind_
  //   kFinished        terminal
  enum State : uint32_t {
    kQueued,
    kQueuedNotified,
    kRunning,
    kRunningNotified,
    kParked,
    kFinished,
  };

  std::atomic<uint32_t> state_{kQueued};
  std::atomic<uint8_t> wait_kind_{static_cast<uint8_t>(WakeKind::kAny)};
};

/// \brief Mutex-guarded work-stealing run queue: the owner pushes and pops
/// at the bottom (LIFO — the freshest task has the hottest cache), thieves
/// take from the top (FIFO — the oldest task is the least cache-warm and
/// the most overdue). The access pattern is the classic Chase–Lev deque; a
/// plain lock keeps it trivially TSan-clean, and the quantum granularity
/// (hundreds of messages per pop) makes the lock cost irrelevant. A task
/// sits in at most one run queue, so a queue holds at most the job's task
/// count: a vector whose storage is kept across pushes, with a steal
/// shifting those few pointers.
class WorkStealingDeque {
 public:
  void PushBottom(Task* task) {
    MutexLock lock(mutex_);
    items_.push_back(task);
  }

  Task* PopBottom() {
    MutexLock lock(mutex_);
    if (items_.empty()) return nullptr;
    Task* task = items_.back();
    items_.pop_back();
    return task;
  }

  Task* StealTop() {
    MutexLock lock(mutex_);
    if (items_.empty()) return nullptr;
    Task* task = items_.front();
    items_.erase(items_.begin());
    return task;
  }

  bool EmptyHint() const {
    MutexLock lock(mutex_);
    return items_.empty();
  }

 private:
  mutable Mutex mutex_;
  std::vector<Task*> items_ CEP2ASP_GUARDED_BY(mutex_);
};

/// \brief Fixed worker pool running cooperative tasks to completion.
///
/// N workers (default hardware_concurrency) multiplex any number of
/// (chain, subtask) tasks, so adding parallelism adds no OS threads. Backpressure is
/// credit-based — a producer facing a full channel parks instead of
/// blocking its worker, and the consumer's pop wakes it — so a worker
/// thread is never wasted on a wait.
class TaskScheduler {
 public:
  explicit TaskScheduler(int worker_threads);

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Runs every task to kFinished; blocks the calling thread until done.
  /// Task objects must outlive the call. Reusable is not supported: one
  /// Run per scheduler instance.
  void Run(const std::vector<Task*>& tasks);

  /// Signals readiness to `task`: a parked task whose wait reason matches
  /// `kind` is re-enqueued (exactly once); a queued or running task gets a
  /// sticky notify so its next park attempt re-polls instead. Safe from
  /// any thread, including channel readiness hooks firing mid-push.
  void Wake(Task* task, WakeKind kind);

  /// Wakes every task regardless of wait reason — error unwind: closed
  /// channels alone do not resume parked tasks.
  void WakeAll();

  int worker_threads() const { return num_workers_; }

  /// Monotonic clock used for park-until-deadline timers.
  static int64_t SteadyNanos();

  /// Aggregated counters; call after Run returned.
  SchedulerStats ConsumeStats(int quantum_batches) const;

 private:
  struct TimerEntry {
    int64_t deadline_nanos = 0;
    Task* task = nullptr;
    bool operator>(const TimerEntry& other) const {
      return deadline_nanos > other.deadline_nanos;
    }
  };

  struct WorkerState {
    WorkStealingDeque deque;
    // Owner-written counters (read after join).
    int64_t tasks_run = 0;
    int64_t steals = 0;
    int64_t parks = 0;
    int64_t batches = 0;
    // Written by whichever worker performs the unpark.
    std::atomic<int64_t> unparks{0};
  };

  void WorkerLoop(int worker);
  Task* FindWork(int worker);
  /// Runs one episode of `task` and applies the outcome to the state
  /// machine (requeue, park, finish).
  void RunEpisode(int worker, Task* task);
  void Enqueue(Task* task);
  void NotifyWorkers(bool all);

  const int num_workers_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<Task*> tasks_;  // all registered tasks (for WakeAll)

  std::atomic<int64_t> live_tasks_{0};
  std::atomic<int64_t> timer_parks_{0};

  // Idle protocol: every enqueue bumps ready_gen_ under idle_mutex_ and
  // notifies; an idle worker records the generation before scanning the
  // deques and sleeps only while it is unchanged, so a task enqueued
  // between scan and sleep is never missed. The timer heap shares the
  // mutex: sleeping workers bound their wait by the nearest deadline.
  mutable Mutex idle_mutex_;
  CondVar idle_cv_;
  std::atomic<uint64_t> ready_gen_{0};
  bool stop_ CEP2ASP_GUARDED_BY(idle_mutex_) = false;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_ CEP2ASP_GUARDED_BY(idle_mutex_);
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_TASK_SCHEDULER_H_
