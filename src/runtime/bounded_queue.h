#ifndef CEP2ASP_RUNTIME_BOUNDED_QUEUE_H_
#define CEP2ASP_RUNTIME_BOUNDED_QUEUE_H_

#include <vector>

#include "common/thread_annotations.h"
#include "runtime/spsc_ring.h"

namespace cep2asp {

/// \brief Bounded multi-producer multi-consumer queue with a non-blocking
/// batch protocol.
///
/// The capacity bound is what creates backpressure in the threaded
/// executor: a slow operator fills its input queue and its producers park
/// on a credit, transitively throttling the sources (paper §5.2.4).
/// Neither side ever waits here: TryPushN takes what fits, TryPopN takes
/// what is there, and the task scheduler parks and wakes the tasks.
/// Capacity is accounted in items.
///
/// It is an SpscRing behind one mutex: holding the mutex makes every
/// producer the single producer and every consumer the single consumer,
/// so the two containers share one slot store, one capacity rule and one
/// in-flight check. Locking discipline is annotated for Clang's
/// thread-safety analysis: every touch of ring_ holds mutex_.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : ring_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Moves out a maximal prefix of `items[0..n)` — up to the current free
  /// capacity — leaving the moved-from elements in place, and returns how
  /// many were taken (the caller erases that prefix; the Channel wrapper
  /// also counts it for stats first). A full queue returns 0 and the
  /// caller parks on the scheduler. `*closed` reports the closed flag
  /// (nothing is taken once closed).
  size_t TryPushN(T* items, size_t n, bool* closed) {
    MutexLock lock(mutex_);
    return ring_.TryPushN(items, n, closed);
  }

  /// Moves up to `max_items` into `*out` (cleared first) and returns the
  /// number taken. 0 with `*end_of_stream == false` means the queue is
  /// momentarily empty (park until a producer pushes); 0 with
  /// `*end_of_stream == true` means closed and fully drained.
  size_t TryPopN(std::vector<T>* out, size_t max_items, bool* end_of_stream) {
    MutexLock lock(mutex_);
    return ring_.TryPopN(out, max_items, end_of_stream);
  }

  /// Marks the queue closed: TryPopN drains the remaining items, then
  /// reports end-of-stream. Pushes after Close are rejected.
  void Close() {
    MutexLock lock(mutex_);
    ring_.Close();
  }

 private:
  Mutex mutex_;
  SpscRing<T> ring_ CEP2ASP_GUARDED_BY(mutex_);
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_BOUNDED_QUEUE_H_
