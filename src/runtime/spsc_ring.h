#ifndef CEP2ASP_RUNTIME_SPSC_RING_H_
#define CEP2ASP_RUNTIME_SPSC_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "analysis/check_invariants.h"
#include "common/logging.h"

namespace cep2asp {

/// \brief Lock-free bounded single-producer single-consumer ring buffer.
///
/// The fast path of the exchange layer: an edge with exactly one producer
/// and one consumer moves message batches through this ring with one
/// release-store per batch instead of a mutex round-trip per message.
/// Head and tail live on separate cache lines, and each side keeps a
/// cached copy of the opposite index so the steady state reads only its
/// own line (the classic network-buffer channel design).
///
/// Neither side ever waits: TryPushN publishes what fits, TryPopN takes
/// what is published, and the task scheduler parks and wakes the tasks.
/// At most `capacity` items are in flight. The slots are raw storage from
/// std::allocator<T>::allocate, rounded up to a power of two so a position
/// maps to its slot by a mask: a slot is constructed on push and destroyed
/// on pop (or with the ring), so building a ring touches no item and the
/// steady state allocates nothing. After Close() pushes are rejected and
/// the consumer drains whatever was published, then sees end-of-stream.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)) {
    size_t slots = 1;
    while (slots < capacity_) slots <<= 1;
    mask_ = slots - 1;
    slots_ = std::allocator<T>().allocate(slots);
  }

  /// Destroys the items still in flight; both sides are done by now.
  ~SpscRing() {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    for (uint64_t i = head_.load(std::memory_order_acquire); i != tail; ++i) {
      Slot(i)->~T();
    }
    std::allocator<T>().deallocate(slots_, mask_ + 1);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return capacity_; }

  /// Publishes a maximal prefix of `items[0..n)` — whatever fits the free
  /// space right now — and returns how many were moved out (the caller
  /// erases the prefix). A full ring returns 0 and the producing task
  /// parks on a credit. `*closed` reports the closed flag.
  size_t TryPushN(T* items, size_t n, bool* closed) {
    *closed = closed_.load(std::memory_order_acquire);
    if (*closed || n == 0) return 0;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = capacity() - static_cast<size_t>(tail - cached_head_);
    if (free < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<size_t>(tail - cached_head_);
    }
    const size_t chunk = std::min(free, n);
    for (size_t i = 0; i < chunk; ++i) {
      ::new (static_cast<void*>(Slot(tail + i))) T(std::move(items[i]));
    }
    if (chunk > 0) tail_.store(tail + chunk, std::memory_order_release);
#if CEP2ASP_CHECK_INVARIANTS
    CEP2ASP_CHECK(static_cast<size_t>(
                      tail + chunk - head_.load(std::memory_order_acquire)) <=
                  capacity())
        << "spsc ring index accounting broken: more items in flight than "
        << "capacity " << capacity();
#endif
    return chunk;
  }

  /// Moves up to `max_items` into `*out` (cleared first) and returns the
  /// number taken. 0 with `*end_of_stream == false` means momentarily
  /// empty (the consuming task parks until the producer pushes); 0 with
  /// `*end_of_stream == true` means closed and fully drained.
  size_t TryPopN(std::vector<T>* out, size_t max_items, bool* end_of_stream) {
    out->clear();
    *end_of_stream = false;
    if (max_items == 0) return 0;
    const uint64_t head = head_.load(std::memory_order_relaxed);
    size_t avail = static_cast<size_t>(cached_tail_ - head);
    if (avail < max_items) {
      // Like the producer's free-space refresh: a pop takes every
      // published item up to max_items, not just the cached view.
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<size_t>(cached_tail_ - head);
    }
    if (avail == 0) {
      // The producer publishes tail before setting closed, so closed plus
      // one more tail refresh proves the ring is empty for good.
      if (closed_.load(std::memory_order_acquire)) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        avail = static_cast<size_t>(cached_tail_ - head);
        if (avail == 0) {
          *end_of_stream = true;
          return 0;
        }
      } else {
        return 0;
      }
    }
#if CEP2ASP_CHECK_INVARIANTS
    CEP2ASP_CHECK(avail <= capacity())
        << "spsc ring index accounting broken: " << avail
        << " items visible over capacity " << capacity();
#endif
    const size_t k = std::min(avail, max_items);
    for (size_t i = 0; i < k; ++i) {
      T* slot = Slot(head + i);
      out->push_back(std::move(*slot));
      slot->~T();
    }
    head_.store(head + k, std::memory_order_release);
    return k;
  }

  void Close() { closed_.store(true, std::memory_order_release); }

 private:
  T* Slot(uint64_t pos) { return slots_ + (static_cast<size_t>(pos) & mask_); }

  const size_t capacity_;
  size_t mask_ = 0;
  T* slots_ = nullptr;

  alignas(64) std::atomic<uint64_t> head_{0};   // next slot to pop (consumer)
  alignas(64) uint64_t cached_tail_ = 0;        // consumer's view of tail
  alignas(64) std::atomic<uint64_t> tail_{0};   // next slot to fill (producer)
  alignas(64) uint64_t cached_head_ = 0;        // producer's view of head
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_SPSC_RING_H_
