#ifndef CEP2ASP_RUNTIME_SLOT_ALIGNER_H_
#define CEP2ASP_RUNTIME_SLOT_ALIGNER_H_

#include <algorithm>
#include <vector>

#include "event/event.h"

namespace cep2asp {

/// \brief Per-consumer watermark alignment and end-of-stream accounting
/// over physical input slots.
///
/// One consumer subtask receives messages from `num_slots` physical
/// channels (one slot per (in-edge, producer subtask) pair). The aligned
/// watermark is the minimum of the per-slot maxima, and the input is
/// exhausted once every slot delivered its end marker. ChainTask runs one
/// per (chain, subtask).
class SlotAligner {
 public:
  explicit SlotAligner(int num_slots)
      : slot_watermarks_(static_cast<size_t>(num_slots), kMinTimestamp),
        num_slots_(num_slots) {}

  /// Records `watermark` on `slot`. Returns true when the aligned (min)
  /// watermark advanced; the new value is then in `*aligned`.
  bool OnWatermark(int slot, Timestamp watermark, Timestamp* aligned) {
    Timestamp& entry = slot_watermarks_[static_cast<size_t>(slot)];
    entry = std::max(entry, watermark);
    const Timestamp new_aligned = *std::min_element(slot_watermarks_.begin(),
                                                    slot_watermarks_.end());
    if (new_aligned <= aligned_) return false;
    aligned_ = new_aligned;
    *aligned = new_aligned;
    return true;
  }

  /// Records one end-of-stream marker. Returns true when this was the last
  /// outstanding slot (the consumer should run its Finish cascade).
  bool OnEnd() { return ++ended_slots_ == num_slots_; }

  /// True once every slot ended (or the consumer force-ended on error).
  bool done() const { return ended_slots_ >= num_slots_; }

  /// Error unwind: pretend all slots ended so the drive loop exits.
  void ForceDone() { ended_slots_ = num_slots_; }

  int num_slots() const { return num_slots_; }
  Timestamp aligned() const { return aligned_; }

 private:
  std::vector<Timestamp> slot_watermarks_;
  Timestamp aligned_ = kMinTimestamp;
  int num_slots_ = 0;
  int ended_slots_ = 0;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_SLOT_ALIGNER_H_
