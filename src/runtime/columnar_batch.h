#ifndef CEP2ASP_RUNTIME_COLUMNAR_BATCH_H_
#define CEP2ASP_RUNTIME_COLUMNAR_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "event/event.h"
#include "event/expr_program.h"

namespace cep2asp {

/// \brief Columnar (struct-of-arrays) micro-batch: the SoA counterpart of
/// a homogeneous run of data Messages.
///
/// A row is one Tuple of `num_slots` events. Per (event slot, attribute)
/// the batch keeps one contiguous double column — the layout
/// ExprProgram::RunColumnar executes against, where each fused term
/// opcode becomes one vectorizable loop over two columns instead of a
/// 280-byte-strided walk over row-major Messages. The remaining event
/// fields that the six double attributes cannot carry (the EventTypeId
/// and the wall-clock create_ts) ride in per-slot sidecar columns, and
/// tuple-level identity (partition key, event time) in exact int64
/// columns, so a gather -> scatter round trip reproduces every row
/// bit-for-bit. id/ts/aux_ts travel as doubles under the documented
/// GetAttribute contract (timestamps are exact in double for the ranges
/// this library produces); partition keys stay exact int64 because key
/// pools may exceed 2^53.
///
/// The validity/selection mask is the filter interface: RunColumnar
/// writes it, Compact() drops unselected rows in place, and a full batch
/// travels as one Message envelope (MessageKind::kColumnar) over a
/// Channel — one ring slot per block instead of one per tuple.
class ColumnarBatch {
 public:
  explicit ColumnarBatch(size_t num_slots = 1) { Reset(num_slots); }

  /// Re-shapes to `num_slots` events per row and clears all rows; column
  /// capacity is kept, so a recycled batch allocates nothing.
  void Reset(size_t num_slots);

  /// Events per row (tuple arity this batch was shaped for).
  size_t num_slots() const { return num_slots_; }

  size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  void Reserve(size_t rows);

  /// Gathers one tuple into the columns. The tuple's arity must equal
  /// num_slots(); its mask starts selected.
  void AppendTuple(const Tuple& tuple);

  /// Scatters row `i` back into a row-major Tuple (the shim at a
  /// columnar -> row-major boundary).
  Tuple RowTuple(size_t i) const;

  /// Scatters the event at (slot, row) without building a Tuple — how the
  /// join's columnar ingest fills its row-major window stores.
  SimpleEvent RowEvent(size_t slot, size_t i) const;

  /// Drops every row whose mask byte is 0, keeping the survivors' order,
  /// and re-selects them. Returns the surviving row count.
  size_t Compact();

  /// Borrowed execution view for ExprProgram::RunColumnar. Valid until
  /// the next mutating call; key stores write the key column.
  ExprColumnarView View();

  uint8_t* mask() { return mask_.data(); }
  const uint8_t* mask() const { return mask_.data(); }
  int64_t* keys() { return keys_.data(); }
  const int64_t* keys() const { return keys_.data(); }
  const Timestamp* event_times() const { return event_times_.data(); }
  Timestamp event_time(size_t i) const { return event_times_[i]; }

  const double* col(size_t slot, Attribute attr) const {
    return attr_cols_[slot * kNumEventAttrs + static_cast<size_t>(attr)]
        .data();
  }

  /// Rough footprint for state accounting / tests.
  size_t MemoryBytes() const;

 private:
  size_t num_slots_ = 1;
  size_t rows_ = 0;
  /// attr_cols_[slot * kNumEventAttrs + attr]: the double columns.
  std::vector<std::vector<double>> attr_cols_;
  /// Per-slot sidecars for the event fields outside the attribute schema.
  std::vector<std::vector<EventTypeId>> type_cols_;
  std::vector<std::vector<Timestamp>> create_ts_cols_;
  /// Tuple-level identity, exact.
  std::vector<int64_t> keys_;
  std::vector<Timestamp> event_times_;
  std::vector<uint8_t> mask_;
  /// Column base pointers refreshed by View().
  std::vector<const double*> col_ptrs_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_COLUMNAR_BATCH_H_
