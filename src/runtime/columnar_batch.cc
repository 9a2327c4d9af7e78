#include "runtime/columnar_batch.h"

#include <algorithm>

#include "common/logging.h"

namespace cep2asp {

void ColumnarBatch::Reset(size_t num_slots) {
  CEP2ASP_DCHECK(num_slots > 0);
  num_slots_ = num_slots;
  rows_ = 0;
  attr_cols_.resize(num_slots * kNumEventAttrs);
  type_cols_.resize(num_slots);
  create_ts_cols_.resize(num_slots);
  for (std::vector<double>& col : attr_cols_) col.clear();
  for (std::vector<EventTypeId>& col : type_cols_) col.clear();
  for (std::vector<Timestamp>& col : create_ts_cols_) col.clear();
  keys_.clear();
  event_times_.clear();
  mask_.clear();
}

void ColumnarBatch::Reserve(size_t rows) {
  for (std::vector<double>& col : attr_cols_) col.reserve(rows);
  for (std::vector<EventTypeId>& col : type_cols_) col.reserve(rows);
  for (std::vector<Timestamp>& col : create_ts_cols_) col.reserve(rows);
  keys_.reserve(rows);
  event_times_.reserve(rows);
  mask_.reserve(rows);
}

void ColumnarBatch::AppendTuple(const Tuple& tuple) {
  CEP2ASP_DCHECK(tuple.size() == num_slots_)
      << "tuple arity " << tuple.size() << " vs batch shape " << num_slots_;
  for (size_t s = 0; s < num_slots_; ++s) {
    const SimpleEvent& e = tuple.event(s);
    std::vector<double>* cols = &attr_cols_[s * kNumEventAttrs];
    cols[0].push_back(e.value);
    cols[1].push_back(e.lat);
    cols[2].push_back(e.lon);
    cols[3].push_back(static_cast<double>(e.ts));
    cols[4].push_back(static_cast<double>(e.id));
    cols[5].push_back(static_cast<double>(e.aux_ts));
    type_cols_[s].push_back(e.type);
    create_ts_cols_[s].push_back(e.create_ts);
  }
  keys_.push_back(tuple.key());
  event_times_.push_back(tuple.event_time());
  mask_.push_back(1);
  ++rows_;
}

Tuple ColumnarBatch::RowTuple(size_t i) const {
  CEP2ASP_DCHECK(i < rows_);
  Tuple out;
  for (size_t s = 0; s < num_slots_; ++s) {
    const std::vector<double>* cols = &attr_cols_[s * kNumEventAttrs];
    SimpleEvent e;
    e.value = cols[0][i];
    e.lat = cols[1][i];
    e.lon = cols[2][i];
    e.ts = static_cast<Timestamp>(cols[3][i]);
    e.id = static_cast<int64_t>(cols[4][i]);
    e.aux_ts = static_cast<Timestamp>(cols[5][i]);
    e.type = type_cols_[s][i];
    e.create_ts = create_ts_cols_[s][i];
    out.AppendEvent(e);
  }
  out.set_event_time(event_times_[i]);
  out.set_key(keys_[i]);
  return out;
}

SimpleEvent ColumnarBatch::RowEvent(size_t slot, size_t i) const {
  CEP2ASP_DCHECK(slot < num_slots_ && i < rows_);
  const std::vector<double>* cols = &attr_cols_[slot * kNumEventAttrs];
  SimpleEvent e;
  e.value = cols[0][i];
  e.lat = cols[1][i];
  e.lon = cols[2][i];
  e.ts = static_cast<Timestamp>(cols[3][i]);
  e.id = static_cast<int64_t>(cols[4][i]);
  e.aux_ts = static_cast<Timestamp>(cols[5][i]);
  e.type = type_cols_[slot][i];
  e.create_ts = create_ts_cols_[slot][i];
  return e;
}

size_t ColumnarBatch::Compact() {
  size_t kept = 0;
  for (size_t i = 0; i < rows_; ++i) {
    if (!mask_[i]) continue;
    if (kept != i) {
      for (std::vector<double>& col : attr_cols_) col[kept] = col[i];
      for (std::vector<EventTypeId>& col : type_cols_) col[kept] = col[i];
      for (std::vector<Timestamp>& col : create_ts_cols_) col[kept] = col[i];
      keys_[kept] = keys_[i];
      event_times_[kept] = event_times_[i];
    }
    mask_[kept] = 1;
    ++kept;
  }
  for (std::vector<double>& col : attr_cols_) col.resize(kept);
  for (std::vector<EventTypeId>& col : type_cols_) col.resize(kept);
  for (std::vector<Timestamp>& col : create_ts_cols_) col.resize(kept);
  keys_.resize(kept);
  event_times_.resize(kept);
  mask_.resize(kept);
  rows_ = kept;
  return kept;
}

ExprColumnarView ColumnarBatch::View() {
  col_ptrs_.resize(attr_cols_.size());
  for (size_t c = 0; c < attr_cols_.size(); ++c) {
    col_ptrs_[c] = attr_cols_[c].data();
  }
  ExprColumnarView view;
  view.attr_cols = col_ptrs_.data();
  view.num_slots = num_slots_;
  view.keys = keys_.data();
  view.count = rows_;
  view.mask = mask_.data();
  return view;
}

size_t ColumnarBatch::MemoryBytes() const {
  size_t bytes = sizeof(ColumnarBatch);
  for (const std::vector<double>& col : attr_cols_) {
    bytes += col.capacity() * sizeof(double);
  }
  for (const std::vector<EventTypeId>& col : type_cols_) {
    bytes += col.capacity() * sizeof(EventTypeId);
  }
  for (const std::vector<Timestamp>& col : create_ts_cols_) {
    bytes += col.capacity() * sizeof(Timestamp);
  }
  bytes += keys_.capacity() * sizeof(int64_t);
  bytes += event_times_.capacity() * sizeof(Timestamp);
  bytes += mask_.capacity();
  return bytes;
}

}  // namespace cep2asp
