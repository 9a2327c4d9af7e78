#include "runtime/columnar_batch.h"

#include <algorithm>
#include <numeric>

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

void ColumnarBatch::AppendRows(const ColumnarBatch& src, size_t begin,
                               size_t end) {
  CEP2ASP_DCHECK(src.num_slots_ == num_slots_)
      << "source shape " << src.num_slots_ << " vs " << num_slots_;
  CEP2ASP_DCHECK(begin <= end && end <= src.rows_);
  if (begin >= end) return;
  const size_t n = end - begin;
  for (size_t c = 0; c < attr_cols_.size(); ++c) {
    attr_cols_[c].insert(attr_cols_[c].end(),
                         src.attr_cols_[c].begin() + static_cast<ptrdiff_t>(begin),
                         src.attr_cols_[c].begin() + static_cast<ptrdiff_t>(end));
  }
  for (size_t s = 0; s < num_slots_; ++s) {
    type_cols_[s].insert(type_cols_[s].end(),
                         src.type_cols_[s].begin() + static_cast<ptrdiff_t>(begin),
                         src.type_cols_[s].begin() + static_cast<ptrdiff_t>(end));
    create_ts_cols_[s].insert(
        create_ts_cols_[s].end(),
        src.create_ts_cols_[s].begin() + static_cast<ptrdiff_t>(begin),
        src.create_ts_cols_[s].begin() + static_cast<ptrdiff_t>(end));
  }
  keys_.insert(keys_.end(), src.keys_.begin() + static_cast<ptrdiff_t>(begin),
               src.keys_.begin() + static_cast<ptrdiff_t>(end));
  event_times_.insert(event_times_.end(),
                      src.event_times_.begin() + static_cast<ptrdiff_t>(begin),
                      src.event_times_.begin() + static_cast<ptrdiff_t>(end));
  mask_.insert(mask_.end(), n, static_cast<uint8_t>(1));
  rows_ += n;
}

void ColumnarBatch::ErasePrefix(size_t n) {
  if (n == 0) return;
  CEP2ASP_DCHECK(n <= rows_);
  const ptrdiff_t d = static_cast<ptrdiff_t>(n);
  for (std::vector<double>& col : attr_cols_) {
    col.erase(col.begin(), col.begin() + d);
  }
  for (std::vector<EventTypeId>& col : type_cols_) {
    col.erase(col.begin(), col.begin() + d);
  }
  for (std::vector<Timestamp>& col : create_ts_cols_) {
    col.erase(col.begin(), col.begin() + d);
  }
  keys_.erase(keys_.begin(), keys_.begin() + d);
  event_times_.erase(event_times_.begin(), event_times_.begin() + d);
  mask_.erase(mask_.begin(), mask_.begin() + d);
  rows_ -= n;
}

namespace {

template <typename T>
void ApplyPermutation(std::vector<T>* col, size_t from,
                      const std::vector<uint32_t>& perm) {
  std::vector<T> tmp(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    tmp[i] = (*col)[from + perm[i]];
  }
  std::copy(tmp.begin(), tmp.end(), col->begin() + static_cast<ptrdiff_t>(from));
}

}  // namespace

void ColumnarBatch::StableSortByEventTime(size_t from) {
  if (from >= rows_) return;
  const size_t n = rows_ - from;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const Timestamp* ts = event_times_.data() + from;
  std::stable_sort(perm.begin(), perm.end(),
                   [ts](uint32_t a, uint32_t b) { return ts[a] < ts[b]; });
  bool identity = true;
  for (size_t i = 0; i < n; ++i) {
    if (perm[i] != i) {
      identity = false;
      break;
    }
  }
  if (identity) return;
  for (std::vector<double>& col : attr_cols_) ApplyPermutation(&col, from, perm);
  for (std::vector<EventTypeId>& col : type_cols_) {
    ApplyPermutation(&col, from, perm);
  }
  for (std::vector<Timestamp>& col : create_ts_cols_) {
    ApplyPermutation(&col, from, perm);
  }
  ApplyPermutation(&keys_, from, perm);
  ApplyPermutation(&event_times_, from, perm);
  ApplyPermutation(&mask_, from, perm);
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
