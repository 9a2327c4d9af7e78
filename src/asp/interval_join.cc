#include "asp/interval_join.h"

#include <tuple>
#include <utility>

namespace cep2asp {

IntervalJoinOperator::IntervalJoinOperator(IntervalBounds bounds,
                                           Predicate condition,
                                           TimestampMode ts_mode,
                                           std::string label)
    : bounds_(bounds),
      condition_(std::move(condition)),
      ts_mode_(ts_mode),
      label_(std::move(label)) {}

Status IntervalJoinOperator::Open() {
  if (bounds_.lower > bounds_.upper) {
    return Status::InvalidArgument("interval join: lower bound above upper");
  }
  return Status::OK();
}

Status IntervalJoinOperator::Process(int input, Tuple tuple, Collector*) {
  store_.Insert(input, tuple);
  return Status::OK();
}

Status IntervalJoinOperator::ProcessColumnar(
    int input, std::unique_ptr<ColumnarBatch> block, Collector*) {
  store_.InsertColumnar(input, *block);
  return Status::OK();
}

Status IntervalJoinOperator::OnWatermark(Timestamp watermark, Collector* out) {
  // At end of stream (kMaxTimestamp) every left is complete and no right
  // is reachable any more; the bound arithmetic below would overflow.
  const bool end_of_stream = watermark == kMaxTimestamp;
  store_.Sweep([&](const KeyedWindowStore::KeyEntry& entry) {
    const SideBuffer& left = entry.sides[0];
    const SideBuffer& right = entry.sides[1];
    // A left event e1 is complete when every possible partner has arrived:
    // partners have ts <= e1.ts + upper, and every event with ts < wm has
    // arrived, so e1.ts + upper < wm guarantees completeness. Rows are
    // sorted, so the complete lefts are a prefix of the live rows.
    const size_t due = end_of_stream
                           ? left.rows()
                           : LowerBoundTs(left.times, left.head, left.rows(),
                                          watermark - bounds_.upper);
    windows_created_ += static_cast<int64_t>(due - left.head);
    // Each left's partners are one range of the sorted right rows; both
    // ends only move forward as the left ts grows.
    size_t first = right.head;
    for (size_t l = left.head; l < due; ++l) {
      size_t last = 0;
      std::tie(first, last) =
          bounds_.RightRange(right.times, first, right.rows(), left.times[l]);
      pairs_evaluated_ += EmitPairs(entry.key, left.row(l), left.arity, right,
                                    first, last, condition_, ts_mode_, out);
    }
    // Completed lefts leave. A right event e2 stays reachable while some
    // pending or future left event's window can contain it. Pending and
    // future lefts have ts >= watermark - upper, and the lower bound is
    // strict, so their partners lie above watermark - upper + lower.
    return std::make_pair(
        due, end_of_stream
                 ? right.rows()
                 : UpperBoundTs(right.times, right.head, right.rows(),
                                watermark - bounds_.upper + bounds_.lower));
  });
  return Status::OK();
}

}  // namespace cep2asp
