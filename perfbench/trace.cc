#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "asp/compiled_stateless.h"
#include "asp/sliding_window_join.h"
#include "replay.h"

namespace cep2asp {
namespace perfbench {

namespace {

/// Spans kept per process: the first ones of the recorded runs, which keeps
/// the trace file at a few MB.
constexpr size_t kMaxSpans = 50000;

struct Frame {
  int64_t start_ns;
  int64_t child_ns;  // time covered by spans nested in this one
};

thread_local std::vector<Frame> t_stack;
thread_local int t_tid = 0;
std::atomic<int> g_next_tid{1};

int ThreadId() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

/// Times one operator call. Self time is the call's duration minus the
/// spans nested in it (chained downstream operators run inside their
/// producer's call); top-level time is what the worker spent in operator
/// code at all.
class SpanScope {
 public:
  SpanScope(int64_t* self_ns, int64_t* top_level_ns, const std::string* name)
      : self_ns_(self_ns), top_level_ns_(top_level_ns), name_(name) {
    t_stack.push_back({SteadyNanos(), 0});
  }
  ~SpanScope() {
    const int64_t end = SteadyNanos();
    const Frame frame = t_stack.back();
    t_stack.pop_back();
    const int64_t dur = end - frame.start_ns;
    *self_ns_ += dur - frame.child_ns;
    if (t_stack.empty()) {
      *top_level_ns_ += dur;
    } else {
      t_stack.back().child_ns += dur;
    }
    SpanLog* log = SpanLog::Get();
    if (log->recording()) log->Append(name_, frame.start_ns, dur);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int64_t* self_ns_;
  int64_t* top_level_ns_;
  const std::string* name_;
};

Layer LayerOf(Operator* op) {
  if (dynamic_cast<CompiledStatelessOperator*>(op) != nullptr) {
    return Layer::kPrefix;
  }
  if (dynamic_cast<SlidingWindowJoinOperator*>(op) != nullptr) {
    return Layer::kJoin;
  }
  if (dynamic_cast<TimingSink*>(op) != nullptr) return Layer::kSink;
  return Layer::kOther;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

OperatorTotals* TraceRun::Add(Layer layer, NodeId node, bool clone,
                              std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  OperatorTotals& totals = totals_.emplace_back();
  totals.layer = layer;
  totals.node = node;
  totals.subtask = clone ? ++clones_[node] : 0;
  totals.label = std::move(label) + "#" + std::to_string(totals.subtask);
  return &totals;
}

SpanLog* SpanLog::Get() {
  static SpanLog log;
  return &log;
}

void SpanLog::Record(int pid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (origin_ns_ == 0) origin_ns_ = SteadyNanos();
  pid_ = pid;
}

bool SpanLog::recording() const {
  return pid_.load(std::memory_order_relaxed) != 0;
}

void SpanLog::Append(const std::string* name, int64_t start_ns,
                     int64_t dur_ns) {
  const int tid = ThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  const int pid = pid_.load(std::memory_order_relaxed);
  if (pid == 0 || spans_.size() >= kMaxSpans) return;
  spans_.push_back({name, pid, tid, start_ns, dur_ns});
}

const std::string* SpanLog::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& existing : names_) {
    if (existing == name) return &existing;
  }
  return &names_.emplace_back(name);
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out.push_back(',');
    out += "\n{\"name\":";
    AppendJsonString(&out, *span.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f}",
                  span.pid, span.tid,
                  static_cast<double>(span.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(span.dur_ns) / 1e3);
    out += buf;
  }
  out += "\n]}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  return std::fclose(file) == 0 && ok;
}

TracedOperator::TracedOperator(std::unique_ptr<Operator> inner, TraceRun* run,
                               NodeId node, bool clone)
    : inner_(std::move(inner)), run_(run), node_(node), clone_(clone) {}

Status TracedOperator::Open() {
  totals_ = run_->Add(LayerOf(inner_.get()), node_, clone_,
                      inner_->name() + " n" + std::to_string(node_));
  ingest_name_ = SpanLog::Get()->Intern(totals_->label + " ingest");
  fire_name_ = SpanLog::Get()->Intern(totals_->label + " watermark");
  return inner_->Open();
}

void TracedOperator::SampleState() {
  totals_->peak_state_bytes =
      std::max(totals_->peak_state_bytes, inner_->StateBytes());
}

Status TracedOperator::Process(int input, Tuple tuple, Collector* out) {
  totals_->rows_in[input == 0 ? 0 : 1] += 1;
  Status status;
  {
    SpanScope span(&totals_->ingest_self_ns, &totals_->top_level_ns,
                   ingest_name_);
    status = inner_->Process(input, std::move(tuple), out);
  }
  SampleState();
  return status;
}

Status TracedOperator::ProcessBatch(int input, MessageBatch* batch,
                                    Collector* out) {
  totals_->rows_in[input == 0 ? 0 : 1] += static_cast<int64_t>(batch->size());
  Status status;
  {
    SpanScope span(&totals_->ingest_self_ns, &totals_->top_level_ns,
                   ingest_name_);
    status = inner_->ProcessBatch(input, batch, out);
  }
  SampleState();
  return status;
}

Status TracedOperator::ProcessColumnar(int input,
                                       std::unique_ptr<ColumnarBatch> block,
                                       Collector* out) {
  totals_->rows_in[input == 0 ? 0 : 1] += static_cast<int64_t>(block->rows());
  Status status;
  {
    SpanScope span(&totals_->ingest_self_ns, &totals_->top_level_ns,
                   ingest_name_);
    status = inner_->ProcessColumnar(input, std::move(block), out);
  }
  SampleState();
  return status;
}

Status TracedOperator::OnWatermark(Timestamp watermark, Collector* out) {
  SampleState();
  SpanScope span(&totals_->fire_self_ns, &totals_->top_level_ns, fire_name_);
  return inner_->OnWatermark(watermark, out);
}

Status TracedOperator::Finish(Collector* out) {
  Status status;
  {
    SpanScope span(&totals_->fire_self_ns, &totals_->top_level_ns,
                   fire_name_);
    status = inner_->Finish(out);
  }
  if (auto* join = dynamic_cast<SlidingWindowJoinOperator*>(inner_.get())) {
    totals_->pairs_evaluated = join->pairs_evaluated();
  }
  return status;
}

std::unique_ptr<Operator> TracedOperator::CloneForSubtask() const {
  std::unique_ptr<Operator> clone = inner_->CloneForSubtask();
  if (clone == nullptr) return nullptr;
  return std::make_unique<TracedOperator>(std::move(clone), run_, node_,
                                          /*clone=*/true);
}

void TraceOperators(JobGraph* graph, TraceRun* run) {
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    JobGraph::Node& node = graph->mutable_node(id);
    if (node.is_source()) continue;
    node.op = std::make_unique<TracedOperator>(std::move(node.op), run, id,
                                               /*clone=*/false);
  }
}

}  // namespace perfbench
}  // namespace cep2asp
