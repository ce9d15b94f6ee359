#include "trace_attr.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>

namespace perfbench {

using vedb::obs::Span;

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> kLayers = {
      "bench",   "logstore",      "astore.client", "net.rpc",
      "net.rdma", "astore.server", "pmem"};
  return kLayers;
}

const std::vector<std::string>& TraceOpClasses() {
  static const std::vector<std::string> kClasses = {
      "tpcc.write", "tpcc.read", "ebp.lookup", "ch.query"};
  return kClasses;
}

std::string LayerOfSpan(const std::string& name) {
  if (name.rfind("bench.", 0) == 0) return "bench";
  if (name == "logstore.append") return "logstore";
  if (name == "astore.client.write" || name == "astore.client.read" ||
      name == "breakdown.client") {
    return "astore.client";
  }
  if (name == "rpc.call") return "net.rpc";
  if (name == "rdma.chain" || name == "breakdown.network") return "net.rdma";
  if (name == "breakdown.server") return "astore.server";
  if (name == "breakdown.pmem_flush") return "pmem";
  return "";
}

std::map<std::string, Duration> AttributeSelfTime(
    const std::vector<Span>& spans, uint64_t root_id) {
  std::map<std::string, Duration> out;
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  auto root_it = by_id.find(root_id);
  if (root_it == by_id.end()) return out;
  const Span* root = root_it->second;

  // Depth, layer and interval clipped to the parent chain, memoized.
  struct Info {
    bool done = false;
    int depth = 0;
    std::string layer;
    Timestamp start = 0, end = 0;
  };
  std::unordered_map<uint64_t, Info> info;
  std::function<const Info&(const Span*)> resolve =
      [&](const Span* s) -> const Info& {
    Info& mine = info[s->id];
    if (mine.done) return mine;
    mine.done = true;
    if (s == root) {
      mine.depth = 0;
      mine.layer = "bench";
      mine.start = s->start;
      mine.end = s->end;
      return mine;
    }
    auto p = by_id.find(s->parent_id);
    // A span whose parent is missing hangs off the root.
    const Span* parent = (p == by_id.end() || p->second == s) ? root
                                                               : p->second;
    const Info parent_info = resolve(parent);
    Info& self = info[s->id];  // re-lookup: resolve may rehash the map
    self.depth = parent_info.depth + 1;
    const std::string layer = LayerOfSpan(s->name);
    self.layer = layer.empty() ? parent_info.layer : layer;
    self.start = std::max(s->start, parent_info.start);
    self.end = std::min(s->end, parent_info.end);
    if (self.end < self.start) self.end = self.start;
    return self;
  };

  // Sweep the root interval; at every instant the deepest open span wins
  // (ties: the later start, then the higher span id).
  struct Event {
    Timestamp t;
    bool open;
    std::tuple<int, Timestamp, uint64_t> key;
  };
  std::vector<Event> events;
  std::unordered_map<uint64_t, std::string> layer_of;
  for (const Span& s : spans) {
    const Info in = resolve(&s);
    if (in.end <= in.start) continue;
    const auto key = std::make_tuple(in.depth, in.start, s.id);
    events.push_back({in.start, true, key});
    events.push_back({in.end, false, key});
    layer_of[s.id] = in.layer;
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.open < b.open;  // closes first
  });
  std::set<std::tuple<int, Timestamp, uint64_t>> open;
  Timestamp prev = root->start;
  for (const Event& e : events) {
    if (e.t > prev && !open.empty()) {
      out[layer_of[std::get<2>(*open.rbegin())]] += e.t - prev;
    }
    prev = std::max(prev, e.t);
    if (e.open) {
      open.insert(e.key);
    } else {
      open.erase(e.key);
    }
  }
  return out;
}

TraceCollector::TraceCollector(vedb::sim::VirtualClock* clock,
                               std::vector<OpType> types, int clients)
    : tracer_(clock), types_(std::move(types)), open_(clients) {
  vedb::obs::Tracer::SetGlobal(&tracer_);
}

TraceCollector::~TraceCollector() { vedb::obs::Tracer::SetGlobal(nullptr); }

void TraceCollector::Begin(int client) {
  open_[client].span =
      std::make_unique<vedb::obs::SpanScope>(&tracer_, "bench.op");
  std::lock_guard<std::mutex> lk(mu_);
  bench_traces_.insert(open_[client].span->context().trace_id);
}

void TraceCollector::End(int client, int type, bool ok, bool in_window,
                         Duration latency) {
  const uint64_t trace_id = open_[client].span->context().trace_id;
  open_[client].span.reset();  // records the root span at this instant
  bool drain = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_[trace_id] = Closed{type, ok && in_window, latency};
    drain = ++since_drain_ >= 64;
  }
  if (drain) Drain();
}

void TraceCollector::Finish() {
  // Spans opened from here on are not recorded; ones still open (on
  // background actors) finish into tracer_, which outlives them.
  vedb::obs::Tracer::SetGlobal(nullptr);
  Drain();
}

void TraceCollector::Drain() {
  std::vector<Span> spans = tracer_.FinishedSpans();
  tracer_.Clear();
  std::lock_guard<std::mutex> lk(mu_);
  since_drain_ = 0;
  for (Span& s : spans) {
    if (bench_traces_.count(s.trace_id) != 0) {
      pending_[s.trace_id].push_back(std::move(s));
    }
  }
  for (const auto& [trace_id, op] : closed_) {
    std::vector<Span>& trace = pending_[trace_id];
    if (op.counted) {
      uint64_t root_id = 0;
      Duration root_len = 0;
      for (const Span& s : trace) {
        if (s.parent_id == 0) {
          root_id = s.id;
          root_len = s.end - s.start;
        }
      }
      ClassTotals& t = totals_[types_[op.type].trace_name];
      t.ops++;
      t.latency_sum += op.latency;
      if (root_len != op.latency) t.mismatched++;
      for (const auto& [layer, ns] : AttributeSelfTime(trace, root_id)) {
        t.layer_sum[layer] += ns;
      }
    }
    pending_.erase(trace_id);
    bench_traces_.erase(trace_id);
  }
  closed_.clear();
}

void AddTraceMetrics(const TraceCollector& tracer, PassResult* out) {
  const std::vector<std::string>& classes = TraceOpClasses();
  for (const auto& [op_class, t] : tracer.totals()) {
    if (std::find(classes.begin(), classes.end(), op_class) == classes.end()) {
      out->Fail("trace: operation class " + op_class + " is not reported");
    }
  }
  for (const std::string& op_class : classes) {
    auto found = tracer.totals().find(op_class);
    const TraceCollector::ClassTotals t = found == tracer.totals().end()
                                              ? TraceCollector::ClassTotals{}
                                              : found->second;
    Duration layer_total = 0;
    for (const std::string& layer : TraceLayers()) {
      auto it = t.layer_sum.find(layer);
      const Duration ns = it == t.layer_sum.end() ? 0 : it->second;
      layer_total += ns;
      out->layer_metrics.push_back(
          {"trace." + op_class + "." + layer + ".self_us",
           t.ops == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(t.ops) /
                            1e3,
           "us"});
    }
    if (t.ops == 0) continue;
    if (t.mismatched != 0 || layer_total != t.latency_sum) {
      out->Fail("trace of " + op_class + ": layers sum to " +
                std::to_string(layer_total) + " ns over " +
                std::to_string(t.ops) + " ops, latencies to " +
                std::to_string(t.latency_sum) + " ns (" +
                std::to_string(t.mismatched) + " root spans disagree)");
    }
    auto measured = out->op_mean_us.find(op_class);
    const double mean_us = static_cast<double>(t.latency_sum) /
                           static_cast<double>(t.ops) / 1e3;
    if (measured == out->op_mean_us.end() ||
        measured->second.second != t.ops ||
        std::abs(measured->second.first - mean_us) > 1e-9 * mean_us) {
      out->Fail("trace of " + op_class +
                " covers other operations than the measured window");
    }
  }
}

}  // namespace perfbench
