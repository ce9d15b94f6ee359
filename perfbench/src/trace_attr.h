// Per-layer attribution of virtual time from obs::Tracer spans.
//
// The traced run wraps every benchmark operation in a root span; the
// program's own spans (logstore.append, astore.client.write/read, rpc.call,
// rdma.chain, breakdown.*) nest under it. Each instant of the root span is
// charged to the deepest span open at that instant, and that span's layer
// receives it. A span's self time is therefore its duration minus the part
// its children cover, and the layers of one operation sum exactly to its
// latency. Time spent waiting for work done on another actor (a group
// commit led by another client, a page flush run by a background actor)
// carries no span of this operation, so it lands in the waiting span.

#ifndef PERFBENCH_TRACE_ATTR_H_
#define PERFBENCH_TRACE_ATTR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// The layers, in reporting order.
const std::vector<std::string>& TraceLayers();

/// Every workload's operation classes (OpType::trace_name), in reporting
/// order.
const std::vector<std::string>& TraceOpClasses();

/// Maps a span name to its layer; "" for names the benchmark does not
/// know (such spans inherit their parent's layer).
std::string LayerOfSpan(const std::string& span_name);

/// Splits the root span `root_id` of `spans` (one trace) into virtual
/// nanoseconds per layer. The result sums to the root's duration.
std::map<std::string, Duration> AttributeSelfTime(
    const std::vector<vedb::obs::Span>& spans, uint64_t root_id);

/// Installs a global Tracer for its lifetime and attributes every
/// successful in-window operation, per operation class.
class TraceCollector {
 public:
  TraceCollector(vedb::sim::VirtualClock* clock, std::vector<OpType> types,
                 int clients);
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Opens the operation's root span on the client actor, right before the
  /// operation starts.
  void Begin(int client);
  /// Closes it right after the operation, at the virtual instant its
  /// latency sample ends. `in_window` is false for warm-up operations.
  void End(int client, int type, bool ok, bool in_window, Duration latency);

  /// Uninstalls the global tracer and attributes whatever is still
  /// buffered. Call after the run; keep the collector alive until no actor
  /// can still be inside a span.
  void Finish();

  struct ClassTotals {
    uint64_t ops = 0;
    Duration latency_sum = 0;
    std::map<std::string, Duration> layer_sum;
    /// Operations whose root span disagreed with the client loop's latency.
    uint64_t mismatched = 0;
  };
  /// Totals per operation class (OpType::trace_name).
  const std::map<std::string, ClassTotals>& totals() const { return totals_; }

 private:
  struct OpenOp {
    std::unique_ptr<vedb::obs::SpanScope> span;
  };
  struct Closed {
    int type = 0;
    bool counted = false;
    Duration latency = 0;
  };

  void Drain();

  vedb::obs::Tracer tracer_;
  std::vector<OpType> types_;
  std::vector<OpenOp> open_;
  // Waiver: memory-only bookkeeping; actors run one at a time anyway.
  std::mutex mu_;
  std::set<uint64_t> bench_traces_;
  std::unordered_map<uint64_t, Closed> closed_;  // trace id -> op info
  std::unordered_map<uint64_t, std::vector<vedb::obs::Span>> pending_;
  std::map<std::string, ClassTotals> totals_;
  uint64_t since_drain_ = 0;
};

/// Adds trace.<op>.<layer>.self_us for every class of TraceOpClasses(), 0
/// for a class the collector attributed no operation to, and fails `out`
/// unless each attributed class's layers sum exactly to its operations'
/// latency and cover the same operations as the client loop's samples.
void AddTraceMetrics(const TraceCollector& tracer, PassResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_ATTR_H_
