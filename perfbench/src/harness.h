// Shared machinery of the veDB/AStore benchmark: process pinning and
// rusage, the closed-loop clients run inside the schedule, registry readers,
// and the result record every workload fills in.
//
// Determinism rule: the benchmark's main thread registers as an actor of
// the cluster's virtual clock right after construction and stays
// registered until the metrics are read. Clients are spawned while main
// holds the run token and main waits for them on a VirtualCondition, never
// on a real-time join, so no actor ever runs outside the token's order
// before the snapshot. Two runs at one seed therefore print identical
// virtual-time metrics.
//
// Each pass runs in a process of its own, which reports its results and
// exits without tearing its cluster down: no actor, client or background,
// is ever stopped or joined.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/clock.h"
#include "sim/env.h"

namespace perfbench {

using vedb::Duration;
using vedb::Timestamp;

/// Wall-clock seconds from a monotonic clock.
double WallNow();

/// getrusage in the units the benchmark reports.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long vol_ctx_switches = 0;
  long invol_ctx_switches = 0;
  long max_rss_kib = 0;
  static Usage Self();      // RUSAGE_SELF
  static Usage Children();  // RUSAGE_CHILDREN: finished, waited-for children
};

/// Pins the calling process (its main thread; threads created later
/// inherit the mask) to the highest-numbered CPU of its allowed set.
/// Returns that CPU, or -1 if the affinity calls failed.
int PinToOneCpu();

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Exact percentile (nearest rank) of raw samples; 0 when empty.
double Percentile(std::vector<uint64_t> samples, double p);

/// Median of raw doubles; 0 when empty.
double Median(std::vector<double> values);

// ---- Registry readers (summing a metric over all its label sets) ----

uint64_t CounterSum(const std::string& name);
vedb::Histogram HistogramSum(const std::string& name);

/// Per-operation type tags used by the client loop and the trace attribution.
struct OpType {
  /// Operation class in traces, e.g. "tpcc.write".
  std::string trace_name;
  /// True if the operation commits writes (counted by bench.write_p99_us).
  bool writes = false;
};

/// Outcome of one operation issued by a client.
struct OpOutcome {
  vedb::Status status;
  int type = 0;  // index into the workload's OpType table
};

class TraceCollector;  // trace_attr.h

/// Raw samples of one measurement window, per operation type.
struct WindowSamples {
  std::vector<std::vector<uint64_t>> latency_ns;  // [type] -> samples
  uint64_t attempted = 0;  // every issued op, warm-up included
  uint64_t failed = 0;     // every failed op, warm-up included
  std::string first_error;
  Duration window = 0;     // virtual time from measure start to the end
  double wall_s = 0;       // wall time spent simulating the window
  Usage usage_begin, usage_end;
  /// (wall time, in-window operations finished) at the window's start and
  /// at each segment boundary. The drain after the last boundary (the few
  /// operations still finishing past `end`) belongs to no segment.
  std::vector<std::pair<double, uint64_t>> marks;

  uint64_t WindowOps() const;
  /// Median over the window's segments of wall µs per finished operation.
  /// A burst of load from elsewhere on the host slows a few segments, not
  /// the median one.
  double MedianWallUsPerOp() const;
};

/// When the clients stop and how the measured window is cut into segments
/// for wall_us_per_op.
struct WindowSpec {
  /// Operations that begin earlier are warm-up.
  Timestamp measure_start = 0;
  /// No client begins an operation at or after this virtual time.
  Timestamp end = 0;
  /// If not 0, each client also stops after this many operations.
  uint64_t ops_per_client = 0;
  /// If not 0, a segment is this many finished operations; otherwise the
  /// window is cut into kTimeSegments equal spans of virtual time.
  uint64_t segment_ops = 0;
};
constexpr int kTimeSegments = 20;

/// Hooks run inside the schedule at the start of the measured window
/// (after warm-up) and right after the last client finished.
struct WindowHooks {
  std::function<void()> at_measure_start;
  std::function<void()> at_end;
};

/// Runs `clients` closed-loop client actors, each running `op(client)` back
/// to back as `spec` says. Must be called by a registered actor (the
/// benchmark's main thread), which stays in the schedule throughout: it
/// parks on a VirtualCondition until every client finished. Client threads
/// are owned by `group`. A non-null `tracer` brackets every operation.
WindowSamples RunClients(vedb::sim::SimEnvironment* env,
                         vedb::sim::ActorGroup* group, int clients,
                         int op_types, const WindowSpec& spec,
                         const std::function<OpOutcome(int client)>& op,
                         const WindowHooks& hooks, TraceCollector* tracer);

/// Everything one workload pass produces.
struct PassResult {
  bool correct = true;
  std::vector<std::string> problems;  // failed checks, human readable
  std::vector<std::string> notes;     // input sizes, first error
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> virtual_metrics;  // deterministic at one seed
  std::vector<Metric> wall_metrics;     // the simulator's own cost
  std::vector<Metric> layer_metrics;    // per-layer, from outside
  /// Mean virtual latency (µs) and sample count per traced op class.
  std::map<std::string, std::pair<double, uint64_t>> op_mean_us;
  double window_wall_s = 0;

  void Fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
  /// Runs a check that returns "" on success or a description.
  void Expect(const std::string& problem) {
    if (!problem.empty()) Fail(problem);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
