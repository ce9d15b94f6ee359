// The three benchmark workloads behind one interface, plus the pieces they
// share: cluster lifetime with the main thread kept a registered actor, and
// the end-to-end and per-layer metric assembly.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "trace_attr.h"
#include "workload/cluster.h"

namespace perfbench {

/// The CH-benCHmark queries, numbered from 1.
constexpr int kChQueries = 22;

struct WorkloadConfig {
  uint64_t seed = 1;
  /// The measured window's size: virtual time (tpcc, ebp-ops) or passes
  /// (ch-pushdown) per requested wall second, times this many seconds.
  double seconds = 10;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the cluster and loads (and warms) the data. On return the
  /// calling thread is a registered actor of the cluster's clock.
  virtual void Setup() = 0;

  /// Runs the measured window with or without tracing, reads the metrics,
  /// then runs the workload's correctness checks.
  virtual PassResult Run(bool trace) = 0;

 protected:
  /// Builds the cluster, runs `before_start` on it, then registers the
  /// calling thread and starts the background actors.
  void StartCluster(
      const vedb::workload::ClusterOptions& options,
      const std::function<void(vedb::workload::VedbCluster*)>& before_start =
          nullptr);

  /// Runs the measured window through RunClients: the registry is reset
  /// and the modules' stats read when the window opens, and read again when
  /// the last client finishes. Fills `out` with the end-to-end metrics, the
  /// per-layer metrics (query.qNN_vus from `query_us_`) and, if `trace`, the
  /// per-layer self times.
  void Measure(bool trace, const std::vector<OpType>& types, int clients,
               const WindowSpec& spec,
               const std::function<OpOutcome(int client)>& op,
               PassResult* out);

  std::unique_ptr<TraceCollector> tracer_;
  std::unique_ptr<vedb::workload::VedbCluster> cluster_;
  std::unique_ptr<vedb::sim::ActorGroup> clients_;
  /// Virtual µs of each CH query in the window, by query number (1-22);
  /// filled by ch-pushdown only, so the other workloads report zeros.
  std::vector<std::vector<double>> query_us_ =
      std::vector<std::vector<double>>(kChQueries + 1);
};

std::unique_ptr<Workload> MakeTpcc(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeEbpOps(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeChPushdown(const WorkloadConfig& config);

/// The workload called `name`, or null if there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Cluster preset shared by all workloads (Table I, scaled): AStore log on
/// a SegmentRing of 10 x 1 MiB segments, 192 MiB of PMem per server.
vedb::workload::ClusterOptions BaseClusterOptions(uint64_t ebp_capacity);

/// "N pages in <tables>; buffer pool B pages[; EBP E pages]" for the notes.
std::string DescribeSize(vedb::workload::VedbCluster* cluster,
                         const std::vector<std::string>& tables);

/// Adds query.q01_vus .. query.q22_vus, the median of each query's samples
/// (0 for a query without any).
void AddQueryMetrics(const std::vector<std::vector<double>>& query_us,
                     PassResult* out);

/// Module statistics read through their public stats() calls.
struct StatsSnapshot {
  vedb::engine::DBEngine::Stats engine;
  vedb::engine::BufferPool::Stats bp;
  vedb::ebp::ExtendedBufferPool::Stats ebp;
  static StatsSnapshot Take(vedb::workload::VedbCluster* cluster);
};

/// Adds ops_per_vsec, latency_mean_us, latency_p99_us and wall_us_per_op
/// from one window, over every operation type.
void AddEndToEnd(const WindowSamples& w, const std::vector<OpType>& types,
                 PassResult* out);

/// Adds the per-layer metrics read from the registry, the modules' stats
/// and rusage over the window. `before` was taken at the window's start.
void AddLayerMetrics(const WindowSamples& w, const std::vector<OpType>& types,
                     const StatsSnapshot& before, const StatsSnapshot& after,
                     PassResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
