// Figure 12 reproduction: the effect of EBP size on the internal operations
// database (huge table, PK lookups, ~95% buffer-pool hit rate). Paper: a
// modest 256GB EBP cuts average response time 45% and P99 >50%; each
// doubling helps about half as much as the previous one (diminishing
// returns once everything cacheable is cached).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

struct OpsResult {
  double avg_us;
  double p99_us;
};

OpsResult RunOps(uint64_t ebp_capacity) {
  workload::ClusterOptions opts =
      bench::MakeClusterOptions(true, ebp_capacity);
  // BP holds a few percent of the table: the paper's ~95% hit regime comes
  // from the skewed key distribution over a small resident hot set.
  opts.engine.buffer_pool.capacity_pages = 96;
  workload::VedbCluster cluster(opts);
  cluster.env()->clock()->RegisterActor();
  cluster.StartBackground();

  workload::OperationsWorkload::Options wopts;
  wopts.rows = 50000;
  wopts.row_bytes = 220;
  workload::OperationsWorkload workload(cluster.engine(), wopts, 21);
  Status s = workload.Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());

  const int kClients = 16;
  std::vector<Random> rngs;
  for (int i = 0; i < kClients; ++i) rngs.emplace_back(300 + i);

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), kClients, 200 * kMillisecond, 800 * kMillisecond,
      [&](int c) { return workload.RunLookup(&rngs[c]); });

  OpsResult out;
  out.avg_us = result.latency.Average() / 1e3;
  out.p99_us = result.latency.P99() / 1e3;
  cluster.Shutdown();
  cluster.env()->clock()->UnregisterActor();
  return out;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  bench::PrintHeader(
      "Figure 12: operations DB latency vs EBP size (PK lookups)");
  bench::PrintRow({"EBP size", "avg (us)", "P99 (us)", "avg reduction"});
  const OpsResult base = RunOps(0);
  bench::PrintRow({"disabled", bench::Fmt("%.1f", base.avg_us),
                   bench::Fmt("%.1f", base.p99_us), "-"});
  for (uint64_t mb : {2, 4, 8, 32}) {
    const OpsResult r = RunOps(mb * kMiB);
    bench::PrintRow({std::to_string(mb) + "MiB",
                     bench::Fmt("%.1f", r.avg_us),
                     bench::Fmt("%.1f", r.p99_us),
                     bench::Fmt("%.0f%%", 100.0 * (1 - r.avg_us /
                                                           base.avg_us))});
  }
  printf("\npaper: 256GB EBP -> avg -45%%, P99 -50%%; diminishing returns "
         "with each doubling\n");
  return 0;
}
