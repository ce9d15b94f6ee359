// Figure 9 reproduction: the advertisement data library. The production
// workload is duplicated and driven against a stock veDB and a veDB with
// AStore; the paper reports ~20x lower average latency (most queries finish
// in ~5ms vs ~150ms P99 before) and worst case dropping from ~500ms to
// ~20ms.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

struct AdResult {
  double avg_ms;
  double p99_ms;
  double max_ms;
};

AdResult RunAds(bool use_astore) {
  workload::ClusterOptions opts = bench::MakeClusterOptions(use_astore, 0);
  workload::VedbCluster cluster(opts);
  cluster.env()->clock()->RegisterActor();
  cluster.StartBackground();

  workload::AdvertisementWorkload workload(
      cluster.engine(), workload::AdvertisementWorkload::Options{}, 31);
  Status s = workload.Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());

  const int kClients = 24;  // the latency-sensitive online path
  std::vector<Random> rngs;
  for (int i = 0; i < kClients; ++i) rngs.emplace_back(900 + i);

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), kClients, 100 * kMillisecond, 800 * kMillisecond,
      [&](int c) { return workload.RunQuery(&rngs[c]); });

  AdResult out;
  out.avg_ms = result.latency.Average() / 1e6;
  out.p99_ms = result.latency.P99() / 1e6;
  out.max_ms = result.latency.max() / 1e6;
  cluster.Shutdown();
  cluster.env()->clock()->UnregisterActor();
  return out;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  AdResult stock = RunAds(false);
  AdResult astore = RunAds(true);

  bench::PrintHeader(
      "Figure 9: advertisement library latency (duplicated workload)");
  bench::PrintRow({"", "avg (ms)", "P99 (ms)", "max (ms)"});
  bench::PrintRow({"veDB (stock)", bench::Fmt("%.2f", stock.avg_ms),
                   bench::Fmt("%.2f", stock.p99_ms),
                   bench::Fmt("%.2f", stock.max_ms)});
  bench::PrintRow({"veDB+AStore", bench::Fmt("%.2f", astore.avg_ms),
                   bench::Fmt("%.2f", astore.p99_ms),
                   bench::Fmt("%.2f", astore.max_ms)});
  printf("\naverage speedup: %.1fx (paper: ~20x); worst case %.1fx "
         "(paper: ~500ms -> ~20ms)\n",
         stock.avg_ms / astore.avg_ms, stock.max_ms / astore.max_ms);
  return 0;
}
