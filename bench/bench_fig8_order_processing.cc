// Figure 8 reproduction: the internal batched order-processing workload.
// Paper: single insert reaches 10k+ TPS with 8 clients on AStore vs 3,339
// TPS without (>3x); the full order transaction reaches 10k TPS at 64
// clients with AStore but needs >512 clients without.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

double RunOrders(bool use_astore, int clients, bool single_insert) {
  workload::ClusterOptions opts = bench::MakeClusterOptions(use_astore, 0);
  workload::VedbCluster cluster(opts);
  cluster.env()->clock()->RegisterActor();
  cluster.StartBackground();

  workload::OrderProcessingWorkload::Options wopts;
  wopts.merchants = 8;  // hot rows: many clients per merchant
  wopts.orders_per_txn = 4;
  wopts.order_bytes = 2048;
  workload::OrderProcessingWorkload workload(cluster.engine(), wopts, 11);
  Status s = workload.Load();
  if (!s.ok()) {
    fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 0;
  }
  std::vector<Random> rngs;
  for (int i = 0; i < clients; ++i) rngs.emplace_back(500 + i);

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), clients, 60 * kMillisecond, 300 * kMillisecond,
      [&](int c) {
        return single_insert ? workload.RunSingleInsert(&rngs[c])
                             : workload.RunOrderTransaction(&rngs[c]);
      });
  const double tps = result.Throughput();
  cluster.Shutdown();
  cluster.env()->clock()->UnregisterActor();
  return tps;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  const std::vector<int> clients = {8, 16, 64};

  bench::PrintHeader("Figure 8a: single INSERT (2KB rows), TPS vs clients");
  bench::PrintRow({"clients", "veDB (SSD log)", "veDB+AStore", "speedup"});
  for (int c : clients) {
    const double ssd = RunOrders(false, c, /*single_insert=*/true);
    const double pmem = RunOrders(true, c, /*single_insert=*/true);
    bench::PrintRow({std::to_string(c), bench::Fmt("%.0f", ssd),
                     bench::Fmt("%.0f", pmem),
                     bench::Fmt("%.2fx", ssd > 0 ? pmem / ssd : 0)});
  }
  printf("paper: with 8 clients, 3,339 TPS -> 10,000+ TPS (>3x)\n");

  bench::PrintHeader(
      "Figure 8b: order-processing transaction (hot-row update + batch "
      "insert), TPS vs clients");
  bench::PrintRow({"clients", "veDB (SSD log)", "veDB+AStore", "speedup"});
  for (int c : clients) {
    const double ssd = RunOrders(false, c, /*single_insert=*/false);
    const double pmem = RunOrders(true, c, /*single_insert=*/false);
    bench::PrintRow({std::to_string(c), bench::Fmt("%.0f", ssd),
                     bench::Fmt("%.0f", pmem),
                     bench::Fmt("%.2fx", ssd > 0 ? pmem / ssd : 0)});
  }
  printf(
      "paper: AStore reaches the 10k TPS target with 64 clients; stock veDB "
      "needs >512\n");
  return 0;
}
