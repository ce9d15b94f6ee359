// Liveness of the engine's REDO shipper under EBP update load.
//
// DBEngine::ShipperLoop once spun without blocking whenever an evicting
// client's EnsureShipped held the next REDO batch in flight: the ship queue
// still had eligible records, but ShipEligibleOnce could not advance past
// the missing batch, and the spinner kept the clock's run token, so virtual
// time stopped. Skewed point reads with 10% single-row updates on a table
// ~20x the buffer pool evict dirty pages constantly and hit that window
// within a few hundred virtual milliseconds. The test asserts liveness only: a hang is turned
// into a failure by the ctest TIMEOUT on this executable.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "engine/engine.h"
#include "engine/page.h"
#include "workload/cluster.h"
#include "workload/driver.h"

namespace vedb::engine {
namespace {

TEST(ShipperLivenessTest, EbpUpdateLoadKeepsVirtualTimeMoving) {
  constexpr int kClients = 8;
  constexpr int64_t kRows = 44000;
  constexpr Duration kRun = 500 * kMillisecond;

  workload::ClusterOptions opts;
  opts.use_astore_log = true;
  opts.enable_ebp = true;
  opts.astore_server.pmem_capacity = 192 * kMiB;
  opts.astore_log.ring.segment_size = 1 * kMiB;
  opts.astore_log.ring.ring_size = 10;
  // About 17 rows fill a page: the table spans ~20x the pool and the EBP
  // holds ~80% of it.
  opts.ebp.capacity = static_cast<uint64_t>(kRows) / 17 * Page::kPageSize *
                      8 / 10;
  opts.ebp.segment_size = 2 * kMiB;
  opts.engine.buffer_pool.capacity_pages = 128;
  workload::VedbCluster cluster(opts);
  sim::VirtualClock* clock = cluster.env()->clock();
  clock->RegisterActor();
  cluster.StartBackground();

  Schema schema;
  schema.columns = {{"k", ValueType::kInt},
                    {"ver", ValueType::kInt},
                    {"payload", ValueType::kString}};
  schema.pk = {0};
  Table* table = cluster.engine()->CreateTable("kv", schema);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int64_t k = 0; k < kRows; ++k) {
    rows.push_back({Value(k), Value(int64_t{0}), Value(std::string(900, 'p'))});
  }
  ASSERT_TRUE(table->BulkLoad(rows).ok());
  rows.clear();
  // One pass pulls every page through the pool; its evictions fill the EBP.
  ASSERT_TRUE(table->ScanAll([](const Row&) { return true; }).ok());

  std::vector<Random> rngs;
  for (int i = 0; i < kClients; ++i) rngs.emplace_back(7919 + i);
  const Timestamp start = clock->Now();
  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), kClients, /*warmup=*/0, kRun, [&](int c) {
        const int64_t key = static_cast<int64_t>(rngs[c].Skewed(kRows));
        if (rngs[c].Uniform(10) != 0) {
          return table->Get(nullptr, {Value(key)}).status();
        }
        return cluster.engine()->RunTransaction([&](Txn* txn) {
          return table->Update(txn, {Value(key)}, [](Row* row) {
            (*row)[1] = Value((*row)[1].AsInt() + 1);
          });
        });
      });
  EXPECT_GE(clock->Now(), start + kRun);
  EXPECT_GT(result.operations, 0u);

  clock->UnregisterActor();
  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb::engine
