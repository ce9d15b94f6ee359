#include <gtest/gtest.h>

#include <memory>

#include "workload/cluster.h"
#include "workload/driver.h"
#include "workload/internal.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"

namespace vedb::workload {
namespace {

class TpccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.astore_server.pmem_capacity = 64 * kMiB;
    opts.astore_log.ring.segment_size = 512 * kKiB;
    opts.astore_log.ring.ring_size = 6;
    opts.engine.buffer_pool.capacity_pages = 2048;
    cluster_ = std::make_unique<VedbCluster>(opts);
    cluster_->env()->clock()->RegisterActor();
    cluster_->StartBackground();

    TpccScale scale;
    scale.warehouses = 2;
    scale.customers_per_district = 30;
    scale.items = 200;
    scale.initial_orders_per_district = 10;
    db_ = std::make_unique<TpccDatabase>(cluster_->engine(), scale, 1,
                                         /*with_ch_tables=*/true);
    ASSERT_TRUE(db_->Load().ok());
  }
  void TearDown() override {
    cluster_->env()->clock()->UnregisterActor();
    cluster_->Shutdown();
  }

  std::unique_ptr<VedbCluster> cluster_;
  std::unique_ptr<TpccDatabase> db_;
};

TEST_F(TpccTest, LoadPopulatesAllTables) {
  EXPECT_EQ(db_->warehouse()->approximate_row_count(), 2u);
  EXPECT_EQ(db_->district()->approximate_row_count(), 20u);
  EXPECT_EQ(db_->customer()->approximate_row_count(), 2u * 10 * 30);
  EXPECT_EQ(db_->item()->approximate_row_count(), 200u);
  EXPECT_EQ(db_->stock()->approximate_row_count(), 2u * 200);
  EXPECT_EQ(db_->orders()->approximate_row_count(), 2u * 10 * 10);
  EXPECT_GT(db_->orderline()->approximate_row_count(), 2u * 10 * 10 * 5);
  EXPECT_EQ(db_->supplier()->approximate_row_count(), 100u);
}

TEST_F(TpccTest, NewOrderAdvancesDistrictAndInsertsRows) {
  TpccDriver driver(db_.get(), 7);
  const uint64_t orders_before = db_->orders()->approximate_row_count();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(driver.RunNewOrder().ok());
  }
  EXPECT_EQ(db_->orders()->approximate_row_count(), orders_before + 10);
}

TEST_F(TpccTest, PaymentMovesMoney) {
  TpccDriver driver(db_.get(), 9);
  auto wh_before = db_->warehouse()->Get(nullptr, {engine::Value(1)});
  ASSERT_TRUE(wh_before.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(driver.RunPayment().ok());
  }
  auto wh_after = db_->warehouse()->Get(nullptr, {engine::Value(1)});
  ASSERT_TRUE(wh_after.ok());
  auto wh2 = db_->warehouse()->Get(nullptr, {engine::Value(2)});
  ASSERT_TRUE(wh2.ok());
  const double ytd_delta = ((*wh_after)[3].AsDouble() +
                            (*wh2)[3].AsDouble()) -
                           2 * 300000.0;
  EXPECT_GT(ytd_delta, 0.0);  // payments landed somewhere
}

TEST_F(TpccTest, FullMixRunsCleanly) {
  TpccDriver driver(db_.get(), 11);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 60; ++i) {
    TpccDriver::TxnType type;
    Status s = driver.RunMixed(&type);
    ASSERT_TRUE(s.ok()) << s.ToString();
    counts[static_cast<int>(type)]++;
  }
  EXPECT_GT(counts[0], 0);  // NewOrder
  EXPECT_GT(counts[1], 0);  // Payment
}

TEST_F(TpccTest, DeliveryConsumesNewOrders) {
  TpccDriver driver(db_.get(), 13);
  const uint64_t pending_before = db_->neworder()->approximate_row_count();
  ASSERT_GT(pending_before, 0u);
  ASSERT_TRUE(driver.RunDelivery().ok());
  EXPECT_LT(db_->neworder()->approximate_row_count(), pending_before);
}

TEST_F(TpccTest, ConcurrentMixedClients) {
  std::vector<std::unique_ptr<TpccDriver>> drivers;
  for (int i = 0; i < 8; ++i) {
    drivers.push_back(std::make_unique<TpccDriver>(db_.get(), 100 + i));
  }
  LoadResult result = RunClosedLoop(
      cluster_->env(), 8, /*warmup=*/50 * kMillisecond,
      /*duration=*/300 * kMillisecond,
      [&](int client) { return drivers[client]->RunMixed(nullptr); });
  EXPECT_GT(result.operations, 50u);
  // Deadlock victims that exhausted their retries surface as errors; they
  // must stay a small minority of the traffic.
  EXPECT_LT(result.errors, result.operations / 5);
  EXPECT_GT(result.Throughput(), 100.0);  // txn/s of virtual time
}

TEST_F(TpccTest, AllChQueriesExecuteBothPlanVariants) {
  query::ExecContext ctx;
  ctx.engine = cluster_->engine();
  for (int q = 1; q <= 22; ++q) {
    auto default_plan = RunChQuery(q, db_.get(), &ctx, false);
    ASSERT_TRUE(default_plan.ok())
        << "Q" << q << ": " << default_plan.status().ToString();
    auto friendly = RunChQuery(q, db_.get(), &ctx, true);
    ASSERT_TRUE(friendly.ok())
        << "Q" << q << ": " << friendly.status().ToString();
    // Both variants agree on cardinality (same logical result).
    EXPECT_EQ(default_plan->size(), friendly->size()) << "Q" << q;
  }
}

TEST(InternalWorkloadTest, OrderProcessingMaintainsBalanceInvariant) {
  ClusterOptions opts;
  opts.astore_log.ring.segment_size = 512 * kKiB;
  VedbCluster cluster(opts);
  cluster.env()->clock()->RegisterActor();
  cluster.StartBackground();

  OrderProcessingWorkload::Options wopts;
  wopts.merchants = 2;
  wopts.orders_per_txn = 3;
  wopts.order_bytes = 512;
  OrderProcessingWorkload workload(cluster.engine(), wopts, 5);
  ASSERT_TRUE(workload.Load().ok());

  Random rng(17);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(workload.RunOrderTransaction(&rng).ok());
    ASSERT_TRUE(workload.RunSingleInsert(&rng).ok());
  }
  // order_count across merchants == 3 * 20 transactions.
  engine::Table* balances = cluster.engine()->GetTable("merchant_balance");
  int64_t total_orders = 0;
  ASSERT_TRUE(balances
                  ->ScanAll([&](const engine::Row& row) {
                    total_orders += row[2].AsInt();
                    return true;
                  })
                  .ok());
  EXPECT_EQ(total_orders, 3 * 20);
  engine::Table* flow = cluster.engine()->GetTable("order_flow");
  EXPECT_EQ(flow->approximate_row_count(), 3u * 20 + 20);

  cluster.env()->clock()->UnregisterActor();
  cluster.Shutdown();
}

TEST(InternalWorkloadTest, SysbenchMixPreservesRowCount) {
  ClusterOptions opts;
  opts.astore_log.ring.segment_size = 512 * kKiB;
  VedbCluster cluster(opts);
  cluster.env()->clock()->RegisterActor();
  cluster.StartBackground();

  SysbenchWorkload::Options wopts;
  wopts.rows = 500;
  SysbenchWorkload workload(cluster.engine(), wopts, 3);
  ASSERT_TRUE(workload.Load().ok());

  Random rng(23);
  int total_queries = 0;
  for (int i = 0; i < 15; ++i) {
    int queries = 0;
    ASSERT_TRUE(workload.RunTransaction(&rng, &queries).ok());
    total_queries += queries;
  }
  EXPECT_GE(total_queries, 15 * 14);
  // Delete+reinsert keeps cardinality stable.
  EXPECT_EQ(cluster.engine()->GetTable("sbtest1")->approximate_row_count(),
            500u);
  cluster.env()->clock()->UnregisterActor();
  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb::workload
