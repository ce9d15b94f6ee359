#include <gtest/gtest.h>

#include <memory>

#include "query/plan.h"
#include "query/pushdown.h"
#include "workload/cluster.h"

namespace vedb::query {
namespace {

using engine::Schema;
using engine::Table;
using engine::ValueType;
using workload::ClusterOptions;
using workload::VedbCluster;

Schema SalesSchema() {
  Schema s;
  s.columns = {{"id", ValueType::kInt},
               {"region", ValueType::kInt},
               {"amount", ValueType::kDouble},
               {"tag", ValueType::kString}};
  s.pk = {0};
  return s;
}

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.enable_ebp = true;
    opts.ebp.capacity = 8 * kMiB;
    opts.astore_server.pmem_capacity = 64 * kMiB;
    opts.astore_log.ring.segment_size = 256 * kKiB;
    opts.astore_log.ring.ring_size = 4;
    opts.engine.buffer_pool.capacity_pages = 12;
    cluster_ = std::make_unique<VedbCluster>(opts);
    pushdown_ = std::make_unique<PushdownRuntime>(
        cluster_->env(), cluster_->rpc(), cluster_->pagestore(),
        std::vector<sim::SimNode*>{cluster_->env()->GetNode("ps-0"),
                                   cluster_->env()->GetNode("ps-1"),
                                   cluster_->env()->GetNode("ps-2")},
        cluster_->astore_servers(), PushdownRuntime::Options{});
    pushdown_->AttachEbp(cluster_->ebp());
    cluster_->env()->clock()->RegisterActor();
    cluster_->StartBackground();

    table_ = cluster_->engine()->CreateTable("sales", SalesSchema());
    std::vector<engine::Row> rows;
    for (int i = 0; i < kRows; ++i) {
      // Wide pad so the table spans many more pages than the buffer pool.
      rows.push_back({Value(i), Value(i % 8), Value(i * 0.5),
                      Value(std::string(150, i % 2 == 0 ? 'e' : 'o'))});
    }
    ASSERT_TRUE(table_->BulkLoad(rows).ok());
  }
  void TearDown() override {
    cluster_->env()->clock()->UnregisterActor();
    cluster_->Shutdown();
  }

  ExecContext Ctx(bool pushdown) {
    ExecContext ctx;
    ctx.engine = cluster_->engine();
    ctx.pushdown = pushdown_.get();
    ctx.enable_pushdown = pushdown;
    ctx.pushdown_row_threshold = 100;
    return ctx;
  }

  static constexpr int kRows = 4000;
  std::unique_ptr<VedbCluster> cluster_;
  std::unique_ptr<PushdownRuntime> pushdown_;
  Table* table_ = nullptr;
};

TEST_F(QueryTest, ExprEvalAndCodec) {
  // (region == 3 AND amount >= 10) encoded/decoded evaluates identically.
  ExprPtr e = Expr::And(Expr::ColCmp(1, CmpOp::kEq, Value(3)),
                        Expr::ColCmp(2, CmpOp::kGe, Value(10.0)));
  std::string bytes;
  e->EncodeTo(&bytes);
  Slice in(bytes);
  ExprPtr decoded;
  ASSERT_TRUE(Expr::DecodeFrom(&in, &decoded));
  engine::Row yes = {Value(1), Value(3), Value(10.5), Value("x")};
  engine::Row no = {Value(1), Value(4), Value(10.5), Value("x")};
  EXPECT_TRUE(decoded->EvalBool(yes));
  EXPECT_FALSE(decoded->EvalBool(no));
}

TEST_F(QueryTest, LocalScanWithFilter) {
  ExecContext ctx = Ctx(false);
  auto scan = std::make_unique<ScanNode>(
      table_, Expr::ColCmp(1, CmpOp::kEq, Value(5)));
  auto rows = scan->Execute(&ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), kRows / 8);
  for (const auto& row : *rows) EXPECT_EQ(row[1].AsInt(), 5);
}

TEST_F(QueryTest, AggregationLocalVsPushdownAgree) {
  auto make_plan = [&]() {
    auto scan = std::make_unique<ScanNode>(
        table_, Expr::ColCmp(0, CmpOp::kLt, Value(2000)));
    scan->SetAggregation({1}, {AggSpec::Count(), AggSpec::Sum(Expr::Col(2)),
                               AggSpec::Avg(Expr::Col(2))});
    return scan;
  };
  ExecContext local_ctx = Ctx(false);
  auto local = make_plan()->Execute(&local_ctx);
  ASSERT_TRUE(local.ok());

  ExecContext pq_ctx = Ctx(true);
  auto pushed = make_plan()->Execute(&pq_ctx);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_GT(pq_ctx.pushdown_tasks, 0u);

  auto sort_rows = [](std::vector<engine::Row>* rows) {
    std::sort(rows->begin(), rows->end(),
              [](const engine::Row& a, const engine::Row& b) {
                return a[0].AsInt() < b[0].AsInt();
              });
  };
  sort_rows(&*local);
  sort_rows(&*pushed);
  ASSERT_EQ(local->size(), pushed->size());
  ASSERT_EQ(local->size(), 8u);
  for (size_t i = 0; i < local->size(); ++i) {
    EXPECT_EQ((*local)[i][0].AsInt(), (*pushed)[i][0].AsInt());
    EXPECT_EQ((*local)[i][1].AsInt(), (*pushed)[i][1].AsInt());       // count
    EXPECT_NEAR((*local)[i][2].AsDouble(), (*pushed)[i][2].AsDouble(),
                1e-6);                                                // sum
    EXPECT_NEAR((*local)[i][3].AsDouble(), (*pushed)[i][3].AsDouble(),
                1e-6);                                                // avg
  }
}

TEST_F(QueryTest, PushdownFilterReturnsSameRows) {
  ExprPtr pred = Expr::ColCmp(0, CmpOp::kLt, Value(50));
  ExecContext local_ctx = Ctx(false);
  auto local = std::make_unique<ScanNode>(table_, pred)->Execute(&local_ctx);
  ASSERT_TRUE(local.ok());
  ExecContext pq_ctx = Ctx(true);
  auto pushed = std::make_unique<ScanNode>(table_, pred)->Execute(&pq_ctx);
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(local->size(), 50u);
  EXPECT_EQ(pushed->size(), 50u);
}

TEST_F(QueryTest, PushdownUsesEbpPagesWhenCached) {
  // Warm the EBP by churning the (small) buffer pool with a full scan,
  // evicting pages into the EBP; the second push-down run must source some
  // pages from AStore servers.
  ExecContext warm_ctx = Ctx(false);
  auto warm = std::make_unique<ScanNode>(table_, nullptr);
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());

  ExecContext pq_ctx = Ctx(true);
  auto scan = std::make_unique<ScanNode>(table_, nullptr);
  scan->SetAggregation({}, {AggSpec::Count()});
  auto result = scan->Execute(&pq_ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0][0].AsInt(), kRows);
  EXPECT_GT(pq_ctx.pushdown_pages_from_ebp, 0u);
}

TEST_F(QueryTest, HashJoinMatchesNestLoopJoin) {
  // Join sales with itself on region (small slices to keep NL cheap).
  auto left = [&] {
    return std::make_unique<ScanNode>(table_,
                                      Expr::ColCmp(0, CmpOp::kLt, Value(64)));
  };
  auto right = [&] {
    return std::make_unique<ScanNode>(
        table_, Expr::And(Expr::ColCmp(0, CmpOp::kGe, Value(64)),
                          Expr::ColCmp(0, CmpOp::kLt, Value(128))));
  };
  ExecContext ctx = Ctx(false);
  auto hash = HashJoinNode(left(), right(), {1}, {1}).Execute(&ctx);
  ASSERT_TRUE(hash.ok());
  auto nl = NestLoopJoinNode(
                left(), right(),
                Expr::Cmp(CmpOp::kEq, Expr::Col(1), Expr::Col(5)))
                .Execute(&ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(hash->size(), nl->size());
  EXPECT_EQ(hash->size(), 64u * 8u);  // 8 matches per region per left row
}

TEST_F(QueryTest, SortAndLimit) {
  ExecContext ctx = Ctx(false);
  auto plan = std::make_unique<LimitNode>(
      std::make_unique<SortNode>(
          std::make_unique<ScanNode>(table_, nullptr), std::vector<int>{2},
          std::vector<bool>{true}),
      3);
  auto rows = plan->Execute(&ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_DOUBLE_EQ((*rows)[0][2].AsDouble(), (kRows - 1) * 0.5);
}

TEST_F(QueryTest, ProjectComputesExpressions) {
  ExecContext ctx = Ctx(false);
  auto plan = std::make_unique<ProjectNode>(
      std::make_unique<ScanNode>(table_, Expr::ColCmp(0, CmpOp::kLt, Value(2))),
      std::vector<ExprPtr>{
          Expr::Col(0),
          Expr::Arith(ArithOp::kMul, Expr::Col(2), Expr::Const(Value(2.0)))});
  auto rows = plan->Execute(&ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_DOUBLE_EQ((*rows)[1][1].AsDouble(), 1.0);
}

}  // namespace
}  // namespace vedb::query

namespace vedb::query {
namespace {

TEST_F(QueryTest, CostBasedPushdownSkipsResidentTables) {
  // Warm the BP with the (small) head of the table... actually warm the
  // whole table into EBP+BP, then compare decisions for a cheap resident
  // probe vs a storage-heavy scan.
  ExecContext warm_ctx = Ctx(false);
  auto warm = std::make_unique<ScanNode>(table_, nullptr);
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());

  // A tiny table: always resident, cost model must keep it local.
  engine::Schema small_schema;
  small_schema.columns = {{"id", engine::ValueType::kInt},
                          {"v", engine::ValueType::kInt}};
  small_schema.pk = {0};
  engine::Table* small =
      cluster_->engine()->CreateTable("small", small_schema);
  {
    std::vector<engine::Row> rows;
    for (int i = 0; i < 50; ++i) rows.push_back({Value(i), Value(i)});
    ASSERT_TRUE(small->BulkLoad(rows).ok());
  }
  // Touch it so it is resident.
  ExecContext touch = Ctx(false);
  ASSERT_TRUE(std::make_unique<ScanNode>(small, nullptr)->Execute(&touch).ok());

  ExecContext ctx = Ctx(true);
  ctx.cost_based_pushdown = true;
  auto small_scan = std::make_unique<ScanNode>(small, nullptr);
  ASSERT_TRUE(small_scan->Execute(&ctx).ok());
  EXPECT_EQ(ctx.cost_based_pushed, 0u);
  EXPECT_EQ(ctx.cost_based_kept_local, 1u);

  // The big table with an aggregation: mostly non-resident (tiny BP), the
  // model must push it down.
  auto big_scan = std::make_unique<ScanNode>(table_, nullptr);
  big_scan->SetAggregation({}, {AggSpec::Count()});
  auto result = big_scan->Execute(&ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ctx.cost_based_pushed, 1u);
  EXPECT_EQ((*result)[0][0].AsInt(), kRows);
}

// One push-down aggregation on a freshly built cluster of the fixture's
// shape (EBP off, so one fragment runs on each PageStore node).
struct PushdownRun {
  Duration latency = 0;
  uint64_t tasks = 0;
};

PushdownRun RunOnePushdownQuery() {
  ClusterOptions opts;
  opts.astore_server.pmem_capacity = 64 * kMiB;
  opts.astore_log.ring.segment_size = 256 * kKiB;
  opts.astore_log.ring.ring_size = 4;
  opts.engine.buffer_pool.capacity_pages = 12;
  VedbCluster cluster(opts);
  sim::SimEnvironment* env = cluster.env();
  PushdownRuntime pushdown(
      env, cluster.rpc(), cluster.pagestore(),
      std::vector<sim::SimNode*>{env->GetNode("ps-0"), env->GetNode("ps-1"),
                                 env->GetNode("ps-2")},
      cluster.astore_servers(), PushdownRuntime::Options{});
  env->clock()->RegisterActor();
  cluster.StartBackground();

  Table* table = cluster.engine()->CreateTable("sales", SalesSchema());
  std::vector<engine::Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value(i), Value(i % 8), Value(i * 0.5),
                    Value(std::string(150, 'p'))});
  }
  EXPECT_TRUE(table->BulkLoad(rows).ok());
  ExecContext ctx;
  ctx.engine = cluster.engine();
  ctx.pushdown = &pushdown;
  ctx.enable_pushdown = true;
  ctx.pushdown_row_threshold = 100;
  auto scan = std::make_unique<ScanNode>(table, nullptr);
  scan->SetAggregation({1}, {AggSpec::Count(), AggSpec::Sum(Expr::Col(2))});
  PushdownRun run;
  const Timestamp start = env->clock()->Now();
  EXPECT_TRUE(scan->Execute(&ctx).ok());
  run.latency = env->clock()->Now() - start;
  run.tasks = ctx.pushdown_tasks;

  cluster.Shutdown();
  env->clock()->UnregisterActor();
  return run;
}

TEST(PushdownDeterminismTest, IdenticalClustersInOneProcessAgree) {
  // The scatter order of push-down tasks must follow node names, not heap
  // addresses: two identical clusters give the same virtual latency (the
  // second one is built in memory the first one freed).
  const PushdownRun first = RunOnePushdownQuery();
  const PushdownRun second = RunOnePushdownQuery();
  EXPECT_EQ(first.tasks, 3u);
  EXPECT_EQ(first.tasks, second.tasks);
  EXPECT_EQ(first.latency, second.latency);
}

}  // namespace
}  // namespace vedb::query
