// ch-pushdown: the 22 CH-benCHmark queries as push-down-friendly plans,
// run with push-down on and the EBP warm, from one client, in several passes
// over a database several times the buffer pool. The log and row locks stay
// idle. Every pass's result of every query is checked against the query run
// locally with push-down off, and Q1 and Q6 also against a recomputation
// from an ORDER-LINE scan.

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "query/pushdown.h"
#include "trace_attr.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Query passes measured per requested wall second.
constexpr double kPassesPerSecond = 2;

const std::vector<OpType>& ChOpTypes() {
  static const std::vector<OpType> kTypes = {{"ch.query", /*writes=*/false}};
  return kTypes;
}

class ChPushdownBench : public Workload {
 public:
  explicit ChPushdownBench(const WorkloadConfig& config) : config_(config) {
    scale_.warehouses = 4;
    scale_.customers_per_district = 80;
    scale_.items = 500;
    scale_.initial_orders_per_district = 40;
  }

  void Setup() override {
    vedb::workload::ClusterOptions opts = BaseClusterOptions(160 * vedb::kMiB);
    // The database (~90 pages) is several times the pool, so the warm-up
    // pass's evictions fill the EBP.
    opts.engine.buffer_pool.capacity_pages = 24;
    // The push-down runtime registers its RPC services on the storage
    // nodes, so it is built before the main thread joins the schedule.
    StartCluster(opts, [&](vedb::workload::VedbCluster* cluster) {
      std::vector<vedb::sim::SimNode*> ps_nodes;
      for (int i = 0; i < opts.pagestore_nodes; ++i) {
        ps_nodes.push_back(cluster->env()->GetNode("ps-" + std::to_string(i)));
      }
      pushdown_ = std::make_unique<vedb::query::PushdownRuntime>(
          cluster->env(), cluster->rpc(), cluster->pagestore(), ps_nodes,
          cluster->astore_servers(), vedb::query::PushdownRuntime::Options{});
      pushdown_->AttachEbp(cluster->ebp());
    });
    db_ = std::make_unique<vedb::workload::TpccDatabase>(
        cluster_->engine(), scale_, config_.seed, /*with_ch_tables=*/true);
    vedb::Status s = db_->Load();
    VEDB_CHECK(s.ok(), "ch load failed: %s", s.ToString().c_str());
    // Warm the EBP: one local pass pulls the tables through the buffer
    // pool, whose evictions fill the EBP.
    vedb::query::ExecContext ctx = Context(/*pushdown=*/false);
    for (int q = 1; q <= kChQueries; ++q) {
      auto r = vedb::workload::RunChQuery(q, db_.get(), &ctx, true);
      VEDB_CHECK(r.ok(), "warm-up Q%d failed: %s", q,
                 r.status().ToString().c_str());
    }
  }

  PassResult Run(bool trace) override {
    PassResult out;
    const std::vector<OpType>& types = ChOpTypes();
    const int passes = std::max(
        1, static_cast<int>(config_.seconds * kPassesPerSecond + 0.5));
    vedb::query::ExecContext ctx = Context(/*pushdown=*/true);
    // results[q][pass]: the rows pushed-down query q returned in each pass.
    std::vector<std::vector<std::vector<Row>>> results(kChQueries + 1);
    uint64_t issued = 0;
    vedb::sim::VirtualClock* clock = cluster_->env()->clock();

    auto op = [&](int) {
      const int q = static_cast<int>(issued++ % kChQueries) + 1;
      OpOutcome o;
      const Timestamp t0 = clock->Now();
      auto rows = vedb::workload::RunChQuery(q, db_.get(), &ctx, true);
      query_us_[q].push_back(static_cast<double>(clock->Now() - t0) / 1e3);
      o.status = rows.status();
      if (rows.ok()) results[q].push_back(std::move(*rows));
      return o;
    };

    out.notes.push_back(
        std::to_string(passes) + " passes: " +
        DescribeSize(cluster_.get(),
                     {"warehouse", "district", "customer", "history",
                      "neworder", "orders", "orderline", "item", "stock",
                      "supplier", "nation", "region"}));
    // One client, whole passes: the window ends with the last query, and
    // each pass is one segment of the wall-time median.
    WindowSpec window;
    window.measure_start = clock->Now();
    window.end = window.measure_start + 3600 * vedb::kSecond;
    window.ops_per_client = static_cast<uint64_t>(passes) * kChQueries;
    window.segment_ops = kChQueries;
    Measure(trace, types, 1, window, op, &out);

    // The data is read-only, so one local answer per query checks every
    // pass's result.
    vedb::query::ExecContext local = Context(/*pushdown=*/false);
    for (int q = 1; q <= kChQueries; ++q) {
      auto want = vedb::workload::RunChQuery(q, db_.get(), &local, true);
      if (!want.ok()) {
        out.Fail("local Q" + std::to_string(q) + " failed: " +
                 want.status().ToString());
        continue;
      }
      ExpectEveryPass(q, results[q], *want, "the local plan", &out);
    }
    std::vector<Row> orderline;
    const vedb::Status s = db_->orderline()->ScanAll([&](const Row& row) {
      orderline.push_back(row);
      return true;
    });
    if (!s.ok()) {
      out.Fail("ORDER-LINE scan failed: " + s.ToString());
      return out;
    }
    ExpectEveryPass(1, results[1], RecomputeQ1(orderline),
                    "its recomputation", &out);
    ExpectEveryPass(6, results[6], RecomputeQ6(orderline),
                    "its recomputation", &out);
    return out;
  }

 private:
  // Fails `out` for the first pass whose result of query `q` differs from
  // `want`.
  static void ExpectEveryPass(int q,
                              const std::vector<std::vector<Row>>& passes,
                              const std::vector<Row>& want,
                              const std::string& reference, PassResult* out) {
    for (size_t pass = 0; pass < passes.size(); ++pass) {
      const std::string diff = CompareRowMultisets(passes[pass], want);
      if (!diff.empty()) {
        out->Fail("Q" + std::to_string(q) + " with push-down, pass " +
                  std::to_string(pass + 1) + ", differs from " + reference +
                  ": " + diff);
        return;
      }
    }
  }

  vedb::query::ExecContext Context(bool pushdown) {
    vedb::query::ExecContext ctx;
    ctx.engine = cluster_->engine();
    ctx.pushdown = pushdown_.get();
    ctx.enable_pushdown = pushdown;
    ctx.pushdown_row_threshold = 500;
    return ctx;
  }

  WorkloadConfig config_;
  vedb::workload::TpccScale scale_;
  std::unique_ptr<vedb::query::PushdownRuntime> pushdown_;
  std::unique_ptr<vedb::workload::TpccDatabase> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeChPushdown(const WorkloadConfig& config) {
  return std::make_unique<ChPushdownBench>(config);
}

}  // namespace perfbench
