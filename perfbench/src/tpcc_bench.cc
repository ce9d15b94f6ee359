// tpcc: the TPC-C standard mix from 16 clients over 24 warehouses, EBP off.
// Drives group commit, row locks and the REDO path (logstore -> AStore
// append ring -> RDMA -> PMem). Checked with TPC-C consistency conditions
// 1-4, the benchmark's own NewOrder count, and the same again after an
// engine crash and recovery.

#include <memory>
#include <vector>

#include "checks.h"
#include "trace_attr.h"
#include "workload/tpcc.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vedb::kMillisecond;
using vedb::workload::TpccDriver;

constexpr int kClients = 16;
// Virtual milliseconds measured per requested wall second. Fixed, so that a
// seed alone decides every virtual-time number.
constexpr double kVirtualMsPerSecond = 85;
constexpr Duration kWarmup = 100 * kMillisecond;

const std::vector<OpType>& TpccOpTypes() {
  static const std::vector<OpType> kTypes = {
      {"tpcc.write", /*writes=*/true},  // NewOrder, Payment, Delivery
      {"tpcc.read", /*writes=*/false},  // OrderStatus, StockLevel
  };
  return kTypes;
}

std::vector<Row> ScanTable(vedb::engine::DBEngine* engine, const char* name) {
  std::vector<Row> rows;
  vedb::Status s = engine->GetTable(name)->ScanAll([&](const Row& row) {
    rows.push_back(row);
    return true;
  });
  VEDB_CHECK(s.ok(), "scan of %s failed: %s", name, s.ToString().c_str());
  return rows;
}

TpccScan ScanTpcc(vedb::engine::DBEngine* engine) {
  TpccScan scan;
  scan.warehouse = ScanTable(engine, "warehouse");
  scan.district = ScanTable(engine, "district");
  scan.orders = ScanTable(engine, "orders");
  scan.neworder = ScanTable(engine, "neworder");
  scan.orderline = ScanTable(engine, "orderline");
  return scan;
}

class TpccBench : public Workload {
 public:
  explicit TpccBench(const WorkloadConfig& config) : config_(config) {
    scale_.warehouses = 24;
    scale_.customers_per_district = 30;
    scale_.items = 300;
    scale_.initial_orders_per_district = 10;
  }

  void Setup() override {
    StartCluster(BaseClusterOptions(/*ebp_capacity=*/0));
    db_ = std::make_unique<vedb::workload::TpccDatabase>(
        cluster_->engine(), scale_, config_.seed);
    const vedb::Status s = db_->Load();
    VEDB_CHECK(s.ok(), "tpcc load failed: %s", s.ToString().c_str());
  }

  PassResult Run(bool trace) override {
    PassResult out;
    const std::vector<OpType>& types = TpccOpTypes();
    std::vector<std::unique_ptr<TpccDriver>> drivers;
    for (int i = 0; i < kClients; ++i) {
      drivers.push_back(std::make_unique<TpccDriver>(
          db_.get(), config_.seed * 1000003 + static_cast<uint64_t>(i)));
    }
    std::vector<uint64_t> new_orders(kClients, 0);
    auto op = [&](int c) {
      TpccDriver::TxnType type = TpccDriver::TxnType::kNewOrder;
      OpOutcome o;
      o.status = drivers[c]->RunMixed(&type);
      const bool writes = type == TpccDriver::TxnType::kNewOrder ||
                          type == TpccDriver::TxnType::kPayment ||
                          type == TpccDriver::TxnType::kDelivery;
      o.type = writes ? 0 : 1;
      if (o.status.ok() && type == TpccDriver::TxnType::kNewOrder) {
        new_orders[c]++;
      }
      return o;
    };

    vedb::sim::VirtualClock* clock = cluster_->env()->clock();
    WindowSpec window;
    window.measure_start = clock->Now() + kWarmup;
    window.end = window.measure_start +
                 static_cast<Duration>(config_.seconds * kVirtualMsPerSecond *
                                       kMillisecond);
    const std::vector<std::string> tables = {
        "warehouse", "district", "customer", "history", "neworder",
        "orders",    "orderline", "item",    "stock"};
    out.notes.push_back("before the run: " +
                        DescribeSize(cluster_.get(), tables));
    Measure(trace, types, kClients, window, op, &out);
    out.notes.push_back("after the run: " +
                        DescribeSize(cluster_.get(), tables));

    // Checks, computed from full scans apart from the engine's own logic.
    uint64_t committed = 0;
    for (uint64_t n : new_orders) committed += n;
    const uint64_t districts = static_cast<uint64_t>(
        scale_.warehouses * scale_.districts_per_warehouse);
    const uint64_t loaded_orders =
        districts * static_cast<uint64_t>(scale_.initial_orders_per_district);
    const uint64_t loaded_next_sum =
        districts *
        static_cast<uint64_t>(scale_.initial_orders_per_district + 1);
    const TpccScan before_crash = ScanTpcc(cluster_->engine());
    out.Expect(CheckTpccConsistency(before_crash));
    out.Expect(CheckNewOrderCount(before_crash, loaded_orders,
                                  loaded_next_sum, committed));

    db_.reset();  // its table pointers die with the crashed engine
    const vedb::Status recovered =
        cluster_->CrashAndRecoverEngine([](vedb::engine::DBEngine* e) {
          vedb::workload::TpccDatabase::DeclareTables(e, false);
        });
    if (!recovered.ok()) {
      out.Fail("crash recovery failed: " + recovered.ToString());
      return out;
    }
    const TpccScan after_crash = ScanTpcc(cluster_->engine());
    out.Expect(CheckTpccConsistency(after_crash));
    out.Expect(CheckNewOrderCount(after_crash, loaded_orders, loaded_next_sum,
                                  committed));
    out.Expect(CheckSameRows(before_crash, after_crash));
    return out;
  }

 private:
  WorkloadConfig config_;
  vedb::workload::TpccScale scale_;
  std::unique_ptr<vedb::workload::TpccDatabase> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpcc(const WorkloadConfig& config) {
  return std::make_unique<TpccBench>(config);
}

}  // namespace perfbench
