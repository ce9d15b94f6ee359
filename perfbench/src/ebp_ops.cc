// ebp-ops: skewed point reads from 8 clients on a table about 20x the
// buffer pool that fits mostly in the extended buffer pool (Figure 12's
// regime). Drives the buffer-pool miss path, EBP gets and puts (clean-page
// evictions) and PageStore reads. Rows are (key, version, payload) with the
// payload a function of (key, version); a model of committed versions
// checks every lookup and a final full scan. The 10% single-row updates the
// workload is meant to carry are left out, see KvOpTypes.

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "trace_attr.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vedb::kMillisecond;
using vedb::engine::Value;
using vedb::engine::ValueType;

constexpr int kClients = 8;
constexpr double kVirtualMsPerSecond = 150;
constexpr Duration kWarmup = 100 * kMillisecond;
constexpr size_t kBufferPoolPages = 128;
constexpr size_t kPayloadBytes = 900;

// Lookups only. The workload is meant to carry 10% single-row updates, but
// with them dirty-page evictions hang the engine: DBEngine::ShipperLoop
// spins holding the clock's run token whenever an evicting client's
// EnsureShipped has the next REDO batch in flight, so virtual time stops.
const std::vector<OpType>& KvOpTypes() {
  static const std::vector<OpType> kTypes = {{"ebp.lookup", false}};
  return kTypes;
}

class EbpOpsBench : public Workload {
 public:
  explicit EbpOpsBench(const WorkloadConfig& config)
      : config_(config) {}

  void Setup() override {
    // About 17 rows fill a 16 KiB page, so the table spans ~20x the pool;
    // the EBP holds ~80% of the table's pages.
    const uint64_t table_bytes =
        static_cast<uint64_t>(rows_) / 17 * vedb::engine::Page::kPageSize;
    vedb::workload::ClusterOptions opts =
        BaseClusterOptions(table_bytes * 8 / 10);
    opts.engine.buffer_pool.capacity_pages = kBufferPoolPages;
    StartCluster(opts);

    vedb::engine::Schema schema;
    schema.columns = {{"k", ValueType::kInt},
                      {"ver", ValueType::kInt},
                      {"payload", ValueType::kString}};
    schema.pk = {0};
    table_ = cluster_->engine()->CreateTable("kv", schema);
    std::vector<Row> rows;
    rows.reserve(rows_);
    for (int64_t k = 0; k < rows_; ++k) {
      rows.push_back({Value(k), Value(int64_t{0}),
                      Value(KvPayload(k, 0, kPayloadBytes))});
    }
    vedb::Status s = table_->BulkLoad(rows);
    VEDB_CHECK(s.ok(), "kv load failed: %s", s.ToString().c_str());
    committed_.assign(rows_, 0);
    // Warm the cache hierarchy: one pass pulls every page through the pool,
    // whose evictions fill the EBP.
    s = table_->ScanAll([](const Row&) { return true; });
    VEDB_CHECK(s.ok(), "kv warm scan failed: %s", s.ToString().c_str());
  }

  PassResult Run(bool trace) override {
    PassResult out;
    const std::vector<OpType>& types = KvOpTypes();
    std::vector<vedb::Random> rngs;
    for (int i = 0; i < kClients; ++i) {
      rngs.emplace_back(config_.seed * 7919 + static_cast<uint64_t>(i));
    }
    uint64_t violations = 0;
    std::string first_violation;
    auto op = [&](int c) {
      vedb::Random& rng = rngs[c];
      const int64_t key = static_cast<int64_t>(rng.Skewed(rows_));
      OpOutcome o;
      auto row = table_->Get(nullptr, {Value(key)});
      o.status = row.status();
      if (!row.ok()) return o;
      // With no writer, the committed version is the only acceptable one.
      const std::string problem =
          CheckLookup(key, (*row)[1].AsInt(), (*row)[2].AsString(),
                      committed_[key], committed_[key], kPayloadBytes);
      if (!problem.empty() && violations++ == 0) first_violation = problem;
      return o;
    };

    vedb::sim::VirtualClock* clock = cluster_->env()->clock();
    WindowSpec window;
    window.measure_start = clock->Now() + kWarmup;
    window.end = window.measure_start +
                 static_cast<Duration>(config_.seconds * kVirtualMsPerSecond *
                                       kMillisecond);
    out.notes.push_back(std::to_string(rows_) + " rows: " +
                        DescribeSize(cluster_.get(), {"kv"}));
    Measure(trace, types, kClients, window, op, &out);

    if (violations > 0) {
      out.Fail(std::to_string(violations) +
               " lookups broke the version model, first: " + first_violation);
    }
    std::vector<Row> scan;
    const vedb::Status s = table_->ScanAll([&](const Row& row) {
      scan.push_back(row);
      return true;
    });
    if (!s.ok()) {
      out.Fail("final scan failed: " + s.ToString());
    } else {
      out.Expect(CheckKvScan(scan, committed_, kPayloadBytes));
    }
    return out;
  }

 private:
  WorkloadConfig config_;
  const int64_t rows_ = 44000;
  vedb::engine::Table* table_ = nullptr;
  // The model: the committed version of every key.
  std::vector<int64_t> committed_;
};

}  // namespace

std::unique_ptr<Workload> MakeEbpOps(const WorkloadConfig& config) {
  return std::make_unique<EbpOpsBench>(config);
}

}  // namespace perfbench
