// Each correctness check of the benchmark must pass on a right answer and
// fail on a planted wrong one; the trace attribution must tile an
// operation's latency exactly.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/trace.h"
#include "trace_attr.h"

namespace perfbench {
namespace {

using vedb::engine::Value;

// Two districts of one warehouse, each with orders 1..3 (order 3 still in
// NEW-ORDER) and two lines per order.
TpccScan ConsistentScan() {
  TpccScan s;
  s.warehouse = {{Value(1), Value("w"), Value(0.1), Value(300.0)}};
  for (int d = 1; d <= 2; ++d) {
    s.district.push_back({Value(1), Value(d), Value("d"), Value(0.1),
                          Value(150.0), Value(4)});
    for (int o = 1; o <= 3; ++o) {
      s.orders.push_back({Value(1), Value(d), Value(o), Value(7),
                          Value(o * 1000), Value(o < 3 ? 1 : 0), Value(2)});
      for (int ol = 1; ol <= 2; ++ol) {
        s.orderline.push_back({Value(1), Value(d), Value(o), Value(ol),
                               Value(5), Value(1), Value(3), Value(9.5),
                               Value(o < 3 ? 1 : 0)});
      }
    }
    s.neworder.push_back({Value(1), Value(d), Value(3)});
  }
  return s;
}

TEST(TpccChecks, ConsistentDatabasePasses) {
  EXPECT_EQ(CheckTpccConsistency(ConsistentScan()), "");
  // Loaded 4 orders (2 per district, next id 3), then 2 NewOrders committed.
  EXPECT_EQ(CheckNewOrderCount(ConsistentScan(), 4, 6, 2), "");
  EXPECT_EQ(CheckSameRows(ConsistentScan(), ConsistentScan()), "");
}

TEST(TpccChecks, Condition1CatchesWarehouseYtd) {
  TpccScan s = ConsistentScan();
  s.warehouse[0][3] = Value(301.0);
  EXPECT_NE(CheckTpccConsistency(s).find("consistency 1"), std::string::npos);
}

TEST(TpccChecks, Condition2CatchesNextOrderId) {
  TpccScan s = ConsistentScan();
  s.district[1][5] = Value(5);
  EXPECT_NE(CheckTpccConsistency(s).find("consistency 2"), std::string::npos);
}

TEST(TpccChecks, Condition3CatchesNewOrderGap) {
  TpccScan s = ConsistentScan();
  s.neworder.push_back({Value(1), Value(1), Value(1)});  // ids 1 and 3
  EXPECT_NE(CheckTpccConsistency(s).find("consistency 3"), std::string::npos);
}

TEST(TpccChecks, Condition4CatchesMissingOrderLine) {
  TpccScan s = ConsistentScan();
  s.orderline.pop_back();
  EXPECT_NE(CheckTpccConsistency(s).find("consistency 4"), std::string::npos);
}

TEST(TpccChecks, NewOrderCountCatchesDroppedOrder) {
  TpccScan s = ConsistentScan();
  s.orders.pop_back();  // the NewOrder committed, its order row is gone
  EXPECT_NE(CheckNewOrderCount(s, 4, 6, 2), "");
  EXPECT_NE(CheckNewOrderCount(ConsistentScan(), 4, 6, 3), "");
}

TEST(TpccChecks, RecoveryComparisonCatchesChangedRow) {
  TpccScan after = ConsistentScan();
  after.district[0][4] = Value(151.0);
  EXPECT_NE(CheckSameRows(ConsistentScan(), after), "");
}

TEST(KvChecks, LookupWithinCommittedVersionsPasses) {
  EXPECT_EQ(CheckLookup(7, 3, KvPayload(7, 3, 40), 3, 3, 40), "");
  // A version committed while the lookup ran is acceptable too.
  EXPECT_EQ(CheckLookup(7, 4, KvPayload(7, 4, 40), 3, 4, 40), "");
}

TEST(KvChecks, LookupCatchesModelOffByOneVersion) {
  EXPECT_NE(CheckLookup(7, 2, KvPayload(7, 2, 40), 3, 3, 40), "");
  EXPECT_NE(CheckLookup(7, 4, KvPayload(7, 4, 40), 3, 3, 40), "");
}

TEST(KvChecks, LookupCatchesWrongPayload) {
  std::string payload = KvPayload(7, 3, 40);
  payload[5] = payload[5] == 'a' ? 'b' : 'a';
  EXPECT_NE(CheckLookup(7, 3, payload, 3, 3, 40), "");
  EXPECT_NE(CheckLookup(7, 3, KvPayload(8, 3, 40), 3, 3, 40), "");
}

TEST(KvChecks, FinalScanMatchesModel) {
  const std::vector<int64_t> committed = {0, 2, 1};
  std::vector<Row> rows;
  for (int64_t k = 0; k < 3; ++k) {
    rows.push_back(
        {Value(k), Value(committed[k]), Value(KvPayload(k, committed[k], 16))});
  }
  EXPECT_EQ(CheckKvScan(rows, committed, 16), "");

  std::vector<Row> stale = rows;
  stale[1] = {Value(int64_t{1}), Value(int64_t{1}),
              Value(KvPayload(1, 1, 16))};
  EXPECT_NE(CheckKvScan(stale, committed, 16), "");
  std::vector<Row> missing(rows.begin(), rows.end() - 1);
  EXPECT_NE(CheckKvScan(missing, committed, 16), "");
  std::vector<Row> duplicate = rows;
  duplicate[2] = rows[1];
  EXPECT_NE(CheckKvScan(duplicate, committed, 16), "");
}

TEST(QueryChecks, MultisetIgnoresOrderAndRoundingWithinTolerance) {
  const std::vector<Row> want = {{Value(1), Value(10.0), Value(int64_t{2})},
                                 {Value(2), Value(0.1 + 0.2), Value(int64_t{1})}};
  const std::vector<Row> got = {{Value(2), Value(0.3), Value(int64_t{1})},
                                {Value(1), Value(10.0), Value(int64_t{2})}};
  EXPECT_EQ(CompareRowMultisets(got, want), "");
}

TEST(QueryChecks, MultisetCatchesPerturbedAggregate) {
  const std::vector<Row> want = {{Value(1), Value(1000.0)}};
  EXPECT_NE(CompareRowMultisets({{Value(1), Value(1000.001)}}, want), "");
  EXPECT_NE(CompareRowMultisets({}, want), "");
  EXPECT_NE(CompareRowMultisets({{Value(1), Value(1000.0)},
                                 {Value(1), Value(1000.0)}},
                                want),
            "");
}

TEST(QueryChecks, RecomputesQ1AndQ6) {
  // (ol_number, quantity, amount, delivered)
  const int spec[][4] = {{1, 2, 40, 1}, {1, 8, 50, 1}, {2, 5, 20, 0},
                         {2, 7, 35, 1}, {1, 4, 31, 0}};
  std::vector<Row> orderline;
  for (const auto& s : spec) {
    orderline.push_back({Value(1), Value(1), Value(1), Value(s[0]), Value(9),
                         Value(1), Value(s[1]), Value(static_cast<double>(s[2])),
                         Value(s[3])});
  }
  const std::vector<Row> q1 = {
      {Value(1), Value(10.0), Value(90.0), Value(5.0), Value(45.0),
       Value(int64_t{2})},
      {Value(2), Value(7.0), Value(35.0), Value(7.0), Value(35.0),
       Value(int64_t{1})}};
  EXPECT_EQ(CompareRowMultisets(RecomputeQ1(orderline), q1), "");
  // Quantity in [2, 8) and amount > 30: lines 1, 4 and 5 (8 is excluded).
  EXPECT_EQ(CompareRowMultisets(RecomputeQ6(orderline),
                                {{Value(106.0), Value(int64_t{3})}}),
            "");
}

vedb::obs::Span MakeSpan(uint64_t id, uint64_t parent, const std::string& name,
                         vedb::Timestamp start, vedb::Timestamp end) {
  vedb::obs::Span s;
  s.trace_id = 1;
  s.id = id;
  s.parent_id = parent;
  s.name = name;
  s.start = start;
  s.end = end;
  return s;
}

TEST(TraceAttribution, LayersTileTheRootExactly) {
  const std::vector<vedb::obs::Span> spans = {
      MakeSpan(1, 0, "bench.op", 0, 100),
      MakeSpan(2, 1, "logstore.append", 10, 60),
      MakeSpan(3, 2, "astore.client.write", 20, 50),
      MakeSpan(4, 3, "breakdown.client", 20, 25),
      MakeSpan(5, 3, "breakdown.network", 25, 35),
      MakeSpan(6, 3, "breakdown.server", 35, 40),
      MakeSpan(7, 3, "breakdown.pmem_flush", 40, 50),
      // Overlapping siblings and a child that outlives its parent.
      MakeSpan(8, 1, "rpc.call", 70, 90),
      MakeSpan(9, 1, "rpc.call", 80, 95),
      MakeSpan(10, 8, "rdma.chain", 85, 120),
      // Unknown names inherit their parent's layer.
      MakeSpan(11, 2, "something.else", 52, 58),
  };
  const std::map<std::string, vedb::Duration> got =
      AttributeSelfTime(spans, 1);
  vedb::Duration total = 0;
  for (const auto& [layer, ns] : got) total += ns;
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(got.at("astore.client"), 5u);
  EXPECT_EQ(got.at("net.rdma"), 10u + 5u);  // network + rdma [85,90)
  EXPECT_EQ(got.at("astore.server"), 5u);
  EXPECT_EQ(got.at("pmem"), 10u);
  EXPECT_EQ(got.at("logstore"), 10u + 10u);  // [10,20) + [50,60)
  EXPECT_EQ(got.at("net.rpc"), 10u + 5u + 5u);  // [70,85) + [90,95)
  EXPECT_EQ(got.at("bench"), 10u + 10u + 5u);   // [0,10) + [60,70) + [95,100)
}

TEST(TraceAttribution, LayerNames) {
  EXPECT_EQ(LayerOfSpan("bench.op"), "bench");
  EXPECT_EQ(LayerOfSpan("astore.client.read"), "astore.client");
  EXPECT_EQ(LayerOfSpan("topic.produce"), "");
  EXPECT_EQ(TraceLayers().size(), 7u);
}

}  // namespace
}  // namespace perfbench
