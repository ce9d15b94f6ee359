// Correctness checks of the three workloads. Each is a pure function over
// rows and the benchmark's own bookkeeping, computed apart from the
// program under test, and returns "" when the check passes or a
// description of the first violation.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/types.h"

namespace perfbench {

using vedb::engine::Row;

// ---- tpcc ----

/// The TPC-C tables the consistency conditions read, as full scans.
struct TpccScan {
  std::vector<Row> warehouse, district, orders, neworder, orderline;
};

/// TPC-C consistency conditions 1-4 (spec §3.3.2.1-3.3.2.4):
///  1. W_YTD = sum(D_YTD) per warehouse;
///  2. D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) per district;
///  3. max(NO_O_ID) - min(NO_O_ID) + 1 = rows in NEW-ORDER per district;
///  4. sum(O_OL_CNT) = rows in ORDER-LINE per district.
std::string CheckTpccConsistency(const TpccScan& scan);

/// The orders added since the load equal the NewOrder commits the
/// benchmark counted: ORDERS rows = loaded + committed, and the districts'
/// D_NEXT_O_ID advanced by the same total.
std::string CheckNewOrderCount(const TpccScan& scan, uint64_t loaded_orders,
                               uint64_t loaded_next_o_id_sum,
                               uint64_t committed_new_orders);

/// Two scans hold the same rows (multiset equality per table).
std::string CheckSameRows(const TpccScan& before, const TpccScan& after);

// ---- ebp-ops ----

/// The row payload of (key, version): the benchmark's own function, so
/// every value read back can be checked.
std::string KvPayload(int64_t key, int64_t version, size_t bytes);

/// A lookup of `key` returned (version, payload). `committed_before` is the
/// model's committed version when the lookup began; `possible_after` is the
/// committed version plus updates in flight when it returned. The version
/// must lie in [committed_before, possible_after] and the payload must be
/// KvPayload(key, version).
std::string CheckLookup(int64_t key, int64_t version,
                        const std::string& payload, int64_t committed_before,
                        int64_t possible_after, size_t payload_bytes);

/// A final scan of the kv table matches the model: one row per key
/// 0..n-1, each at its committed version with the right payload.
std::string CheckKvScan(const std::vector<Row>& rows,
                        const std::vector<int64_t>& committed,
                        size_t payload_bytes);

// ---- ch-pushdown ----

/// Relative tolerance for floating-point aggregates: push-down merges
/// partial sums in another order than a local scan.
constexpr double kAggTolerance = 1e-9;

/// The two results hold the same rows as multisets; doubles match within
/// kAggTolerance (relative, floored at 1 in magnitude).
std::string CompareRowMultisets(std::vector<Row> got, std::vector<Row> want);

/// Q1 recomputed from an ORDER-LINE scan: per ol_number over delivered
/// lines, sum/avg of quantity and amount and the count.
std::vector<Row> RecomputeQ1(const std::vector<Row>& orderline);

/// Q6 recomputed from an ORDER-LINE scan: sum(amount) and count over lines
/// with 2 <= quantity < 8 and amount > 30.
std::vector<Row> RecomputeQ6(const std::vector<Row>& orderline);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
