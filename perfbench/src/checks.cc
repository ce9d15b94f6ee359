#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <tuple>

namespace perfbench {

using vedb::engine::Value;
using vedb::engine::ValueType;

namespace {

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::string RowString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

bool NumbersClose(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kAggTolerance * scale;
}

bool ValuesMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == ValueType::kString || b.type() == ValueType::kString) {
    return a.type() == b.type() && a.AsString() == b.AsString();
  }
  return NumbersClose(a.AsDouble(), b.AsDouble());
}

bool RowLess(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

// Per-district key (w, d).
using District = std::pair<int64_t, int64_t>;

}  // namespace

std::string CheckTpccConsistency(const TpccScan& scan) {
  // Condition 1: W_YTD = sum(D_YTD).
  std::map<int64_t, double> d_ytd;
  for (const Row& d : scan.district) d_ytd[d[0].AsInt()] += d[4].AsDouble();
  for (const Row& w : scan.warehouse) {
    const double want = d_ytd[w[0].AsInt()];
    if (std::fabs(w[3].AsDouble() - want) > 1e-6 * std::max(1.0, want)) {
      return Format("consistency 1: warehouse %lld has W_YTD %.4f but the "
                    "sum of its D_YTD is %.4f",
                    static_cast<long long>(w[0].AsInt()), w[3].AsDouble(),
                    want);
    }
  }

  struct Agg {
    int64_t max_o_id = 0;
    int64_t max_no = -1, min_no = -1, no_rows = 0;
    int64_t ol_cnt_sum = 0, ol_rows = 0;
  };
  std::map<District, Agg> agg;
  for (const Row& o : scan.orders) {
    Agg& a = agg[{o[0].AsInt(), o[1].AsInt()}];
    a.max_o_id = std::max(a.max_o_id, o[2].AsInt());
    a.ol_cnt_sum += o[6].AsInt();
  }
  for (const Row& no : scan.neworder) {
    Agg& a = agg[{no[0].AsInt(), no[1].AsInt()}];
    const int64_t id = no[2].AsInt();
    a.max_no = a.no_rows == 0 ? id : std::max(a.max_no, id);
    a.min_no = a.no_rows == 0 ? id : std::min(a.min_no, id);
    a.no_rows++;
  }
  for (const Row& ol : scan.orderline) {
    agg[{ol[0].AsInt(), ol[1].AsInt()}].ol_rows++;
  }
  for (const Row& d : scan.district) {
    const District key{d[0].AsInt(), d[1].AsInt()};
    const Agg& a = agg[key];
    const int64_t next = d[5].AsInt();
    const long long w = key.first, dd = key.second;
    // Condition 2 (the NEW-ORDER part applies while the district has rows).
    if (next - 1 != a.max_o_id || (a.no_rows > 0 && next - 1 != a.max_no)) {
      return Format("consistency 2: district (%lld,%lld) has D_NEXT_O_ID-1 "
                    "= %lld, max(O_ID) = %lld, max(NO_O_ID) = %lld",
                    w, dd, static_cast<long long>(next - 1),
                    static_cast<long long>(a.max_o_id),
                    static_cast<long long>(a.max_no));
    }
    // Condition 3.
    if (a.no_rows > 0 && a.max_no - a.min_no + 1 != a.no_rows) {
      return Format("consistency 3: district (%lld,%lld) has NEW-ORDER ids "
                    "%lld..%lld but %lld rows",
                    w, dd, static_cast<long long>(a.min_no),
                    static_cast<long long>(a.max_no),
                    static_cast<long long>(a.no_rows));
    }
    // Condition 4.
    if (a.ol_cnt_sum != a.ol_rows) {
      return Format("consistency 4: district (%lld,%lld) has sum(O_OL_CNT) "
                    "= %lld but %lld ORDER-LINE rows",
                    w, dd, static_cast<long long>(a.ol_cnt_sum),
                    static_cast<long long>(a.ol_rows));
    }
  }
  return "";
}

std::string CheckNewOrderCount(const TpccScan& scan, uint64_t loaded_orders,
                               uint64_t loaded_next_o_id_sum,
                               uint64_t committed_new_orders) {
  const uint64_t added = scan.orders.size() - loaded_orders;
  if (scan.orders.size() < loaded_orders || added != committed_new_orders) {
    return Format("ORDERS holds %zu rows: %llu loaded + %llu committed "
                  "NewOrders expected",
                  scan.orders.size(),
                  static_cast<unsigned long long>(loaded_orders),
                  static_cast<unsigned long long>(committed_new_orders));
  }
  uint64_t next_sum = 0;
  for (const Row& d : scan.district) next_sum += d[5].AsInt();
  if (next_sum != loaded_next_o_id_sum + committed_new_orders) {
    return Format("sum(D_NEXT_O_ID) is %llu, expected %llu + %llu",
                  static_cast<unsigned long long>(next_sum),
                  static_cast<unsigned long long>(loaded_next_o_id_sum),
                  static_cast<unsigned long long>(committed_new_orders));
  }
  return "";
}

std::string CheckSameRows(const TpccScan& before, const TpccScan& after) {
  const std::vector<std::tuple<const char*, const std::vector<Row>*,
                               const std::vector<Row>*>>
      tables = {{"WAREHOUSE", &before.warehouse, &after.warehouse},
                {"DISTRICT", &before.district, &after.district},
                {"ORDERS", &before.orders, &after.orders},
                {"NEW-ORDER", &before.neworder, &after.neworder},
                {"ORDER-LINE", &before.orderline, &after.orderline}};
  for (const auto& [name, a, b] : tables) {
    const std::string diff = CompareRowMultisets(*b, *a);
    if (!diff.empty()) return std::string(name) + " after recovery: " + diff;
  }
  return "";
}

std::string KvPayload(int64_t key, int64_t version, size_t bytes) {
  // SplitMix64 stream over (key, version), printed as lowercase letters.
  uint64_t x = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL ^
               (static_cast<uint64_t>(version) + 0x632BE59BD9B4E019ULL);
  std::string out(bytes, 'a');
  for (size_t i = 0; i < bytes; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    out[i] = static_cast<char>('a' + z % 26);
  }
  return out;
}

std::string CheckLookup(int64_t key, int64_t version,
                        const std::string& payload, int64_t committed_before,
                        int64_t possible_after, size_t payload_bytes) {
  if (version < committed_before || version > possible_after) {
    return Format("lookup of key %lld returned version %lld; committed "
                  "versions during the lookup were %lld..%lld",
                  static_cast<long long>(key), static_cast<long long>(version),
                  static_cast<long long>(committed_before),
                  static_cast<long long>(possible_after));
  }
  if (payload != KvPayload(key, version, payload_bytes)) {
    return Format("lookup of key %lld version %lld returned a wrong payload",
                  static_cast<long long>(key),
                  static_cast<long long>(version));
  }
  return "";
}

std::string CheckKvScan(const std::vector<Row>& rows,
                        const std::vector<int64_t>& committed,
                        size_t payload_bytes) {
  if (rows.size() != committed.size()) {
    return Format("final scan returned %zu rows, the model holds %zu",
                  rows.size(), committed.size());
  }
  std::vector<bool> seen(committed.size(), false);
  for (const Row& row : rows) {
    const int64_t key = row[0].AsInt();
    if (key < 0 || key >= static_cast<int64_t>(committed.size()) ||
        seen[key]) {
      return Format("final scan returned unexpected key %lld",
                    static_cast<long long>(key));
    }
    seen[key] = true;
    const std::string problem =
        CheckLookup(key, row[1].AsInt(), row[2].AsString(), committed[key],
                    committed[key], payload_bytes);
    if (!problem.empty()) return "final scan: " + problem;
  }
  return "";
}

std::string CompareRowMultisets(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) {
    return Format("%zu rows, expected %zu", got.size(), want.size());
  }
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = ValuesMatch(got[i][c], want[i][c]);
    }
    if (!same) {
      return "row " + RowString(got[i]) + ", expected " +
             RowString(want[i]);
    }
  }
  return "";
}

std::vector<Row> RecomputeQ1(const std::vector<Row>& orderline) {
  struct Acc {
    double qty = 0, amount = 0;
    int64_t n = 0;
  };
  std::map<int64_t, Acc> by_number;
  for (const Row& ol : orderline) {
    if (ol[8].AsInt() <= 0) continue;  // not delivered
    Acc& a = by_number[ol[3].AsInt()];
    a.qty += static_cast<double>(ol[6].AsInt());
    a.amount += ol[7].AsDouble();
    a.n++;
  }
  std::vector<Row> out;
  for (const auto& [number, a] : by_number) {
    const double n = static_cast<double>(a.n);
    out.push_back({Value(number), Value(a.qty), Value(a.amount),
                   Value(a.qty / n), Value(a.amount / n), Value(a.n)});
  }
  return out;
}

std::vector<Row> RecomputeQ6(const std::vector<Row>& orderline) {
  double amount = 0;
  int64_t n = 0;
  for (const Row& ol : orderline) {
    const int64_t qty = ol[6].AsInt();
    if (qty >= 2 && qty < 8 && ol[7].AsDouble() > 30.0) {
      amount += ol[7].AsDouble();
      n++;
    }
  }
  if (n == 0) return {};
  return {{Value(amount), Value(n)}};
}

}  // namespace perfbench
