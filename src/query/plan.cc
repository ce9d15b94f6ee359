#include "query/plan.h"

#include <algorithm>
#include <unordered_map>

#include "common/coding.h"
#include "common/cost_model.h"
#include "common/logging.h"
#include "engine/page.h"
#include "query/pushdown.h"

namespace vedb::query {

namespace {
/// Charges DBEngine CPU for `rows` of per-row work, batched to keep device
/// bookkeeping cheap.
void ChargeRows(ExecContext* ctx, uint64_t rows) {
  if (rows == 0 || ctx->engine == nullptr) return;
  ctx->engine->node()->cpu()->Access(0, rows * cost::kEngineCpuPerRow);
}
}  // namespace

void AggState::Update(const AggSpec& spec, const Row& row) {
  count++;
  if (spec.arg == nullptr) return;  // COUNT(*)
  const Value v = spec.arg->Eval(row);
  if (v.is_null()) return;
  sum += v.AsDouble();
  if (!any || v.Compare(min) < 0) min = v;
  if (!any || v.Compare(max) > 0) max = v;
  any = true;
}

void AggState::Merge(const AggState& other) {
  sum += other.sum;
  count += other.count;
  if (other.any) {
    if (!any || other.min.Compare(min) < 0) min = other.min;
    if (!any || other.max.Compare(max) > 0) max = other.max;
    any = true;
  }
}

Value AggState::Finalize(const AggSpec& spec) const {
  switch (spec.kind) {
    case AggSpec::Kind::kCount: return Value(count);
    case AggSpec::Kind::kSum: return Value(sum);
    case AggSpec::Kind::kMin: return any ? min : Value();
    case AggSpec::Kind::kMax: return any ? max : Value();
    case AggSpec::Kind::kAvg:
      return count == 0 ? Value() : Value(sum / static_cast<double>(count));
  }
  return Value();
}

void AggState::EncodeTo(std::string* out) const {
  Value(sum).EncodeTo(out);
  Value(count).EncodeTo(out);
  out->push_back(any ? 1 : 0);
  if (any) {
    min.EncodeTo(out);
    max.EncodeTo(out);
  }
}

bool AggState::DecodeFrom(Slice* in, AggState* out) {
  Value sum_v, count_v;
  if (!Value::DecodeFrom(in, &sum_v) || !Value::DecodeFrom(in, &count_v)) {
    return false;
  }
  out->sum = sum_v.AsDouble();
  out->count = count_v.AsInt();
  if (in->empty()) return false;
  out->any = (*in)[0] != 0;
  in->RemovePrefix(1);
  if (out->any) {
    if (!Value::DecodeFrom(in, &out->min) ||
        !Value::DecodeFrom(in, &out->max)) {
      return false;
    }
  }
  return true;
}

Result<std::vector<Row>> HashAggregate(const std::vector<Row>& rows,
                                       const std::vector<int>& group_cols,
                                       const std::vector<AggSpec>& aggs) {
  std::map<std::string, std::pair<Row, std::vector<AggState>>> groups;
  for (const Row& row : rows) {
    std::string key;
    Row group_vals;
    for (int c : group_cols) {
      row[c].EncodeSortable(&key);
      group_vals.push_back(row[c]);
    }
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups
               .emplace(key, std::make_pair(std::move(group_vals),
                                            std::vector<AggState>(aggs.size())))
               .first;
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      it->second.second[i].Update(aggs[i], row);
    }
  }
  std::vector<Row> out;
  out.reserve(groups.size());
  for (auto& [key, entry] : groups) {
    Row row = std::move(entry.first);
    for (size_t i = 0; i < aggs.size(); ++i) {
      row.push_back(entry.second[i].Finalize(aggs[i]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<std::vector<Row>> ScanNode::Execute(ExecContext* ctx) {
  if (ctx->enable_pushdown && ctx->pushdown != nullptr) {
    bool push;
    if (ctx->cost_based_pushdown) {
      push = CostModelPrefersPushdown(ctx);
      if (push) {
        ctx->cost_based_pushed++;
      } else {
        ctx->cost_based_kept_local++;
      }
    } else {
      // The shipped heuristic: a plain row-count threshold (Section VI-A).
      push = table_->approximate_row_count() >= ctx->pushdown_row_threshold;
    }
    if (push) {
      return ctx->pushdown->ExecuteFragment(
          ctx, table_, predicate_, group_cols_,
          has_agg_ ? aggs_ : std::vector<AggSpec>{});
    }
  }
  return ExecuteLocal(ctx);
}

bool ScanNode::CostModelPrefersPushdown(ExecContext* ctx) const {
  // Local cost: each page is a BP hit, an EBP read, or a PageStore RPC,
  // plus per-row processing on the (possibly busy) engine CPU.
  engine::BufferPool* bp = ctx->engine->buffer_pool();
  ebp::ExtendedBufferPool* ebp = ctx->engine->ebp();
  const auto pages = table_->PageList();
  const uint64_t rows = table_->approximate_row_count();
  double local = static_cast<double>(rows) * cost::kEngineCpuPerRow;
  uint64_t remote_pages = 0;
  for (engine::PageNo page_no : pages) {
    const uint64_t key = engine::PackPageKey(table_->space(), page_no);
    if (bp->IsResident(key)) {
      local += cost::kPlanBpHit;
    } else if (ebp != nullptr && ebp->Contains(key)) {
      local += cost::kPlanEbpRead;
      remote_pages++;
    } else {
      local += cost::kPlanPageStoreRead;
      remote_pages++;
    }
  }
  // Push-down cost: non-resident pages execute storage-side in parallel
  // across ~6 servers; resident pages still travel (the fragment reads the
  // storage copy), plus task dispatch overhead. Aggregated fragments return
  // tiny results; plain filters ship rows back (estimated selectivity).
  const double parallelism = 6.0;
  double pushed = cost::kPlanPushdownTask * parallelism +
                  static_cast<double>(pages.size()) * cost::kPlanPushdownPage /
                      parallelism +
                  static_cast<double>(rows) * cost::kPlanPushdownCpuPerRow /
                      parallelism;
  if (!has_agg_) {
    // Assumed filter selectivity 0.2.
    pushed += static_cast<double>(rows) * 0.2 * cost::kPlanRowTransfer;
  }
  return pushed < local;
}

Result<std::vector<Row>> ScanNode::ExecuteLocal(ExecContext* ctx) {
  // Page-at-a-time sequential scan through the buffer pool (and thus
  // through EBP/PageStore on misses).
  engine::BufferPool* bp = ctx->engine->buffer_pool();
  std::vector<Row> rows;
  uint64_t scanned = 0;
  for (engine::PageNo page_no : table_->PageList()) {
    auto frame =
        bp->Pin(engine::PackPageKey(table_->space(), page_no), false);
    if (!frame.ok()) {
      if (frame.status().IsNotFound()) continue;  // never materialized
      return frame.status();
    }
    {
      vedb::MutexLock lk(&(*frame)->mu);
      engine::Page page(&(*frame)->image);
      for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
        Slice bytes;
        if (!page.GetRow(slot, &bytes).ok()) continue;
        Row row;
        if (!DecodeRow(bytes, &row)) {
          bp->Unpin(*frame, 0);
          return Status::Corruption("bad row in scan");
        }
        scanned++;
        if (predicate_ == nullptr || predicate_->EvalBool(row)) {
          rows.push_back(std::move(row));
        }
      }
    }
    bp->Unpin(*frame, 0);
  }
  ChargeRows(ctx, scanned);
  ctx->rows_scanned += scanned;
  if (has_agg_) {
    return HashAggregate(rows, group_cols_, aggs_);
  }
  return rows;
}

Result<std::vector<Row>> FilterNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  std::vector<Row> out;
  for (Row& row : input) {
    if (predicate_->EvalBool(row)) out.push_back(std::move(row));
  }
  return out;
}

Result<std::vector<Row>> ProjectNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  std::vector<Row> out;
  out.reserve(input.size());
  for (const Row& row : input) {
    Row projected;
    projected.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) projected.push_back(e->Eval(row));
    out.push_back(std::move(projected));
  }
  return out;
}

Result<std::vector<Row>> HashJoinNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> left, left_->Execute(ctx));
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> right, right_->Execute(ctx));
  ChargeRows(ctx, left.size() + right.size());

  std::unordered_map<std::string, std::vector<const Row*>> build;
  build.reserve(right.size());
  for (const Row& row : right) {
    std::string key;
    for (int c : right_keys_) row[c].EncodeSortable(&key);
    build[key].push_back(&row);
  }
  std::vector<Row> out;
  for (const Row& lrow : left) {
    std::string key;
    for (int c : left_keys_) lrow[c].EncodeSortable(&key);
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (const Row* rrow : it->second) {
      Row joined = lrow;
      joined.insert(joined.end(), rrow->begin(), rrow->end());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

Result<std::vector<Row>> NestLoopJoinNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> left, left_->Execute(ctx));
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> right, right_->Execute(ctx));
  // The quadratic CPU bill is the point of this operator (Fig. 14's
  // plan-change baseline); charge it batched.
  const uint64_t comparisons =
      static_cast<uint64_t>(left.size()) * right.size();
  if (ctx->engine != nullptr && comparisons > 0) {
    ctx->engine->node()->cpu()->Access(0,
                                       comparisons * cost::kEngineJoinCompare);
  }
  std::vector<Row> out;
  for (const Row& lrow : left) {
    for (const Row& rrow : right) {
      Row joined = lrow;
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      if (predicate_ == nullptr || predicate_->EvalBool(joined)) {
        out.push_back(std::move(joined));
      }
    }
  }
  return out;
}

Result<std::vector<Row>> AggregateNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  return HashAggregate(input, group_cols_, aggs_);
}

Result<std::vector<Row>> SortNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  std::sort(input.begin(), input.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < cols_.size(); ++i) {
      const int c = cols_[i];
      const bool desc = i < descending_.size() && descending_[i];
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  return input;
}

Result<std::vector<Row>> LimitNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  if (input.size() > limit_) input.resize(limit_);
  return input;
}

}  // namespace vedb::query
