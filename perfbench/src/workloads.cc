#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

void Workload::StartCluster(
    const vedb::workload::ClusterOptions& options,
    const std::function<void(vedb::workload::VedbCluster*)>& before_start) {
  vedb::obs::MetricsRegistry::Default().ResetValues();
  cluster_ = std::make_unique<vedb::workload::VedbCluster>(options);
  if (before_start) before_start(cluster_.get());
  // Register before any background actor exists: from here on every actor,
  // main included, runs in the clock's deterministic order.
  cluster_->env()->clock()->RegisterActor();
  cluster_->StartBackground();
  clients_ = std::make_unique<vedb::sim::ActorGroup>(cluster_->env()->clock());
}

void Workload::Measure(bool trace, const std::vector<OpType>& types,
                       int clients, const WindowSpec& spec,
                       const std::function<OpOutcome(int client)>& op,
                       PassResult* out) {
  StatsSnapshot before, after;
  WindowHooks hooks;
  hooks.at_measure_start = [&] {
    vedb::obs::MetricsRegistry::Default().ResetValues();
    before = StatsSnapshot::Take(cluster_.get());
  };
  hooks.at_end = [&] { after = StatsSnapshot::Take(cluster_.get()); };
  if (trace) {
    tracer_ = std::make_unique<TraceCollector>(cluster_->env()->clock(),
                                               types, clients);
  }
  const WindowSamples w = RunClients(
      cluster_->env(), clients_.get(), clients,
      static_cast<int>(types.size()), spec, op, hooks, tracer_.get());
  AddEndToEnd(w, types, out);
  AddLayerMetrics(w, types, before, after, out);
  AddQueryMetrics(query_us_, out);
  if (tracer_ != nullptr) {
    tracer_->Finish();
    AddTraceMetrics(*tracer_, out);
  }
  out->attempted = w.attempted;
  out->failed = w.failed;
  if (w.failed > 0) out->notes.push_back("first error: " + w.first_error);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"tpcc", "ebp-ops",
                                                  "ch-pushdown"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "tpcc") return MakeTpcc(config);
  if (name == "ebp-ops") return MakeEbpOps(config);
  if (name == "ch-pushdown") return MakeChPushdown(config);
  return nullptr;
}

vedb::workload::ClusterOptions BaseClusterOptions(uint64_t ebp_capacity) {
  vedb::workload::ClusterOptions opts;
  opts.seed = 2023;  // the simulated hardware; inputs come from --seed
  opts.use_astore_log = true;
  opts.enable_ebp = ebp_capacity > 0;
  opts.astore_server.pmem_capacity = 192 * vedb::kMiB;
  opts.astore_log.ring.segment_size = 1 * vedb::kMiB;
  opts.astore_log.ring.ring_size = 10;
  opts.ebp.capacity = ebp_capacity;
  opts.ebp.segment_size = 2 * vedb::kMiB;
  return opts;
}

std::string DescribeSize(vedb::workload::VedbCluster* cluster,
                         const std::vector<std::string>& tables) {
  size_t pages = 0;
  for (const std::string& name : tables) {
    pages += cluster->engine()->GetTable(name)->PageList().size();
  }
  std::string out = std::to_string(pages) + " pages in " +
                    std::to_string(tables.size()) + " table(s); buffer pool " +
                    std::to_string(cluster->engine()
                                       ->options()
                                       .buffer_pool.capacity_pages) +
                    " pages";
  if (cluster->ebp() != nullptr) {
    out += "; EBP " +
           std::to_string(cluster->ebp()->capacity() /
                          vedb::engine::Page::kPageSize) +
           " pages";
  }
  return out;
}

StatsSnapshot StatsSnapshot::Take(vedb::workload::VedbCluster* cluster) {
  StatsSnapshot s;
  s.engine = cluster->engine()->stats();
  s.bp = cluster->engine()->buffer_pool()->stats();
  if (cluster->ebp() != nullptr) s.ebp = cluster->ebp()->stats();
  return s;
}

namespace {

double PerOp(double value, uint64_t ops) {
  return ops == 0 ? 0.0 : value / static_cast<double>(ops);
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void AddEndToEnd(const WindowSamples& w, const std::vector<OpType>& types,
                 PassResult* out) {
  std::vector<uint64_t> all;
  for (const auto& samples : w.latency_ns) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  const double vsec = static_cast<double>(w.window) / 1e9;
  out->virtual_metrics.push_back(
      {"ops_per_vsec", vsec == 0 ? 0 : static_cast<double>(all.size()) / vsec,
       "1/s"});
  double sum = 0;
  for (uint64_t v : all) sum += static_cast<double>(v);
  // The mean, not the median: on ebp-ops most lookups are buffer-pool hits
  // of one fixed cost, so the median reads the same on every seed.
  out->virtual_metrics.push_back(
      {"latency_mean_us", all.empty() ? 0 : sum / all.size() / 1e3, "us"});
  out->virtual_metrics.push_back(
      {"latency_p99_us", Percentile(all, 99) / 1e3, "us"});
  out->wall_metrics.push_back(
      {"wall_us_per_op", w.MedianWallUsPerOp(), "us"});
  out->window_wall_s = w.wall_s;

  for (size_t t = 0; t < types.size(); ++t) {
    if (w.latency_ns[t].empty()) continue;
    double type_sum = 0;
    for (uint64_t v : w.latency_ns[t]) type_sum += static_cast<double>(v);
    auto& entry = out->op_mean_us[types[t].trace_name];
    entry.first =
        type_sum / static_cast<double>(w.latency_ns[t].size()) / 1e3;
    entry.second = w.latency_ns[t].size();
  }
}

void AddQueryMetrics(const std::vector<std::vector<double>>& query_us,
                     PassResult* out) {
  for (int q = 1; q <= kChQueries; ++q) {
    char name[32];
    snprintf(name, sizeof(name), "query.q%02d_vus", q);
    out->layer_metrics.push_back({name, Median(query_us[q]), "us"});
  }
}

void AddLayerMetrics(const WindowSamples& w, const std::vector<OpType>& types,
                     const StatsSnapshot& before, const StatsSnapshot& after,
                     PassResult* out) {
  const uint64_t ops = w.WindowOps();
  const uint64_t commits = after.engine.commits - before.engine.commits;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out->layer_metrics.push_back({name, value, unit});
  };

  // bench: the median operation, and the operations that commit writes.
  std::vector<uint64_t> all, writes;
  for (const auto& samples : w.latency_ns) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  add("bench.latency_p50_us", Percentile(all, 50) / 1e3, "us");
  for (size_t t = 0; t < types.size(); ++t) {
    if (!types[t].writes) continue;
    writes.insert(writes.end(), w.latency_ns[t].begin(),
                  w.latency_ns[t].end());
  }
  add("bench.write_p99_us", Percentile(writes, 99) / 1e3, "us");

  // sim: what the simulator itself spent, from getrusage.
  add("sim.vol_ctx_switches_per_op",
      PerOp(static_cast<double>(w.usage_end.vol_ctx_switches -
                                w.usage_begin.vol_ctx_switches),
            ops),
      "count");
  add("sim.user_cpu_us_per_op",
      PerOp((w.usage_end.user_s - w.usage_begin.user_s) * 1e6, ops), "us");
  add("sim.sys_cpu_us_per_op",
      PerOp((w.usage_end.sys_s - w.usage_begin.sys_s) * 1e6, ops), "us");

  // pmem.
  add("pmem.flushes_per_commit",
      PerOp(static_cast<double>(CounterSum("pmem.flushes")), commits),
      "count");
  add("pmem.write_bytes_per_commit",
      PerOp(static_cast<double>(CounterSum("pmem.write_bytes")), commits),
      "B");

  // net.
  add("net.rdma.ops_per_op",
      PerOp(static_cast<double>(CounterSum("net.rdma.ops")), ops), "count");
  add("net.rdma.queue_us_per_op",
      PerOp(Us(CounterSum("net.rdma.queue_ns")), ops), "us");
  add("net.rpc.calls_per_op",
      PerOp(static_cast<double>(CounterSum("net.rpc.calls")), ops), "count");
  add("net.rpc.p50_us", Us(HistogramSum("net.rpc.latency_ns").P50()), "us");

  // astore.
  const vedb::Histogram client_writes = HistogramSum("astore.client.write_ns");
  add("astore.client.write_p50_us", Us(client_writes.P50()), "us");
  add("astore.client.write_p99_us", Us(client_writes.P99()), "us");
  add("astore.client.read_p50_us",
      Us(HistogramSum("astore.client.read_ns").P50()), "us");
  add("astore.ring.doorbells_per_append",
      PerOp(static_cast<double>(CounterSum("ring.doorbells")),
            CounterSum("astore.ring.appends")),
      "count");
  add("astore.client.retries",
      static_cast<double>(CounterSum("astore.client.retries")), "count");

  // logstore.
  const vedb::Histogram appends = HistogramSum("logstore.append_ns");
  add("logstore.append_p50_us", Us(appends.P50()), "us");
  add("logstore.append_p99_us", Us(appends.P99()), "us");
  add("logstore.appends_per_commit",
      PerOp(static_cast<double>(CounterSum("logstore.appends")), commits),
      "count");
  add("logstore.flush_bytes_per_commit",
      PerOp(static_cast<double>(CounterSum("logstore.flush_bytes")), commits),
      "B");

  // engine.
  add("engine.aborts_per_commit",
      PerOp(static_cast<double>(after.engine.aborts - before.engine.aborts),
            commits),
      "count");
  const uint64_t bp_hits = after.bp.hits - before.bp.hits;
  const uint64_t bp_ebp = after.bp.ebp_hits - before.bp.ebp_hits;
  const uint64_t bp_ps = after.bp.pagestore_reads - before.bp.pagestore_reads;
  const uint64_t bp_created = after.bp.created - before.bp.created;
  add("engine.bp.hit_ratio",
      PerOp(static_cast<double>(bp_hits),
            bp_hits + bp_ebp + bp_ps + bp_created),
      "ratio");
  add("engine.bp.evictions_per_op",
      PerOp(static_cast<double>(after.bp.evictions - before.bp.evictions),
            ops),
      "count");
  add("engine.bp.pagestore_reads_per_op",
      PerOp(static_cast<double>(bp_ps), ops), "count");
  // The pool counts a miss served from the engine's pending EBP-put queue
  // as an EBP hit; the EBP's own hit count tells the two apart.
  const uint64_t ebp_hits = after.ebp.hits - before.ebp.hits;
  const uint64_t ebp_misses = after.ebp.misses - before.ebp.misses;
  add("engine.ebp_queue_hits_per_op",
      PerOp(static_cast<double>(bp_ebp > ebp_hits ? bp_ebp - ebp_hits : 0),
            ops),
      "count");

  // ebp.
  add("ebp.hit_ratio",
      PerOp(static_cast<double>(ebp_hits), ebp_hits + ebp_misses), "ratio");
  add("ebp.puts_per_op",
      PerOp(static_cast<double>(after.ebp.puts - before.ebp.puts), ops),
      "count");
  add("ebp.compactions",
      static_cast<double>(after.ebp.compactions - before.ebp.compactions),
      "count");

  // pagestore.
  add("pagestore.page_reads_per_op",
      PerOp(static_cast<double>(CounterSum("pagestore.page_reads")), ops),
      "count");
  add("pagestore.read_p50_us", Us(HistogramSum("pagestore.read_ns").P50()),
      "us");
}

}  // namespace perfbench
