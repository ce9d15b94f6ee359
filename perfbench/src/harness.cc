#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "trace_attr.h"

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

Usage ReadUsage(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.vol_ctx_switches = ru.ru_nvcsw;
  u.invol_ctx_switches = ru.ru_nivcsw;
  u.max_rss_kib = ru.ru_maxrss;
  return u;
}

}  // namespace

Usage Usage::Self() { return ReadUsage(RUSAGE_SELF); }

Usage Usage::Children() { return ReadUsage(RUSAGE_CHILDREN); }

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(getpid(), sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(getpid(), sizeof(one), &one) != 0) return -1;
  return cpu;
}

double Percentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t CounterSum(const std::string& name) {
  uint64_t total = 0;
  vedb::obs::MetricsRegistry::Default().VisitCounters(
      [&](const std::string& n, const vedb::obs::LabelSet&, uint64_t v) {
        if (n == name) total += v;
      });
  return total;
}

vedb::Histogram HistogramSum(const std::string& name) {
  vedb::Histogram total;
  vedb::obs::MetricsRegistry::Default().VisitHistograms(
      [&](const std::string& n, const vedb::obs::LabelSet&,
          const vedb::Histogram& h) {
        if (n == name) total.Merge(h);
      });
  return total;
}

uint64_t WindowSamples::WindowOps() const {
  uint64_t n = 0;
  for (const auto& v : latency_ns) n += v.size();
  return n;
}

double WindowSamples::MedianWallUsPerOp() const {
  std::vector<double> per_op;
  for (size_t i = 1; i < marks.size(); ++i) {
    const uint64_t ops = marks[i].second - marks[i - 1].second;
    if (ops == 0) continue;
    per_op.push_back((marks[i].first - marks[i - 1].first) * 1e6 /
                     static_cast<double>(ops));
  }
  return Median(per_op);
}

WindowSamples RunClients(vedb::sim::SimEnvironment* env,
                         vedb::sim::ActorGroup* group, int clients,
                         int op_types, const WindowSpec& spec,
                         const std::function<OpOutcome(int client)>& op,
                         const WindowHooks& hooks, TraceCollector* tracer) {
  vedb::sim::VirtualClock* clock = env->clock();
  const Timestamp measure_start = spec.measure_start;
  const Timestamp end = spec.end;
  WindowSamples out;
  out.latency_ns.resize(op_types);
  double wall_begin = 0;

  // Waiver: plain mutexes guard memory-only merges (the run token already
  // serializes actors; no clock wait happens under them).
  std::mutex merge_mu;
  std::mutex done_mu;
  vedb::sim::VirtualCondition done_cond(clock, "perfbench.clients");
  int done = 0;

  // Segment marks: the first operation to finish past a segment boundary
  // records the wall clock.
  const Duration segment_time =
      std::max<Duration>(1, (end - measure_start) / kTimeSegments);
  uint64_t window_done = 0;
  uint64_t segment = 0;
  auto finished_in_window = [&] {
    std::lock_guard<std::mutex> lk(merge_mu);
    window_done++;
    const uint64_t s = spec.segment_ops != 0
                           ? window_done / spec.segment_ops
                           : (clock->Now() - measure_start) / segment_time;
    if (s > segment) {
      segment = s;
      out.marks.emplace_back(WallNow(), window_done);
    }
  };

  group->Spawn([&] {
    clock->SleepUntil(measure_start);
    wall_begin = WallNow();
    out.marks.emplace_back(wall_begin, 0);
    out.usage_begin = Usage::Self();
    if (hooks.at_measure_start) hooks.at_measure_start();
  });
  for (int i = 0; i < clients; ++i) {
    group->Spawn([&, i] {
      std::vector<std::vector<uint64_t>> local(op_types);
      uint64_t attempted = 0, failed = 0;
      std::string error;
      while (clock->Now() < end &&
             (spec.ops_per_client == 0 || attempted < spec.ops_per_client)) {
        if (tracer != nullptr) tracer->Begin(i);
        const Timestamp begin = clock->Now();
        const OpOutcome outcome = op(i);
        const Duration latency = clock->Now() - begin;
        const bool in_window = begin >= measure_start;
        if (tracer != nullptr) {
          tracer->End(i, outcome.type, outcome.status.ok(), in_window,
                      latency);
        }
        attempted++;
        if (in_window) finished_in_window();
        if (!outcome.status.ok()) {
          failed++;
          if (error.empty()) error = outcome.status.ToString();
          continue;
        }
        if (in_window) local[outcome.type].push_back(latency);
      }
      {
        std::lock_guard<std::mutex> lk(merge_mu);
        out.attempted += attempted;
        out.failed += failed;
        if (out.first_error.empty()) out.first_error = error;
        for (int t = 0; t < op_types; ++t) {
          out.latency_ns[t].insert(out.latency_ns[t].end(), local[t].begin(),
                                   local[t].end());
        }
      }
      {
        std::lock_guard<std::mutex> lk(done_mu);
        done++;
      }
      done_cond.NotifyAll();
    });
  }
  group->Start();
  {
    std::unique_lock<std::mutex> lk(done_mu);
    done_cond.Wait(lk, [&] { return done == clients; });
  }
  out.wall_s = WallNow() - wall_begin;
  out.window = std::min(end, clock->Now()) - measure_start;
  out.usage_end = Usage::Self();
  if (hooks.at_end) hooks.at_end();
  return out;
}

}  // namespace perfbench
