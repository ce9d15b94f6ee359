// perfbench: one benchmark for the veDB/AStore simulator.
//
//   perfbench --workload tpcc|ebp-ops|ch-pushdown --seed N --seconds S
//             --trace 0|1
//
// --trace 0 sets the cluster up three times (setup_s is the median), then
// measures the last one and checks its outputs; it prints every end-to-end
// metric. --trace 1 runs the workload twice with half the window, untraced
// and then traced, requires identical virtual-time metrics from both, and
// prints every per-layer metric. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = atof(value);
    } else if (key == "--trace") {
      args->trace = strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  return argc % 2 == 1 && args->seconds > 0 &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const Metric& m) {
  printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
}

void PrintProblems(const char* pass, const PassResult& r) {
  for (const std::string& n : r.notes) printf("note: %s\n", n.c_str());
  for (const std::string& p : r.problems) {
    printf("%s: %s\n", pass, p.c_str());
  }
}

// getrusage of this process and of its finished passes.
void PrintUsage() {
  for (const auto& [who, u] : {std::make_pair("self", Usage::Self()),
                               std::make_pair("passes", Usage::Children())}) {
    printf("rusage %s: user %.3f s, sys %.3f s, voluntary ctx switches %ld, "
           "involuntary %ld, max rss %ld KiB\n",
           who, u.user_s, u.sys_s, u.vol_ctx_switches, u.invol_ctx_switches,
           u.max_rss_kib);
  }
}

// One pass (a setup, optionally followed by a measured run) as seen by the
// parent process.
struct PassReport {
  double setup_s = 0;
  long max_rss_kib = 0;
  PassResult result;
};

// Every pass runs in a child forked from this single-threaded parent, so
// each starts from the same process state: no earlier cluster's heap
// layout or threads can leak into its timing. (The push-down runtime
// orders PageStore tasks by node address, so its virtual time does depend
// on the heap layout.) The child reports over a pipe and exits without
// tearing its cluster down.
void WriteReport(int fd, const PassReport& r) {
  std::string out;
  auto line = [&](const std::string& s) { out += s + "\n"; };
  auto clean = [](std::string s) {
    for (char& c : s) {
      if (c == '\n' || c == '\t') c = ' ';
    }
    return s;
  };
  line("setup_s\t" + Number(r.setup_s));
  line("rss_kib\t" + std::to_string(r.max_rss_kib));
  line(std::string("correct\t") + (r.result.correct ? "1" : "0"));
  line("attempted\t" + std::to_string(r.result.attempted));
  line("failed\t" + std::to_string(r.result.failed));
  line("window_wall_s\t" + Number(r.result.window_wall_s));
  for (const std::string& p : r.result.problems) line("problem\t" + clean(p));
  for (const std::string& n : r.result.notes) line("note\t" + clean(n));
  const std::pair<const char*, const std::vector<Metric>*> groups[] = {
      {"virtual", &r.result.virtual_metrics},
      {"wall", &r.result.wall_metrics},
      {"layer", &r.result.layer_metrics}};
  for (const auto& [tag, metrics] : groups) {
    for (const Metric& m : *metrics) {
      line(std::string(tag) + "\t" + m.name + "\t" + m.unit + "\t" +
           Number(m.value));
    }
  }
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = write(fd, out.data() + done, out.size() - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
}

PassReport ParseReport(const std::string& text) {
  PassReport r;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::vector<std::string> f;
    size_t a = pos;
    while (true) {
      const size_t tab = text.find('\t', a);
      if (tab == std::string::npos || tab > nl) {
        f.push_back(text.substr(a, nl - a));
        break;
      }
      f.push_back(text.substr(a, tab - a));
      a = tab + 1;
    }
    pos = nl + 1;
    const std::string& key = f[0];
    if (key == "setup_s" && f.size() == 2) {
      r.setup_s = atof(f[1].c_str());
    } else if (key == "rss_kib" && f.size() == 2) {
      r.max_rss_kib = atol(f[1].c_str());
    } else if (key == "correct" && f.size() == 2) {
      r.result.correct = f[1] == "1";
    } else if (key == "attempted" && f.size() == 2) {
      r.result.attempted = strtoull(f[1].c_str(), nullptr, 10);
    } else if (key == "failed" && f.size() == 2) {
      r.result.failed = strtoull(f[1].c_str(), nullptr, 10);
    } else if (key == "window_wall_s" && f.size() == 2) {
      r.result.window_wall_s = atof(f[1].c_str());
    } else if (key == "problem" && f.size() == 2) {
      r.result.problems.push_back(f[1]);
    } else if (key == "note" && f.size() == 2) {
      r.result.notes.push_back(f[1]);
    } else if (f.size() == 4) {
      const Metric m{f[1], strtod(f[3].c_str(), nullptr), f[2]};
      if (key == "virtual") r.result.virtual_metrics.push_back(m);
      if (key == "wall") r.result.wall_metrics.push_back(m);
      if (key == "layer") r.result.layer_metrics.push_back(m);
    }
  }
  return r;
}

// Runs one pass in a forked child: a setup, then, unless `setup_only`, the
// measured run and its checks. False if the child failed.
bool RunPass(const Args& args, const WorkloadConfig& config, bool setup_only,
             bool trace, PassReport* report) {
  fflush(stdout);
  fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Die with the parent, so that killing the benchmark stops its pass.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    PassReport r;
    auto w = MakeWorkload(args.workload, config);
    const double t0 = WallNow();
    w->Setup();
    r.setup_s = WallNow() - t0;
    if (!setup_only) r.result = w->Run(trace);
    r.max_rss_kib = Usage::Self().max_rss_kib;
    WriteReport(fds[1], r);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fprintf(stderr, "pass failed: child status %d\n", status);
    return false;
  }
  *report = ParseReport(text);
  return true;
}

int RunUntraced(const Args& args) {
  WorkloadConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  std::vector<double> setups;
  PassReport measured;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    PassReport r;
    if (!RunPass(args, config, /*setup_only=*/!last, /*trace=*/false, &r)) {
      return 1;
    }
    setups.push_back(r.setup_s);
    printf("setup %d: %.3f s\n", i + 1, r.setup_s);
    if (last) measured = r;
  }
  const PassResult& res = measured.result;
  PrintProblems("check", res);
  std::vector<Metric> metrics = res.virtual_metrics;
  metrics.insert(metrics.end(), res.wall_metrics.begin(),
                 res.wall_metrics.end());
  metrics.push_back({"setup_s", Median(setups), "s"});
  metrics.push_back(
      {"peak_rss_mib", static_cast<double>(measured.max_rss_kib) / 1024.0,
       "MiB"});
  printf("window wall time: %.3f s\n", res.window_wall_s);
  for (const Metric& m : metrics) PrintMetric(m);
  for (const Metric& m : res.layer_metrics) PrintMetric(m);
  PrintUsage();
  PrintResultLine(res.correct, res.attempted, res.failed, metrics);
  return 0;
}

int RunTraced(const Args& args) {
  WorkloadConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds / 2;
  PassReport plain_report, traced_report;
  if (!RunPass(args, config, false, /*trace=*/false, &plain_report) ||
      !RunPass(args, config, false, /*trace=*/true, &traced_report)) {
    return 1;
  }
  const PassResult& plain = plain_report.result;
  const PassResult& traced = traced_report.result;
  PrintProblems("untraced check", plain);
  PrintProblems("traced check", traced);

  bool correct = plain.correct && traced.correct;
  // Span recording never advances the virtual clock: the traced pass must
  // reproduce the untraced pass's virtual-time metrics exactly.
  bool same = plain.virtual_metrics.size() == traced.virtual_metrics.size();
  for (size_t i = 0; same && i < plain.virtual_metrics.size(); ++i) {
    same = plain.virtual_metrics[i].value == traced.virtual_metrics[i].value;
  }
  printf("virtual-time metrics, untraced | traced:\n");
  for (size_t i = 0; i < plain.virtual_metrics.size(); ++i) {
    printf("  %-40s %14.4f | %14.4f\n", plain.virtual_metrics[i].name.c_str(),
           plain.virtual_metrics[i].value,
           i < traced.virtual_metrics.size() ? traced.virtual_metrics[i].value
                                             : 0.0);
  }
  if (!same) {
    printf("traced check: virtual-time metrics differ from the untraced "
           "run\n");
    correct = false;
  }

  // The simulator's own cost comes from the untraced pass.
  std::map<std::string, double> plain_values;
  for (const Metric& m : plain.layer_metrics) plain_values[m.name] = m.value;
  std::vector<Metric> metrics = traced.layer_metrics;
  for (Metric& m : metrics) {
    if (m.name.rfind("sim.", 0) == 0) m.value = plain_values[m.name];
  }
  metrics.push_back({"trace.wall_overhead_s",
                     traced.window_wall_s - plain.window_wall_s, "s"});
  for (const Metric& m : metrics) PrintMetric(m);
  PrintUsage();
  PrintResultLine(correct, plain.attempted + traced.attempted,
                  plain.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload tpcc|ebp-ops|ch-pushdown --seed N "
            "--seconds S --trace 0|1\n",
            argv[0]);
    return 2;
  }
  const int cpu = PinToOneCpu();
  printf("workload %s, seed %llu, seconds %g, trace %d, pinned to cpu %d\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0, cpu);
  fflush(stdout);
  return args.trace ? RunTraced(args) : RunUntraced(args);
}
