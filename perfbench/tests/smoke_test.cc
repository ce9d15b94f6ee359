// Short end-to-end runs of the benchmark binary: every workload finishes
// with no failed operation and passes its checks, traced and untraced, and
// two runs at one seed print identical virtual-time metrics.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {
namespace {

struct RunOutput {
  int exit_code = -1;
  std::string last_line;
};

RunOutput RunBenchmark(const std::string& workload, int seed, int seconds,
                       int trace) {
  const std::string cmd = std::string(PERFBENCH_BINARY) + " --workload " +
                          workload + " --seed " + std::to_string(seed) +
                          " --seconds " + std::to_string(seconds) +
                          " --trace " + std::to_string(trace);
  RunOutput out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[1 << 16];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    std::string line(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    if (!line.empty()) out.last_line = line;
  }
  const int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

// The value of `"name": {"value": X` in a result line.
double MetricValue(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\": {\"value\": ";
  const size_t pos = line.find(key);
  if (pos == std::string::npos) return -1;
  return strtod(line.c_str() + pos + key.size(), nullptr);
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmoke, PassesChecksAndRepeatsAtOneSeed) {
  const RunOutput a = RunBenchmark(GetParam(), 5, 1, 0);
  ASSERT_EQ(a.exit_code, 0);
  EXPECT_NE(a.last_line.find("\"correct\": true"), std::string::npos)
      << a.last_line;
  EXPECT_NE(a.last_line.find("\"failed\": 0,"), std::string::npos);
  EXPECT_GT(MetricValue(a.last_line, "ops_per_vsec"), 0);

  const RunOutput b = RunBenchmark(GetParam(), 5, 1, 0);
  ASSERT_EQ(b.exit_code, 0);
  for (const char* name :
       {"ops_per_vsec", "latency_mean_us", "latency_p99_us"}) {
    EXPECT_EQ(MetricValue(a.last_line, name), MetricValue(b.last_line, name))
        << name;
  }
}

TEST_P(WorkloadSmoke, TracedRunMatchesUntracedAndTilesLatency) {
  // The binary itself fails the run unless the traced pass reproduces the
  // untraced virtual-time metrics and every operation class's layers sum
  // to its mean latency.
  const RunOutput r = RunBenchmark(GetParam(), 6, 2, 1);
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.last_line.find("\"correct\": true"), std::string::npos)
      << r.last_line;
  EXPECT_NE(r.last_line.find("\"failed\": 0,"), std::string::npos);
  const std::map<std::string, std::string> op_of = {
      {"tpcc", "tpcc.write"}, {"ebp-ops", "ebp.lookup"},
      {"ch-pushdown", "ch.query"}};
  EXPECT_GT(MetricValue(r.last_line,
                        "trace." + op_of.at(GetParam()) + ".bench.self_us"),
            0);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmoke,
                         ::testing::Values("tpcc", "ebp-ops", "ch-pushdown"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace perfbench
