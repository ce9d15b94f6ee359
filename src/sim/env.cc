#include "sim/env.h"

#include "common/cost_model.h"
#include "sim/lock_order.h"

namespace vedb::sim {

SimEnvironment::SimEnvironment(uint64_t seed) : seed_rng_(seed) {
  // Route vedb::Mutex acquire/release into the race detector and the
  // lock-order graph, and honor the VEDB_LOCK_ORDER environment contract.
  // Both calls are idempotent: a second SimEnvironment (common in tests
  // that build several clusters) neither resets nor re-registers anything.
  InstallMutexObserver();
  InitLockOrderFromEnv();
}

DeviceParams HardwareProfile::NvmeSsd(uint64_t seed) {
  DeviceParams p;
  p.channels = cost::kSsdChannels;
  p.base_latency = cost::kSsdBaseLatency;
  p.ns_per_byte = cost::kSsdNsPerByte;
  p.jitter_mean = cost::kSsdJitterMean;
  p.spike_probability = cost::kSsdSpikeProbability;
  p.spike_latency = cost::kSsdSpikeLatency;
  p.seed = seed;
  return p;
}

DeviceParams HardwareProfile::OptanePmem(uint64_t seed) {
  DeviceParams p;
  p.channels = cost::kPmemChannels;
  p.base_latency = cost::kPmemBaseLatency;
  p.ns_per_byte = cost::kPmemNsPerByte;
  p.jitter_mean = cost::kPmemJitterMean;
  p.spike_probability = 0.0;  // no scheduling layer in front of PMem
  p.spike_latency = 0;
  p.seed = seed;
  return p;
}

SimNode::SimNode(VirtualClock* clock, std::string name,
                 const NodeConfig& config, uint64_t seed)
    : name_(std::move(name)),
      config_(config),
      cpu_(clock, name_ + ".cpu",
           DeviceParams{.channels = config.cpu_cores,
                        .base_latency = 0,
                        .ns_per_byte = 0,
                        .jitter_mean = 0,
                        .spike_probability = 0,
                        .spike_latency = 0,
                        .seed = seed ^ 0x1}),
      nic_(clock, name_ + ".nic",
           DeviceParams{.channels = cost::kNicChannels,
                        .base_latency = cost::kNicBaseLatency,
                        .ns_per_byte = cost::kNicNsPerByte,
                        .jitter_mean = 0,
                        .spike_probability = 0,
                        .spike_latency = 0,
                        .seed = seed ^ 0x2}),
      storage_(clock, name_ + ".storage", [&] {
        DeviceParams p = config.storage;
        p.seed = seed ^ 0x3;
        return p;
      }()) {}

SimNode* SimEnvironment::AddNode(const std::string& name,
                                 const NodeConfig& config) {
  MutexLock lk(&mu_);
  VEDB_CHECK(nodes_.find(name) == nodes_.end(), "duplicate node %s",
             name.c_str());
  auto node =
      std::make_unique<SimNode>(&clock_, name, config, seed_rng_.Next());
  SimNode* ptr = node.get();
  nodes_[name] = std::move(node);
  return ptr;
}

SimNode* SimEnvironment::GetNode(const std::string& name) {
  MutexLock lk(&mu_);
  auto it = nodes_.find(name);
  VEDB_CHECK(it != nodes_.end(), "unknown node %s", name.c_str());
  return it->second.get();
}

}  // namespace vedb::sim
