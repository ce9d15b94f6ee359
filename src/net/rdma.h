// Simulated RDMA fabric. Provides the one-sided verbs (READ/WRITE) and
// chained work requests AStore's write path is built on. One-sided
// operations pay NIC and media time on the target but never touch the
// target's CPU pool — that asymmetry versus the RPC path is the core of the
// paper's performance argument.

#ifndef VEDB_NET_RDMA_H_
#define VEDB_NET_RDMA_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "pmem/pmem_device.h"
#include "sim/env.h"

namespace vedb::net {

/// Timing decomposition of one posted chain — the simulated equivalent of
/// the paper's Table 2 latency breakdown. The four component durations tile
/// [start, end] exactly: client + network + server + pmem_flush == total().
/// `queue` reports how much of that time was spent waiting for busy device
/// channels (already included in the components, never added on top).
struct ChainBreakdown {
  Timestamp start = 0;  ///< virtual time the chain was posted
  Timestamp end = 0;    ///< virtual time of the last completion
  Duration client = 0;      ///< initiator-side doorbell (MMIO) cost
  Duration network = 0;     ///< NIC processing + wire time, both directions
  Duration server = 0;      ///< target-side media time for payload WRs
  Duration pmem_flush = 0;  ///< flush READ's persistence-domain drain
  Duration queue = 0;       ///< channel queue-wait inside the above
  Duration total() const { return end - start; }
};

/// Handle to a registered memory region on some node. Obtained from
/// RdmaFabric::RegisterMemory; stable across the region's lifetime.
struct MemoryRegionId {
  uint32_t value = 0;
  bool operator<(const MemoryRegionId& o) const { return value < o.value; }
  bool operator==(const MemoryRegionId& o) const { return value == o.value; }
};

/// One work request in a (possibly chained) post.
struct RdmaWorkRequest {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kWrite;
  MemoryRegionId region;
  uint64_t offset = 0;
  /// For kWrite: bytes to place at region+offset.
  Slice write_data;
  /// For kRead: destination buffer (caller-owned, `read_len` bytes) — may be
  /// nullptr for flush-only reads that discard the payload.
  char* read_out = nullptr;
  uint64_t read_len = 0;
};

/// Incremental assembly of one chain. The doorbell coalescer builds one
/// chain per replica with many interleaved record WRs; this keeps that
/// call-site declarative. All WRs inherit the region the builder was made
/// with (one chain = one queue pair = one target node).
class ChainBuilder {
 public:
  explicit ChainBuilder(MemoryRegionId region) : region_(region) {}

  ChainBuilder& Write(uint64_t offset, Slice data) {
    RdmaWorkRequest wr;
    wr.kind = RdmaWorkRequest::Kind::kWrite;
    wr.region = region_;
    wr.offset = offset;
    wr.write_data = data;
    chain_.push_back(wr);
    return *this;
  }

  /// Flush-only READ: drains prior WRs in this chain into the target's
  /// persistence domain (DDIO off), discarding the payload.
  ChainBuilder& FlushRead(uint64_t offset) {
    RdmaWorkRequest wr;
    wr.kind = RdmaWorkRequest::Kind::kRead;
    wr.region = region_;
    wr.offset = offset;
    wr.read_len = 0;
    chain_.push_back(wr);
    return *this;
  }

  std::vector<RdmaWorkRequest> Take() { return std::move(chain_); }

 private:
  MemoryRegionId region_;
  std::vector<RdmaWorkRequest> chain_;
};

/// The cluster-wide RDMA network. Thread safe.
class RdmaFabric {
 public:
  explicit RdmaFabric(sim::SimEnvironment* env);

  /// Registers `pmem`'s full physical range on `node` with the NIC (the
  /// paper's AStore server does exactly this at startup).
  MemoryRegionId RegisterMemory(sim::SimNode* node, pmem::PmemDevice* pmem);

  /// Unregisters a region; subsequent accesses fail with InvalidArgument.
  void UnregisterMemory(MemoryRegionId id);

  /// Posts a chain of work requests from `initiator` as a single doorbell.
  /// Requests execute in order; the call blocks the calling actor until the
  /// last completion. All requests in one chain must target the same node
  /// (same queue pair), matching how AStore batches its write+write+read.
  ///
  /// An RDMA READ in the chain additionally flushes prior writes into the
  /// target PMem's persistence domain when the platform has DDIO disabled.
  ///
  /// When `breakdown` is non-null it receives the chain's Table 2-style
  /// timing decomposition.
  Status PostChain(sim::SimNode* initiator,
                   const std::vector<RdmaWorkRequest>& chain,
                   ChainBreakdown* breakdown = nullptr);

  /// Posts several independent chains (each to its own target node) in
  /// parallel and blocks until all complete — the shape of AStore's
  /// replicated write. Returns one status per chain. When `breakdowns` is
  /// non-null it is resized to one ChainBreakdown per chain.
  std::vector<Status> PostChainMulti(
      sim::SimNode* initiator,
      const std::vector<std::vector<RdmaWorkRequest>>& chains,
      std::vector<ChainBreakdown>* breakdowns = nullptr);

  /// Convenience single-op wrappers.
  Status Write(sim::SimNode* initiator, MemoryRegionId region,
               uint64_t offset, Slice data);
  Status Read(sim::SimNode* initiator, MemoryRegionId region, uint64_t offset,
              uint64_t len, char* out);

  /// Persistence-ordering check against the region's device: validates the
  /// claim that [offset, offset+len) has entered the persistence domain.
  /// Callers invoke this at the point they are about to acknowledge
  /// durability; a Corruption result means the ack would be premature.
  Status VerifyPersisted(MemoryRegionId region, uint64_t offset, uint64_t len,
                         std::string_view context);

 private:
  struct Region {
    sim::SimNode* node = nullptr;
    pmem::PmemDevice* pmem = nullptr;
  };

  /// Per-verb observability counters, resolved once at construction.
  struct VerbMetrics {
    obs::Counter* ops = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* queue_ns = nullptr;  ///< time waiting for busy channels
    obs::Counter* wire_ns = nullptr;   ///< NIC/wire/media service time
  };

  /// Validates a chain, computes its completion time (charging devices),
  /// and returns the resolved regions plus the timing breakdown. Does not
  /// block or mutate memory.
  Status PrepareChain(sim::SimNode* initiator,
                      const std::vector<RdmaWorkRequest>& chain,
                      std::vector<Region>* regions,
                      ChainBreakdown* breakdown);

  /// Records the chain's span against the global tracer (no-op when
  /// tracing is off).
  void RecordChainSpan(const ChainBreakdown& breakdown, size_t chain_len,
                       const std::string& target);

  /// Applies a chain's state changes (memcpy + persistence-domain effects).
  Status ApplyChain(const std::vector<RdmaWorkRequest>& chain,
                    const std::vector<Region>& regions);

  Result<Region> Lookup(MemoryRegionId id) const;

  sim::SimEnvironment* env_;
  VerbMetrics read_metrics_;
  VerbMetrics write_metrics_;
  mutable vedb::Mutex mu_{"net.rdma"};
  std::map<MemoryRegionId, Region> regions_ GUARDED_BY(mu_);
  uint32_t next_region_ GUARDED_BY(mu_) = 1;
};

}  // namespace vedb::net

#endif  // VEDB_NET_RDMA_H_
