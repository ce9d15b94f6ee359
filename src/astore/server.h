// AStore Server (Section IV-A). Manages one node's PMem resources: the
// on-PMem layout (superblock, segment meta, io-meta, segment storage), a
// bitmap extent allocator, registration of the full PMem range with the
// RDMA NIC, heartbeats to the cluster manager, and the deferred cleaning of
// released segments that underpins the stale-route protocol (Section IV-C).
//
// The data plane never runs through this class: clients reach the PMem
// directly with one-sided RDMA. Only the control plane (alloc/release/
// rebuild) and background tasks use the server's CPU.

#ifndef VEDB_ASTORE_SERVER_H_
#define VEDB_ASTORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "astore/segment.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "pmem/pmem_device.h"
#include "sim/env.h"

namespace vedb::astore {

/// On-PMem layout constants.
struct ServerLayout {
  static constexpr uint64_t kSuperblockSize = 4 * kKiB;
  /// Maximum concurrently allocated segments (sizes the io-meta area).
  static constexpr uint32_t kMaxSegments = 1024;
  /// Per-segment metadata slot: bytes [0,24) hold the server's segment-meta
  /// (id, base, size), bytes [32,64) are the client-written io-meta area.
  static constexpr uint64_t kIoMetaSlotSize = 64;
  static constexpr uint64_t kIoMetaClientOffset = 32;
  /// Allocation granularity of the bitmap allocator.
  static constexpr uint64_t kExtentSize = 64 * kKiB;
};

class AStoreServer {
 public:
  struct Options {
    /// Total PMem capacity of this node (paper: 1TB Optane; scaled down).
    uint64_t pmem_capacity = 64 * kMiB;
    /// Platform DDIO setting. The shipped configuration is `false`
    /// (Section IV-B): RDMA READ then flushes writes to the persistence
    /// domain.
    bool ddio_enabled = false;
    /// How long a released segment lingers before its extents are reused.
    /// Must be much longer than the clients' route refresh interval.
    Duration cleaning_interval = 400 * kMillisecond;
  };

  /// Period of the background cleaning task.
  static constexpr Duration kBackgroundPeriod = 50 * kMillisecond;

  /// Creates the server on `node`, registers its PMem with the fabric and
  /// its control services ("astore.alloc", "astore.release", "astore.pull")
  /// with the RPC plane.
  AStoreServer(sim::SimEnvironment* env, net::RpcTransport* rpc,
               net::RdmaFabric* fabric, sim::SimNode* node,
               const Options& options);

  /// Starts the background cleaning task on `group`. Heartbeats are driven
  /// by the cluster manager's polling in this implementation.
  void StartBackground(sim::ActorGroup* group);

  /// Requests the background task to exit at its next tick.
  void Shutdown() { shutdown_.store(true); }

  sim::SimNode* node() { return node_; }
  pmem::PmemDevice* pmem() { return pmem_.get(); }
  net::MemoryRegionId region() const { return region_; }

  /// Free capacity in bytes (for CM placement decisions).
  uint64_t FreeCapacity() const;
  /// Number of live (allocated, not pending-clean) segments.
  size_t LiveSegmentCount() const;
  /// True if `segment` currently has storage on this server.
  bool HasSegment(SegmentId id) const;
  /// Like HasSegment but also counts pending-clean copies: the extents are
  /// still occupied until the deferred cleaner runs, so an Allocate of the
  /// same id here would fail. Placement code (CM rebuilds) uses this.
  bool HoldsSegmentStorage(SegmentId id) const;

  /// Ids of all live (not pending-clean) local segments, ascending. The
  /// scrubber walks this list; ascending order keeps its schedule — and
  /// therefore every seeded run — deterministic.
  std::vector<SegmentId> LiveSegmentIds() const;

  /// Local placement of a live segment: {data base offset, size}. Used by
  /// co-located agents (e.g. the EBP recovery scan) that read the PMem
  /// directly.
  Result<std::pair<uint64_t, uint64_t>> GetLocalSegment(SegmentId id) const;

  /// Allocates space for a segment locally (also reachable via RPC).
  /// Returns the base offset of the data area.
  Result<ReplicaLocation> Allocate(SegmentId id, uint64_t size);

  /// Marks a segment released. Space is NOT reused until the cleaning
  /// interval elapses, so clients with a stale route cannot read another
  /// segment's bytes in the meantime.
  Status Release(SegmentId id);

  /// Immediately frees everything pending (test hook; simulates the
  /// cleaning deadline passing).
  void ForceClean();

  /// The replica location of a live local segment (for re-attachment after
  /// a server restart).
  Result<ReplicaLocation> LocationOf(SegmentId id) const;

  /// Simulates an AStore server *process* crash: all in-memory state
  /// (segment table, allocator bitmap) is lost; the PMem contents survive
  /// (power stayed on). Callers typically also SetAlive(false) the node.
  void CrashProcess();

  /// Recovers the in-memory segment table and allocator from the
  /// segment-meta records persisted in PMem — the paper's future-work item
  /// "leverage PMem persistency to recover EBP [data] locally when an
  /// AStore server fails", implemented. Returns recovered segment count.
  Result<size_t> RestartFromPmem();

 private:
  struct LocalSegment {
    uint64_t base = 0;   // byte offset of data area in PMem
    uint64_t size = 0;   // data area size (extent aligned)
    uint32_t io_meta_slot = 0;
    bool pending_clean = false;
    Timestamp clean_deadline = 0;
  };

  Status HandleAlloc(Slice request, std::string* response);
  Status HandleRelease(Slice request, std::string* response);
  Status HandlePull(Slice request, std::string* response);
  void BackgroundLoop();
  void CleanExpiredLocked(Timestamp now) REQUIRES(mu_);

  // Bitmap allocator over extents; first-fit contiguous run.
  Result<uint64_t> AllocExtentsLocked(uint64_t bytes) REQUIRES(mu_);
  void FreeExtentsLocked(uint64_t base, uint64_t bytes) REQUIRES(mu_);

  sim::SimEnvironment* env_;
  net::RpcTransport* rpc_;
  net::RdmaFabric* fabric_;
  sim::SimNode* node_;
  Options options_;

  std::unique_ptr<pmem::PmemDevice> pmem_;
  net::MemoryRegionId region_;
  uint64_t storage_base_ = 0;  // start of the extent-managed area

  // Lock order: astore.server is acquired under cm.state (the CM's health
  // sweep and placement call the accessors above while holding its lock),
  // so code under astore.server must never call into the CM.
  mutable vedb::Mutex mu_{"astore.server"};
  std::vector<bool> extent_used_ GUARDED_BY(mu_);
  std::map<SegmentId, LocalSegment> segments_ GUARDED_BY(mu_);
  uint32_t next_io_meta_slot_ GUARDED_BY(mu_) = 0;

  std::atomic<bool> shutdown_{false};

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* allocs_ = nullptr;
  obs::Counter* releases_ = nullptr;
  obs::Gauge* live_segments_ = nullptr;
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_SERVER_H_
