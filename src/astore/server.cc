#include "astore/server.h"

#include <algorithm>

#include "common/coding.h"
#include "common/cost_model.h"
#include "common/logging.h"

namespace vedb::astore {

AStoreServer::AStoreServer(sim::SimEnvironment* env, net::RpcTransport* rpc,
                           net::RdmaFabric* fabric, sim::SimNode* node,
                           const Options& options)
    : env_(env), rpc_(rpc), fabric_(fabric), node_(node), options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  allocs_ = reg.GetCounter("astore.server.allocs", {{"node", node_->name()}});
  releases_ =
      reg.GetCounter("astore.server.releases", {{"node", node_->name()}});
  live_segments_ =
      reg.GetGauge("astore.server.live_segments", {{"node", node_->name()}});
  pmem_ = std::make_unique<pmem::PmemDevice>(
      options_.pmem_capacity, options_.ddio_enabled, env_->NextSeed());
  // "The AStore Server will register the full physical address of PMem
  // devices to the RDMA NIC" (Section IV-A).
  region_ = fabric_->RegisterMemory(node_, pmem_.get());

  storage_base_ = ServerLayout::kSuperblockSize +
                  ServerLayout::kMaxSegments * ServerLayout::kIoMetaSlotSize;
  // Round up to extent alignment.
  storage_base_ =
      (storage_base_ + ServerLayout::kExtentSize - 1) /
      ServerLayout::kExtentSize * ServerLayout::kExtentSize;
  VEDB_CHECK(storage_base_ < options_.pmem_capacity,
             "PMem capacity too small for metadata areas");
  const uint64_t extents =
      (options_.pmem_capacity - storage_base_) / ServerLayout::kExtentSize;
  extent_used_.assign(extents, false);

  rpc_->RegisterService(node_, "astore.alloc",
                        [this](Slice req, std::string* resp) {
                          return HandleAlloc(req, resp);
                        });
  rpc_->RegisterService(node_, "astore.release",
                        [this](Slice req, std::string* resp) {
                          return HandleRelease(req, resp);
                        });
  rpc_->RegisterService(node_, "astore.pull",
                        [this](Slice req, std::string* resp) {
                          return HandlePull(req, resp);
                        });
}

void AStoreServer::StartBackground(sim::ActorGroup* group) {
  group->Spawn([this] { BackgroundLoop(); });
}

void AStoreServer::BackgroundLoop() {
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(kBackgroundPeriod);
    vedb::MutexLock lk(&mu_);
    CleanExpiredLocked(env_->clock()->Now());
  }
}

void AStoreServer::CleanExpiredLocked(Timestamp now) {
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second.pending_clean && it->second.clean_deadline <= now) {
      FreeExtentsLocked(it->second.base, it->second.size);
      // Invalidate the persisted segment-meta so a later RestartFromPmem
      // does not resurrect a released segment. An in-bounds local write
      // cannot fail; treat anything else as a device bug.
      const std::string zeros(24, '\0');
      Status s = pmem_->WriteLocal(ServerLayout::kSuperblockSize +
                                       it->second.io_meta_slot *
                                           ServerLayout::kIoMetaSlotSize,
                                   Slice(zeros));
      VEDB_CHECK(s.ok(), "segment-meta invalidation failed");
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
  live_segments_->Set(static_cast<int64_t>(segments_.size()));
}

uint64_t AStoreServer::FreeCapacity() const {
  vedb::MutexLock lk(&mu_);
  uint64_t free_extents = 0;
  for (bool used : extent_used_) {
    if (!used) free_extents++;
  }
  return free_extents * ServerLayout::kExtentSize;
}

size_t AStoreServer::LiveSegmentCount() const {
  vedb::MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& [id, seg] : segments_) {
    if (!seg.pending_clean) n++;
  }
  return n;
}

bool AStoreServer::HasSegment(SegmentId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = segments_.find(id);
  return it != segments_.end() && !it->second.pending_clean;
}

bool AStoreServer::HoldsSegmentStorage(SegmentId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = segments_.find(id);
  if (it == segments_.end()) return false;
  // An expired pending-clean copy no longer blocks an Allocate of the same
  // id (Allocate reclaims expired entries on entry), so it doesn't count.
  return !it->second.pending_clean ||
         it->second.clean_deadline > env_->clock()->Now();
}

std::vector<SegmentId> AStoreServer::LiveSegmentIds() const {
  vedb::MutexLock lk(&mu_);
  std::vector<SegmentId> out;
  for (const auto& [id, seg] : segments_) {
    if (!seg.pending_clean) out.push_back(id);
  }
  return out;
}

Result<std::pair<uint64_t, uint64_t>> AStoreServer::GetLocalSegment(
    SegmentId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = segments_.find(id);
  if (it == segments_.end() || it->second.pending_clean) {
    return Status::NotFound("segment not on this server");
  }
  return std::make_pair(it->second.base, it->second.size);
}

Result<uint64_t> AStoreServer::AllocExtentsLocked(uint64_t bytes) {
  const uint64_t need =
      (bytes + ServerLayout::kExtentSize - 1) / ServerLayout::kExtentSize;
  uint64_t run = 0;
  for (uint64_t i = 0; i < extent_used_.size(); ++i) {
    if (extent_used_[i]) {
      run = 0;
      continue;
    }
    run++;
    if (run == need) {
      const uint64_t first = i + 1 - need;
      for (uint64_t j = first; j <= i; ++j) extent_used_[j] = true;
      return storage_base_ + first * ServerLayout::kExtentSize;
    }
  }
  return Status::NoSpace("no contiguous PMem extents on " + node_->name());
}

void AStoreServer::FreeExtentsLocked(uint64_t base, uint64_t bytes) {
  const uint64_t first = (base - storage_base_) / ServerLayout::kExtentSize;
  const uint64_t need =
      (bytes + ServerLayout::kExtentSize - 1) / ServerLayout::kExtentSize;
  for (uint64_t j = first; j < first + need; ++j) {
    VEDB_CHECK(extent_used_[j], "double free of PMem extent");
    extent_used_[j] = false;
  }
}

Result<ReplicaLocation> AStoreServer::Allocate(SegmentId id, uint64_t size) {
  VEDB_RETURN_IF_ERROR(
      env_->faults()->MaybeFail("astore.alloc." + node_->name()));
  vedb::MutexLock lk(&mu_);
  // Opportunistically reclaim anything whose cleaning deadline has passed,
  // so allocation pressure cannot outrun the background task — and so an
  // expired stale copy of `id` itself (e.g. left behind by a crash-era
  // rebuild) does not block re-hosting the segment here.
  CleanExpiredLocked(env_->clock()->Now());
  if (segments_.count(id) != 0) {
    return Status::AlreadyExists("segment already on this server");
  }
  VEDB_ASSIGN_OR_RETURN(uint64_t base, AllocExtentsLocked(size));

  LocalSegment seg;
  seg.base = base;
  seg.size = (size + ServerLayout::kExtentSize - 1) /
             ServerLayout::kExtentSize * ServerLayout::kExtentSize;
  seg.io_meta_slot = next_io_meta_slot_++ % ServerLayout::kMaxSegments;
  segments_[id] = seg;

  // Persist the segment-meta locally (server-side code path with proper
  // flushes).
  std::string meta;
  PutFixed64(&meta, id);
  PutFixed64(&meta, base);
  PutFixed64(&meta, size);
  const uint64_t meta_off = ServerLayout::kSuperblockSize +
                            seg.io_meta_slot * ServerLayout::kIoMetaSlotSize;
  VEDB_RETURN_IF_ERROR(pmem_->WriteLocal(meta_off, Slice(meta)));
  // The RPC response is the durability ack for the segment-meta: validate
  // the persist ordering before replying.
  VEDB_RETURN_IF_ERROR(
      pmem_->CheckPersisted(meta_off, meta.size(), "astore.server.alloc_ack"));

  ReplicaLocation loc;
  loc.node = node_->name();
  loc.region = region_;
  loc.base_offset = base;
  loc.io_meta_offset = ServerLayout::kSuperblockSize +
                       seg.io_meta_slot * ServerLayout::kIoMetaSlotSize +
                       ServerLayout::kIoMetaClientOffset;
  allocs_->Add(1);
  live_segments_->Set(static_cast<int64_t>(segments_.size()));
  return loc;
}

Status AStoreServer::Release(SegmentId id) {
  vedb::MutexLock lk(&mu_);
  auto it = segments_.find(id);
  if (it == segments_.end()) return Status::NotFound("segment not here");
  if (it->second.pending_clean) return Status::OK();  // idempotent
  // Deferred clean: "The AStore Server does not handle the CM's request to
  // clean the stale segment immediately but instead periodically cleans it"
  // (Section IV-C).
  it->second.pending_clean = true;
  it->second.clean_deadline =
      env_->clock()->Now() + options_.cleaning_interval;
  releases_->Add(1);
  return Status::OK();
}

void AStoreServer::ForceClean() {
  vedb::MutexLock lk(&mu_);
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second.pending_clean) {
      FreeExtentsLocked(it->second.base, it->second.size);
      const std::string zeros(24, '\0');
      Status s = pmem_->WriteLocal(ServerLayout::kSuperblockSize +
                                       it->second.io_meta_slot *
                                           ServerLayout::kIoMetaSlotSize,
                                   Slice(zeros));
      VEDB_CHECK(s.ok(), "segment-meta invalidation failed");
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
  live_segments_->Set(static_cast<int64_t>(segments_.size()));
}

Result<ReplicaLocation> AStoreServer::LocationOf(SegmentId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = segments_.find(id);
  if (it == segments_.end() || it->second.pending_clean) {
    return Status::NotFound("segment not on this server");
  }
  ReplicaLocation loc;
  loc.node = node_->name();
  loc.region = region_;
  loc.base_offset = it->second.base;
  loc.io_meta_offset = ServerLayout::kSuperblockSize +
                       it->second.io_meta_slot *
                           ServerLayout::kIoMetaSlotSize +
                       ServerLayout::kIoMetaClientOffset;
  return loc;
}

void AStoreServer::CrashProcess() {
  vedb::MutexLock lk(&mu_);
  segments_.clear();
  std::fill(extent_used_.begin(), extent_used_.end(), false);
  next_io_meta_slot_ = 0;
}

Result<size_t> AStoreServer::RestartFromPmem() {
  // Scan the persisted segment-meta slots and rebuild the in-memory
  // segment table + allocator. The scan is local PMem I/O.
  node_->storage()->Access(ServerLayout::kMaxSegments *
                           ServerLayout::kIoMetaSlotSize);
  vedb::MutexLock lk(&mu_);
  segments_.clear();
  std::fill(extent_used_.begin(), extent_used_.end(), false);
  size_t recovered = 0;
  uint32_t max_slot = 0;
  for (uint32_t slot = 0; slot < ServerLayout::kMaxSegments; ++slot) {
    char meta[24];
    const uint64_t off = ServerLayout::kSuperblockSize +
                         slot * ServerLayout::kIoMetaSlotSize;
    if (!pmem_->Read(off, sizeof(meta), meta).ok()) continue;
    const SegmentId id = DecodeFixed64(meta);
    const uint64_t base = DecodeFixed64(meta + 8);
    const uint64_t size = DecodeFixed64(meta + 16);
    if (id == 0 || size == 0) continue;  // empty/invalidated slot
    if (base < storage_base_ || base + size > options_.pmem_capacity) {
      continue;  // garbage (e.g. from a power failure mid-write)
    }
    LocalSegment seg;
    seg.base = base;
    seg.size = (size + ServerLayout::kExtentSize - 1) /
               ServerLayout::kExtentSize * ServerLayout::kExtentSize;
    seg.io_meta_slot = slot;
    const uint64_t first = (base - storage_base_) / ServerLayout::kExtentSize;
    const uint64_t extents =
        seg.size / ServerLayout::kExtentSize;
    if (first + extents > extent_used_.size()) continue;
    bool clash = false;
    for (uint64_t e = first; e < first + extents; ++e) {
      if (extent_used_[e]) clash = true;
    }
    if (clash) continue;  // overlapping garbage: keep the first claimant
    for (uint64_t e = first; e < first + extents; ++e) {
      extent_used_[e] = true;
    }
    segments_[id] = seg;
    max_slot = std::max(max_slot, slot + 1);
    recovered++;
  }
  next_io_meta_slot_ = max_slot;
  return recovered;
}

Status AStoreServer::HandleAlloc(Slice request, std::string* response) {
  node_->cpu()->Access(0, cost::kServerControlOp);
  Slice raw;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("alloc request");
  }
  SegmentId id = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("alloc request");
  }
  uint64_t size = DecodeFixed64(raw.data());
  VEDB_ASSIGN_OR_RETURN(ReplicaLocation loc, Allocate(id, size));
  EncodeReplicaLocation(response, loc);
  return Status::OK();
}

Status AStoreServer::HandleRelease(Slice request, std::string* response) {
  node_->cpu()->Access(0, cost::kServerControlOp);
  response->clear();
  Slice raw;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("release request");
  }
  return Release(DecodeFixed64(raw.data()));
}

Status AStoreServer::HandlePull(Slice request, std::string* response) {
  // Rebuild support: copy a segment's bytes from a healthy peer into our
  // local allocation. Request: segment_id, size, source node, source base.
  Slice raw, src_node;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("pull request");
  }
  SegmentId id = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("pull request");
  }
  uint64_t size = DecodeFixed64(raw.data());
  if (!GetLengthPrefixedSlice(&request, &src_node)) {
    return Status::InvalidArgument("pull request");
  }
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("pull request");
  }
  uint64_t src_base = DecodeFixed64(raw.data());
  Slice region_raw;
  if (!GetFixedBytes(&request, 4, &region_raw)) {
    return Status::InvalidArgument("pull request");
  }
  net::MemoryRegionId src_region{DecodeFixed32(region_raw.data())};

  VEDB_ASSIGN_OR_RETURN(ReplicaLocation loc, Allocate(id, size));

  // Pull the bytes over RDMA from the source replica, then persist locally.
  std::string buf(size, '\0');
  VEDB_RETURN_IF_ERROR(
      fabric_->Read(node_, src_region, src_base, size, buf.data()));
  VEDB_RETURN_IF_ERROR(pmem_->WriteLocal(loc.base_offset, Slice(buf)));
  node_->storage()->Access(size);  // local PMem write cost

  // The pull response tells the CM this replica is durable: check it.
  VEDB_RETURN_IF_ERROR(
      pmem_->CheckPersisted(loc.base_offset, size, "astore.server.pull_ack"));

  EncodeReplicaLocation(response, loc);
  return Status::OK();
}

}  // namespace vedb::astore
