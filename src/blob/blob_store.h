// Append-only replicated blob storage over simulated SSD boxes — the
// substrate veDB's original LogStore is built on (Section III of the paper).
// Every access goes through the RPC plane and pays kernel/scheduling costs,
// in contrast to AStore's one-sided RDMA path.

#ifndef VEDB_BLOB_BLOB_STORE_H_
#define VEDB_BLOB_BLOB_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::blob {

using BlobId = uint64_t;

/// A cluster of SSD data servers exposing replicated append-only blobs.
/// Thread safe.
class BlobStoreCluster {
 public:
  struct Options {
    /// Copies of each blob (the paper deploys three or six).
    int replication = 3;
  };

  /// Maximum size of one blob.
  static constexpr uint64_t kBlobCapacity = 16 * kMiB;

  /// `data_nodes` are the SSD boxes; services are registered on each.
  BlobStoreCluster(sim::SimEnvironment* env, net::RpcTransport* rpc,
                   std::vector<sim::SimNode*> data_nodes,
                   const Options& options);

  /// Allocates a new blob replicated across `replication` nodes.
  Result<BlobId> CreateBlob(sim::SimNode* client);

  /// Appends `data` to the blob on every replica; acknowledges only when all
  /// live replicas have persisted it (the paper's LogStore acks after
  /// replication). Returns the start offset of the data via `offset_out`.
  Status Append(sim::SimNode* client, BlobId id, Slice data,
                uint64_t* offset_out);

  /// Reads `len` bytes at `offset` from one live replica.
  Status Read(sim::SimNode* client, BlobId id, uint64_t offset, uint64_t len,
              std::string* out);

  /// Integrity-verifying read with failover and read-repair: tries every
  /// live replica in placement order, validates the returned length against
  /// the request *before* running `verify` (a short response is corruption,
  /// not a shorter read), and rewrites the first good copy over every
  /// replica that returned bad bytes. Returns Status::DataLoss when no
  /// replica yields a verifiable copy. `verify` may be null (length-only).
  Status ReadVerified(sim::SimNode* client, BlobId id, uint64_t offset,
                      uint64_t len, std::string* out,
                      const std::function<Status(Slice)>& verify);

  /// Corruption hook for tests/campaigns: silently flips bit `bit` of the
  /// byte at `offset` in `node_name`'s copy only. Models bit rot on one
  /// replica's SSD; no lengths or acks change.
  Status CorruptReplicaBitFlip(BlobId id, const std::string& node_name,
                               uint64_t offset, int bit = 0);

  /// Direct read of one named replica's copy (no failover, no repair).
  /// Lets tests confirm a previously-bad replica was actually rewritten.
  Status ReadReplica(sim::SimNode* client, BlobId id,
                     const std::string& node_name, uint64_t offset,
                     uint64_t len, std::string* out);

  /// Current length of the blob (client-visible committed length).
  Result<uint64_t> Length(BlobId id) const;

  /// Replica nodes of a blob (empty if unknown). Used by BlobGroup to build
  /// one scatter batch covering several chunks.
  std::vector<sim::SimNode*> ReplicasOf(BlobId id) const;

  /// Simulates a simultaneous power failure of every data node. The prefix
  /// every replica agrees on (which includes everything that was ever
  /// acknowledged to a client) survives; the tail beyond it — torn appends
  /// that reached only some replicas before the failure — comes back as
  /// garbage of undefined length. Recovery code must reject that tail by
  /// its own framing/CRC, never by trusting replica lengths.
  void Crash(uint64_t seed = 11);

  net::RpcTransport* rpc() const { return rpc_; }

  const Options& options() const { return options_; }

 private:
  struct Blob {
    std::vector<sim::SimNode*> replicas;
    uint64_t length = 0;
    // Replica contents keyed by node name, kept separately so a dead node's
    // copy can lag or be lost realistically.
    std::map<std::string, std::string> data;
  };

  Status HandleAppend(sim::SimNode* node, Slice request, std::string* response,
                      Timestamp start, Timestamp* done);
  Status HandleRead(sim::SimNode* node, Slice request, std::string* response);

  sim::SimEnvironment* env_;
  net::RpcTransport* rpc_;
  std::vector<sim::SimNode*> data_nodes_;
  Options options_;

  mutable vedb::Mutex mu_{"blob.cluster"};
  std::map<BlobId, Blob> blobs_ GUARDED_BY(mu_);
  BlobId next_blob_id_ GUARDED_BY(mu_) = 1;
  // round-robin placement cursor
  size_t next_node_ GUARDED_BY(mu_) = 0;

  // Observability (resolved once at construction).
  obs::Counter* corrupt_reads_ = nullptr;
  obs::Counter* read_repairs_ = nullptr;
};

/// BlobGroup: the storage SDK's logical container over several blobs
/// (Section III). Large appends are split into fixed-size physical I/Os
/// executed round-robin across the group's blobs in parallel; each physical
/// I/O is kIoSize bytes regardless of payload (small appends are padded,
/// which is the fixed-size-request model the paper describes).
class BlobGroup {
 public:
  /// Blobs per group and the fixed physical I/O size (Section V-A).
  static constexpr int kBlobsPerGroup = 4;
  static constexpr uint64_t kIoSize = 8 * kKiB;

  /// Creates the group's blobs up front.
  static Result<std::unique_ptr<BlobGroup>> Create(BlobStoreCluster* cluster,
                                                   sim::SimNode* client);

  /// Appends `data` to the logical stream. The payload occupies whole
  /// kIoSize chunks; returns the starting logical offset via `offset_out`.
  Status Append(Slice data, uint64_t* offset_out);

  /// Reads `len` bytes starting at a logical offset previously returned by
  /// Append (plus any in-payload displacement within the same append).
  Status Read(uint64_t offset, uint64_t len, std::string* out);

  /// Logical stream length in bytes (chunk-granular).
  uint64_t length() const {
    vedb::MutexLock lk(&mu_);
    return next_chunk_ * kIoSize;
  }

 private:
  BlobGroup(BlobStoreCluster* cluster, sim::SimNode* client,
            std::vector<BlobId> blobs)
      : cluster_(cluster), client_(client), blobs_(std::move(blobs)) {}

  BlobStoreCluster* cluster_;
  sim::SimNode* client_;
  std::vector<BlobId> blobs_;
  mutable vedb::Mutex mu_{"blob.group"};
  uint64_t next_chunk_ GUARDED_BY(mu_) = 0;
};

}  // namespace vedb::blob

#endif  // VEDB_BLOB_BLOB_STORE_H_
