#include "blob/blob_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "common/random.h"

namespace vedb::blob {

namespace {
// Append request wire format: blob_id, expected_offset, payload.
std::string EncodeAppend(BlobId id, uint64_t offset, Slice data) {
  std::string req;
  PutFixed64(&req, id);
  PutFixed64(&req, offset);
  PutLengthPrefixedSlice(&req, data);
  return req;
}

bool DecodeAppend(Slice in, BlobId* id, uint64_t* offset, Slice* data) {
  Slice raw;
  if (!GetFixedBytes(&in, 8, &raw)) return false;
  *id = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&in, 8, &raw)) return false;
  *offset = DecodeFixed64(raw.data());
  return GetLengthPrefixedSlice(&in, data);
}

std::string EncodeRead(BlobId id, uint64_t offset, uint64_t len) {
  std::string req;
  PutFixed64(&req, id);
  PutFixed64(&req, offset);
  PutFixed64(&req, len);
  return req;
}
}  // namespace

BlobStoreCluster::BlobStoreCluster(sim::SimEnvironment* env,
                                   net::RpcTransport* rpc,
                                   std::vector<sim::SimNode*> data_nodes,
                                   const Options& options)
    : env_(env), rpc_(rpc), data_nodes_(std::move(data_nodes)),
      options_(options) {
  VEDB_CHECK(static_cast<int>(data_nodes_.size()) >= options_.replication,
             "need at least replication-many data nodes");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  corrupt_reads_ = reg.GetCounter("blob.read.corrupt");
  read_repairs_ = reg.GetCounter("blob.read.repairs");
  for (sim::SimNode* node : data_nodes_) {
    rpc_->RegisterTimedService(
        node, "blob.append",
        [this, node](Slice req, std::string* resp, Timestamp start,
                     Timestamp* done) {
          return HandleAppend(node, req, resp, start, done);
        });
    rpc_->RegisterService(node, "blob.read",
                          [this, node](Slice req, std::string* resp) {
                            return HandleRead(node, req, resp);
                          });
  }
}

Result<BlobId> BlobStoreCluster::CreateBlob(sim::SimNode* client) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("blob.create"));
  (void)client;
  vedb::MutexLock lk(&mu_);
  BlobId id = next_blob_id_++;
  Blob& blob = blobs_[id];
  for (int i = 0; i < options_.replication; ++i) {
    sim::SimNode* node = data_nodes_[next_node_ % data_nodes_.size()];
    next_node_++;
    blob.replicas.push_back(node);
    blob.data[node->name()];  // materialize empty replica
  }
  return id;
}

Status BlobStoreCluster::HandleAppend(sim::SimNode* node, Slice request,
                                      std::string* response, Timestamp start,
                                      Timestamp* done) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("blob.append." +
                                                 node->name()));
  BlobId id;
  uint64_t offset;
  Slice data;
  if (!DecodeAppend(request, &id, &offset, &data)) {
    return Status::InvalidArgument("malformed blob append");
  }
  // The SSD persists the payload before acking.
  *done = node->storage()->SubmitAt(start, data.size());
  vedb::MutexLock lk(&mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return Status::NotFound("no such blob");
  // Subtraction form: `offset` comes off the wire, and `offset + size`
  // near UINT64_MAX would wrap past the bounds check.
  if (data.size() > kBlobCapacity ||
      offset > kBlobCapacity - data.size()) {
    return Status::NoSpace("blob full");
  }
  std::string& content = it->second.data[node->name()];
  if (content.size() < offset + data.size()) {
    content.resize(offset + data.size());
  }
  memcpy(content.data() + offset, data.data(), data.size());
  response->clear();
  return Status::OK();
}

Status BlobStoreCluster::HandleRead(sim::SimNode* node, Slice request,
                                    std::string* response) {
  Slice raw;
  Slice in = request;
  if (!GetFixedBytes(&in, 8, &raw)) return Status::InvalidArgument("read req");
  BlobId id = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&in, 8, &raw)) return Status::InvalidArgument("read req");
  uint64_t offset = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&in, 8, &raw)) return Status::InvalidArgument("read req");
  uint64_t len = DecodeFixed64(raw.data());

  // Charge the SSD read before touching state.
  node->storage()->Access(len);

  vedb::MutexLock lk(&mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return Status::NotFound("no such blob");
  const std::string& content = it->second.data[node->name()];
  if (len > content.size() || offset > content.size() - len) {
    return Status::InvalidArgument("blob read past end");
  }
  response->assign(content.data() + offset, len);
  return Status::OK();
}

Status BlobStoreCluster::Append(sim::SimNode* client, BlobId id, Slice data,
                                uint64_t* offset_out) {
  std::vector<sim::SimNode*> replicas;
  uint64_t offset;
  {
    vedb::MutexLock lk(&mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) return Status::NotFound("no such blob");
    if (it->second.length + data.size() > kBlobCapacity) {
      return Status::NoSpace("blob full");
    }
    replicas = it->second.replicas;
    offset = it->second.length;
    it->second.length += data.size();
  }

  std::string req = EncodeAppend(id, offset, data);
  auto statuses =
      rpc_->CallParallel(client, replicas, "blob.append", Slice(req),
                         /*responses=*/nullptr, /*required_acks=*/0);
  for (const Status& s : statuses) {
    VEDB_RETURN_IF_ERROR(s);
  }
  if (offset_out != nullptr) *offset_out = offset;
  return Status::OK();
}

Status BlobStoreCluster::Read(sim::SimNode* client, BlobId id, uint64_t offset,
                              uint64_t len, std::string* out) {
  sim::SimNode* target = nullptr;
  {
    vedb::MutexLock lk(&mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) return Status::NotFound("no such blob");
    for (sim::SimNode* node : it->second.replicas) {
      if (node->alive()) {
        target = node;
        break;
      }
    }
  }
  if (target == nullptr) return Status::Unavailable("no live replica");
  std::string req = EncodeRead(id, offset, len);
  return rpc_->Call(client, target, "blob.read", Slice(req), out);
}

Status BlobStoreCluster::ReadVerified(
    sim::SimNode* client, BlobId id, uint64_t offset, uint64_t len,
    std::string* out, const std::function<Status(Slice)>& verify) {
  std::vector<sim::SimNode*> replicas = ReplicasOf(id);
  if (replicas.empty()) return Status::NotFound("no such blob");
  std::string req = EncodeRead(id, offset, len);
  std::vector<sim::SimNode*> bad;
  Status last = Status::Unavailable("no live replica");
  std::string good;
  bool found = false;
  for (sim::SimNode* node : replicas) {
    if (!node->alive()) continue;
    std::string resp;
    Status s = rpc_->Call(client, node, "blob.read", Slice(req), &resp);
    if (!s.ok()) {
      last = s;
      continue;
    }
    // Length first: a short response means the replica lost bytes. Handing
    // a sliced buffer to the verifier could let a prefix whose checksum
    // happens to cover it pass as the whole record.
    if (resp.size() != len) {
      corrupt_reads_->Add(1);
      bad.push_back(node);
      last = Status::DataLoss("blob replica returned short read");
      continue;
    }
    if (verify) {
      Status v = verify(Slice(resp));
      if (!v.ok()) {
        corrupt_reads_->Add(1);
        bad.push_back(node);
        last = Status::DataLoss(v.message());
        continue;
      }
    }
    good = std::move(resp);
    found = true;
    break;
  }
  if (!found) return last;
  // Read-repair: rewrite the verified copy over every replica that served
  // bad bytes. Best-effort — the read already succeeded; a failed repair
  // leaves the replica for the next read or the scrubber.
  for (sim::SimNode* node : bad) {
    // blob.append is a timed (data-plane) service, so the rewrite must go
    // through the scatter path — a plain Call would not resolve it.
    std::string areq = EncodeAppend(id, offset, Slice(good));
    std::vector<Status> rs =
        rpc_->CallParallel(client, {node}, "blob.append", Slice(areq),
                           /*responses=*/nullptr, /*required_acks=*/0);
    if (!rs.empty() && rs[0].ok()) read_repairs_->Add(1);
  }
  *out = std::move(good);
  return Status::OK();
}

Status BlobStoreCluster::CorruptReplicaBitFlip(BlobId id,
                                               const std::string& node_name,
                                               uint64_t offset, int bit) {
  vedb::MutexLock lk(&mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return Status::NotFound("no such blob");
  auto data_it = it->second.data.find(node_name);
  if (data_it == it->second.data.end()) {
    return Status::NotFound("no such replica");
  }
  std::string& content = data_it->second;
  if (offset >= content.size()) {
    return Status::InvalidArgument("corruption offset past replica end");
  }
  content[offset] = static_cast<char>(content[offset] ^ (1u << (bit & 7)));
  return Status::OK();
}

Status BlobStoreCluster::ReadReplica(sim::SimNode* client, BlobId id,
                                     const std::string& node_name,
                                     uint64_t offset, uint64_t len,
                                     std::string* out) {
  sim::SimNode* target = nullptr;
  {
    vedb::MutexLock lk(&mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) return Status::NotFound("no such blob");
    for (sim::SimNode* node : it->second.replicas) {
      if (node->name() == node_name) {
        target = node;
        break;
      }
    }
  }
  if (target == nullptr) return Status::NotFound("no such replica");
  std::string req = EncodeRead(id, offset, len);
  return rpc_->Call(client, target, "blob.read", Slice(req), out);
}

void BlobStoreCluster::Crash(uint64_t seed) {
  Random rng(seed);
  vedb::MutexLock lk(&mu_);
  for (auto& [id, blob] : blobs_) {
    if (blob.data.empty()) continue;
    // The agreed prefix: bytes present on every replica. An acked append
    // was persisted by all replicas before the ack, so it is always inside.
    uint64_t agreed = UINT64_MAX;
    uint64_t longest = 0;
    for (const auto& [name, content] : blob.data) {
      agreed = std::min<uint64_t>(agreed, content.size());
      longest = std::max<uint64_t>(longest, content.size());
    }
    // The torn tail: every replica sees garbage of the maximal in-flight
    // length, modelling partially written SSD blocks after power loss.
    for (auto& [name, content] : blob.data) {
      content.resize(longest);
      for (uint64_t i = agreed; i < longest; ++i) {
        content[i] = static_cast<char>(rng.Next());
      }
    }
  }
}

std::vector<sim::SimNode*> BlobStoreCluster::ReplicasOf(BlobId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return {};
  return it->second.replicas;
}

Result<uint64_t> BlobStoreCluster::Length(BlobId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return Status::NotFound("no such blob");
  return it->second.length;
}

Result<std::unique_ptr<BlobGroup>> BlobGroup::Create(BlobStoreCluster* cluster,
                                                     sim::SimNode* client) {
  std::vector<BlobId> blobs;
  for (int i = 0; i < kBlobsPerGroup; ++i) {
    VEDB_ASSIGN_OR_RETURN(BlobId id, cluster->CreateBlob(client));
    blobs.push_back(id);
  }
  return std::unique_ptr<BlobGroup>(
      new BlobGroup(cluster, client, std::move(blobs)));
}

Status BlobGroup::Append(Slice data, uint64_t* offset_out) {
  if (data.empty()) return Status::InvalidArgument("empty append");
  const uint64_t io = kIoSize;
  const uint64_t nchunks = (data.size() + io - 1) / io;

  uint64_t first_chunk;
  {
    vedb::MutexLock lk(&mu_);
    first_chunk = next_chunk_;
    next_chunk_ += nchunks;
  }

  // One fixed-size physical I/O per chunk, striped round-robin over the
  // group's blobs and executed in parallel (each chunk write is itself
  // replicated by the cluster). We scatter every replica write in a single
  // batch so chunks overlap in virtual time.
  std::vector<net::RpcTransport::ScatterCall> calls;
  for (uint64_t c = 0; c < nchunks; ++c) {
    const uint64_t chunk = first_chunk + c;
    const size_t blob_idx = chunk % blobs_.size();
    const uint64_t blob_offset = (chunk / blobs_.size()) * io;

    std::string payload(io, '\0');
    const uint64_t src_off = c * io;
    const uint64_t n = std::min<uint64_t>(io, data.size() - src_off);
    memcpy(payload.data(), data.data() + src_off, n);

    // Build the replicated append by hand so all chunks share one scatter.
    std::string req;
    PutFixed64(&req, blobs_[blob_idx]);
    PutFixed64(&req, blob_offset);
    PutLengthPrefixedSlice(&req, Slice(payload));
    for (sim::SimNode* replica : cluster_->ReplicasOf(blobs_[blob_idx])) {
      calls.push_back({replica, "blob.append", req});
    }
  }
  auto statuses = cluster_->rpc()->CallScatter(client_, calls,
                                               /*responses=*/nullptr, 0);
  for (const Status& s : statuses) {
    VEDB_RETURN_IF_ERROR(s);
  }
  if (offset_out != nullptr) *offset_out = first_chunk * io;
  return Status::OK();
}

Status BlobGroup::Read(uint64_t offset, uint64_t len, std::string* out) {
  out->clear();
  const uint64_t io = kIoSize;
  uint64_t end;
  {
    vedb::MutexLock lk(&mu_);
    end = next_chunk_ * io;
  }
  if (len > end || offset > end - len) {
    return Status::InvalidArgument("read past end of blob group");
  }
  while (len > 0) {
    const uint64_t chunk = offset / io;
    const uint64_t within = offset % io;
    const uint64_t n = std::min(len, io - within);
    const size_t blob_idx = chunk % blobs_.size();
    const uint64_t blob_offset = (chunk / blobs_.size()) * io + within;
    std::string part;
    VEDB_RETURN_IF_ERROR(cluster_->Read(client_, blobs_[blob_idx], blob_offset,
                                        n, &part));
    // A short chunk response would silently shift every later chunk in the
    // assembled buffer; surface it as data loss instead.
    if (part.size() != n) {
      return Status::DataLoss("blob chunk read returned short");
    }
    out->append(part);
    offset += n;
    len -= n;
  }
  return Status::OK();
}

}  // namespace vedb::blob
