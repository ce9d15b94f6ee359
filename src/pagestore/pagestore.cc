#include "pagestore/pagestore.h"

#include <algorithm>

#include "common/coding.h"
#include "common/cost_model.h"
#include "common/logging.h"

namespace vedb::pagestore {

PageStoreCluster::PageStoreCluster(sim::SimEnvironment* env,
                                   net::RpcTransport* rpc,
                                   std::vector<sim::SimNode*> nodes,
                                   ApplyFn apply, const Options& options)
    : env_(env),
      rpc_(rpc),
      nodes_(std::move(nodes)),
      apply_(std::move(apply)),
      options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  ship_batches_ = reg.GetCounter("pagestore.ship_batches");
  ship_records_ = reg.GetCounter("pagestore.ship_records");
  applied_metric_ = reg.GetCounter("pagestore.applied_records");
  gossip_metric_ = reg.GetCounter("pagestore.gossip_fills");
  page_reads_ = reg.GetCounter("pagestore.page_reads");
  read_ns_ = reg.GetHistogram("pagestore.read_ns");
  VEDB_CHECK(static_cast<int>(nodes_.size()) >= options_.replication,
             "need at least replication-many PageStore nodes");
  VEDB_CHECK(options_.write_quorum <= options_.replication, "quorum too big");

  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    for (int r = 0; r < options_.replication; ++r) {
      sim::SimNode* node = nodes_[(s + r) % nodes_.size()];
      auto rep = std::make_unique<ShardReplica>();
      rep->node = node;
      shard->nodes.push_back(node);
      shard->replicas.push_back(std::move(rep));
    }
    shards_.push_back(std::move(shard));
  }

  // Register per-(node, shard-replica) services. Service names carry the
  // shard & replica index so one node can host several shards.
  for (int s = 0; s < options_.num_shards; ++s) {
    for (int r = 0; r < options_.replication; ++r) {
      sim::SimNode* node = shards_[s]->nodes[r];
      const std::string suffix =
          "." + std::to_string(s) + "." + std::to_string(r);
      rpc_->RegisterTimedService(
          node, "ps.ship" + suffix,
          [this, s, r](Slice req, std::string* resp, Timestamp start,
                       Timestamp* done) {
            return HandleShip(s, r, req, resp, start, done);
          });
      rpc_->RegisterService(node, "ps.read_page" + suffix,
                            [this, s, r](Slice req, std::string* resp) {
                              return HandleReadPage(s, r, req, resp);
                            });
      rpc_->RegisterService(node, "ps.fetch" + suffix,
                            [this, s, r](Slice req, std::string* resp) {
                              return HandleFetch(s, r, req, resp);
                            });
    }
  }
}

int PageStoreCluster::ShardOf(PageKey key) const {
  // Fibonacci hash spreads sequential page numbers evenly.
  return static_cast<int>(((key * 0x9E3779B97F4A7C15ULL) >> 32) & 0x7FFFFFFF) %
         options_.num_shards;
}

const std::vector<sim::SimNode*>& PageStoreCluster::ReplicaNodes(
    int shard) const {
  return shards_[shard]->nodes;
}

void PageStoreCluster::InsertRecordsLocked(
    ShardReplica* rep,
    const std::vector<std::pair<uint64_t, StoredRecord>>& records) {
  for (const auto& [seq, rec] : records) {
    rep->records[seq] = rec;
    rep->max_seen_seq = std::max(rep->max_seen_seq, seq);
  }
  // Dense chain: advance over every present successor.
  while (rep->records.count(rep->contiguous_seq + 1) != 0) {
    rep->contiguous_seq++;
  }
}

uint64_t PageStoreCluster::ApplyContiguousLocked(ShardReplica* rep) {
  // NOTE: must not block on the clock (caller holds rep->mu); the CPU cost
  // of the applied records is charged by the caller after unlocking.
  uint64_t applied = 0;
  while (rep->applied_seq < rep->contiguous_seq) {
    auto it = rep->records.find(rep->applied_seq + 1);
    if (it == rep->records.end()) {
      // Truncated below: the record was already applied and GCed.
      rep->applied_seq++;
      continue;
    }
    PageImage& img = rep->pages[it->second.page_key];
    apply_(it->second.page_key, Slice(it->second.payload), it->second.lsn,
           &img.bytes);
    if (it->second.lsn > img.lsn) img.lsn = it->second.lsn;
    rep->applied_lsn = std::max(rep->applied_lsn, it->second.lsn);
    rep->applied_seq++;
    applied++;
  }
  applied_records_.fetch_add(applied);
  applied_metric_->Add(applied);
  return applied;
}

Status PageStoreCluster::HandleShip(int shard, int replica_idx, Slice request,
                                    std::string* response, Timestamp start,
                                    Timestamp* done) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("ps.ship"));
  ShardReplica* rep = shards_[shard]->replicas[replica_idx].get();

  Slice raw;
  if (!GetFixedBytes(&request, 4, &raw)) {
    return Status::InvalidArgument("ship batch");
  }
  const uint32_t count = DecodeFixed32(raw.data());
  std::vector<std::pair<uint64_t, StoredRecord>> records;
  records.reserve(count);
  uint64_t total_bytes = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("ship batch");
    }
    const uint64_t seq = DecodeFixed64(raw.data());
    StoredRecord rec;
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("ship batch");
    }
    rec.lsn = DecodeFixed64(raw.data());
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("ship batch");
    }
    rec.page_key = DecodeFixed64(raw.data());
    Slice payload;
    if (!GetLengthPrefixedSlice(&request, &payload)) {
      return Status::InvalidArgument("ship batch");
    }
    rec.payload = payload.ToString();
    total_bytes += payload.size();
    records.emplace_back(seq, std::move(rec));
  }

  // Records are persisted (SSD) before acking.
  *done = rep->node->storage()->SubmitAt(
      start, total_bytes + cost::kPageStoreMetaBytesPerRecord * count);
  {
    vedb::MutexLock lk(&rep->mu);
    InsertRecordsLocked(rep, records);
  }
  response->clear();
  return Status::OK();
}

Status PageStoreCluster::ShipRecords(
    sim::SimNode* client, const std::vector<RedoShipRecord>& records) {
  if (records.empty()) return Status::OK();

  // Group by shard and stamp chain sequence numbers under the shard's ship
  // lock so the per-shard chain stays dense and in ship order.
  struct ShardBatch {
    std::string request;  // encoded incrementally
    uint32_t count = 0;
    uint64_t max_lsn = 0;
  };
  std::map<int, ShardBatch> batches;
  for (const auto& rec : records) {
    const int s = ShardOf(rec.page_key);
    ShardBatch& batch = batches[s];
    uint64_t seq;
    {
      Shard* shard = shards_[s].get();
      vedb::MutexLock lk(&shard->ship_mu);
      seq = shard->next_seq++;
      shard->last_shipped_lsn = std::max(shard->last_shipped_lsn, rec.lsn);
    }
    PutFixed64(&batch.request, seq);
    PutFixed64(&batch.request, rec.lsn);
    PutFixed64(&batch.request, rec.page_key);
    PutLengthPrefixedSlice(&batch.request, Slice(rec.payload));
    batch.count++;
    batch.max_lsn = std::max(batch.max_lsn, rec.lsn);
  }

  // One scatter covering every (shard, replica) pair; we wait for all calls
  // but tolerate per-replica failures as long as each shard has a quorum.
  std::vector<net::RpcTransport::ScatterCall> calls;
  std::vector<int> call_shard;
  for (auto& [s, batch] : batches) {
    std::string req;
    PutFixed32(&req, batch.count);
    req += batch.request;
    for (int r = 0; r < options_.replication; ++r) {
      calls.push_back({shards_[s]->nodes[r],
                       "ps.ship." + std::to_string(s) + "." +
                           std::to_string(r),
                       req});
      call_shard.push_back(s);
    }
  }
  auto statuses = rpc_->CallScatter(client, calls, nullptr, /*acks=*/0);

  std::map<int, int> acks;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) acks[call_shard[i]]++;
  }
  for (auto& [s, batch] : batches) {
    if (acks[s] < options_.write_quorum) {
      return Status::Unavailable("PageStore shard " + std::to_string(s) +
                                 " lost its quorum");
    }
    uint64_t prev = shards_[s]->acked_lsn.load();
    while (prev < batch.max_lsn &&
           !shards_[s]->acked_lsn.compare_exchange_weak(prev,
                                                        batch.max_lsn)) {
    }
  }
  ship_batches_->Add(1);
  ship_records_->Add(records.size());
  return Status::OK();
}

Status PageStoreCluster::HandleReadPage(int shard, int replica_idx,
                                        Slice request, std::string* response) {
  ShardReplica* rep = shards_[shard]->replicas[replica_idx].get();
  Slice raw;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("read_page");
  }
  const PageKey key = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("read_page");
  }
  const uint64_t min_lsn = DecodeFixed64(raw.data());

  // If this replica cannot reach the required LSN from what it already
  // holds, try one synchronous gossip catch-up before giving up.
  bool need_gossip;
  {
    vedb::MutexLock lk(&rep->mu);
    uint64_t reachable_lsn = rep->applied_lsn;
    for (auto it = rep->records.upper_bound(rep->applied_seq);
         it != rep->records.end() && it->first <= rep->contiguous_seq; ++it) {
      reachable_lsn = std::max(reachable_lsn, it->second.lsn);
    }
    need_gossip = reachable_lsn < min_lsn;
  }
  if (need_gossip) {
    GossipCatchUp(shard, replica_idx);
  }

  // Page read I/O from local media.
  rep->node->storage()->Access(cost::kPageReadBytes);
  uint64_t applied;
  Status result;
  {
    vedb::MutexLock lk(&rep->mu);
    applied = ApplyContiguousLocked(rep);
    if (rep->applied_lsn < min_lsn) {
      result = Status::Stale("replica behind requested LSN");
    } else {
      auto it = rep->pages.find(key);
      if (it == rep->pages.end()) {
        result = Status::NotFound("no such page");
      } else {
        PutFixed64(response, it->second.lsn);
        response->append(it->second.bytes);
        result = Status::OK();
      }
    }
  }
  if (applied > 0) {
    rep->node->cpu()->Access(0, applied * cost::kPageStoreApplyPerRecord);
  }
  return result;
}

Status PageStoreCluster::ReadPage(sim::SimNode* client, PageKey key,
                                  std::string* image, uint64_t* image_lsn) {
  const Timestamp begin = env_->clock()->Now();
  const int s = ShardOf(key);
  Shard* shard = shards_[s].get();
  const uint64_t min_lsn = shard->acked_lsn.load();

  std::string req;
  PutFixed64(&req, key);
  PutFixed64(&req, min_lsn);

  Status last = Status::Unavailable("no replicas");
  for (int r = 0; r < options_.replication; ++r) {
    sim::SimNode* node = shard->nodes[r];
    if (!node->alive()) continue;
    std::string resp;
    const std::string service =
        "ps.read_page." + std::to_string(s) + "." + std::to_string(r);
    last = rpc_->Call(client, node, service, Slice(req), &resp);
    if (last.ok()) {
      if (resp.size() < 8) return Status::Corruption("bad page response");
      if (image_lsn != nullptr) *image_lsn = DecodeFixed64(resp.data());
      image->assign(resp.data() + 8, resp.size() - 8);
      page_reads_->Add(1);
      read_ns_->Observe(env_->clock()->Now() - begin);
      return Status::OK();
    }
    if (last.IsNotFound()) return last;  // authoritative miss
  }
  return last;
}

Status PageStoreCluster::HandleFetch(int shard, int replica_idx,
                                     Slice request, std::string* response) {
  ShardReplica* rep = shards_[shard]->replicas[replica_idx].get();
  Slice raw;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("fetch");
  }
  const uint64_t after = DecodeFixed64(raw.data());

  uint32_t count = 0;
  std::string body;
  {
    vedb::MutexLock lk(&rep->mu);
    for (auto it = rep->records.upper_bound(after); it != rep->records.end();
         ++it) {
      PutFixed64(&body, it->first);
      PutFixed64(&body, it->second.lsn);
      PutFixed64(&body, it->second.page_key);
      PutLengthPrefixedSlice(&body, Slice(it->second.payload));
      count++;
    }
  }
  rep->node->storage()->Access(body.size());
  PutFixed32(response, count);
  response->append(body);
  return Status::OK();
}

bool PageStoreCluster::GossipCatchUp(int shard, int replica_idx) {
  ShardReplica* rep = shards_[shard]->replicas[replica_idx].get();
  uint64_t after;
  {
    vedb::MutexLock lk(&rep->mu);
    after = rep->contiguous_seq;
  }
  bool progressed = false;
  for (int r = 0; r < options_.replication; ++r) {
    if (r == replica_idx) continue;
    sim::SimNode* peer = shards_[shard]->nodes[r];
    if (!peer->alive()) continue;
    std::string req, resp;
    PutFixed64(&req, after);
    const std::string service =
        "ps.fetch." + std::to_string(shard) + "." + std::to_string(r);
    if (!rpc_->Call(rep->node, peer, service, Slice(req), &resp).ok()) {
      continue;
    }
    Slice in(resp);
    Slice raw;
    if (!GetFixedBytes(&in, 4, &raw)) continue;
    const uint32_t count = DecodeFixed32(raw.data());
    std::vector<std::pair<uint64_t, StoredRecord>> records;
    for (uint32_t i = 0; i < count; ++i) {
      if (!GetFixedBytes(&in, 8, &raw)) break;
      const uint64_t seq = DecodeFixed64(raw.data());
      StoredRecord rec;
      if (!GetFixedBytes(&in, 8, &raw)) break;
      rec.lsn = DecodeFixed64(raw.data());
      if (!GetFixedBytes(&in, 8, &raw)) break;
      rec.page_key = DecodeFixed64(raw.data());
      Slice payload;
      if (!GetLengthPrefixedSlice(&in, &payload)) break;
      rec.payload = payload.ToString();
      records.emplace_back(seq, std::move(rec));
    }
    if (!records.empty()) {
      vedb::MutexLock lk(&rep->mu);
      const uint64_t before = rep->contiguous_seq;
      InsertRecordsLocked(rep, records);
      if (rep->contiguous_seq > before) {
        progressed = true;
        gossip_fills_.fetch_add(1);
        gossip_metric_->Add(1);
      }
    }
    {
      vedb::MutexLock lk(&rep->mu);
      if (rep->contiguous_seq >= rep->max_seen_seq) break;  // caught up
    }
  }
  return progressed;
}

Status PageStoreCluster::ReadLocalPage(sim::SimNode* node, PageKey key,
                                       std::string* image) {
  const int s = ShardOf(key);
  for (int r = 0; r < options_.replication; ++r) {
    ShardReplica* rep = shards_[s]->replicas[r].get();
    if (rep->node != node) continue;
    node->storage()->Access(cost::kPageReadBytes);
    uint64_t applied;
    Status result;
    {
      vedb::MutexLock lk(&rep->mu);
      applied = ApplyContiguousLocked(rep);
      auto it = rep->pages.find(key);
      if (it == rep->pages.end()) {
        result = Status::NotFound("no such page on this replica");
      } else {
        *image = it->second.bytes;
        result = Status::OK();
      }
    }
    if (applied > 0) {
      node->cpu()->Access(0, applied * cost::kPageStoreApplyPerRecord);
    }
    return result;
  }
  return Status::NotFound("no replica of this shard on " + node->name());
}

Status PageStoreCluster::PeekLocalPage(sim::SimNode* node, PageKey key,
                                       std::string* image,
                                       uint64_t* applied) {
  *applied = 0;
  const int s = ShardOf(key);
  for (int r = 0; r < options_.replication; ++r) {
    ShardReplica* rep = shards_[s]->replicas[r].get();
    if (rep->node != node) continue;
    vedb::MutexLock lk(&rep->mu);
    *applied = ApplyContiguousLocked(rep);
    auto it = rep->pages.find(key);
    if (it == rep->pages.end()) {
      return Status::NotFound("no such page on this replica");
    }
    *image = it->second.bytes;
    return Status::OK();
  }
  return Status::NotFound("no replica of this shard on " + node->name());
}

sim::SimNode* PageStoreCluster::LocalNodeFor(PageKey key) const {
  const int s = ShardOf(key);
  for (sim::SimNode* node : shards_[s]->nodes) {
    if (node->alive()) return node;
  }
  return nullptr;
}

Status PageStoreCluster::InstallPageDirect(PageKey key, uint64_t lsn,
                                           Slice image) {
  const int s = ShardOf(key);
  for (auto& rep : shards_[s]->replicas) {
    vedb::MutexLock lk(&rep->mu);
    PageImage& img = rep->pages[key];
    img.lsn = lsn;
    img.bytes = image.ToString();
  }
  return Status::OK();
}

uint64_t PageStoreCluster::DurableLsn() const {
  // A shard only constrains the durable bound while it has shipped records
  // that are not yet quorum-acked; fully-acked (or never-used) shards are
  // unconstraining.
  uint64_t bound = UINT64_MAX;
  uint64_t max_acked = 0;
  for (const auto& shard : shards_) {
    uint64_t shipped;
    {
      vedb::MutexLock lk(&shard->ship_mu);
      shipped = shard->last_shipped_lsn;
    }
    const uint64_t acked = shard->acked_lsn.load();
    max_acked = std::max(max_acked, acked);
    if (acked < shipped) bound = std::min(bound, acked);
  }
  return bound == UINT64_MAX ? max_acked : bound;
}

void PageStoreCluster::TruncateBelow(uint64_t lsn) {
  for (auto& shard : shards_) {
    for (auto& rep : shard->replicas) {
      vedb::MutexLock lk(&rep->mu);
      // Only applied records may be dropped.
      for (auto it = rep->records.begin(); it != rep->records.end();) {
        if (it->first <= rep->applied_seq && it->second.lsn < lsn) {
          it = rep->records.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

void PageStoreCluster::BackgroundLoop(sim::SimNode* node) {
  uint64_t tick = 0;
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(kBackgroundPeriod);
    tick++;
    if (!node->alive()) continue;  // a dead box does no background work
    for (int s = 0; s < options_.num_shards; ++s) {
      for (int r = 0; r < options_.replication; ++r) {
        ShardReplica* rep = shards_[s]->replicas[r].get();
        if (rep->node != node) continue;
        bool hole;
        uint64_t applied;
        {
          vedb::MutexLock lk(&rep->mu);
          applied = ApplyContiguousLocked(rep);
          hole = rep->contiguous_seq < rep->max_seen_seq;
        }
        if (applied > 0) {
          node->cpu()->Access(0, applied * cost::kPageStoreApplyPerRecord);
        }
        // Known holes are chased every tick; full anti-entropy (which also
        // finds records this replica never heard about, e.g. while it was
        // down) runs on a slower cadence.
        if (hole || tick % 4 == 0) GossipCatchUp(s, r);
      }
    }
  }
}

void PageStoreCluster::StartBackground(sim::ActorGroup* group) {
  // One background actor per distinct node, spawned in nodes_ order. A
  // pointer-ordered std::set here would make the spawn order (and thus
  // same-timestamp actor scheduling) vary with heap layout across
  // processes, breaking byte-identical seeded runs.
  std::vector<sim::SimNode*> distinct;
  for (sim::SimNode* node : nodes_) {
    if (std::find(distinct.begin(), distinct.end(), node) ==
        distinct.end()) {
      distinct.push_back(node);
    }
  }
  for (sim::SimNode* node : distinct) {
    group->Spawn([this, node] { BackgroundLoop(node); });
  }
}

}  // namespace vedb::pagestore
