#include "net/rdma.h"

#include <algorithm>

#include "common/cost_model.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace vedb::net {

RdmaFabric::RdmaFabric(sim::SimEnvironment* env) : env_(env) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto make = [&reg](const char* verb) {
    VerbMetrics m;
    m.ops = reg.GetCounter("net.rdma.ops", {{"verb", verb}});
    m.bytes = reg.GetCounter("net.rdma.bytes", {{"verb", verb}});
    m.queue_ns = reg.GetCounter("net.rdma.queue_ns", {{"verb", verb}});
    m.wire_ns = reg.GetCounter("net.rdma.wire_ns", {{"verb", verb}});
    return m;
  };
  read_metrics_ = make("read");
  write_metrics_ = make("write");
}

MemoryRegionId RdmaFabric::RegisterMemory(sim::SimNode* node,
                                          pmem::PmemDevice* pmem) {
  vedb::MutexLock lk(&mu_);
  MemoryRegionId id{next_region_++};
  regions_[id] = Region{node, pmem};
  return id;
}

void RdmaFabric::UnregisterMemory(MemoryRegionId id) {
  vedb::MutexLock lk(&mu_);
  regions_.erase(id);
}

Result<RdmaFabric::Region> RdmaFabric::Lookup(MemoryRegionId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = regions_.find(id);
  if (it == regions_.end()) {
    return Status::InvalidArgument("unregistered memory region");
  }
  return it->second;
}

Status RdmaFabric::PrepareChain(sim::SimNode* initiator,
                                const std::vector<RdmaWorkRequest>& chain,
                                std::vector<Region>* regions,
                                ChainBreakdown* breakdown) {
  if (chain.empty()) return Status::InvalidArgument("empty WR chain");

  // Resolve all regions up front; they must share a target node.
  regions->clear();
  regions->reserve(chain.size());
  for (const auto& wr : chain) {
    VEDB_ASSIGN_OR_RETURN(Region r, Lookup(wr.region));
    if (!regions->empty() && r.node != regions->front().node) {
      return Status::InvalidArgument("chained WRs must target one node");
    }
    regions->push_back(r);
  }
  sim::SimNode* target = regions->front().node;

  breakdown->start = env_->clock()->Now();
  if (!target->alive()) {
    // The QP times out; the initiator burns the timeout before erroring.
    breakdown->end = breakdown->start + cost::kRdmaTimeout;
    breakdown->network = cost::kRdmaTimeout;
    return Status::Unavailable("rdma target " + target->name() + " is down");
  }
  if (!env_->faults()->Reachable(initiator->name(), target->name())) {
    // A partitioned target times out the QP exactly like a dead one.
    breakdown->end = breakdown->start + cost::kRdmaTimeout;
    breakdown->network = cost::kRdmaTimeout;
    return Status::Unavailable("rdma target " + target->name() +
                               " is unreachable (network partition)");
  }

  // Timing: one doorbell, then each WR flows initiator NIC -> wire ->
  // target NIC -> target media, strictly ordered within the chain. The
  // target CPU is never involved. Consecutive completion timestamps tile
  // [start, end] with no gaps, so the breakdown components sum exactly to
  // the chain's total latency.
  Timestamp t = breakdown->start + cost::kRdmaDoorbell;
  breakdown->client += cost::kRdmaDoorbell;
  for (const auto& wr : chain) {
    const bool is_read = wr.kind == RdmaWorkRequest::Kind::kRead;
    const uint64_t bytes = is_read ? wr.read_len : wr.write_data.size();
    const VerbMetrics& verb = is_read ? read_metrics_ : write_metrics_;
    const Timestamp wr_begin = t;
    Duration wr_queue = 0;
    Duration wait = 0;

    t = initiator->nic()->SubmitAt(t, bytes, 0, &wait);
    wr_queue += wait;
    t += cost::kRdmaWire;
    t = target->nic()->SubmitAt(t, bytes, 0, &wait);
    wr_queue += wait;
    breakdown->network += t - wr_begin;

    const Timestamp media_begin = t;
    t = target->storage()->SubmitAt(t, bytes, 0, &wait);
    wr_queue += wait;
    // A READ's media time is the persistence-domain drain (the flush the
    // read forces); a WRITE's is payload placement on the target.
    (is_read ? breakdown->pmem_flush : breakdown->server) += t - media_begin;

    if (is_read) {
      // Response payload crosses the wire back.
      const Timestamp return_begin = t;
      t += cost::kRdmaWire;
      t = initiator->nic()->SubmitAt(t, bytes, 0, &wait);
      wr_queue += wait;
      breakdown->network += t - return_begin;
    }

    verb.ops->Add(1);
    verb.bytes->Add(bytes);
    verb.queue_ns->Add(wr_queue);
    verb.wire_ns->Add((t - wr_begin) - wr_queue);
    breakdown->queue += wr_queue;
  }
  breakdown->end = t;
  return Status::OK();
}

void RdmaFabric::RecordChainSpan(const ChainBreakdown& breakdown,
                                 size_t chain_len, const std::string& target) {
  obs::Tracer* tracer = obs::Tracer::Global();
  if (tracer == nullptr) return;
  tracer->AddSpan("rdma.chain", obs::Tracer::CurrentContext(),
                  breakdown.start, breakdown.end,
                  {{"target", target},
                   {"wr_count", std::to_string(chain_len)}});
}

Status RdmaFabric::ApplyChain(const std::vector<RdmaWorkRequest>& chain,
                              const std::vector<Region>& regions) {
  for (size_t i = 0; i < chain.size(); ++i) {
    // Torn-doorbell injection point: the NIC executes chained WRs in order,
    // so an initiator crash mid-chain leaves exactly a prefix applied. A
    // fault armed at "rdma.apply" (skip-k to pick the WR) stops the chain
    // here, after k WRs took effect. Free when unarmed.
    VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("rdma.apply"));
    const auto& wr = chain[i];
    pmem::PmemDevice* pmem = regions[i].pmem;
    if (wr.kind == RdmaWorkRequest::Kind::kWrite) {
      VEDB_RETURN_IF_ERROR(pmem->WriteFromRemote(wr.offset, wr.write_data));
    } else {
      if (wr.read_out != nullptr && wr.read_len > 0) {
        VEDB_RETURN_IF_ERROR(pmem->Read(wr.offset, wr.read_len, wr.read_out));
      }
      pmem->FlushViaRdmaRead();
    }
  }
  return Status::OK();
}

Status RdmaFabric::PostChain(sim::SimNode* initiator,
                             const std::vector<RdmaWorkRequest>& chain,
                             ChainBreakdown* breakdown) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("rdma.post"));
  std::vector<Region> regions;
  ChainBreakdown local;
  Status prep = PrepareChain(initiator, chain, &regions, &local);
  if (breakdown != nullptr) *breakdown = local;
  if (prep.IsUnavailable()) {
    env_->clock()->SleepUntil(local.end);
    return prep;
  }
  VEDB_RETURN_IF_ERROR(prep);
  env_->clock()->SleepUntil(local.end);
  RecordChainSpan(local, chain.size(), regions.front().node->name());
  return ApplyChain(chain, regions);
}

std::vector<Status> RdmaFabric::PostChainMulti(
    sim::SimNode* initiator,
    const std::vector<std::vector<RdmaWorkRequest>>& chains,
    std::vector<ChainBreakdown>* breakdowns) {
  std::vector<Status> statuses(chains.size(), Status::OK());
  if (breakdowns != nullptr) {
    breakdowns->assign(chains.size(), ChainBreakdown{});
  }

  Status injected = env_->faults()->MaybeFail("rdma.post");
  if (!injected.ok()) {
    for (auto& s : statuses) s = injected;
    return statuses;
  }

  std::vector<std::vector<Region>> regions(chains.size());
  std::vector<ChainBreakdown> local(chains.size());
  Timestamp latest = env_->clock()->Now();
  for (size_t i = 0; i < chains.size(); ++i) {
    statuses[i] = PrepareChain(initiator, chains[i], &regions[i], &local[i]);
    if (statuses[i].ok() || statuses[i].IsUnavailable()) {
      latest = std::max(latest, local[i].end);
    }
  }
  env_->clock()->SleepUntil(latest);
  for (size_t i = 0; i < chains.size(); ++i) {
    if (statuses[i].ok()) {
      RecordChainSpan(local[i], chains[i].size(),
                      regions[i].front().node->name());
      statuses[i] = ApplyChain(chains[i], regions[i]);
    }
  }
  if (breakdowns != nullptr) *breakdowns = std::move(local);
  return statuses;
}

Status RdmaFabric::Write(sim::SimNode* initiator, MemoryRegionId region,
                         uint64_t offset, Slice data) {
  RdmaWorkRequest wr;
  wr.kind = RdmaWorkRequest::Kind::kWrite;
  wr.region = region;
  wr.offset = offset;
  wr.write_data = data;
  return PostChain(initiator, {wr});
}

Status RdmaFabric::VerifyPersisted(MemoryRegionId region, uint64_t offset,
                                   uint64_t len, std::string_view context) {
  VEDB_ASSIGN_OR_RETURN(Region r, Lookup(region));
  return r.pmem->CheckPersisted(offset, len, context);
}

Status RdmaFabric::Read(sim::SimNode* initiator, MemoryRegionId region,
                        uint64_t offset, uint64_t len, char* out) {
  RdmaWorkRequest wr;
  wr.kind = RdmaWorkRequest::Kind::kRead;
  wr.region = region;
  wr.offset = offset;
  wr.read_out = out;
  wr.read_len = len;
  return PostChain(initiator, {wr});
}

}  // namespace vedb::net
