// LogStore: the REDO-log half of veDB's storage layer, behind one interface
// with two backends:
//  * BlobLogStore — the original design (Section III): BlobGroups over the
//    SSD blob service, with the async submission path whose scheduling
//    overhead causes the latency and jitter the paper complains about.
//  * AStoreLogStore — the PMem design (Section V): a SegmentRing over
//    AStore written with chained one-sided RDMA, run-to-completion.
//
// A commit appends a batch of REDO payloads; the batch is assigned a dense
// range of LSNs and the call returns only when the whole prefix of the log
// up to the batch's last LSN is durable (group-commit watermark).

#ifndef VEDB_LOGSTORE_LOGSTORE_H_
#define VEDB_LOGSTORE_LOGSTORE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "astore/segment_ring.h"
#include "blob/blob_store.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::logstore {

/// LSN range assigned to an appended batch (dense, inclusive).
struct AppendResult {
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
};

/// Callbacks letting callers observe LSN assignment synchronously.
struct AppendHooks {
  /// Invoked under the LSN-assignment lock, so invocations across batches
  /// happen in LSN order. Must be cheap and must not block on the clock.
  /// The redo shipper uses this to enqueue records in LSN order.
  std::function<void(uint64_t first, uint64_t last)> on_assigned;
  /// Invoked when the batch's log write failed, before its LSN range is
  /// resolved in the durability watermark (so the caller can cancel any
  /// downstream work keyed on those LSNs).
  std::function<void(uint64_t first, uint64_t last)> on_failed;
};

class LogStore {
 public:
  virtual ~LogStore() = default;

  /// Appends `payloads` as one physical log write. Returns when every
  /// record with lsn <= result.last_lsn is durable. Thread safe; concurrent
  /// batches overlap their I/O and are fenced by the durability watermark.
  virtual Result<AppendResult> AppendBatch(
      const std::vector<std::string>& payloads,
      const AppendHooks* hooks = nullptr) = 0;

  /// Every record with lsn <= this value has resolved (durable or failed).
  virtual uint64_t DurableLsn() const = 0;

  /// All durable records with lsn >= `from_lsn`, in order (recovery path).
  virtual Result<std::vector<astore::LogRecord>> ReadFrom(
      uint64_t from_lsn) = 0;

  /// The LSN the next record will receive.
  virtual uint64_t NextLsn() const = 0;

  /// Records with lsn < `lsn` may be garbage collected (they are applied in
  /// PageStore). Advisory for ring/blob space reuse.
  virtual void Truncate(uint64_t lsn) = 0;
};

class DurabilityWatermark;

/// Leader/follower group commit: concurrent AppendBatch calls coalesce into
/// one physical log write (veDB's global log buffer behaviour). At most one
/// flush is in flight; the first committer to find the pipeline idle
/// becomes the leader and flushes everything queued, so log-device
/// stragglers never convoy independent commits and throughput scales with
/// batch size rather than 1/latency.
class GroupCommitter {
 public:
  struct Item {
    uint64_t first_lsn = 0;
    uint64_t last_lsn = 0;
    /// Views of the batch payloads. The committer never copies payload
    /// bytes: the flush reads straight through these Slices.
    std::vector<Slice> payloads;
    /// Keeps `payloads`' backing bytes alive until the item's group
    /// resolves — including after a submitting waiter times out and frees
    /// its own copy (the item may still be queued for a later leader).
    std::shared_ptr<const std::vector<std::string>> pin;
    std::function<void(uint64_t, uint64_t)> on_failed;
  };
  /// Writes one physical record containing `items` (lsn-contiguous,
  /// ascending). Runs on the leader's thread, outside the committer lock.
  using FlushFn = std::function<Status(const std::vector<Item>& items)>;

  GroupCommitter(sim::VirtualClock* clock, DurabilityWatermark* watermark,
                 FlushFn flush)
      : clock_(clock),
        cond_(clock, "group-commit"),
        watermark_(watermark),
        flush_(std::move(flush)) {}

  /// Enqueues the item and blocks until its range is durable (leading a
  /// flush if the pipeline is idle). Returns the flush error if this item's
  /// group failed. With a non-zero `wait_timeout`, gives up after that much
  /// virtual time with TimedOut — the item STAYS queued (outcome unknown)
  /// and is flushed by the next leader; its payload bytes survive via
  /// Item::pin regardless of what the caller frees.
  Status Submit(Item item, Duration wait_timeout = 0);

 private:
  sim::VirtualClock* clock_;
  vedb::Mutex mu_{"logstore.committer"};
  sim::VirtualCondition cond_;
  DurabilityWatermark* watermark_;
  FlushFn flush_;
  bool flushing_ GUARDED_BY(mu_) = false;
  std::vector<Item> pending_ GUARDED_BY(mu_);
  // first_lsn -> (last_lsn, error) for failed groups awaiting pickup.
  std::map<uint64_t, std::pair<uint64_t, Status>> failed_ GUARDED_BY(mu_);
};

/// Tracks the contiguous durability watermark across overlapping appends.
/// Append flows: Reserve() -> do I/O -> MarkDurable() -> WaitDurable().
class DurabilityWatermark {
 public:
  /// `initial` is the already-durable prefix (recovered logs start at their
  /// last recovered LSN, fresh logs at 0).
  explicit DurabilityWatermark(sim::VirtualClock* clock, uint64_t initial = 0)
      : cond_(clock, "log-watermark"), durable_(initial) {}

  /// Marks [first, last] complete and advances the watermark over any
  /// now-contiguous prefix. `next_unassigned` is the current end of the
  /// assigned LSN space.
  void MarkDurable(uint64_t first, uint64_t last);

  /// Blocks until every lsn <= `lsn` is durable.
  void WaitDurable(uint64_t lsn);

  uint64_t durable_lsn() const {
    vedb::MutexLock lk(&mu_);
    return durable_;
  }

 private:
  mutable vedb::Mutex mu_{"logstore.watermark"};
  sim::VirtualCondition cond_;
  // all lsns <= durable_ are durable
  uint64_t durable_ GUARDED_BY(mu_) = 0;
  // disjoint ranges
  std::set<std::pair<uint64_t, uint64_t>> completed_ GUARDED_BY(mu_);
};

/// SSD/BlobGroup-backed baseline.
class BlobLogStore : public LogStore {
 public:
  static Result<std::unique_ptr<BlobLogStore>> Create(
      sim::SimEnvironment* env, blob::BlobStoreCluster* cluster,
      sim::SimNode* client);

  Result<AppendResult> AppendBatch(const std::vector<std::string>& payloads,
                                   const AppendHooks* hooks = nullptr) override;
  Result<std::vector<astore::LogRecord>> ReadFrom(uint64_t from_lsn) override;
  uint64_t NextLsn() const override;
  uint64_t DurableLsn() const override { return watermark_.durable_lsn(); }
  void Truncate(uint64_t /*lsn*/) override {}

 private:
  BlobLogStore(sim::SimEnvironment* env, sim::SimNode* client,
               std::unique_ptr<blob::BlobGroup> group)
      : env_(env),
        client_(client),
        group_(std::move(group)),
        watermark_(env->clock()),
        committer_(env->clock(), &watermark_,
                   [this](const std::vector<GroupCommitter::Item>& items) {
                     return FlushGroup(items);
                   }),
        rng_(env->NextSeed()) {
    InitMetrics("ssd");
  }

  void InitMetrics(const char* backend);

  Status FlushGroup(const std::vector<GroupCommitter::Item>& items);

  sim::SimEnvironment* env_;
  sim::SimNode* client_;
  std::unique_ptr<blob::BlobGroup> group_;
  DurabilityWatermark watermark_;
  GroupCommitter committer_;

  mutable vedb::Mutex mu_{"logstore.blob"};
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  Random rng_ GUARDED_BY(mu_);

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* appends_ = nullptr;
  obs::HistogramMetric* append_ns_ = nullptr;
  obs::Counter* flushes_ = nullptr;
  obs::Counter* flush_bytes_ = nullptr;
};

/// AStore/SegmentRing-backed store (the paper's design).
class AStoreLogStore : public LogStore {
 public:
  struct Options {
    astore::SegmentRing::Options ring;
  };

  static Result<std::unique_ptr<AStoreLogStore>> Create(
      sim::SimEnvironment* env, astore::AStoreClient* client,
      const Options& options);

  /// Re-attaches to an existing log after a DBEngine crash: recovers the
  /// ring contents owned by `client`, returns the records via
  /// `recovered_out`, and resumes appending after the last durable LSN on a
  /// fresh ring.
  static Result<std::unique_ptr<AStoreLogStore>> Recover(
      sim::SimEnvironment* env, astore::AStoreClient* client,
      const std::vector<astore::SegmentId>& segments, uint64_t from_lsn,
      const Options& options,
      std::vector<astore::LogRecord>* recovered_out);

  Result<AppendResult> AppendBatch(const std::vector<std::string>& payloads,
                                   const AppendHooks* hooks = nullptr) override;
  Result<std::vector<astore::LogRecord>> ReadFrom(uint64_t from_lsn) override;
  uint64_t NextLsn() const override;
  uint64_t DurableLsn() const override { return watermark_.durable_lsn(); }
  void Truncate(uint64_t /*lsn*/) override {}

  astore::SegmentRing* ring() { return ring_.get(); }

 private:
  AStoreLogStore(sim::SimEnvironment* env, astore::AStoreClient* client,
                 Options options, std::unique_ptr<astore::SegmentRing> ring,
                 uint64_t next_lsn)
      : env_(env),
        client_(client),
        options_(options),
        ring_(std::move(ring)),
        watermark_(env->clock(), next_lsn - 1),
        committer_(env->clock(), &watermark_,
                   [this](const std::vector<GroupCommitter::Item>& items) {
                     return FlushGroup(items);
                   }),
        next_lsn_(next_lsn) {
    InitMetrics("pmem");
  }

  void InitMetrics(const char* backend);

  Status FlushGroup(const std::vector<GroupCommitter::Item>& items);

  sim::SimEnvironment* env_;
  astore::AStoreClient* client_;
  Options options_;
  std::unique_ptr<astore::SegmentRing> ring_;
  DurabilityWatermark watermark_;
  GroupCommitter committer_;

  mutable vedb::Mutex mu_{"logstore.astore"};
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* appends_ = nullptr;
  obs::HistogramMetric* append_ns_ = nullptr;
  obs::Counter* flushes_ = nullptr;
  obs::Counter* flush_bytes_ = nullptr;
};

/// Shared batch framing: several REDO payloads packed into one physical log
/// record. Exposed for the recovery paths of both backends. A malformed
/// payload decodes to false and leaves `out` as it was.
std::string EncodeBatchPayload(const std::vector<Slice>& payloads);
std::string EncodeBatchPayload(const std::vector<std::string>& payloads);
bool DecodeBatchPayload(Slice in, uint64_t first_lsn,
                        std::vector<astore::LogRecord>* out);

}  // namespace vedb::logstore

#endif  // VEDB_LOGSTORE_LOGSTORE_H_
