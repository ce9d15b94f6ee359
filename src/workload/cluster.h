// VedbCluster: one-stop wiring of a complete simulated deployment matching
// Table I of the paper — a DBEngine VM, an SSD blob cluster (baseline
// LogStore), an AStore PMem cluster with its CM, a PageStore cluster, and
// optionally an extended buffer pool. Used by tests, examples, and every
// benchmark harness.

#ifndef VEDB_WORKLOAD_CLUSTER_H_
#define VEDB_WORKLOAD_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "blob/blob_store.h"
#include "ebp/ebp.h"
#include "engine/engine.h"
#include "logstore/logstore.h"
#include "pagestore/pagestore.h"
#include "sim/env.h"

namespace vedb::workload {

/// Fixed topology (Table I: 3 data servers per store; DBEngine VM with
/// 20-24 cores).
inline constexpr int kBlobNodes = 3;
inline constexpr int kEngineCores = 20;
inline constexpr int kStorageCores = 32;

struct ClusterOptions {
  uint64_t seed = 2023;

  /// Log backend: AStore SegmentRing (paper) vs SSD BlobGroup (baseline).
  bool use_astore_log = true;
  /// Extended buffer pool on/off.
  bool enable_ebp = false;

  /// Topology (Table I: 3 data servers per store).
  int astore_nodes = 3;
  int pagestore_nodes = 3;

  astore::AStoreServer::Options astore_server;
  astore::AStoreClient::Options astore_client;
  logstore::AStoreLogStore::Options astore_log;
  blob::BlobStoreCluster::Options blob_store;
  pagestore::PageStoreCluster::Options pagestore;
  ebp::ExtendedBufferPool::Options ebp;
  engine::DBEngine::Options engine;
};

class VedbCluster {
 public:
  explicit VedbCluster(const ClusterOptions& options);
  ~VedbCluster();

  sim::SimEnvironment* env() { return &env_; }
  engine::DBEngine* engine() { return engine_.get(); }
  ebp::ExtendedBufferPool* ebp() { return ebp_.get(); }
  pagestore::PageStoreCluster* pagestore() { return pagestore_.get(); }
  logstore::LogStore* log() { return log_; }
  /// The single cluster manager, on the node named "cm".
  astore::ClusterManager* cluster_manager() { return cm_.get(); }
  astore::AStoreClient* astore_client() { return astore_client_.get(); }
  net::RpcTransport* rpc() { return rpc_.get(); }
  net::RdmaFabric* fabric() { return fabric_.get(); }
  sim::SimNode* engine_node() { return engine_node_; }
  const ClusterOptions& options() const { return options_; }
  std::vector<astore::AStoreServer*> astore_servers();

  /// Starts every background actor (shipper, checkpointer, PageStore
  /// apply/gossip, AStore cleaning/health, EBP compaction/reports, client
  /// route refresh).
  void StartBackground();

  /// Stops background actors and joins them. Called by the destructor.
  void Shutdown();

  /// Simulates a DBEngine crash: discards the engine (and its caches) and
  /// rebuilds it by recovering the log and table state from storage. The
  /// caller re-declares the catalog via `redeclare_catalog(engine)` before
  /// recovery runs. Only valid with the AStore log backend.
  Status CrashAndRecoverEngine(
      const std::function<void(engine::DBEngine*)>& redeclare_catalog);

 private:
  void BuildEngine();

  ClusterOptions options_;
  sim::SimEnvironment env_;
  std::unique_ptr<net::RpcTransport> rpc_;
  std::unique_ptr<net::RdmaFabric> fabric_;

  std::vector<sim::SimNode*> blob_nodes_;
  std::vector<sim::SimNode*> pagestore_nodes_;
  sim::SimNode* cm_node_ = nullptr;
  sim::SimNode* engine_node_ = nullptr;

  std::unique_ptr<blob::BlobStoreCluster> blob_;
  std::unique_ptr<astore::ClusterManager> cm_;
  std::vector<std::unique_ptr<astore::AStoreServer>> astore_servers_;
  std::vector<std::unique_ptr<ebp::EbpServerAgent>> ebp_agents_;
  std::unique_ptr<pagestore::PageStoreCluster> pagestore_;

  std::unique_ptr<astore::AStoreClient> astore_client_;      // log client
  std::unique_ptr<astore::AStoreClient> ebp_astore_client_;  // EBP identity
  std::unique_ptr<logstore::LogStore> owned_log_;
  logstore::LogStore* log_ = nullptr;
  std::unique_ptr<ebp::ExtendedBufferPool> ebp_;
  std::unique_ptr<engine::DBEngine> engine_;

  std::unique_ptr<sim::ActorGroup> background_;
  bool background_started_ = false;
};

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_CLUSTER_H_
