#include "workload/standby.h"

namespace vedb::workload {

Result<std::unique_ptr<ReadOnlyStandby>> ReadOnlyStandby::Attach(
    VedbCluster* cluster,
    const std::function<void(engine::DBEngine*)>& declare_catalog) {
  auto standby = std::unique_ptr<ReadOnlyStandby>(new ReadOnlyStandby());
  standby->cluster_ = cluster;

  // The standby runs on its own VM.
  sim::SimNode* node;
  {
    sim::NodeConfig cfg;
    cfg.cpu_cores = kEngineCores;
    cfg.storage =
        sim::HardwareProfile::NvmeSsd(cluster->env()->NextSeed());
    node = cluster->env()->AddNode("standby", cfg);
  }

  // Its own SDK identity; reads of the primary's EBP segments are allowed
  // (routes are not owner-restricted, only writes are fenced).
  standby->astore_client_ = std::make_unique<astore::AStoreClient>(
      cluster->env(), cluster->rpc(), cluster->fabric(),
      cluster->env()->GetNode("cm"), node, /*client_id=*/1000,
      cluster->options().astore_client);
  VEDB_RETURN_IF_ERROR(standby->astore_client_->Connect());

  if (cluster->options().enable_ebp) {
    // Attach to the primary EBP's pages: scan the AStore servers for the
    // primary's EBP segments (client id 2) and rebuild a read-only view.
    standby->ebp_ = std::make_unique<ebp::ExtendedBufferPool>(
        cluster->env(), standby->astore_client_.get(),
        cluster->options().ebp);
    VEDB_RETURN_IF_ERROR(standby->ebp_->RecoverFromServers(
        cluster->cluster_manager()->ListSegments(2)));
  }

  // Read-only engine: null log, EBP read path only (the buffer pool's
  // ebp_put callback is skipped because DBEngine only installs it when the
  // EBP pointer is set — here reads are wanted but eviction writes into
  // the primary's cache would be wrong, so the standby uses its own EBP
  // *view* for reads; PutPage would target standby-owned segments, which
  // RecoverFromServers replaced, so the view stays read-mostly).
  standby->engine_ = std::make_unique<engine::DBEngine>(
      cluster->env(), node, /*log=*/nullptr, cluster->pagestore(),
      standby->ebp_.get(), cluster->options().engine);
  declare_catalog(standby->engine_.get());
  VEDB_RETURN_IF_ERROR(standby->RefreshIndexes());
  return standby;
}

Status ReadOnlyStandby::RefreshIndexes() {
  std::vector<engine::Table*> tables;
  // Rebuild every declared table's indexes from PageStore.
  // (Catalog introspection via the tables the caller declared.)
  Status result = Status::OK();
  // DBEngine has no public table iteration; refresh through Recover's
  // machinery: Recover with an empty tail rebuilds all indexes.
  VEDB_RETURN_IF_ERROR(engine_->Recover({}));
  (void)tables;
  return result;
}

}  // namespace vedb::workload
