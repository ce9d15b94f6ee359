// The cost table: every virtual-time cost the simulator charges for work,
// in one place. Call sites read these constants directly; nothing else in
// src/ may write a latency literal into a device charge (scripts/lint.sh
// rule `cost-literal`).
//
// Each entry names its source:
//   [paper: <Table/§>]  the value follows a figure the paper states
//   [host: <case>]      measured on the build host by bench_micro_components
//   [assumed]           a modelling assumption, not yet calibrated
// Calibration against the paper's Table II edits this file only.
//
// Policy timers (periods, leases, timeouts a component waits out, backoffs)
// are not costs and live as constexpr in their own modules.

#ifndef VEDB_COMMON_COST_MODEL_H_
#define VEDB_COMMON_COST_MODEL_H_

#include <cstdint>

#include "common/units.h"

namespace vedb::cost {

// ---- RDMA fabric (src/net/rdma.cc) ----
/// MMIO doorbell, once per posted chain. [assumed]
inline constexpr Duration kRdmaDoorbell = 300;
/// One-way wire propagation per hop. [assumed]
inline constexpr Duration kRdmaWire = 500;
/// Burned when a verb targets a dead or unreachable node. [assumed]
inline constexpr Duration kRdmaTimeout = 500 * kMicrosecond;

// ---- RPC transport (src/net/rpc.cc) ----
/// Client kernel/syscall cost per call. [assumed]
inline constexpr Duration kRpcClientOverhead = 4 * kMicrosecond;
/// One-way wire propagation. [assumed]
inline constexpr Duration kRpcWire = 5 * kMicrosecond;
/// Mean of the exponential server thread-scheduling delay per call. [assumed]
inline constexpr Duration kRpcSchedJitterMean = 12 * kMicrosecond;
/// Server CPU to dispatch one RPC (kernel, thread hand-off). [assumed]
inline constexpr Duration kRpcDispatch = 5 * kMicrosecond;
/// Burned before reporting a dead or partitioned target. [assumed]
inline constexpr Duration kRpcTimeout = 1 * kMillisecond;

// ---- NIC of every node (src/sim/env.cc) ----
/// NIC processing units. [assumed]
inline constexpr int kNicChannels = 4;
/// Transfer cost: 25 Gbps ~ 3.125 GB/s. [paper: Table I]
inline constexpr double kNicNsPerByte = 0.32;
/// Fixed NIC processing per operation. [assumed]
inline constexpr Duration kNicBaseLatency = 600;

// ---- NVMe SSD behind the blob service (HardwareProfile::NvmeSsd) ----
/// Queue depth. [assumed]
inline constexpr int kSsdChannels = 8;
/// NVMe write into a blob service. [assumed]
inline constexpr Duration kSsdBaseLatency = 70 * kMicrosecond;
/// ~1.5 GB/s effective per box. [assumed]
inline constexpr double kSsdNsPerByte = 0.66;
/// Mean exponential jitter per operation. [assumed]
inline constexpr Duration kSsdJitterMean = 25 * kMicrosecond;
/// Background GC/flush stall probability per operation. [assumed]
inline constexpr double kSsdSpikeProbability = 0.012;
/// Magnitude of one stall. [assumed]
inline constexpr Duration kSsdSpikeLatency = 2 * kMillisecond;

// ---- Optane PMem DIMM set (HardwareProfile::OptanePmem) ----
/// iMC channels: concurrency beyond this queues. [assumed]
inline constexpr int kPmemChannels = 6;
/// ~0.3 us media latency. [assumed]
inline constexpr Duration kPmemBaseLatency = 300;
/// ~2.2 GB/s sustained write per DIMM set. [assumed]
inline constexpr double kPmemNsPerByte = 0.45;
/// Mean exponential jitter per operation; PMem has no spike term. [assumed]
inline constexpr Duration kPmemJitterMean = 80;

// ---- AStore SDK (src/astore/client.cc, append_ring.cc) ----
/// Client software per synchronous Append/WriteAt (WR construction, CQ
/// polling, segment-meta update). [assumed]
inline constexpr Duration kSdkWrite = 55 * kMicrosecond;
/// Client software per read. [assumed]
inline constexpr Duration kSdkRead = 4 * kMicrosecond;
/// Append ring: WR assembly per record in a batched post. [assumed]
inline constexpr Duration kRingSubmitPerRecord = 2 * kMicrosecond;
/// Append ring: doorbell and one CQ reap per batched post. [assumed]
inline constexpr Duration kRingCompletion = 1 * kMicrosecond;

// ---- AStore server and cluster manager (src/astore) ----
/// Server CPU per segment alloc/release request. [assumed]
inline constexpr Duration kServerControlOp = 30 * kMicrosecond;
/// CM CPU per create/delete/corruption report/snapshot fetch. [assumed]
inline constexpr Duration kCmControlOp = 200 * kMicrosecond;
/// CM CPU per route lookup (a tenth of a control op). [assumed]
inline constexpr Duration kCmRouteLookup = kCmControlOp / 10;
/// CM CPU per lease renewal (a tenth of a control op). [assumed]
inline constexpr Duration kCmLeaseRenew = kCmControlOp / 10;
/// CM CPU per intra-group ping (a twentieth of a control op). [assumed]
inline constexpr Duration kCmPing = kCmControlOp / 20;
/// CM CPU per replicated record batch (a twentieth of a control op).
/// [assumed]
inline constexpr Duration kCmReplicate = kCmControlOp / 20;

// ---- SSD log baseline (src/logstore BlobLogStore) ----
/// Mean of the exponential submission-scheduling delay per append (thread
/// hand-off, queueing): the cost AStore's run-to-completion removes.
/// [assumed]
inline constexpr Duration kBlobLogSchedDelayMean = 330 * kMicrosecond;
/// Client software per append. [assumed]
inline constexpr Duration kBlobLogSubmit = 25 * kMicrosecond;

// ---- Extended buffer pool (src/ebp) ----
/// One EBP-index operation, serialized through the index lock. [assumed]
inline constexpr Duration kEbpIndexOp = 1500;
/// One per-shard LRU list update. [assumed]
inline constexpr Duration kEbpLruOp = 300;
/// Server CPU per (page, lsn) entry of an LSN report. [assumed]
inline constexpr Duration kEbpReportPerEntry = 200;

// ---- DBEngine (src/engine) ----
/// CPU per buffer-pool access (hash lookup, latch). [assumed]
inline constexpr Duration kBufferPoolAccess = 600;
/// CPU per row operation (parse/plan/execute slice). [assumed]
inline constexpr Duration kRowOp = 10 * kMicrosecond;
/// CPU per transaction begin/commit bookkeeping. [assumed]
inline constexpr Duration kTxnOverhead = 3 * kMicrosecond;

// ---- PageStore (src/pagestore) ----
/// Storage-node CPU to apply one REDO record. [assumed]
inline constexpr Duration kPageStoreApplyPerRecord = 2 * kMicrosecond;
/// Metadata bytes persisted with each shipped REDO record. [assumed]
inline constexpr uint64_t kPageStoreMetaBytesPerRecord = 64;
/// Bytes read from a storage medium per page read. [assumed]
inline constexpr uint64_t kPageReadBytes = 16 * kKiB;

// ---- Query execution (src/query) ----
/// DBEngine CPU per processed row. [assumed]
inline constexpr Duration kEngineCpuPerRow = 150;
/// DBEngine CPU per nested-loop join comparison: an eighth of a row's
/// processing. [assumed]
inline constexpr Duration kEngineJoinCompare = kEngineCpuPerRow / 8;
/// Storage-side executor CPU per processed row. [assumed]
inline constexpr Duration kPushdownCpuPerRow = 120;

// ---- Planner estimates (query::ExecContext's cost-based push-down) ----
/// Estimated cost of a buffer-pool-resident page. [assumed]
inline constexpr Duration kPlanBpHit = 3 * kMicrosecond;
/// Estimated cost of a page read from the EBP. [assumed]
inline constexpr Duration kPlanEbpRead = 25 * kMicrosecond;
/// Estimated cost of a page read from PageStore. [assumed]
inline constexpr Duration kPlanPageStoreRead = 1100 * kMicrosecond;
/// Estimated storage-side cost per pushed page. [assumed]
inline constexpr Duration kPlanPushdownPage = 10 * kMicrosecond;
/// Estimated fixed cost per push-down task. [assumed]
inline constexpr Duration kPlanPushdownTask = 60 * kMicrosecond;
/// Estimated storage-side CPU per row: a quarter of the engine's. [assumed]
inline constexpr Duration kPlanPushdownCpuPerRow = kEngineCpuPerRow / 4;
/// Estimated transfer cost per result row a filter fragment ships back.
/// [assumed]
inline constexpr Duration kPlanRowTransfer = 50;

}  // namespace vedb::cost

#endif  // VEDB_COMMON_COST_MODEL_H_
