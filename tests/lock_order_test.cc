// Tests for the deterministic lock-order (deadlock-potential) graph.
//
// The graph is lockdep's dynamic half of the PR's lock-discipline story:
// the static -Wthread-safety build proves every guarded field is accessed
// under its mutex; the graph proves the mutexes themselves are acquired in
// one global order. These tests pin down the three properties the analysis
// is sold on: an inversion is detected from a single serialized run (no
// actual deadlock needed), a consistent order never trips it, and the
// report text is byte-identical across runs.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "sim/clock.h"
#include "sim/env.h"
#include "sim/lock_order.h"

namespace vedb::sim {
namespace {

/// RAII enable/disable so a failing assertion cannot leak a globally
/// enabled graph into later tests.
struct ScopedGraph {
  ScopedGraph() { LockOrderGraph::Enable(); }
  ~ScopedGraph() { LockOrderGraph::Disable(); }
};

TEST(LockOrderTest, ConsistentNestedOrderHasNoCycle) {
  VirtualClock clock;
  ScopedGraph g;
  vedb::Mutex a("test.a");
  vedb::Mutex b("test.b");
  {
    ActorGroup group(&clock);
    for (int i = 0; i < 2; ++i) {
      group.Spawn([&] {
        vedb::MutexLock la(&a);
        vedb::MutexLock lb(&b);
      });
    }
    group.JoinAll();
  }
  LockOrderGraph& graph = LockOrderGraph::Instance();
  EXPECT_EQ(graph.edge_count(), 1u);  // the one edge: test.a -> test.b
  EXPECT_EQ(graph.CycleCount(), 0u);
}

TEST(LockOrderTest, InversionIsDetectedWithoutAnActualDeadlock) {
  // The two actors are strictly serialized by their sleeps — this run can
  // never deadlock. The graph still reports the inversion: a -> b and
  // b -> a both exist, so SOME interleaving deadlocks.
  VirtualClock clock;
  ScopedGraph g;
  vedb::Mutex a("test.a");
  vedb::Mutex b("test.b");
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock la(&a);
      vedb::MutexLock lb(&b);
    });
    group.Spawn([&] {
      clock.SleepFor(10 * kMillisecond);  // runs strictly after the first
      vedb::MutexLock lb(&b);
      vedb::MutexLock la(&a);
    });
    group.JoinAll();
  }
  LockOrderGraph& graph = LockOrderGraph::Instance();
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.CycleCount(), 1u);
  const std::string report = graph.Report();
  EXPECT_NE(report.find("cycle among: test.a test.b"), std::string::npos)
      << report;
}

TEST(LockOrderTest, GateOrderedSequentialAcquisitionIsNotAnInversion) {
  // Opposite *sequential* acquisition is fine: each actor releases the
  // first lock before taking the second, so no ordered pair is ever held
  // together and no edge may be recorded. This is the classic lockdep
  // false-positive trap; the graph must stay empty.
  VirtualClock clock;
  ScopedGraph g;
  vedb::Mutex a("test.a");
  vedb::Mutex b("test.b");
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      { vedb::MutexLock la(&a); }
      { vedb::MutexLock lb(&b); }
    });
    group.Spawn([&] {
      { vedb::MutexLock lb(&b); }
      { vedb::MutexLock la(&a); }
    });
    group.JoinAll();
  }
  LockOrderGraph& graph = LockOrderGraph::Instance();
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.CycleCount(), 0u);
}

TEST(LockOrderTest, SameClassNestingIsNotASelfEdge) {
  // Two instances of the same lock class nested (hand-over-hand style)
  // merge into one node; self-edges are skipped by design (see the header).
  VirtualClock clock;
  ScopedGraph g;
  vedb::Mutex a1("test.same");
  vedb::Mutex a2("test.same");
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock l1(&a1);
      vedb::MutexLock l2(&a2);
    });
    group.JoinAll();
  }
  EXPECT_EQ(LockOrderGraph::Instance().edge_count(), 0u);
  EXPECT_EQ(LockOrderGraph::Instance().CycleCount(), 0u);
}

TEST(LockOrderTest, ReportIsByteIdenticalAcrossSeededRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    VirtualClock clock;
    LockOrderGraph::Enable();  // resets the graph between runs
    vedb::Mutex a("test.a");
    vedb::Mutex b("test.b");
    {
      ActorGroup group(&clock);
      group.Spawn([&] {
        vedb::MutexLock la(&a);
        vedb::MutexLock lb(&b);
      });
      group.Spawn([&] {
        clock.SleepFor(10 * kMillisecond);
        vedb::MutexLock lb(&b);
        vedb::MutexLock la(&a);
      });
      group.JoinAll();
    }
    const std::string report = LockOrderGraph::Instance().Report();
    LockOrderGraph::Disable();
    if (run == 0) {
      first = report;
      EXPECT_NE(first.find("== lock-order report =="), std::string::npos);
      EXPECT_NE(first.find("lock_order_test.cc"), std::string::npos)
          << "sites should name this file";
    } else {
      EXPECT_EQ(first, report) << "report must be byte-identical across runs";
    }
  }
}

// Regression for the audited suspect pair (ISSUE 6): the CM health sweep
// reads server state under cm.state while a client refreshes routes and a
// writer exercises the data plane. The documented order is cm.state before
// astore.server/astore.handle — this test fails (CycleCount > 0) if anyone
// reintroduces a call back into the CM under a server or handle lock.
TEST(LockOrderTest, CmHealthSweepVsClientRefreshKeepsOneGlobalOrder) {
  SimEnvironment env(/*seed=*/7);
  ScopedGraph g;
  auto rpc = std::make_unique<net::RpcTransport>(&env);
  auto fabric = std::make_unique<net::RdmaFabric>(&env);

  sim::NodeConfig cm_cfg;
  cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* cm_node = env.AddNode("cm", cm_cfg);
  auto cm = std::make_unique<astore::ClusterManager>(
      &env, rpc.get(), cm_node, astore::ClusterManager::Options{});

  std::vector<std::unique_ptr<astore::AStoreServer>> servers;
  for (int i = 0; i < 3; ++i) {
    sim::NodeConfig cfg;
    cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
    sim::SimNode* node = env.AddNode("astore-" + std::to_string(i), cfg);
    astore::AStoreServer::Options opts;
    opts.pmem_capacity = 8 * kMiB;
    servers.push_back(std::make_unique<astore::AStoreServer>(
        &env, rpc.get(), fabric.get(), node, opts));
    cm->RegisterServer(servers.back().get());
  }

  sim::NodeConfig client_cfg;
  client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* client_node = env.AddNode("dbe", client_cfg);
  auto client = std::make_unique<astore::AStoreClient>(
      &env, rpc.get(), fabric.get(), cm_node, client_node, /*client_id=*/1,
      astore::AStoreClient::Options{});

  env.clock()->RegisterActor();
  ASSERT_TRUE(client->Connect().ok());
  auto seg = client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  {
    ActorGroup group(env.clock());
    group.Spawn([&] {
      for (int i = 0; i < 8; ++i) {
        cm->CheckHealthNow();
        env.clock()->SleepFor(5 * kMillisecond);
      }
    });
    group.Spawn([&] {
      for (int i = 0; i < 8; ++i) {
        client->RefreshRoutes();
        env.clock()->SleepFor(3 * kMillisecond);
      }
    });
    group.Spawn([&] {
      const std::string payload(4096, 'x');
      for (int i = 0; i < 8; ++i) {
        uint64_t offset = 0;
        ASSERT_TRUE(client->Append(*seg, Slice(payload), &offset).ok());
        env.clock()->SleepFor(2 * kMillisecond);
      }
    });
    group.JoinAll();
  }
  env.clock()->UnregisterActor();

  LockOrderGraph& graph = LockOrderGraph::Instance();
  EXPECT_GT(graph.edge_count(), 0u) << "workload recorded no nesting at all";
  EXPECT_EQ(graph.CycleCount(), 0u) << graph.Report();
}

TEST(LockOrderTest, RegisteredContractDetectsInversion) {
  // A declared one-way contract needs only a SINGLE runtime acquisition in
  // the forbidden direction to close a cycle — no conforming run required.
  // Contract edges survive Enable()'s reset deliberately (they are program
  // facts, not observations), so this test uses names of its own.
  VirtualClock clock;
  ScopedGraph g;
  LockOrderGraph::RegisterContract("ct.x", "ct.y");
  LockOrderGraph::RegisterContract("ct.x", "ct.x");  // self: ignored
  vedb::Mutex x("ct.x");
  vedb::Mutex y("ct.y");
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock ly(&y);
      vedb::MutexLock lx(&x);  // violates ct.x -> ct.y
    });
    group.JoinAll();
  }
  LockOrderGraph& graph = LockOrderGraph::Instance();
  EXPECT_GE(graph.contract_count(), 1u);
  EXPECT_EQ(graph.edge_count(), 1u);  // only ct.y -> ct.x was observed
  EXPECT_GT(graph.CycleCount(), 0u);
  const std::string report = graph.Report();
  EXPECT_NE(report.find("[contract]"), std::string::npos) << report;
}

TEST(LockOrderTest, ContractConformingOrderStaysClean) {
  // Same contract (still registered from the previous test — contracts are
  // process-wide), acquired in the declared direction: no cycle.
  VirtualClock clock;
  ScopedGraph g;
  LockOrderGraph::RegisterContract("ct.x", "ct.y");
  vedb::Mutex x("ct.x");
  vedb::Mutex y("ct.y");
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock lx(&x);
      vedb::MutexLock ly(&y);
    });
    group.JoinAll();
  }
  LockOrderGraph& graph = LockOrderGraph::Instance();
  EXPECT_EQ(graph.CycleCount(), 0u) << graph.Report();
}

TEST(LockOrderDeathTest, BlockingWhileHoldingAMutexAborts) {
  // A lock held across a block on the clock is a latent clock deadlock: the
  // next actor that needs it waits for an actor that cannot run (on the
  // shared carrier thread, for itself). Under the graph the clock refuses
  // such a block outright and names the held lock.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedGraph g;
        VirtualClock clock;
        vedb::Mutex planted("test.planted");
        ActorGroup group(&clock);
        group.Spawn([&] {
          vedb::MutexLock lk(&planted);
          clock.SleepFor(10);
        });
        group.JoinAll();
      },
      "holding vedb::Mutex: test.planted@lock_order_test.cc");
}

TEST(LockOrderTest, ReleasingBeforeBlockingIsAccepted) {
  // The conforming shape of the same actor: the critical section ends
  // before the sleep, and VirtualCondition::Wait(vedb::Mutex*) drops its
  // mutex while parked.
  VirtualClock clock;
  ScopedGraph g;
  vedb::Mutex mu("test.released");
  VirtualCondition cond(&clock, "test.released");
  bool ready = false;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      { vedb::MutexLock lk(&mu); }
      clock.SleepFor(10);
      vedb::MutexLock lk(&mu);
      cond.Wait(&mu, [&] { return ready; });
    });
    group.Spawn([&] {
      clock.SleepFor(20);
      {
        vedb::MutexLock lk(&mu);
        ready = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_EQ(clock.Now(), 20u);
}

}  // namespace
}  // namespace vedb::sim
