#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/scrubber.h"
#include "astore/server.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "sim/clock.h"
#include "sim/device.h"
#include "sim/env.h"
#include "sim/fault.h"

namespace vedb::sim {
namespace {

TEST(VirtualClockTest, SingleActorSleepAdvances) {
  VirtualClock clock;
  clock.RegisterActor();
  EXPECT_EQ(clock.Now(), 0u);
  clock.SleepFor(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.SleepUntil(250);
  EXPECT_EQ(clock.Now(), 250u);
  clock.SleepUntil(10);  // in the past: no-op
  EXPECT_EQ(clock.Now(), 250u);
  clock.UnregisterActor();
}

TEST(VirtualClockTest, TwoActorsInterleaveDeterministically) {
  VirtualClock clock;
  std::mutex mu;
  std::vector<std::pair<int, Timestamp>> events;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      for (int i = 0; i < 3; ++i) {
        clock.SleepFor(100);
        std::lock_guard<std::mutex> lk(mu);
        events.push_back({1, clock.Now()});
      }
    });
    group.Spawn([&] {
      for (int i = 0; i < 2; ++i) {
        clock.SleepFor(150);
        std::lock_guard<std::mutex> lk(mu);
        events.push_back({2, clock.Now()});
      }
    });
  }
  // Actor 1 wakes at 100,200,300; actor 2 at 150,300.
  ASSERT_EQ(events.size(), 5u);
  std::vector<Timestamp> times;
  for (auto& [id, t] : events) times.push_back(t);
  std::sort(times.begin(), times.end());
  EXPECT_EQ(times, (std::vector<Timestamp>{100, 150, 200, 300, 300}));
}

TEST(VirtualClockTest, ManyActorsAdvanceTogether) {
  VirtualClock clock;
  std::atomic<uint64_t> total{0};
  {
    ActorGroup group(&clock);
    for (int a = 0; a < 32; ++a) {
      group.Spawn([&clock, &total, a] {
        for (int i = 0; i < 50; ++i) clock.SleepFor(10 + a);
        total += clock.Now();
      });
    }
  }
  // The last actor (a=31) finishes at 50*(41) = 2050.
  EXPECT_EQ(clock.Now(), 50u * 41u);
  EXPECT_GT(total.load(), 0u);
}

TEST(VirtualConditionTest, NotifyWakesWaiter) {
  VirtualClock clock;
  std::mutex mu;
  bool ready = false;
  VirtualCondition cond(&clock);
  Timestamp waiter_wake_time = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      std::unique_lock<std::mutex> lk(mu);
      cond.Wait(lk, [&] { return ready; });
      waiter_wake_time = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(500);
      {
        std::lock_guard<std::mutex> lk(mu);
        ready = true;
      }
      cond.NotifyAll();
    });
  }
  // Waiter becomes runnable at the virtual instant of the notify.
  EXPECT_EQ(waiter_wake_time, 500u);
}

TEST(VirtualConditionTest, PredicateAlreadyTrueReturnsImmediately) {
  VirtualClock clock;
  clock.RegisterActor();
  std::mutex mu;
  VirtualCondition cond(&clock);
  std::unique_lock<std::mutex> lk(mu);
  cond.Wait(lk, [] { return true; });
  EXPECT_EQ(clock.Now(), 0u);
  lk.unlock();
  clock.UnregisterActor();
}

TEST(VirtualConditionTest, ManyWaitersAllWake) {
  VirtualClock clock;
  std::mutex mu;
  int released = 0;
  bool open = false;
  VirtualCondition cond(&clock);
  {
    ActorGroup group(&clock);
    for (int i = 0; i < 16; ++i) {
      group.Spawn([&] {
        std::unique_lock<std::mutex> lk(mu);
        cond.Wait(lk, [&] { return open; });
        released++;
      });
    }
    group.Spawn([&] {
      clock.SleepFor(1000);
      {
        std::lock_guard<std::mutex> lk(mu);
        open = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_EQ(released, 16);
}

TEST(QueueingDeviceTest, SingleChannelSerializes) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  Timestamp t1 = dev.Submit(0);
  Timestamp t2 = dev.Submit(0);
  Timestamp t3 = dev.Submit(0);
  EXPECT_EQ(t1, 100u);
  EXPECT_EQ(t2, 200u);
  EXPECT_EQ(t3, 300u);
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, MultiChannelOverlaps) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 2;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.Submit(0), 100u);
  EXPECT_EQ(dev.Submit(0), 100u);  // second channel
  EXPECT_EQ(dev.Submit(0), 200u);  // queues behind the first
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, BandwidthScalesWithBytes) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 10;
  p.ns_per_byte = 2.0;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.Submit(100), 10u + 200u);
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, AccessBlocksUntilCompletion) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 500;
  QueueingDevice dev(&clock, "disk", p);
  Duration latency = dev.Access(0);
  EXPECT_EQ(latency, 500u);
  EXPECT_EQ(clock.Now(), 500u);
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, SaturationGrowsLatency) {
  // With 2 channels and 8 concurrent clients, per-op latency must grow
  // roughly 4x beyond the service time: queueing emerges, not hard-coded.
  VirtualClock clock;
  DeviceParams p;
  p.channels = 2;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  std::atomic<uint64_t> total_latency{0};
  const int kClients = 8, kOps = 50;
  {
    ActorGroup group(&clock);
    for (int c = 0; c < kClients; ++c) {
      group.Spawn([&] {
        uint64_t mine = 0;
        for (int i = 0; i < kOps; ++i) mine += dev.Access(0);
        total_latency += mine;
      });
    }
  }
  double avg = static_cast<double>(total_latency.load()) / (kClients * kOps);
  EXPECT_GT(avg, 250.0);  // well above the 100ns service time
}

TEST(QueueingDeviceTest, SubmitAtHonorsEarliestStart) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 10;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.SubmitAt(1000, 0), 1010u);
  clock.UnregisterActor();
}

TEST(FaultInjectorTest, DisarmedSitePasses) {
  FaultInjector f;
  EXPECT_TRUE(f.MaybeFail("nowhere").ok());
}

TEST(FaultInjectorTest, AlwaysFailSite) {
  FaultInjector f;
  f.Arm("disk.write", 1.0, Status::IOError("boom"));
  EXPECT_TRUE(f.MaybeFail("disk.write").IsIOError());
  EXPECT_EQ(f.InjectedCount("disk.write"), 1u);
  f.Disarm("disk.write");
  EXPECT_TRUE(f.MaybeFail("disk.write").ok());
}

TEST(FaultInjectorTest, BudgetLimitsInjections) {
  FaultInjector f;
  f.Arm("x", 1.0, Status::IOError("boom"), /*remaining=*/2);
  EXPECT_FALSE(f.MaybeFail("x").ok());
  EXPECT_FALSE(f.MaybeFail("x").ok());
  EXPECT_TRUE(f.MaybeFail("x").ok());
  EXPECT_EQ(f.InjectedCount("x"), 2u);
}

TEST(SimEnvironmentTest, NodesHaveDevices) {
  SimEnvironment env;
  NodeConfig cfg;
  cfg.cpu_cores = 4;
  cfg.storage = HardwareProfile::OptanePmem(1);
  SimNode* node = env.AddNode("astore-1", cfg);
  EXPECT_EQ(node->name(), "astore-1");
  EXPECT_TRUE(node->alive());
  node->SetAlive(false);
  EXPECT_FALSE(node->alive());
  EXPECT_EQ(env.GetNode("astore-1"), node);
}

TEST(SimEnvironmentTest, ProfilesDiffer) {
  DeviceParams ssd = HardwareProfile::NvmeSsd(1);
  DeviceParams pmem = HardwareProfile::OptanePmem(2);
  // The PMem/SSD latency gap drives the whole paper; make sure the profiles
  // keep at least two orders of magnitude between base latencies.
  EXPECT_GT(ssd.base_latency, pmem.base_latency * 100);
}

}  // namespace
}  // namespace vedb::sim

namespace vedb::sim {
namespace {

TEST(VirtualConditionTest, WaitUntilTimesOut) {
  VirtualClock clock;
  std::mutex mu;
  VirtualCondition cond(&clock);
  bool never = false;
  Timestamp woke_at = 0;
  bool result = true;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      std::unique_lock<std::mutex> lk(mu);
      result = cond.WaitUntil(lk, 1000, [&] { return never; });
      woke_at = clock.Now();
    });
    group.Spawn([&] { clock.SleepFor(5000); });  // keeps time flowing
  }
  EXPECT_FALSE(result);
  EXPECT_EQ(woke_at, 1000u);  // woke exactly at the deadline
}

TEST(VirtualConditionTest, WaitUntilWokenByNotifyBeforeDeadline) {
  VirtualClock clock;
  std::mutex mu;
  VirtualCondition cond(&clock);
  bool ready = false;
  bool result = false;
  Timestamp woke_at = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      std::unique_lock<std::mutex> lk(mu);
      result = cond.WaitUntil(lk, 1 * kSecond, [&] { return ready; });
      woke_at = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(200);
      {
        std::lock_guard<std::mutex> lk(mu);
        ready = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_TRUE(result);
  EXPECT_EQ(woke_at, 200u);
}

TEST(VirtualConditionTest, StaleTimerEntryDoesNotWakeLaterSleep) {
  // A timed wait notified early leaves a stale heap entry; a later sleep by
  // the same thread must not be woken by it.
  VirtualClock clock;
  std::mutex mu;
  VirtualCondition cond(&clock);
  bool ready = false;
  Timestamp second_wake = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      {
        std::unique_lock<std::mutex> lk(mu);
        cond.WaitUntil(lk, 500, [&] { return ready; });  // woken at 100
      }
      clock.SleepFor(10000);  // must sleep the full span, not wake at 500
      second_wake = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(100);
      {
        std::lock_guard<std::mutex> lk(mu);
        ready = true;
      }
      cond.NotifyAll();
      clock.SleepFor(20000);  // keep an actor alive past the stale entry
    });
  }
  EXPECT_EQ(second_wake, 10100u);
}

TEST(VirtualClockTest, GuestThreadCanSleepWithoutRegistering) {
  // Threads that never registered (e.g. a test main constructing a
  // cluster) may still block on the clock; they join the actor set for the
  // duration of the block.
  VirtualClock clock;
  clock.SleepFor(1234);  // this thread is not a registered actor
  EXPECT_EQ(clock.Now(), 1234u);
}

TEST(VirtualConditionTest, TeardownNotifyFromNonActorWhilePollersExit) {
  // Regression for a teardown race: a non-actor thread stops a
  // notification-driven waiter while timer-driven actors are also exiting.
  // The supported protocol is "notify the parked waiter first, then release
  // the pollers" — done in the opposite order, the pollers can all exit
  // while the NotifyAll is still waiting for the clock mutex, and the last
  // exit sees "everyone parked, no timers" and aborts as a deadlock.
  for (int round = 0; round < 50; ++round) {
    VirtualClock clock;
    std::mutex mu;
    VirtualCondition cond(&clock, "teardown-test");
    bool stop = false;
    std::atomic<bool> poll_stop{false};
    int waiter_rounds = 0;
    ActorGroup group(&clock);
    group.Spawn([&] {  // notification-driven waiter (the flusher shape)
      std::unique_lock<std::mutex> lk(mu);
      cond.Wait(lk, [&] { return stop; });
      waiter_rounds++;
    });
    group.Spawn([&] {  // polling actor (the shipper shape)
      while (!poll_stop.load()) clock.SleepFor(kMillisecond);
    });
    group.Start();
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cond.NotifyAll();        // lands while the poller still holds a timer
    poll_stop.store(true);   // only now release the poller
    group.JoinAll();
    EXPECT_EQ(waiter_rounds, 1);
  }
}

TEST(VirtualClockTest, JoinAllFromRegisteredThreadLetsOthersAdvance) {
  VirtualClock clock;
  clock.RegisterActor();
  Timestamp worker_end = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      clock.SleepFor(5000);
      worker_end = clock.Now();
    });
    // JoinAll (inside the destructor) parks this registered thread in
    // virtual time, so the worker's sleeps can advance the clock.
  }
  EXPECT_EQ(worker_end, 5000u);
  EXPECT_EQ(clock.Now(), 5000u);  // the last exit readied the joiner
  clock.UnregisterActor();
}

// The schedule of sleepers, condition waiters, a notifier that spawns a
// child, and a registered main thread, all meeting at the same virtual
// instants. The log is the order the scheduler ran them in.
std::vector<std::string> RunMixedSchedule() {
  VirtualClock clock;
  std::mutex mu;
  std::vector<std::string> log;
  auto note = [&](const std::string& who) {
    std::lock_guard<std::mutex> lk(mu);
    log.push_back(who + "@" + std::to_string(clock.Now()));
  };
  VirtualCondition cond(&clock, "mixed");
  bool open = false;  // guarded by mu
  clock.RegisterActor();
  {
    ActorGroup group(&clock);
    for (int i = 0; i < 3; ++i) {
      group.Spawn([&, i] {
        const std::string me = "s" + std::to_string(i);
        note(me);
        if (i == 1) clock.SleepFor(50);
        clock.SleepFor(i == 1 ? 50 : 100);
        note(me);
        clock.SleepFor(0);
        note(me);
      });
    }
    for (int i = 0; i < 2; ++i) {
      group.Spawn([&, i] {
        const std::string me = "w" + std::to_string(i);
        note(me);
        {
          std::unique_lock<std::mutex> lk(mu);
          cond.Wait(lk, [&] { return open; });
        }
        note(me);
        clock.SleepFor(25);
        note(me);
      });
    }
    group.Spawn([&] {
      note("n");
      clock.SleepFor(100);
      note("n");
      {
        std::lock_guard<std::mutex> lk(mu);
        open = true;
      }
      cond.NotifyAll();
      group.Spawn([&] {
        note("c");
        clock.SleepFor(25);
        note("c");
      });
      clock.SleepFor(25);
      note("n");
    });
    group.Start();
    clock.SleepFor(100);
    note("main");
    clock.SleepFor(25);
    note("main");
  }
  clock.UnregisterActor();
  return log;
}

TEST(VirtualClockTest, MixedDispatchOrderMatchesRecordedSchedule) {
  // Recorded with the thread-per-actor runtime that fibers replaced: the
  // switch kept the scheduler's decisions (timer pop order, notify order,
  // ticket-ordered spawn admission), not just the virtual times.
  const std::vector<std::string> expected = {
      "s0@0",    "s1@0",   "s2@0",   "w0@0",   "w1@0",   "n@0",
      "main@100", "n@100",  "s1@100", "s0@100", "s2@100", "w0@100",
      "w1@100",  "c@100",  "s1@100", "s0@100", "s2@100", "main@125",
      "c@125",   "w0@125", "n@125",  "w1@125"};
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(RunMixedSchedule(), expected) << "run " << run;
  }
}

TEST(VirtualClockTest, RegisteredThreadAndActorsTakeTurns) {
  // A registered OS thread and two spawned actors pass the run token round
  // robin through one condition; every hand-off crosses between the
  // thread's condition-variable wait and the carrier's fibers.
  VirtualClock clock;
  std::mutex mu;
  VirtualCondition cond(&clock, "turns");
  int turn = 0;  // guarded by mu; participant p moves when turn % 3 == p
  std::vector<std::string> log;
  auto take_turns = [&](int p, const std::string& name) {
    for (int round = 0; round < 4; ++round) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cond.Wait(lk, [&] { return turn % 3 == p; });
        log.push_back(name + ":" + std::to_string(turn) + "@" +
                      std::to_string(clock.Now()));
        turn++;
      }
      cond.NotifyAll();
      clock.SleepFor(10);
    }
  };
  clock.RegisterActor();
  {
    ActorGroup group(&clock);
    group.Spawn([&] { take_turns(1, "a"); });
    group.Spawn([&] { take_turns(2, "b"); });
    group.Start();
    take_turns(0, "main");
  }
  clock.UnregisterActor();
  std::vector<std::string> expected;
  for (int t = 0; t < 12; ++t) {
    const char* names[] = {"main", "a", "b"};
    expected.push_back(std::string(names[t % 3]) + ":" + std::to_string(t) +
                       "@" + std::to_string(10 * (t / 3)));
  }
  EXPECT_EQ(log, expected);
}

// Bytes of address space this process has mapped (statm's first field).
uint64_t MappedBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  statm >> size_pages;
  return size_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(ActorGroupTest, ManyActorsExitWithoutLeakingStacks) {
  // Every actor owns a lazily-committed stack while it lives; the stack is
  // unmapped before the joiner wakes, so a long simulation that spawns and
  // retires actors does not accumulate address space.
  constexpr int kActors = 256;
  VirtualClock clock;
  for (int round = 0; round < 2; ++round) {
    const uint64_t before = MappedBytes();
    int finished = 0;  // actors run one at a time
    {
      ActorGroup group(&clock);
      for (int i = 0; i < kActors; ++i) {
        group.Spawn([&clock, &finished, i] {
          volatile char frame[16 * 1024];  // touch some stack
          frame[0] = static_cast<char>(i);
          frame[sizeof(frame) - 1] = frame[0];
          clock.SleepFor(1 + i % 7);
          finished++;
        });
      }
      // All stacks exist from Spawn on (and cost address space, not RSS).
      EXPECT_GT(MappedBytes(), before + kActors * kMiB);
    }
    EXPECT_EQ(finished, kActors);
    EXPECT_LT(MappedBytes(), before + 16 * kMiB) << "round " << round;
  }
}

TEST(ActorGroupTest, JoinAllFromInsideAnActorWaitsInVirtualTime) {
  VirtualClock clock;
  Timestamp joined_at = 0;
  {
    ActorGroup outer(&clock);
    outer.Spawn([&] {
      ActorGroup inner(&clock);
      for (int i = 1; i <= 3; ++i) {
        inner.Spawn([&clock, i] { clock.SleepFor(i * 100); });
      }
      inner.JoinAll();
      joined_at = clock.Now();
    });
  }
  EXPECT_EQ(joined_at, 300u);
}

TEST(ActorGroupTest, CmAndScrubberDrainFromInsideAnActor) {
  // Shutdown drains park the calling actor in virtual time: it resumes at
  // the tick where the last loop observed its flag and exited.
  SimEnvironment env(7);
  net::RpcTransport rpc(&env);
  net::RdmaFabric fabric(&env);
  SimNode* cm_node = env.AddNode("cm", NodeConfig{});
  NodeConfig pmem_cfg;
  pmem_cfg.storage = HardwareProfile::OptanePmem(env.NextSeed());
  SimNode* pmem_node = env.AddNode("pmem-0", pmem_cfg);
  astore::ClusterManager cm(&env, &rpc, cm_node,
                            astore::ClusterManager::Options{});
  astore::AStoreServer::Options server_opts;
  server_opts.pmem_capacity = 4 * kMiB;
  astore::AStoreServer server(&env, &rpc, &fabric, pmem_node, server_opts);
  cm.RegisterServer(&server);
  astore::AStoreClient scrub_client(&env, &rpc, &fabric, cm_node, pmem_node,
                                    /*client_id=*/90,
                                    astore::AStoreClient::Options{});
  astore::Scrubber::Options scrub_opts;
  scrub_opts.scrub_period = 100 * kMillisecond;
  astore::Scrubber scrubber(&env, &scrub_client, &server, scrub_opts);

  Timestamp drained_at = 0;
  env.clock()->RegisterActor();
  {
    ActorGroup background(env.clock());
    cm.StartBackground(&background);
    scrubber.StartBackground(&background);
    background.Spawn([&] {
      env.clock()->SleepUntil(230 * kMillisecond);
      scrubber.RequestShutdown();
      cm.RequestShutdown();
      scrubber.Shutdown();  // the scrub loop wakes next at 300 ms
      cm.Shutdown();        // the health loop exited at its 250 ms tick
      drained_at = env.clock()->Now();
    });
    background.Start();
  }
  env.clock()->UnregisterActor();
  EXPECT_EQ(drained_at, 300 * kMillisecond);
}

}  // namespace
}  // namespace vedb::sim
