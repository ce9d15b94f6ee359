// Virtual-time runtime: simulation actors are stackful fibers whose
// blocking all flows through a shared VirtualClock. When every actor is
// asleep (with a wake time) or parked (on a VirtualCondition), the clock
// jumps to the earliest pending wake time. Database code therefore runs
// unmodified as ordinary blocking code while all latency is measured in
// deterministic virtual nanoseconds.
//
// Execution is SERIALIZED: the clock grants a single run token, so at most
// one actor executes at a time. Actors woken at the same virtual instant run
// one after another in a deterministic ready order (timer pop order,
// condition parking order, spawn order). This is what makes two identical
// seeded runs byte-identical even when many actors wake at the same instant
// and contend for shared device queues or RNG draws.
//
// Two kinds of actor share that token:
//  * Spawned actors (ActorGroup::Spawn) are fibers: each has its own 8 MiB
//    lazily-committed stack, and all of a clock's fibers run on one carrier
//    thread, started at the clock's first Spawn and joined when the clock is
//    destroyed. Handing the token from one fiber to another is a user-space
//    context switch, not a kernel thread hand-off.
//  * OS threads take part by calling RegisterActor (a bench's main thread),
//    or as "guests": a thread that never registered but blocks on the clock
//    (e.g. a test main joining a group) joins the actor set for the duration
//    of that block. Threads receive the token through a condition variable.
//    A thread that is neither registered nor blocked runs outside the token
//    and may interleave with actors in real time; fully deterministic phases
//    must be driven by a registered thread or by spawned actors.
//
// Rules for actor code:
//  * Short critical sections may use plain mutexes, but no lock may be held
//    across a block on the clock: the next actor may need it, and on the
//    shared carrier thread it would wait for itself. Under the lock-order
//    graph (VEDB_LOCK_ORDER=1) blocking while holding a vedb::Mutex aborts.
//  * Any wait whose release depends on another actor making progress in
//    virtual time (row locks held across I/O, group-commit waits, RPC
//    completions, joining actors) must use VirtualCondition or SleepFor;
//    a real-time wait inside a fiber stalls every actor of its clock.
//  * Never spin on shared state waiting for another actor without blocking
//    through the clock — the spinner holds the run token forever.
//  * Per-actor state uses ActorLocal (sim/actor_local.h), not thread_local.

#ifndef VEDB_SIM_CLOCK_H_
#define VEDB_SIM_CLOCK_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/actor_local.h"
#include "sim/race_detector.h"

namespace vedb::sim {

class ActorGroup;
class VirtualCondition;

/// The global virtual clock for one simulation. Thread safe. Wakeups are
/// targeted (a fiber switch or a per-thread condition variable), so large
/// actor counts do not cause a thundering herd on every advance.
class VirtualClock {
 public:
  VirtualClock();
  /// Joins the carrier thread. Every ActorGroup of this clock must have
  /// been joined (destroyed) first.
  ~VirtualClock();
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// Current virtual time in nanoseconds.
  Timestamp Now() const;

  /// Declares the calling OS thread an actor. Every actor must either be
  /// runnable or blocked through this clock; the clock only advances when
  /// all actors are blocked. Blocks until the scheduler grants the calling
  /// thread the run token. Spawned actors are actors already and must not
  /// call this.
  void RegisterActor();

  /// Removes the calling thread from the actor set (call before exit).
  void UnregisterActor();

  /// Blocks the calling actor until virtual time reaches `t`.
  void SleepUntil(Timestamp t);

  /// Blocks the calling actor for `d` virtual nanoseconds.
  void SleepFor(Duration d);

 private:
  friend class ActorGroup;
  friend class VirtualCondition;
  friend void** internal::ActorLocalCell(int key, void (*destroy)(void*));

  // One actor's parking slot and per-actor state (defined in clock.cc). An
  // actor is only ever blocked on its own slot.
  struct ActorSlot;
  // A spawned actor: slot, stack and saved context.
  struct Fiber;
  // The carrier thread and its scheduler context.
  struct Carrier;

  struct SleepEntry {
    Timestamp wake;
    ActorSlot* slot;
    uint64_t seq;
    bool operator>(const SleepEntry& o) const { return wake > o.wake; }
  };

  // All state below guarded by mu_.
  bool EntryStaleLocked(const SleepEntry& e) const;
  /// The scheduler: hands the run token to the next ready actor, or — when
  /// nothing is ready and every actor is blocked — advances virtual time
  /// and readies the due sleepers. No-op while the token is held.
  void ScheduleLocked();
  /// Makes `slot` the token holder and wakes its thread or carrier.
  void GrantLocked(ActorSlot* slot);
  /// Waits until `slot` holds the token: a thread waits on its condition
  /// variable, a fiber switches to whichever context runs next.
  void WaitForTokenLocked(std::unique_lock<std::mutex>& lk, ActorSlot* slot);
  /// Blocks the current actor; if `deadline` is non-null a timer entry is
  /// registered too.
  void BlockCurrentLocked(std::unique_lock<std::mutex>& lk, ActorSlot* slot,
                          const Timestamp* deadline = nullptr);
  /// Parks the current actor on `cond` (and on a timer if `deadline` is
  /// non-null) until a notify or the deadline wakes it.
  void ParkLocked(std::unique_lock<std::mutex>& lk, VirtualCondition* cond,
                  const Timestamp* deadline);
  /// Readies every actor parked on `cond`.
  void WakeAllLocked(VirtualCondition* cond);

  /// The fiber running on the calling thread (null outside fibers).
  static Fiber*& CurrentFiber();
  /// The calling actor's slot: the running fiber's, else the thread's own.
  static ActorSlot* CurrentSlot();

  /// Creates a fiber for `fn` owned by `group`; not yet admitted.
  Fiber* NewFiber(std::function<void()> fn, ActorGroup* group);
  /// Starts the carrier thread on first use.
  void EnsureCarrierLocked();
  /// The carrier thread's body: resumes whichever fiber holds the token,
  /// reaps finished fibers, idles otherwise.
  void CarrierLoop();
  /// Entry point of every fiber (makecontext target).
  static void FiberMain();
  /// Body of every fiber; never returns.
  [[noreturn]] void RunFiber(Fiber* fiber);
  /// Frees a finished fiber and hands its token on (carrier context).
  void ReapLocked(Fiber* fiber);
  /// Drops timer entries that point at `slot` (its owner is going away).
  void PurgeSleepersLocked(const ActorSlot* slot);

  // Conditions with parked waiters (diagnostics for deadlock reports).
  std::set<VirtualCondition*> parked_conditions_;

  // Waiver(thread-annotations): the clock core keeps std::mutex — its
  // condition_variables require std::unique_lock<std::mutex>, and the clock
  // is the substrate the vedb::Mutex instrumentation itself runs on (the
  // lock-order graph excludes its own runtime, like lockdep does).
  mutable std::mutex mu_;
  Timestamp now_ = 0;
  int actors_ = 0;
  int blocked_ = 0;  // actors currently sleeping/parked
  int fibers_ = 0;   // live spawned actors (a subset of actors_)
  ActorSlot* runner_ = nullptr;   // holder of the run token, if any
  std::deque<ActorSlot*> ready_;  // woken actors awaiting the token, FIFO
  // Spawned-but-not-yet-admitted actors. They are flushed into ready_ in
  // ticket (spawn) order at the next dispatch.
  std::vector<std::pair<uint64_t, ActorSlot*>> pending_admission_;
  // Actors spawned into groups that have not been started; dispatch is
  // held while any exist (see ActorGroup).
  int gated_actors_ = 0;
  uint64_t next_ticket_ = 1;
  std::priority_queue<SleepEntry, std::vector<SleepEntry>,
                      std::greater<SleepEntry>>
      sleepers_;
  std::unique_ptr<Carrier> carrier_;  // created at the first Spawn
};

/// An eventcount-style condition integrated with the virtual clock: parked
/// waiters count as blocked so the clock can keep advancing, and a notify
/// makes them logically runnable at the current virtual instant.
///
/// Usage (user_mu guards the predicate's state):
///   std::unique_lock<std::mutex> lk(user_mu);
///   cond.Wait(lk, [&] { return ready; });
/// Notifier:
///   { std::lock_guard<std::mutex> lk(user_mu); ready = true; }
///   cond.NotifyAll();
class VirtualCondition {
 public:
  explicit VirtualCondition(VirtualClock* clock, const char* name = "?")
      : clock_(clock), name_(name) {}
  VirtualCondition(const VirtualCondition&) = delete;
  VirtualCondition& operator=(const VirtualCondition&) = delete;

  /// Blocks until `pred()` is true. `lock` must be held on entry and is held
  /// again on return; it is released while parked.
  template <typename Pred>
  void Wait(std::unique_lock<std::mutex>& lock, Pred pred) {
    while (true) {
      uint64_t g = PrepareWait();
      if (pred()) return;
      RaceLockReleased(lock.mutex());
      lock.unlock();
      CommitWait(g);
      lock.lock();
      RaceLockAcquired(lock.mutex());
    }
  }

  /// Like Wait, but gives up at virtual time `deadline`. Returns true if
  /// `pred()` held on exit, false on timeout.
  template <typename Pred>
  bool WaitUntil(std::unique_lock<std::mutex>& lock, Timestamp deadline,
                 Pred pred) {
    while (true) {
      uint64_t g = PrepareWait();
      if (pred()) return true;
      if (clock_->Now() >= deadline) return false;
      RaceLockReleased(lock.mutex());
      lock.unlock();
      CommitWaitUntil(g, deadline);
      lock.lock();
      RaceLockAcquired(lock.mutex());
    }
  }

  /// As Wait above, for predicate state guarded by an annotated
  /// vedb::Mutex. `mu` must be held on entry and is held again on return.
  /// The body toggles the lock through the wait, which the static analysis
  /// cannot follow; callers are still checked against REQUIRES(mu).
  template <typename Pred>
  void Wait(vedb::Mutex* mu, Pred pred) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    while (true) {
      uint64_t g = PrepareWait();
      if (pred()) return;
      mu->Unlock();
      CommitWait(g);
      mu->Lock();
    }
  }

  /// As WaitUntil above, for vedb::Mutex-guarded state.
  template <typename Pred>
  bool WaitUntil(vedb::Mutex* mu, Timestamp deadline, Pred pred) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    while (true) {
      uint64_t g = PrepareWait();
      if (pred()) return true;
      if (clock_->Now() >= deadline) return false;
      mu->Unlock();
      CommitWaitUntil(g, deadline);
      mu->Lock();
    }
  }

  /// Wakes all parked waiters. Call after mutating the predicate's state
  /// (holding or having released the user lock).
  void NotifyAll();

 private:
  friend class VirtualClock;

  uint64_t PrepareWait();
  void CommitWait(uint64_t generation);
  void CommitWaitUntil(uint64_t generation, Timestamp deadline);

  VirtualClock* clock_;
  const char* name_;
  // Guarded by clock_->mu_:
  uint64_t generation_ = 0;
  std::vector<VirtualClock::ActorSlot*> parked_;
};

/// Spawns actors (fibers on the clock's carrier thread) and joins them on
/// destruction.
///
/// Actors spawned before Start() are held at a gate: while any are held the
/// clock dispatches no one, so a coordinator (e.g. a test's main thread) can
/// spawn several actors without the first one racing virtual time ahead of
/// the others. JoinAll()/destruction call Start() implicitly. Actors spawned
/// after Start() are admitted at once; they enter the ready queue in spawn
/// order at the next dispatch, which is deterministic when the spawner is
/// itself a running actor (the clock cannot advance while it runs).
class ActorGroup {
 public:
  explicit ActorGroup(VirtualClock* clock);
  ~ActorGroup() { JoinAll(); }
  ActorGroup(const ActorGroup&) = delete;
  ActorGroup& operator=(const ActorGroup&) = delete;

  /// Creates a new actor running `fn`. The actor is counted immediately,
  /// so the clock cannot race past its birth.
  void Spawn(std::function<void()> fn);

  /// Opens the gate: all previously spawned actors are admitted.
  void Start();

  /// Opens the gate if needed and parks the caller (in virtual time) until
  /// every spawned actor has exited. May be called from any actor or
  /// thread except one of this group's own actors.
  void JoinAll();

 private:
  friend class VirtualClock;

  VirtualClock* clock_;
  VirtualCondition exited_;
  // Guarded by clock_->mu_:
  bool started_ = false;
  int live_ = 0;  // spawned actors not yet reaped
  std::vector<std::pair<uint64_t, VirtualClock::ActorSlot*>> gated_;
};

}  // namespace vedb::sim

#endif  // VEDB_SIM_CLOCK_H_
