#include "sim/clock.h"

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "common/logging.h"
#include "sim/lock_order.h"

// Fiber switches are announced to the sanitizers, which otherwise lose
// track of which stack is live: ASan would misreport (or miss) stack
// accesses, and TSan would merge every fiber into the carrier thread.
#if defined(__SANITIZE_ADDRESS__)
#define VEDB_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VEDB_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define VEDB_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VEDB_FIBER_TSAN 1
#endif
#endif
#ifdef VEDB_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef VEDB_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace vedb::sim {

namespace {

// The clock the current OS thread is registered with (at most one).
thread_local VirtualClock* tls_actor_clock = nullptr;

// A fiber stack is as large as a thread's default stack; MAP_NORESERVE
// commits only the pages the fiber touches.
constexpr size_t kFiberStackSize = 8 << 20;

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// A saved execution context on the carrier thread: the carrier's scheduler
// loop or one fiber. The stack bounds and handles serve the sanitizers.
struct ExecContext {
  ucontext_t uc{};
  void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

// Saves the running context into `from` and resumes `to` on this thread.
// `from_exits` means `from` is never resumed (its sanitizer state is freed).
void SwitchContext(ExecContext* from, ExecContext* to, bool from_exits) {
#ifdef VEDB_FIBER_ASAN
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from->asan_fake_stack,
                                 to->stack_bottom, to->stack_size);
#else
  (void)from_exits;
#endif
#ifdef VEDB_FIBER_TSAN
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  swapcontext(&from->uc, &to->uc);
#ifdef VEDB_FIBER_ASAN
  __sanitizer_finish_switch_fiber(from->asan_fake_stack, nullptr, nullptr);
#endif
}

}  // namespace

// Per-actor parking slot. `seq` increments on every block so stale timer
// entries from earlier blocks can be recognized and skipped. `runnable`
// means "holds the run token, may execute"; `ready` means "logically woken,
// queued for the token".
struct VirtualClock::ActorSlot {
  std::condition_variable cv;  // a thread actor waits here for the token
  Fiber* fiber = nullptr;      // the spawned actor owning this slot, if any
  bool runnable = true;
  bool ready = false;
  uint64_t seq = 0;
  // ActorLocal values of this actor and their destructors, by key.
  std::vector<std::pair<void*, void (*)(void*)>> locals;

  ActorSlot() = default;
  ActorSlot(const ActorSlot&) = delete;
  ActorSlot& operator=(const ActorSlot&) = delete;
  ~ActorSlot() {
    for (auto& [value, destroy] : locals) {
      if (value != nullptr) destroy(value);
    }
  }
};

struct VirtualClock::Fiber {
  VirtualClock* clock = nullptr;
  ActorGroup* group = nullptr;
  ActorSlot slot;
  ExecContext ctx;
  void* mapping = nullptr;  // guard page + stack
  size_t mapping_size = 0;
  std::function<void()> fn;
  uint64_t fork_token = 0;  // race-detector fork edge from the spawner
};

struct VirtualClock::Carrier {
  std::condition_variable cv;  // the scheduler loop idles here
  bool idle = false;
  bool stop = false;
  Fiber* exited = nullptr;  // a finished fiber the loop must reap
  ExecContext ctx;          // the scheduler loop's own context
  std::thread thread;       // last: it runs on the members above
};

VirtualClock::Fiber*& VirtualClock::CurrentFiber() {
  thread_local Fiber* fiber = nullptr;
  return fiber;
}

VirtualClock::ActorSlot* VirtualClock::CurrentSlot() {
  Fiber* fiber = CurrentFiber();
  if (fiber != nullptr) return &fiber->slot;
  thread_local ActorSlot slot;
  return &slot;
}

namespace internal {

int NewActorLocalKey() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void** ActorLocalCell(int key, void (*destroy)(void*)) {
  auto& locals = VirtualClock::CurrentSlot()->locals;
  const size_t index = static_cast<size_t>(key);
  if (locals.size() <= index) locals.resize(index + 1, {nullptr, nullptr});
  locals[index].second = destroy;
  return &locals[index].first;
}

}  // namespace internal

VirtualClock::VirtualClock() = default;

VirtualClock::~VirtualClock() {
  if (carrier_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    VEDB_CHECK(fibers_ == 0,
               "clock destroyed with %d spawned actor(s) still alive; join "
               "every ActorGroup first",
               fibers_);
    carrier_->stop = true;
    carrier_->cv.notify_one();
  }
  carrier_->thread.join();
}

Timestamp VirtualClock::Now() const {
  std::lock_guard<std::mutex> lk(mu_);
  return now_;
}

bool VirtualClock::EntryStaleLocked(const SleepEntry& e) const {
  return e.slot->runnable || e.slot->ready || e.slot->seq != e.seq;
}

void VirtualClock::RegisterActor() {
  VEDB_CHECK(CurrentFiber() == nullptr,
             "a spawned actor is already an actor; RegisterActor is for "
             "OS threads");
  std::unique_lock<std::mutex> lk(mu_);
  actors_++;
  tls_actor_clock = this;
  // Joining the serialized schedule: wait for the run token like everyone
  // else (granted immediately when the simulation is otherwise idle).
  ActorSlot* slot = CurrentSlot();
  slot->seq++;  // invalidate any stale timer entries pointing at this slot
  slot->runnable = false;
  slot->ready = true;
  ready_.push_back(slot);
  ScheduleLocked();
  WaitForTokenLocked(lk, slot);
}

void VirtualClock::UnregisterActor() {
  VEDB_CHECK(CurrentFiber() == nullptr,
             "a spawned actor unregisters by returning");
  // Join edge: the exiting actor's effects become visible to whoever joins
  // afterwards (ActorGroup::JoinAll acquires the same sync clock).
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockBlockRelease(this);
  }
  std::lock_guard<std::mutex> lk(mu_);
  actors_--;
  tls_actor_clock = nullptr;
  VEDB_CHECK(actors_ >= 0, "more unregisters than registers");
  VEDB_CHECK(blocked_ <= actors_, "blocked actor unregistered");
  // The thread's slot outlives this call but may die with the thread;
  // purge any stale timer entries that still point at it (e.g. timed waits
  // that were notified before their deadline).
  ActorSlot* slot = CurrentSlot();
  PurgeSleepersLocked(slot);
  if (runner_ == slot) runner_ = nullptr;  // hand the token on
  ScheduleLocked();
}

void VirtualClock::PurgeSleepersLocked(const ActorSlot* slot) {
  std::vector<SleepEntry> keep;
  keep.reserve(sleepers_.size());
  while (!sleepers_.empty()) {
    if (sleepers_.top().slot != slot) keep.push_back(sleepers_.top());
    sleepers_.pop();
  }
  for (auto& entry : keep) sleepers_.push(entry);
}

void VirtualClock::ScheduleLocked() {
  while (true) {
    if (runner_ != nullptr) return;  // the token is held; nothing to do
    // While a group holds spawned actors at its gate, hold dispatch: once
    // it opens, all pending admissions flush in ticket order.
    if (gated_actors_ > 0) return;
    if (!pending_admission_.empty()) {
      std::sort(pending_admission_.begin(), pending_admission_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto& [ticket, slot] : pending_admission_) ready_.push_back(slot);
      pending_admission_.clear();
    }
    if (!ready_.empty()) {
      // Grant the run token to the next ready actor.
      ActorSlot* slot = ready_.front();
      ready_.pop_front();
      GrantLocked(slot);
      return;
    }
    if (actors_ == 0 || blocked_ < actors_) return;
    // Drop stale timer entries (owner already woken, or from an earlier
    // block of the same actor).
    while (!sleepers_.empty() && EntryStaleLocked(sleepers_.top())) {
      sleepers_.pop();
    }
    if (sleepers_.empty()) {
      for (VirtualCondition* cond : parked_conditions_) {
        fprintf(stderr, "deadlock diagnostic: condition '%s' has %zu parked "
                "waiter(s)\n", cond->name_, cond->parked_.size());
      }
      VEDB_CHECK(false,
                 "virtual-time deadlock: clock=%p actors=%d blocked=%d "
                 "now=%llu; a wait that depends on virtual time is not "
                 "using VirtualCondition/SleepFor",
                 (void*)this, actors_, blocked_, (unsigned long long)now_);
    }
    const Timestamp next = sleepers_.top().wake;
    if (next > now_) now_ = next;
    // Ready every sleeper whose time has arrived; they run one at a time in
    // timer pop order (the loop re-enters and dispatches ready_.front()).
    while (!sleepers_.empty() && sleepers_.top().wake <= now_) {
      SleepEntry entry = sleepers_.top();
      sleepers_.pop();
      if (EntryStaleLocked(entry)) continue;
      entry.slot->ready = true;
      blocked_--;
      ready_.push_back(entry.slot);
    }
    // Everything at this instant may have been stale; loop advances again.
  }
}

void VirtualClock::GrantLocked(ActorSlot* slot) {
  slot->ready = false;
  slot->runnable = true;
  runner_ = slot;
  if (slot->fiber == nullptr) {
    slot->cv.notify_one();
  } else if (carrier_->idle) {
    // A thread handed the token to a fiber: wake the carrier. A fiber
    // handing it on switches there itself (WaitForTokenLocked).
    carrier_->cv.notify_one();
  }
}

void VirtualClock::WaitForTokenLocked(std::unique_lock<std::mutex>& lk,
                                      ActorSlot* slot) {
  Fiber* self = slot->fiber;
  if (self == nullptr) {
    slot->cv.wait(lk, [&] { return slot->runnable; });
    return;
  }
  while (!slot->runnable) {
    // Switch straight to the fiber holding the token; otherwise to the
    // carrier's loop, which idles until a fiber is granted it. Switches
    // happen without mu_: every context owns its own lock/unlock pairs.
    Fiber* next = runner_ != nullptr ? runner_->fiber : nullptr;
    lk.unlock();
    CurrentFiber() = next;
    SwitchContext(&self->ctx, next != nullptr ? &next->ctx : &carrier_->ctx,
                  /*from_exits=*/false);
    lk.lock();
  }
}

void VirtualClock::BlockCurrentLocked(std::unique_lock<std::mutex>& lk,
                                      ActorSlot* slot,
                                      const Timestamp* deadline) {
  VEDB_CHECK(slot->fiber == nullptr || slot->fiber->clock == this,
             "a spawned actor blocked on a clock other than its own");
  // A lock held across a block is a latent deadlock: the next actor may
  // need it, and on the shared carrier thread it would wait for itself.
  if (LockOrderGraph::IsEnabled()) {
    const std::string held = LockOrderGraph::Instance().CurrentActorHeld();
    VEDB_CHECK(held.empty(),
               "actor blocks on the virtual clock while holding "
               "vedb::Mutex: %s",
               held.c_str());
  }
  // Threads that never registered (e.g. a test's main thread constructing
  // the cluster) join the actor set for the duration of the block, so the
  // clock can advance for them too.
  const bool guest = slot->fiber == nullptr && tls_actor_clock != this;
  if (guest) actors_++;
  slot->seq++;
  slot->runnable = false;
  slot->ready = false;
  if (deadline != nullptr) {
    sleepers_.push(SleepEntry{*deadline, slot, slot->seq});
  }
  // Race detection: blocking hands control to other actors — everything the
  // blocker did so far happens-before whatever runs after the next clock
  // hand-off. Release before ScheduleLocked so an actor woken inside
  // that call already sees this release.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockBlockRelease(this);
  }
  blocked_++;
  if (runner_ == slot) runner_ = nullptr;  // blocking releases the token
  ScheduleLocked();
  WaitForTokenLocked(lk, slot);
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockWakeAcquire(this);
  }
  // Whoever readied us (clock advance or condition notify) already
  // decremented blocked_ on our behalf; the dispatcher granted us the run
  // token. A guest leaves the actor set (and gives the token straight back)
  // the moment it wakes.
  if (guest) {
    actors_--;
    if (runner_ == slot) runner_ = nullptr;
    ScheduleLocked();
  }
}

void VirtualClock::ParkLocked(std::unique_lock<std::mutex>& lk,
                              VirtualCondition* cond,
                              const Timestamp* deadline) {
  ActorSlot* slot = CurrentSlot();
  cond->parked_.push_back(slot);
  parked_conditions_.insert(cond);
  // With a deadline the slot is registered with both the condition and a
  // timer; whichever fires first wins (the loser recognizes the slot as
  // already runnable / re-blocked).
  BlockCurrentLocked(lk, slot, deadline);
  if (deadline != nullptr) {
    // On a timer wake the parked_ entry would go stale and could spuriously
    // wake a *future* blocking of this same actor; remove it.
    auto it = std::find(cond->parked_.begin(), cond->parked_.end(), slot);
    if (it != cond->parked_.end()) cond->parked_.erase(it);
  }
  if (cond->parked_.empty()) parked_conditions_.erase(cond);
}

void VirtualClock::WakeAllLocked(VirtualCondition* cond) {
  cond->generation_++;
  for (ActorSlot* slot : cond->parked_) {
    if (slot->runnable || slot->ready) continue;  // already woken by timer
    slot->ready = true;
    blocked_--;
    ready_.push_back(slot);
  }
  cond->parked_.clear();
  parked_conditions_.erase(cond);
}

void VirtualClock::SleepUntil(Timestamp t) {
  std::unique_lock<std::mutex> lk(mu_);
  if (t <= now_) return;
  BlockCurrentLocked(lk, CurrentSlot(), &t);
}

void VirtualClock::SleepFor(Duration d) {
  std::unique_lock<std::mutex> lk(mu_);
  const Timestamp t = now_ + d;
  BlockCurrentLocked(lk, CurrentSlot(), &t);
}

// ---------------- fibers and the carrier thread ----------------

VirtualClock::Fiber* VirtualClock::NewFiber(std::function<void()> fn,
                                            ActorGroup* group) {
  auto* fiber = new Fiber();
  fiber->clock = this;
  fiber->group = group;
  fiber->slot.fiber = fiber;
  fiber->slot.runnable = false;
  fiber->slot.ready = true;  // admitted, but parked until its group flushes
  fiber->fn = std::move(fn);
  // Stacks grow down: the guard page sits at the lowest address.
  const size_t guard = PageSize();
  fiber->mapping_size = guard + kFiberStackSize;
  fiber->mapping =
      mmap(nullptr, fiber->mapping_size, PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  VEDB_CHECK(fiber->mapping != MAP_FAILED, "fiber stack mmap failed");
  VEDB_CHECK(mprotect(fiber->mapping, guard, PROT_NONE) == 0,
             "fiber guard page mprotect failed");
  fiber->ctx.stack_bottom = static_cast<char*>(fiber->mapping) + guard;
  fiber->ctx.stack_size = kFiberStackSize;
  VEDB_CHECK(getcontext(&fiber->ctx.uc) == 0, "getcontext failed");
  fiber->ctx.uc.uc_stack.ss_sp = fiber->ctx.stack_bottom;
  fiber->ctx.uc.uc_stack.ss_size = kFiberStackSize;
  fiber->ctx.uc.uc_link = nullptr;  // FiberMain never returns
  makecontext(&fiber->ctx.uc, &VirtualClock::FiberMain, 0);
#ifdef VEDB_FIBER_ASAN
  // ASan's swapcontext interceptor wipes the shadow of the target's
  // uc_stack on every switch. The switch annotations track the stacks
  // instead, and makecontext has no further use for the field.
  fiber->ctx.uc.uc_stack.ss_size = 0;
#endif
#ifdef VEDB_FIBER_TSAN
  fiber->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
  return fiber;
}

void VirtualClock::FiberMain() {
#ifdef VEDB_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  Fiber* fiber = CurrentFiber();
  fiber->clock->RunFiber(fiber);
}

void VirtualClock::RunFiber(Fiber* fiber) {
  // Fork edge: the spawner's prior writes happen-before the new actor.
  if (fiber->fork_token != 0 && RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ForkJoin(fiber->fork_token);
  }
  fiber->fn();
  fiber->fn = nullptr;  // the closure's captures die here, as this actor
  // Join edge: the exiting actor's effects become visible to whoever joins
  // the group (ActorGroup::JoinAll acquires the same sync clock).
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockBlockRelease(this);
  }
  // Still holding the token, hand over to the carrier's loop, which frees
  // this stack (a fiber cannot unmap the stack it runs on) and passes the
  // token on.
  {
    std::lock_guard<std::mutex> lk(mu_);
    carrier_->exited = fiber;
  }
  CurrentFiber() = nullptr;
  SwitchContext(&fiber->ctx, &carrier_->ctx, /*from_exits=*/true);
  VEDB_CHECK(false, "a finished fiber was resumed");
  __builtin_unreachable();
}

void VirtualClock::EnsureCarrierLocked() {
  if (carrier_ != nullptr) return;
  carrier_ = std::make_unique<Carrier>();
  carrier_->thread = std::thread([this] { CarrierLoop(); });
}

void VirtualClock::CarrierLoop() {
  Carrier* carrier = carrier_.get();
#ifdef VEDB_FIBER_ASAN
  pthread_attr_t attr;
  VEDB_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0,
             "pthread_getattr_np failed");
  pthread_attr_getstack(&attr, &carrier->ctx.stack_bottom,
                        &carrier->ctx.stack_size);
  pthread_attr_destroy(&attr);
#endif
#ifdef VEDB_FIBER_TSAN
  carrier->ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (carrier->exited != nullptr) {
      Fiber* fiber = carrier->exited;
      carrier->exited = nullptr;
      ReapLocked(fiber);
    } else if (runner_ != nullptr && runner_->fiber != nullptr) {
      Fiber* next = runner_->fiber;
      lk.unlock();
      CurrentFiber() = next;
      SwitchContext(&carrier->ctx, &next->ctx, /*from_exits=*/false);
      lk.lock();
    } else if (carrier->stop) {
      return;
    } else {
      carrier->idle = true;
      carrier->cv.wait(lk);
      carrier->idle = false;
    }
  }
}

void VirtualClock::ReapLocked(Fiber* fiber) {
#ifdef VEDB_FIBER_TSAN
  __tsan_destroy_fiber(fiber->ctx.tsan_fiber);
#endif
#ifdef VEDB_FIBER_ASAN
  // Frames that never returned leave poisoned shadow behind; a later
  // mapping at this address must start clean.
  ASAN_UNPOISON_MEMORY_REGION(fiber->mapping, fiber->mapping_size);
#endif
  VEDB_CHECK(munmap(fiber->mapping, fiber->mapping_size) == 0,
             "fiber stack munmap failed");
  actors_--;
  fibers_--;
  VEDB_CHECK(blocked_ <= actors_, "blocked actor exited");
  PurgeSleepersLocked(&fiber->slot);
  if (runner_ == &fiber->slot) runner_ = nullptr;  // hand the token on
  ActorGroup* group = fiber->group;
  delete fiber;
  if (--group->live_ == 0) WakeAllLocked(&group->exited_);
  ScheduleLocked();
}

// ---------------- VirtualCondition ----------------

uint64_t VirtualCondition::PrepareWait() {
  std::lock_guard<std::mutex> lk(clock_->mu_);
  return generation_;
}

void VirtualCondition::CommitWait(uint64_t generation) {
  std::unique_lock<std::mutex> lk(clock_->mu_);
  if (generation_ != generation) return;  // notified between prepare and park
  clock_->ParkLocked(lk, this, nullptr);
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().CondWakeAcquire(this);
  }
}

void VirtualCondition::CommitWaitUntil(uint64_t generation,
                                       Timestamp deadline) {
  std::unique_lock<std::mutex> lk(clock_->mu_);
  if (generation_ != generation) return;  // notified between prepare and park
  if (deadline <= clock_->now_) return;
  clock_->ParkLocked(lk, this, &deadline);
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().CondWakeAcquire(this);
  }
}

void VirtualCondition::NotifyAll() {
  // The notifier's prior writes happen-before the waiters' wakeups.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().CondNotifyRelease(this);
  }
  std::lock_guard<std::mutex> lk(clock_->mu_);
  clock_->WakeAllLocked(this);
  clock_->ScheduleLocked();
}

// ---------------- ActorGroup ----------------

ActorGroup::ActorGroup(VirtualClock* clock)
    : clock_(clock), exited_(clock, "sim.actor_group.exit") {}

void ActorGroup::Spawn(std::function<void()> fn) {
  VirtualClock::Fiber* fiber = clock_->NewFiber(std::move(fn), this);
  // Fork edge: the spawner's prior writes happen-before the new actor.
  if (RaceDetector::IsEnabled()) {
    fiber->fork_token = RaceDetector::Instance().ForkCapture();
  }
  std::lock_guard<std::mutex> lk(clock_->mu_);
  clock_->EnsureCarrierLocked();
  const uint64_t ticket = clock_->next_ticket_++;
  clock_->actors_++;
  clock_->fibers_++;
  live_++;
  if (started_) {
    clock_->pending_admission_.emplace_back(ticket, &fiber->slot);
    clock_->ScheduleLocked();
  } else {
    clock_->gated_actors_++;
    gated_.emplace_back(ticket, &fiber->slot);
  }
}

void ActorGroup::Start() {
  std::lock_guard<std::mutex> lk(clock_->mu_);
  if (started_) return;
  started_ = true;
  clock_->gated_actors_ -= static_cast<int>(gated_.size());
  for (auto& admission : gated_) {
    clock_->pending_admission_.push_back(admission);
  }
  gated_.clear();
  clock_->ScheduleLocked();
}

void ActorGroup::JoinAll() {
  Start();
  VirtualClock::Fiber* self = VirtualClock::CurrentFiber();
  VEDB_CHECK(self == nullptr || self->group != this,
             "an actor cannot join its own group");
  {
    // A virtual-time wait: the joinees keep running while the caller is
    // parked, and the last one to exit readies it.
    std::unique_lock<std::mutex> lk(clock_->mu_);
    while (live_ > 0) clock_->ParkLocked(lk, &exited_, nullptr);
  }
  // Join edge: every exited actor released into the clock's sync clock
  // before it finished; the joiner acquires all of it.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockWakeAcquire(clock_);
  }
}

}  // namespace vedb::sim
