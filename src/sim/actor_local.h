// Per-actor storage for the sim runtime.
//
// Spawned actors are fibers that share one OS thread (their clock's
// carrier), so `thread_local` state would be shared by every actor of a
// clock. State that belongs to "whoever is running now" — the race
// detector's actor id, the lock-order graph's held-lock stack, the tracer's
// context stack — lives in an ActorLocal instead: one value per spawned
// actor, and one per OS thread for code running outside any fiber
// (registered and guest threads, a test's main thread).

#ifndef VEDB_SIM_ACTOR_LOCAL_H_
#define VEDB_SIM_ACTOR_LOCAL_H_

namespace vedb::sim {

namespace internal {
/// Allocates a process-wide key for one ActorLocal variable.
int NewActorLocalKey();
/// The calling actor's cell for `key`; `destroy` frees a non-null cell
/// when the actor ends. Implemented by the clock, which knows the actor.
void** ActorLocalCell(int key, void (*destroy)(void*));
}  // namespace internal

/// One default-constructed T per actor, created on first Get() and
/// destroyed when the actor (fiber or thread) ends. Declare instances at
/// namespace scope; Get() is not synchronized because only the owning
/// actor ever touches its own value.
template <typename T>
class ActorLocal {
 public:
  ActorLocal() : key_(internal::NewActorLocalKey()) {}
  ActorLocal(const ActorLocal&) = delete;
  ActorLocal& operator=(const ActorLocal&) = delete;

  T& Get() const {
    void** cell = internal::ActorLocalCell(key_, &Destroy);
    if (*cell == nullptr) *cell = new T();
    return *static_cast<T*>(*cell);
  }

 private:
  static void Destroy(void* value) { delete static_cast<T*>(value); }

  const int key_;
};

}  // namespace vedb::sim

#endif  // VEDB_SIM_ACTOR_LOCAL_H_
