#include "sim/lock_order.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>

#include "common/thread_annotations.h"
#include "sim/actor_local.h"
#include "sim/race_detector.h"

namespace vedb::sim {

std::atomic<bool> LockOrderGraph::enabled_{false};

namespace {

// Per-actor stack of currently held vedb::Mutex instances. Only the owning
// actor touches its stack, so no lock is needed; the epoch tag discards
// state left over from before the last Enable().
struct HeldLock {
  const void* mu;
  std::string cls;
  std::string site;
};
struct HeldStack {
  std::vector<HeldLock> locks;
  uint64_t gen = 0;
};
ActorLocal<HeldStack> actor_held;

std::string Basename(const char* file) {
  const char* slash = std::strrchr(file, '/');
  return slash != nullptr ? slash + 1 : file;
}

std::string Site(const char* file, int line) {
  return Basename(file) + ":" + std::to_string(line);
}

}  // namespace

LockOrderGraph& LockOrderGraph::Instance() {
  static LockOrderGraph* graph = new LockOrderGraph();
  return *graph;
}

void LockOrderGraph::Enable() {
  InstallMutexObserver();
  LockOrderGraph& g = Instance();
  std::lock_guard<std::mutex> lk(g.mu_);
  g.ResetLocked();
  enabled_.store(true, std::memory_order_relaxed);
}

void LockOrderGraph::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void LockOrderGraph::ResetLocked() {
  epoch_gen_.fetch_add(1, std::memory_order_relaxed);
  edges_.clear();
}

namespace {

// The calling actor's held stack, emptied if it predates the last Enable().
// Returns true if the stack was current.
bool CurrentHeld(uint64_t gen, std::vector<HeldLock>** held) {
  HeldStack& mine = actor_held.Get();
  *held = &mine.locks;
  if (mine.gen == gen) return true;
  mine.locks.clear();
  mine.gen = gen;
  return false;
}

std::string RenderHeld(const std::vector<HeldLock>& held) {
  std::string stack;
  for (const HeldLock& h : held) {
    if (!stack.empty()) stack += ", ";
    stack += h.cls + "@" + h.site;
  }
  return stack;
}

}  // namespace

void LockOrderGraph::OnAcquire(const void* mu, const char* cls,
                               const char* file, int line) {
  std::vector<HeldLock>* held = nullptr;
  CurrentHeld(epoch_gen_.load(std::memory_order_relaxed), &held);
  const std::string site = Site(file, line);
  if (!held->empty()) {
    // Render the held stack once; shared by every edge this acquisition adds.
    const std::string stack = RenderHeld(*held);
    std::lock_guard<std::mutex> lk(mu_);
    for (const HeldLock& h : *held) {
      if (h.cls == cls) continue;  // same-class nesting: not an order edge
      edges_[{h.cls, cls}].sites.insert(h.cls + "@" + h.site + " -> " + cls +
                                        "@" + site + " [held: " + stack + "]");
    }
  }
  held->push_back(HeldLock{mu, cls, site});
}

void LockOrderGraph::OnRelease(const void* mu) {
  std::vector<HeldLock>* held = nullptr;
  if (!CurrentHeld(epoch_gen_.load(std::memory_order_relaxed), &held)) return;
  // Locks are almost always released LIFO; search from the top for the
  // occasional out-of-order release (relockable MutexLock patterns).
  for (auto it = held->rbegin(); it != held->rend(); ++it) {
    if (it->mu == mu) {
      held->erase(std::next(it).base());
      return;
    }
  }
}

std::string LockOrderGraph::CurrentActorHeld() const {
  std::vector<HeldLock>* held = nullptr;
  CurrentHeld(epoch_gen_.load(std::memory_order_relaxed), &held);
  return RenderHeld(*held);
}

uint64_t LockOrderGraph::edge_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return edges_.size();
}

void LockOrderGraph::RegisterContract(const std::string& before,
                                      const std::string& after) {
  if (before == after) return;  // same-class nesting is not an order edge
  LockOrderGraph& g = Instance();
  std::lock_guard<std::mutex> lk(g.mu_);
  g.contracts_.insert({before, after});
}

uint64_t LockOrderGraph::contract_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return contracts_.size();
}

std::vector<std::vector<std::string>> LockOrderGraph::CyclesLocked() const {
  // Deterministic Tarjan SCC: nodes visited in sorted order, adjacency
  // iterated in sorted order (both fall out of the ordered edge map).
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, edge] : edges_) {
    adj[key.first].push_back(key.second);
    adj[key.second];  // ensure the target exists as a node
  }
  // Declared contracts are edges too: holding `before` may take `after`.
  // A runtime acquisition in the reverse direction then closes a cycle.
  for (const auto& [before, after] : contracts_) {
    std::vector<std::string>& out = adj[before];
    if (std::find(out.begin(), out.end(), after) == out.end()) {
      out.push_back(after);
    }
    adj[after];
  }

  struct NodeState {
    int index = -1;
    int lowlink = 0;
    bool on_stack = false;
  };
  std::map<std::string, NodeState> state;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> sccs;
  int next_index = 0;

  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& v) {
        NodeState& sv = state[v];
        sv.index = sv.lowlink = next_index++;
        sv.on_stack = true;
        stack.push_back(v);
        auto it = adj.find(v);
        if (it != adj.end()) {
          for (const std::string& w : it->second) {
            NodeState& sw = state[w];
            if (sw.index < 0) {
              strongconnect(w);
              sv.lowlink = std::min(sv.lowlink, state[w].lowlink);
            } else if (sw.on_stack) {
              sv.lowlink = std::min(sv.lowlink, sw.index);
            }
          }
        }
        if (sv.lowlink == sv.index) {
          std::vector<std::string> scc;
          while (true) {
            std::string w = stack.back();
            stack.pop_back();
            state[w].on_stack = false;
            scc.push_back(std::move(w));
            if (scc.back() == v) break;
          }
          if (scc.size() > 1) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
      };
  for (const auto& [node, _] : adj) {
    if (state[node].index < 0) strongconnect(node);
  }
  // Tarjan emits SCCs in reverse topological order, which depends on the
  // traversal; sort by member list for a stable report.
  std::sort(sccs.begin(), sccs.end());
  return sccs;
}

uint64_t LockOrderGraph::CycleCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return CyclesLocked().size();
}

std::string LockOrderGraph::Report() const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto cycles = CyclesLocked();
  std::ostringstream out;
  out << "== lock-order report ==\n";
  out << "edges: " << edges_.size() << "  contracts: " << contracts_.size()
      << "  cycles: " << cycles.size() << "\n";
  for (const auto& [key, edge] : edges_) {
    out << "edge " << key.first << " -> " << key.second << "\n";
    for (const std::string& s : edge.sites) {
      out << "  " << s << "\n";
    }
  }
  for (const auto& [before, after] : contracts_) {
    out << "contract " << before << " -> " << after << "\n";
  }
  for (const auto& scc : cycles) {
    out << "cycle among:";
    for (const std::string& cls : scc) out << " " << cls;
    out << "\n";
    // The edges internal to the component are the contradiction; list them.
    std::set<std::string> members(scc.begin(), scc.end());
    for (const auto& [key, edge] : edges_) {
      if (members.count(key.first) == 0 || members.count(key.second) == 0) {
        continue;
      }
      out << "  " << key.first << " -> " << key.second << "\n";
      for (const std::string& s : edge.sites) {
        out << "    " << s << "\n";
      }
    }
    for (const auto& [before, after] : contracts_) {
      if (members.count(before) != 0 && members.count(after) != 0) {
        out << "  " << before << " -> " << after << " [contract]\n";
      }
    }
  }
  out << "== end lock-order report ==\n";
  return out.str();
}

// ---------------- MutexObserver installation ----------------

namespace {

void ObserverAcquire(const void* mu, const char* cls, const char* file,
                     int line) {
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().LockAcquired(mu);
  }
  if (LockOrderGraph::IsEnabled()) {
    LockOrderGraph::Instance().OnAcquire(mu, cls, file, line);
  }
}

void ObserverRelease(const void* mu, const char* /*cls*/) {
  if (LockOrderGraph::IsEnabled()) {
    LockOrderGraph::Instance().OnRelease(mu);
  }
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().LockReleased(mu);
  }
}

const MutexObserver kSimMutexObserver{&ObserverAcquire, &ObserverRelease};

void WriteLockOrderReportAtExit() {
  LockOrderGraph& g = LockOrderGraph::Instance();
  if (!LockOrderGraph::IsEnabled()) return;
  const std::string report = g.Report();
  const char* path = std::getenv("VEDB_LOCK_ORDER_REPORT");
  if (path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f != nullptr) {
      std::fwrite(report.data(), 1, report.size(), f);
      std::fclose(f);
    }
  }
  if (g.CycleCount() > 0) {
    std::fwrite(report.data(), 1, report.size(), stderr);
    std::fflush(stderr);
    // atexit context: the test binary already "passed"; make the
    // lock-order inversion unmissable for the ctest harness.
    std::_Exit(65);
  }
}

}  // namespace

void InstallMutexObserver() {
  SetMutexObserver(&kSimMutexObserver);
}

void InitLockOrderFromEnv() {
  static bool initialized = false;
  // Waiver(thread-annotations): guards function-local init state only.
  static std::mutex init_mu;
  std::lock_guard<std::mutex> lk(init_mu);
  if (initialized) return;
  initialized = true;
  const char* flag = std::getenv("VEDB_LOCK_ORDER");
  if (flag == nullptr || flag[0] == '\0' || std::strcmp(flag, "0") == 0) {
    return;
  }
  if (!LockOrderGraph::IsEnabled()) LockOrderGraph::Enable();
  std::atexit(&WriteLockOrderReportAtExit);
}

}  // namespace vedb::sim
