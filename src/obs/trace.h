// Span-based distributed tracing over virtual time. A Span covers one
// operation ([start, end] in virtual ns); spans link parent->child through a
// TraceContext that propagates two ways:
//
//  * Actor-ambient: SpanScope pushes its context onto a per-actor stack
//    (sim::ActorLocal), so nested scopes on one actor chain automatically
//    (the sim runs RPC handlers on the calling actor, so one log write
//    traces straight through client -> transport -> server handler).
//  * On the wire: RpcTransport prepends an encoded TraceContext to every
//    request (see EncodeTraceContext) and installs it around the server
//    handler, which is how a context "rides the RPC header" — the mechanism
//    a real deployment would use across machines.
//
// Analytically-timed paths (RdmaFabric::PrepareChain computes completion
// times without blocking) record spans post hoc with AddSpan(start, end).
//
// Tracing is off by default: instrumented code checks Tracer::Global(),
// which is null until a bench/test installs one. Span recording never
// advances the virtual clock, so traced and untraced runs have identical
// timing.

#ifndef VEDB_OBS_TRACE_H_
#define VEDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"

namespace vedb::obs {

/// Identifies a position in a trace tree: (which trace, which span).
/// trace_id 0 means "no active trace".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// Wire encoding of a TraceContext (16 bytes, fixed64 x2) — the "RPC
/// header" the transport prepends to requests.
void EncodeTraceContext(std::string* dst, const TraceContext& ctx);
bool DecodeTraceContext(Slice* in, TraceContext* ctx);
constexpr size_t kTraceContextWireSize = 16;

/// One finished span.
struct Span {
  uint64_t trace_id = 0;
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 for a trace root
  std::string name;
  Timestamp start = 0;
  Timestamp end = 0;
  std::vector<std::pair<std::string, std::string>> tags;
  Duration duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(sim::VirtualClock* clock) : clock_(clock) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a span with explicit virtual timestamps under `parent` (an
  /// invalid parent starts a new trace). Returns the new span's context.
  TraceContext AddSpan(std::string name, TraceContext parent, Timestamp start,
                       Timestamp end,
                       std::vector<std::pair<std::string, std::string>> tags =
                           {});

  /// All finished spans, sorted by (trace_id, start, id).
  std::vector<Span> FinishedSpans() const;

  /// Finished spans belonging to one trace, same order.
  std::vector<Span> TraceSpans(uint64_t trace_id) const;

  /// JSON array of all finished spans.
  std::string ToJson() const;

  void Clear();

  sim::VirtualClock* clock() { return clock_; }

  /// The context of the innermost open SpanScope/ContextScope on this
  /// actor (invalid context if none).
  static TraceContext CurrentContext();

  /// Installs/uninstalls the process-global tracer instrumented modules
  /// report to. Passing nullptr disables tracing.
  static void SetGlobal(Tracer* tracer);
  static Tracer* Global() {
    return global_.load(std::memory_order_acquire);
  }

 private:
  friend class SpanScope;
  friend class ContextScope;

  static void PushContext(const TraceContext& ctx);
  static void PopContext();

  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(Span span);

  sim::VirtualClock* clock_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> next_trace_id_{1};
  mutable vedb::Mutex mu_{"obs.tracer"};
  std::vector<Span> finished_ GUARDED_BY(mu_);

  static std::atomic<Tracer*> global_;
};

/// RAII span tied to the global tracer: starts at construction (virtual
/// now), becomes the actor's current context, finishes at destruction.
/// Inactive (zero cost beyond two branches) when no global tracer is set.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void AddTag(std::string key, std::string value);
  bool active() const { return tracer_ != nullptr; }
  TraceContext context() const { return ctx_; }

 private:
  Tracer* tracer_;  // nullptr when inactive
  TraceContext ctx_;
  Span span_;
};

/// Installs an explicit context as the actor's current one (server side of
/// an RPC: the decoded wire context). No span is recorded.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx) : active_(ctx.valid()) {
    if (active_) Tracer::PushContext(ctx);
  }
  ~ContextScope() {
    if (active_) Tracer::PopContext();
  }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  bool active_;
};

}  // namespace vedb::obs

#endif  // VEDB_OBS_TRACE_H_
