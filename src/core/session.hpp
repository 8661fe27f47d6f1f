// Engine/session split (DESIGN.md §14).
//
// Every stateful layer of the risk stack is divided into an immutable,
// shareable *engine* — ReachTubeComputer, StiCalculator, RiskMonitor hold
// only validated params and const kernels after construction — and a cheap,
// reusable *session* holding everything that mutates per stream: the tube
// propagation scratch (which then persists across ticks, extending PR 3's
// zero-steady-state-allocation property from within a tube to across a whole
// stream) and the monitor's level/hysteresis counters.
//
// One engine serves any number of sessions concurrently; one session serves
// one stream at a time. Every engine entry point takes the session first
// (the lone exception is the cold-session StiCalculator::combined reference,
// see core/sti.hpp). Results are bit-identical whether a session is fresh or
// reused — the SessionIdentity suites enforce this.
#pragma once

#include <memory>

namespace iprism::core {

enum class RiskLevel;  // core/monitor.hpp

namespace detail {
struct SessionState;
}  // namespace detail

/// The mutable half of the risk stack: tube scratch buffers plus monitor
/// level/streak/update state. Opaque — engines reach inside via friendship;
/// callers only construct, reset, and read the monitor-visible fields.
///
/// Thread contract: one session serves one stream at a time (calls on the
/// same session must not overlap), but the internal scratch pool is
/// mutex-guarded, so one evaluation may fan its counterfactual replays
/// across worker threads that all lease scratch from this session. Distinct
/// sessions are fully independent and may run concurrently against one
/// shared engine.
class RiskSession {
 public:
  RiskSession();
  ~RiskSession();

  RiskSession(RiskSession&&) noexcept;
  RiskSession& operator=(RiskSession&&) noexcept;
  RiskSession(const RiskSession&) = delete;
  RiskSession& operator=(const RiskSession&) = delete;

  /// Current monitor risk level (kSafe on a fresh or reset session).
  RiskLevel level() const;
  /// Monitor updates processed through this session.
  long updates() const;

  /// Forgets all monitor state (level back to kSafe, streaks and update
  /// count cleared). Scratch buffers are kept — reset() is about semantics,
  /// not allocation, so a reset session is still warm.
  void reset();

 private:
  friend class ReachTubeComputer;
  friend class StiCalculator;
  friend class RiskMonitor;

  detail::SessionState& state() const { return *state_; }

  std::unique_ptr<detail::SessionState> state_;
};

}  // namespace iprism::core
