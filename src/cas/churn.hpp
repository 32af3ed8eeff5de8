#pragma once
/// \file churn.hpp
/// Dynamic server membership: scheduled join/leave/crash/slowdown events that
/// the simulator (cas::GridSystem) and the live loopback harness apply
/// mid-run. Scenarios compile their churn timelines down to these; tests
/// hand-craft them.

#include <cstdint>
#include <string>
#include <vector>

#include "psched/machine.hpp"
#include "simcore/time.hpp"

namespace casched::cas {

enum class ChurnAction : std::uint8_t {
  kJoin,      ///< a new server registers with the agent mid-run
  kLeave,     ///< graceful departure: no new work, in-flight tasks drain
  kCrash,     ///< injected collapse: running tasks fail, recovery later
  kSlowdown,  ///< CPU capacity change (factor), optionally self-recovering
  kLink,      ///< link bandwidth change (factor), optionally self-recovering
};

ChurnAction parseChurnAction(const std::string& name);
std::string churnActionName(ChurnAction action);

struct ChurnEvent {
  simcore::SimTime time = 0.0;
  ChurnAction action = ChurnAction::kLeave;
  /// Target server; for kJoin this is the new server's name (must be unique).
  std::string server;
  /// kJoin only: the machine to instantiate.
  psched::MachineSpec joinSpec;
  /// kJoin only: relative speed for the agent's cost model (1.0 = reference).
  double speedIndex = 1.0;
  /// kSlowdown/kLink only: capacity multiplier (0.5 = half speed, 1.0 = restore).
  double factor = 1.0;
  /// kCrash: downtime before the machine recovers (0 = the machine's own
  /// recoverySeconds). kSlowdown/kLink: seconds until the factor restores to
  /// 1.0 on its own (0 = persistent until another event changes it). The
  /// generated fault processes (flapping, crash-repair cycles, bandwidth
  /// churn) drive both - one event carries the whole down/degraded episode,
  /// so the simulator and the live deployment replay it identically.
  double duration = 0.0;
};

}  // namespace casched::cas
