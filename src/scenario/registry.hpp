#pragma once
/// \file registry.hpp
/// Built-in named scenarios - the single source of truth for every
/// experiment the repo ships. Each is stored as scenario-format text (see
/// parser.hpp) so the registry doubles as a living corpus for the parser.
/// The paper's calibrated operating points (`paper/table5_matmul_low` ...)
/// and the ablation sweeps (`ablation/rate_sweep` ...) carry their full
/// campaign setup ([campaign]/[sweep] sections) and sit next to
/// production-shaped traffic (bursts, diurnal cycles, heavy tails, flash
/// crowds) and dynamic-membership stress (churny-grid) up to a 64-server
/// scale test (mega-cluster).

#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace casched::scenario {

/// Registry names in presentation order.
const std::vector<std::string>& scenarioNames();

/// Registry names sharing a prefix, e.g. "paper/" or "ablation/".
std::vector<std::string> scenarioNamesWithPrefix(const std::string& prefix);

/// Resolves a scenario selection the way the suite driver's --suite and
/// --scenarios take it: a group name, matched case-insensitively ("all",
/// "paper", "ablation"/"ablations", "churn", or "traffic" for the entries
/// with no group prefix), or else a comma-separated list whose entries are
/// trimmed but not checked against the registry. Throws util::ConfigError
/// for an empty list.
std::vector<std::string> resolveScenarioList(const std::string& value);

bool hasScenario(const std::string& name);

/// Raw scenario text of a registry entry; throws util::ConfigError if absent.
const std::string& scenarioText(const std::string& name);

/// Parsed registry entry; throws util::ConfigError if absent.
ScenarioSpec findScenario(const std::string& name);

}  // namespace casched::scenario
