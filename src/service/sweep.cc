#include "src/service/sweep.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/json_util.h"

namespace defl {

namespace {

constexpr VmId kSweepVmIdBase = 2'000'000'000'000LL;

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Trim(const std::string& s) {
  const size_t first = s.find_first_not_of(" \t");
  if (first == std::string::npos) {
    return std::string();
  }
  const size_t last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    const size_t comma = s.find(',', begin);
    parts.push_back(Trim(s.substr(begin, comma - begin)));
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return parts;
}

bool ParseF64(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseI64(const std::string& text, int64_t* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = v;
  return true;
}

Result<PlacementPolicy> ParsePolicy(const std::string& name) {
  if (name == "best-fit") {
    return PlacementPolicy::kBestFit;
  }
  if (name == "first-fit") {
    return PlacementPolicy::kFirstFit;
  }
  if (name == "2-choices") {
    return PlacementPolicy::kTwoChoices;
  }
  return Error{"unknown placement policy '" + name +
               "' (expected best-fit, first-fit, or 2-choices)"};
}

// cpu:mem[:disk[:net]]
Result<ResourceVector> ParseShape(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    const size_t colon = text.find(':', begin);
    parts.push_back(text.substr(begin, colon - begin));
    if (colon == std::string::npos) {
      break;
    }
    begin = colon + 1;
  }
  if (parts.size() < 2 || parts.size() > 4) {
    return Error{"shape '" + text +
                 "' must be cpu:mem[:disk[:net]] (2 to 4 components)"};
  }
  double dims[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!ParseF64(parts[i], &dims[i]) || dims[i] < 0.0) {
      return Error{"shape component '" + parts[i] + "' in '" + text +
                   "' is not a number >= 0"};
    }
  }
  if (dims[0] <= 0.0) {
    return Error{"shape '" + text + "' must have cpu > 0"};
  }
  return ResourceVector(dims[0], dims[1], dims[2], dims[3]);
}

// One cell of the grid, executed on a private child session. `service`
// provides the shared blob and trace; everything else is cell-local.
Result<std::string> RunCell(const WhatIfService& service, const SweepGrid& grid,
                            PlacementPolicy policy, double fail_fraction,
                            double overcommit_target, double intensity) {
  TelemetryContext telemetry;
  Result<SimSession> restored =
      service.RestoreChild(&telemetry, static_cast<int>(policy));
  if (!restored.ok()) {
    return Error{"sweep cell restore failed: " + restored.error()};
  }
  SimSession& session = restored.value();
  ClusterManager& manager = session.manager();
  const ClusterCounters before = manager.counters();

  // 1. Fault stage: crash the configured fraction of healthy servers, with
  // the same seeded canonical draw the fail query uses.
  int64_t failed = 0;
  if (fail_fraction > 0.0) {
    std::vector<ServerId> healthy;
    const std::vector<ServerHealth>& states = manager.health_states();
    std::vector<Server*> servers = manager.servers();
    for (size_t i = 0; i < states.size(); ++i) {
      if (states[i] == ServerHealth::kHealthy) {
        healthy.push_back(servers[i]->id());
      }
    }
    const int64_t n = static_cast<int64_t>(healthy.size());
    int64_t k = static_cast<int64_t>(
        std::floor(fail_fraction * static_cast<double>(n) + 0.5));
    if (k > n) {
      k = n;
    }
    Rng rng(grid.fail_seed);
    for (int64_t i = 0; i < k; ++i) {
      const int64_t j = rng.UniformInt(i, n - 1);
      std::swap(healthy[static_cast<size_t>(i)],
                healthy[static_cast<size_t>(j)]);
    }
    std::vector<ServerId> victims(healthy.begin(), healthy.begin() + k);
    std::sort(victims.begin(), victims.end());
    for (ServerId id : victims) {
      manager.CrashServer(id);
    }
    failed = k;
  }

  // 2. Admission stage: push `shape` VMs (the intensity axis scales the
  // budget) until the overcommit target is reached or a launch bounces.
  const int64_t budget = static_cast<int64_t>(
      std::floor(intensity * static_cast<double>(grid.limit) + 0.5));
  VmSpec spec;
  spec.name = "sweep";
  spec.size = grid.shape;
  spec.priority = VmPriority::kLow;
  int64_t admitted = 0;
  int64_t attempts = 0;
  while (attempts < budget && manager.Overcommitment() < overcommit_target) {
    std::unique_ptr<Vm> vm = std::make_unique<Vm>(kSweepVmIdBase + attempts, spec);
    ++attempts;
    if (manager.LaunchVm(std::move(vm)).ok()) {
      ++admitted;
    } else {
      break;
    }
  }

  // 3. Sim stage: let the fleet evolve under its snapshotted workload.
  const ClusterCounters mid = manager.counters();
  if (grid.hours > 0.0) {
    session.StepUntil(session.now() + grid.hours * 3600.0);
  }
  const ClusterCounters end = manager.counters();

  // Deflation distribution, identical in spirit to the run query's report.
  std::vector<ClusterManager::ServerUsageSample> samples;
  manager.CollectUsageSamples(&samples);
  std::vector<double> deflation;
  double sum = 0.0;
  for (const ClusterManager::ServerUsageSample& sample : samples) {
    for (const ClusterManager::ServerUsageSample::VmUsage& vm : sample.vms) {
      if (!vm.low_priority || vm.nominal_cpu <= 0.0) {
        continue;
      }
      const double d = 1.0 - vm.effective_cpu / vm.nominal_cpu;
      deflation.push_back(d);
      sum += d;
    }
  }
  double p99 = 0.0;
  double mean = 0.0;
  if (!deflation.empty()) {
    std::sort(deflation.begin(), deflation.end());
    size_t idx = (deflation.size() * 99) / 100;
    if (idx >= deflation.size()) {
      idx = deflation.size() - 1;
    }
    p99 = deflation[idx];
    mean = sum / static_cast<double>(deflation.size());
  }

  std::string out = "{\"policy\":" + JsonString(PlacementPolicyName(policy));
  out += ",\"fail_fraction\":" + JsonNumber(fail_fraction);
  out += ",\"overcommit_target\":" + JsonNumber(overcommit_target);
  out += ",\"intensity\":" + JsonNumber(intensity);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"admitted\":" + std::to_string(admitted);
  out += ",\"preempted\":" + std::to_string(end.preempted - before.preempted);
  out += ",\"sim_preempted\":" + std::to_string(end.preempted - mid.preempted);
  out += ",\"crash_preempted\":" +
         std::to_string(end.crash_preempted - before.crash_preempted);
  out += ",\"deflation_ops\":" +
         std::to_string(end.deflation_ops - before.deflation_ops);
  out += ",\"low_vms\":" + std::to_string(deflation.size());
  out += ",\"p99_deflation\":" + JsonNumber(p99);
  out += ",\"mean_deflation\":" + JsonNumber(mean);
  out += ",\"utilization\":" + JsonNumber(manager.Utilization());
  out += ",\"overcommitment\":" + JsonNumber(manager.Overcommitment());
  out += "}";
  return out;
}

}  // namespace

Result<SweepGrid> ParseSweepGrid(const std::string& text) {
  SweepGrid grid;
  bool have_policy = false, have_fail = false, have_oc = false,
       have_intensity = false;
  std::unordered_set<std::string> seen;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const std::string where = "sweep grid line " + std::to_string(line_number);
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return Error{where + ": expected key = value, got '" + trimmed + "'"};
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return Error{where + ": empty key or value"};
    }
    if (!seen.insert(key).second) {
      return Error{where + ": duplicate key '" + key + "'"};
    }

    if (key == "policy") {
      for (const std::string& part : SplitCommas(value)) {
        Result<PlacementPolicy> policy = ParsePolicy(part);
        if (!policy.ok()) {
          return Error{where + ": " + policy.error()};
        }
        grid.policies.push_back(policy.value());
      }
      have_policy = true;
    } else if (key == "fail-fraction") {
      for (const std::string& part : SplitCommas(value)) {
        double f = 0.0;
        if (!ParseF64(part, &f) || f < 0.0 || f > 1.0) {
          return Error{where + ": fail-fraction '" + part +
                       "' is not a number in [0, 1]"};
        }
        grid.fail_fractions.push_back(f);
      }
      have_fail = true;
    } else if (key == "overcommit-target") {
      for (const std::string& part : SplitCommas(value)) {
        double t = 0.0;
        if (!ParseF64(part, &t) || t <= 0.0) {
          return Error{where + ": overcommit-target '" + part +
                       "' is not a number > 0"};
        }
        grid.overcommit_targets.push_back(t);
      }
      have_oc = true;
    } else if (key == "intensity") {
      for (const std::string& part : SplitCommas(value)) {
        double a = 0.0;
        if (!ParseF64(part, &a) || a < 0.0) {
          return Error{where + ": intensity '" + part +
                       "' is not a number >= 0"};
        }
        grid.intensities.push_back(a);
      }
      have_intensity = true;
    } else if (key == "hours") {
      if (!ParseF64(value, &grid.hours) || grid.hours < 0.0) {
        return Error{where + ": hours '" + value + "' is not a number >= 0"};
      }
    } else if (key == "shape") {
      Result<ResourceVector> shape = ParseShape(value);
      if (!shape.ok()) {
        return Error{where + ": " + shape.error()};
      }
      grid.shape = shape.value();
    } else if (key == "fail-seed") {
      if (!ParseU64(value, &grid.fail_seed)) {
        return Error{where + ": fail-seed '" + value +
                     "' is not an unsigned integer"};
      }
    } else if (key == "limit") {
      if (!ParseI64(value, &grid.limit) || grid.limit < 1) {
        return Error{where + ": limit '" + value + "' is not an integer >= 1"};
      }
    } else {
      return Error{where + ": unknown key '" + key + "'"};
    }
  }
  if (!have_policy) {
    grid.policies.push_back(PlacementPolicy::kBestFit);
  }
  if (!have_fail) {
    grid.fail_fractions.push_back(0.0);
  }
  if (!have_oc) {
    grid.overcommit_targets.push_back(1.0);
  }
  if (!have_intensity) {
    grid.intensities.push_back(1.0);
  }
  if (grid.Cells() == 0) {
    return Error{"sweep grid has an empty axis"};
  }
  return grid;
}

Result<std::string> SweepOrchestrator::Run(const SweepGrid& grid,
                                           int workers) const {
  // Flatten the axes into canonical cell order: policy outermost, then
  // fail-fraction, overcommit-target, intensity. results[i] belongs to cell
  // i forever; workers race only over *which* cell to run next, never over
  // where a result lands.
  struct Cell {
    PlacementPolicy policy;
    double fail_fraction;
    double overcommit_target;
    double intensity;
  };
  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(grid.Cells()));
  for (PlacementPolicy policy : grid.policies) {
    for (double fail : grid.fail_fractions) {
      for (double oc : grid.overcommit_targets) {
        for (double intensity : grid.intensities) {
          cells.push_back(Cell{policy, fail, oc, intensity});
        }
      }
    }
  }

  std::vector<std::string> lines(cells.size());
  std::vector<std::string> errors(cells.size());
  const WhatIfService& service = *service_;
  const auto run_cell = [&](int64_t i) {
    const Cell& cell = cells[static_cast<size_t>(i)];
    Result<std::string> line =
        RunCell(service, grid, cell.policy, cell.fail_fraction,
                cell.overcommit_target, cell.intensity);
    if (line.ok()) {
      lines[static_cast<size_t>(i)] = line.value();
    } else {
      errors[static_cast<size_t>(i)] = line.error();
    }
  };
  const int64_t n = static_cast<int64_t>(cells.size());
  if (workers <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      run_cell(i);
    }
  } else {
    ThreadPool pool(workers);
    pool.ParallelFor(n, run_cell);
  }
  for (int64_t i = 0; i < n; ++i) {
    if (!errors[static_cast<size_t>(i)].empty()) {
      return Error{"sweep cell " + std::to_string(i) + " failed: " +
                   errors[static_cast<size_t>(i)]};
    }
  }

  std::string out = "# sweep policies=" + std::to_string(grid.policies.size()) +
                    " fail=" + std::to_string(grid.fail_fractions.size()) +
                    " overcommit=" + std::to_string(grid.overcommit_targets.size()) +
                    " intensity=" + std::to_string(grid.intensities.size()) +
                    " hours=" + JsonNumber(grid.hours) + "\n";
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  out += "# sweep cells=" + std::to_string(cells.size()) + " fnv1a64=" +
         Hex16(SnapshotFnv1a64(out.data(), out.size())) + "\n";
  return out;
}

}  // namespace defl
