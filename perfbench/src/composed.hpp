// The traced run: each workload composed by the benchmark from the library's
// public parts (Workflow, Simulation, AiComponent, DataStore, TransportModel,
// kv::MemoryStore; for serve also Scheduler, ReplicaServer and
// RequestGenerator), so that the layer decorators in layers.hpp sit at the
// boundaries a harness function hides. The composition must reproduce the
// harness run's fingerprint byte for byte; a drift is a benchmark failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct ComposedOutcome {
  Outcome outcome;

  // sim: read from the composed run's own Engine.
  std::uint64_t sim_events = 0;     // Engine::dispatched_events
  std::uint64_t peak_processes = 0; // Engine::process_slots
  double stack_pool_hit_ratio = 0.0;

  std::uint64_t transport_events = 0;  // summed DataStore::transport_events
  std::uint64_t keys_resident = 0;     // keys left in the backing stores

  // serve: read from the composed run's ServeResult.
  std::uint64_t batches = 0;
  std::uint64_t completed = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t weight_refreshes = 0;

  /// Layer boundaries this composition cannot time without editing the
  /// library; their host time stays in the residual.
  std::vector<std::string> untimed;
};

/// Run the composed workload once. Arm layers:: around the call to record
/// spans; results do not depend on whether it is armed.
ComposedOutcome run_composed(const Spec& spec);

}  // namespace perfbench
