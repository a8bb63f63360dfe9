// The benchmark's three workloads, their configs, and the canonical
// fingerprint every run is checked against.
//
// A workload's inputs are a function of (scale, variant) alone, where the
// variant is --seed modulo kVariants. kHeldOutVariant is the
// one input variant no seed maps to; the traced run checks
// its layer accounting on it beside the run's own variant.
//
// On serve the variant seeds the Poisson arrivals, so each variant has its
// own results. The replays run with fixed iteration times, so there
// variant + 1 is Workflow::spawn_order_salt: it permutes the spawn order,
// and with it the order in which the host executes same-instant work, while
// the simulated results stay identical — one reference serves every
// variant. Salt 0 would keep registration order, which runs fig3 about 15%
// faster than any permutation; no variant maps to it, so no seed is an
// outlier.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "serve/serve.hpp"

namespace perfbench {

using namespace simai;

enum class Kind { Fig3, Fig6, Serve };
enum class Scale { Full, Smoke };

inline constexpr std::uint64_t kVariants = 16;
inline constexpr std::uint64_t kHeldOutVariant = kVariants;

struct Spec {
  Kind kind = Kind::Fig3;
  Scale scale = Scale::Full;
  std::uint64_t variant = 0;
  /// Cut to one iteration (train_iters = 1, max_sim_iters = 1; one request
  /// per client): what the setup_s metric times.
  bool setup = false;
};

/// Throws std::invalid_argument for an unknown name.
Kind parse_workload(std::string_view name);
std::string_view workload_name(Kind kind);
std::string_view scale_name(Scale scale);

core::Pattern1Config fig3_config(const Spec& spec);
core::Pattern2Config fig6_config(const Spec& spec);
serve::ServeConfig serve_config(const Spec& spec);

/// What one call into a public entry point produced.
struct Outcome {
  /// Canonical results: virtual makespan, step and transport-event counts
  /// and iteration means at full precision for the replays (plus Fig 6
  /// runtime/iter); ServeResult::fingerprint() for serve.
  std::string fingerprint;
  /// Model events: sim steps + train steps + transport events for the
  /// replays, completed requests for serve.
  std::uint64_t events = 0;
};

std::string fingerprint(const core::Pattern1Result& r);
std::string fingerprint(const core::Pattern2Result& r);
std::uint64_t model_events(const core::ComponentStats& sim,
                           const core::ComponentStats& train);

/// One call to core::run_pattern1 / core::run_pattern2 /
/// serve::run_cluster with obs disarmed.
Outcome run_harness(const Spec& spec);

/// 64-bit FNV-1a of a fingerprint, as 16 hex digits: what references.json
/// stores (serve fingerprints are megabytes of CSV).
std::string digest(std::string_view fingerprint);

}  // namespace perfbench
