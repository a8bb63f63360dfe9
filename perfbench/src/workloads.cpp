#include "workloads.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Kind parse_workload(std::string_view name) {
  if (name == "fig3-512-seq") return Kind::Fig3;
  if (name == "fig6-512-w4") return Kind::Fig6;
  if (name == "serve-dragon-1500") return Kind::Serve;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::string_view workload_name(Kind kind) {
  switch (kind) {
    case Kind::Fig3: return "fig3-512-seq";
    case Kind::Fig6: return "fig6-512-w4";
    case Kind::Serve: return "serve-dragon-1500";
  }
  return "?";
}

std::string_view scale_name(Scale scale) {
  return scale == Scale::Full ? "full" : "smoke";
}

core::Pattern1Config fig3_config(const Spec& spec) {
  const bool smoke = spec.scale == Scale::Smoke;
  core::Pattern1Config c;
  c.backend = platform::BackendKind::NodeLocal;
  c.nodes = smoke ? 4 : 512;
  c.representative_pairs = 0;  // all 3,072 pairs are real processes
  c.payload_cap = 4 * KiB;
  c.train_iters = smoke ? 25 : 60;
  c.sim_init_time = 0.5;
  c.train_init_time = 1.0;
  c.spawn_order_salt = spec.variant + 1;
  c.workers = 1;
  if (spec.setup) {
    c.train_iters = 1;
    c.max_sim_iters = 1;
  }
  return c;
}

core::Pattern2Config fig6_config(const Spec& spec) {
  const bool smoke = spec.scale == Scale::Smoke;
  core::Pattern2Config c;
  c.backend = platform::BackendKind::Dragon;
  c.num_sims = smoke ? 15 : 511;
  c.payload_cap = 4 * KiB;
  c.train_iters = smoke ? 40 : 2000;
  c.spawn_order_salt = spec.variant + 1;
  c.workers = 4;
  if (spec.setup) c.train_iters = 1;
  return c;
}

serve::ServeConfig serve_config(const Spec& spec) {
  serve::ServeConfig c;
  c.arrivals.clients = 4;
  c.arrivals.requests_per_client =
      spec.setup ? 1 : (spec.scale == Scale::Smoke ? 250 : 10'000);
  c.arrivals.rate = 1500.0;  // open loop, below the ~1,680 req/s capacity
  c.arrivals.seed = 5 + spec.variant;
  c.policy.max_batch_size = 8;
  c.policy.max_queue_delay = 0.002;
  c.policy.max_queue_depth = 64;
  c.replicas = 2;
  c.weight_refresh_rate = 50.0;
  c.backend = platform::BackendKind::Dragon;
  c.verify_integrity = true;
  return c;
}

std::uint64_t model_events(const core::ComponentStats& sim,
                           const core::ComponentStats& train) {
  return sim.steps + train.steps + sim.transport_events +
         train.transport_events;
}

std::string fingerprint(const core::Pattern1Result& r) {
  std::ostringstream fp;
  fp.precision(17);
  fp << "makespan=" << r.makespan << " sim.steps=" << r.sim.steps
     << " train.steps=" << r.train.steps
     << " sim.events=" << r.sim.transport_events
     << " train.events=" << r.train.transport_events
     << " sim.iter=" << r.sim.iter_time.mean()
     << " train.iter=" << r.train.iter_time.mean();
  return fp.str();
}

std::string fingerprint(const core::Pattern2Result& r) {
  std::ostringstream fp;
  fp.precision(17);
  fp << "makespan=" << r.makespan << " sim.steps=" << r.sim.steps
     << " train.steps=" << r.train.steps
     << " sim.events=" << r.sim.transport_events
     << " train.events=" << r.train.transport_events
     << " runtime_per_iter=" << r.train_runtime_per_iter;
  return fp.str();
}

Outcome run_harness(const Spec& spec) {
  switch (spec.kind) {
    case Kind::Fig3: {
      const core::Pattern1Result r = core::run_pattern1(fig3_config(spec));
      return {fingerprint(r), model_events(r.sim, r.train)};
    }
    case Kind::Fig6: {
      const core::Pattern2Result r = core::run_pattern2(fig6_config(spec));
      return {fingerprint(r), model_events(r.sim, r.train)};
    }
    case Kind::Serve: {
      const serve::ServeResult r = serve::run_cluster(serve_config(spec));
      return {r.fingerprint(), r.completed};
    }
  }
  throw std::logic_error("run_harness: bad workload kind");
}

std::string digest(std::string_view fingerprint) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : fingerprint) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace perfbench
