// Repository benchmark program. Usage (normally through perfbench/run.py):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --references FILE [--scale full|smoke] [--spans FILE]
//             [--source-rev REV] [--perturb-reference]
//   perfbench --make-references FILE
//
// --trace 0 times calls into the public entry points (core::run_pattern1,
// core::run_pattern2, serve::run_cluster) with obs disarmed and prints the
// end-to-end metrics. --trace 1 runs the composed workload (composed.hpp)
// with layer spans armed and prints the per-layer metrics. Every run's
// canonical fingerprint is checked against references.json before its
// timing counts; a mismatch is counted in `failed` and its sample dropped.
//
// Standard output: a {"stamp": ...} line (host and build), in trace mode an
// {"accounting": ...} line, and last the result object
// {"correct", "attempted", "failed", "metrics"}. Progress goes to stderr.
// Exit code 0 only when every run matched its reference and, in trace mode,
// the layer accounting check held.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "composed.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);  // every thread of the process, joined ones too
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_line(const util::Json& line) {
  std::printf("%s\n", line.dump().c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  util::Json out = util::Json::object();
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  util::Json& by_name = out["metrics"] = util::Json::object();
  for (const Metric& m : metrics) {
    util::Json& entry = by_name[m.name] = util::Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
  }
  print_line(out);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  Scale scale = Scale::Full;
  std::string references;
  std::string spans;
  std::string source_rev = "unknown";
  bool perturb = false;
  std::string make_references;
};

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") o.workload = value(i);
    else if (a == "--seed") o.seed = std::stoull(value(i));
    else if (a == "--seconds") o.seconds = std::stod(value(i));
    else if (a == "--trace") o.trace = std::stoi(value(i));
    else if (a == "--scale") {
      const std::string s = value(i);
      if (s != "full" && s != "smoke")
        throw std::invalid_argument("--scale is full or smoke");
      o.scale = s == "full" ? Scale::Full : Scale::Smoke;
    } else if (a == "--references") o.references = value(i);
    else if (a == "--spans") o.spans = value(i);
    else if (a == "--source-rev") o.source_rev = value(i);
    else if (a == "--perturb-reference") o.perturb = true;
    else if (a == "--make-references") o.make_references = value(i);
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.make_references.empty()) {
    if (o.workload.empty() || o.references.empty())
      throw std::invalid_argument("--workload and --references are required");
    if (o.trace != 0 && o.trace != 1)
      throw std::invalid_argument("--trace is 0 or 1");
    if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  }
  return o;
}

/// The reference digest of every input variant of one workload at one
/// scale, indexed by variant. references.json holds one digest for a replay,
/// whose results do not depend on the variant, and a list for serve.
std::vector<std::string> load_references(const std::string& path, Scale scale,
                                         Kind kind) {
  const util::Json doc = util::Json::parse_file(path);
  const util::Json& refs = doc.at(std::string(scale_name(scale)))
                               .at(std::string(workload_name(kind)));
  if (refs.is_string())
    return std::vector<std::string>(kHeldOutVariant + 1, refs.as_string());
  std::vector<std::string> out;
  for (const util::Json& d : refs.as_array()) out.push_back(d.as_string());
  if (out.size() != kHeldOutVariant + 1)
    throw std::runtime_error("references.json: wrong variant count");
  return out;
}

int make_references(const std::string& path) {
  util::Json doc = util::Json::object();
  doc["note"] =
      "FNV-1a 64 digests of each workload's canonical fingerprint. A replay "
      "has one digest for every input variant; serve has a list indexed by "
      "variant (seed mod 16; index 16 is the held-out variant). Regenerate "
      "with: perfbench --make-references FILE";
  for (const Scale scale : {Scale::Smoke, Scale::Full}) {
    util::Json per_scale = util::Json::object();
    for (const Kind kind : {Kind::Fig3, Kind::Fig6, Kind::Serve}) {
      std::vector<std::string> digests;
      for (std::uint64_t v = 0; v <= kHeldOutVariant; ++v) {
        digests.push_back(digest(run_harness({kind, scale, v, false}).fingerprint));
        std::fprintf(stderr, "%s %s variant %llu: %s\n",
                     std::string(scale_name(scale)).c_str(),
                     std::string(workload_name(kind)).c_str(),
                     static_cast<unsigned long long>(v), digests.back().c_str());
      }
      util::Json& entry = per_scale[std::string(workload_name(kind))];
      if (kind == Kind::Serve) {
        entry = util::Json::array();
        for (const std::string& d : digests) entry.push_back(d);
      } else if (std::count(digests.begin(), digests.end(), digests[0]) !=
                 static_cast<std::ptrdiff_t>(digests.size())) {
        throw std::runtime_error(std::string(workload_name(kind)) +
                                 ": results depend on the spawn order salt");
      } else {
        entry = digests[0];
      }
    }
    doc[std::string(scale_name(scale))] = per_scale;
  }
  std::ofstream(path) << doc.dump(2) << "\n";
  return 0;
}

void print_stamp(const Options& o) {
  util::Json stamp = util::Json::object();
  stamp["host_cpus"] = std::thread::hardware_concurrency();
  stamp["compiler"] = PERFBENCH_COMPILER;
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  stamp["substrate"] =
      sim::Engine::default_substrate() == sim::Substrate::Fiber ? "fiber"
                                                                : "thread";
  stamp["source_rev"] = o.source_rev;
  stamp["workload"] = o.workload;
  stamp["scale"] = scale_name(o.scale);
  stamp["seed"] = o.seed;
  stamp["variant"] = o.seed % kVariants;
  stamp["trace"] = o.trace;
  util::Json line = util::Json::object();
  line["stamp"] = std::move(stamp);
  print_line(line);
}

/// Fingerprint gate state shared by every run of one invocation.
struct Gate {
  std::string reference;
  std::string held_out_reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool check(const std::string& fingerprint, const std::string& expected,
             const char* what) {
    ++attempted;
    const std::string got = digest(fingerprint);
    if (got == expected) return true;
    ++failed;
    std::fprintf(stderr, "FINGERPRINT MISMATCH (%s): got %s, reference %s\n",
                 what, got.c_str(), expected.c_str());
    return false;
  }
};

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

// Setup repetitions alternate with the timed calls through the whole
// measuring window, so host load at any moment weighs on both medians alike:
// after each timed call, setup repetitions run until they have taken
// kSetupShare of the time elapsed. The millisecond-scale serve setup so gets
// thousands of repetitions, fig6 over a hundred, fig3 about 9 (at least
// kSetupMinRuns).
constexpr double kSetupShare = 0.2;
constexpr std::size_t kSetupMinRuns = 7;

int run_timed(const Options& o, const Spec& spec, Gate& gate) {
  // Setup: the same workload cut to one iteration; construction, spawn,
  // first dispatch and teardown. They have no stored reference; one whose
  // fingerprint differs from the first counts as a failed run.
  Spec setup_spec = spec;
  setup_spec.setup = true;
  std::vector<double> setup;
  double setup_total = 0.0;
  std::string setup_fp;
  auto setup_rep = [&] {
    const double t0 = now_s();
    const Outcome out = run_harness(setup_spec);
    const double t = now_s() - t0;
    setup.push_back(t);
    setup_total += t;
    if (setup.size() == 1) {
      setup_fp = out.fingerprint;
    } else if (out.fingerprint != setup_fp) {
      ++gate.attempted;
      ++gate.failed;
      std::fprintf(stderr, "SETUP RUNS DISAGREE: run %zu differs from run 1\n",
                   setup.size());
    }
  };

  std::vector<double> walls, rates;
  const double start = now_s();
  while (true) {
    const double t0 = now_s();
    const Outcome out = run_harness(spec);
    const double wall = now_s() - t0;
    if (gate.check(out.fingerprint, gate.reference, "timed run")) {
      walls.push_back(wall);
      rates.push_back(static_cast<double>(out.events) / wall);
    }
    std::fprintf(stderr, "call %llu: %.4f s, %llu events\n",
                 static_cast<unsigned long long>(gate.attempted), wall,
                 static_cast<unsigned long long>(out.events));
    while (setup_total < kSetupShare * (now_s() - start)) setup_rep();
    // Stop before a call that would overrun the measuring window.
    if (now_s() - start + wall > o.seconds) break;
  }
  while (setup.size() < kSetupMinRuns) setup_rep();

  std::vector<Metric> metrics;
  if (!walls.empty()) {
    metrics = {{"wall_s", median(walls), "s"},
               {"events_per_s", median(rates), "1/s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  }
  std::fprintf(stderr, "timed calls: %zu valid of %llu attempted; %zu setup runs\n",
               walls.size(), static_cast<unsigned long long>(gate.attempted),
               setup.size());
  const bool correct = gate.failed == 0;
  print_result(correct, gate.attempted, gate.failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Slack of the accounting check's CPU-time comparison (below).
constexpr double kAccountingTolerance = 0.01;

/// One composed run with layer spans armed.
///
/// base_s is what the layers and the residual split: the wall time x the
/// threads that ran the engine (the threads that recorded spans, at least
/// the engine's workers) — the traced wall on the sequential engine. On the
/// parallel engine the residual then also holds the time workers wait at
/// round barriers. Σ layer self + residual_s = base_s holds by
/// construction. The check is against what the spans do not determine: no
/// span enclosed a suspension (each closed innermost-first on the thread
/// that opened it, and virtual time stood still in those that know their
/// process's Context), and the process CPU time getrusage measured over the
/// run fits in base_s, so no thread the base leaves out did work.
///
/// The layers' self time is not compared with that CPU time: spans are wall
/// clock and include time a thread was preempted, which CPU time leaves
/// out; under host contention a correct fig6 run brought the two within 4%.
struct TracedRun {
  ComposedOutcome composed;
  layers::Totals totals;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double base_s = 0.0;
  double residual_s = 0.0;
  bool accounting_ok = false;
};

TracedRun traced_run(const Spec& spec, unsigned workers) {
  TracedRun r;
  layers::arm();
  const double c0 = cpu_s();
  const double t0 = now_s();
  r.composed = run_composed(spec);
  r.wall_s = now_s() - t0;
  r.cpu_s = cpu_s() - c0;
  layers::disarm();
  r.totals = layers::collect();

  double self = 0.0;
  for (const double s : r.totals.self_s) self += s;
  const double threads = static_cast<double>(
      std::max<std::uint64_t>(workers, r.totals.threads));
  r.base_s = threads * r.wall_s;
  r.residual_s = r.base_s - self;
  r.accounting_ok = r.totals.suspended == 0 &&
                    r.cpu_s <= (1.0 + kAccountingTolerance) * r.base_s;
  return r;
}

/// CRC32 over buffers of the run's checksummed body sizes, timed: the CRC
/// runs inside DataStore, which the benchmark cannot split without editing
/// the library, so its cost is re-measured here (it is part of core.self_s
/// or the residual, never added to the sum).
double time_crc(const std::vector<std::uint32_t>& sizes) {
  if (sizes.empty()) return 0.0;
  const std::uint32_t largest = *std::max_element(sizes.begin(), sizes.end());
  Bytes buf(largest);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 131);
  std::uint32_t sink = 0;
  const double t0 = now_s();
  for (const std::uint32_t n : sizes)
    sink ^= util::crc32(ByteView(buf.data(), n));
  const double t = now_s() - t0;
  std::fprintf(stderr, "crc replay: %zu values, checksum %08x\n", sizes.size(),
               sink);
  return t;
}

struct ParallelCounters {
  double rounds = 0, null_rounds = 0, events_per_round = 0, stalls = 0,
         deliveries = 0;
};

/// The parallel dispatcher's own profiler series: one harness call with the
/// obs plane armed, which must still match the reference.
ParallelCounters parallel_counters(const Spec& spec, Gate& gate) {
  obs::registry().clear();
  obs::set_enabled(true);
  const Outcome out = run_harness(spec);
  obs::set_enabled(false);
  gate.check(out.fingerprint, gate.reference, "armed run");
  obs::Registry& reg = obs::registry();
  ParallelCounters c;
  c.rounds = reg.counter("sim_parallel_rounds_total").value();
  c.null_rounds = reg.counter("sim_parallel_null_rounds_total").value();
  c.stalls = reg.counter("sim_parallel_lookahead_stalls_total").value();
  c.deliveries = reg.counter("sim_parallel_deliveries_total").value();
  const obs::BucketHistogram& ev = reg.histogram("sim_parallel_round_events");
  c.events_per_round = ratio(ev.sum(), static_cast<double>(ev.count()));
  reg.clear();
  return c;
}

int run_traced(const Options& o, const Spec& spec, Gate& gate) {
  const unsigned workers =
      spec.kind == Kind::Fig6 ? fig6_config(spec).workers : 1;

  // Untraced harness calls: the denominator of trace_overhead_ratio.
  std::vector<double> timed;
  const double start = now_s();
  do {
    const double t0 = now_s();
    const Outcome out = run_harness(spec);
    timed.push_back(now_s() - t0);
    gate.check(out.fingerprint, gate.reference, "untraced run");
  } while (now_s() - start + timed.back() <= 0.5 * o.seconds);

  // Traced composed runs fill the rest of the window; the last one is
  // reported and its spans written.
  TracedRun run;
  do {
    run = traced_run(spec, workers);
    gate.check(run.composed.outcome.fingerprint, gate.reference,
               "composed traced run");
  } while (now_s() - start + run.wall_s <= o.seconds);
  if (!o.spans.empty()) layers::write_spans(o.spans);

  Spec held = spec;
  held.variant = kHeldOutVariant;
  const TracedRun held_run = traced_run(held, workers);
  gate.check(held_run.composed.outcome.fingerprint, gate.held_out_reference,
             "composed traced run, held-out variant");

  ParallelCounters par;
  if (workers > 1) par = parallel_counters(spec, gate);

  const layers::Totals& t = run.totals;
  const layers::Counts& c = t.counts;
  const ComposedOutcome& co = run.composed;
  auto self = [&](layers::Layer l) {
    return t.self_s[static_cast<std::size_t>(l)];
  };
  std::uint64_t core_ops = 0;
  for (const std::uint64_t n : c.core_ops) core_ops += n;
  double crc_bytes = 0.0;
  for (const std::uint32_t n : c.crc_sizes) crc_bytes += n;
  auto op = [&](layers::CoreOp k) {
    return static_cast<double>(c.core_ops[static_cast<std::size_t>(k)]);
  };
  const double events = static_cast<double>(co.sim_events);
  const double timed_wall = median(timed);

  const std::vector<Metric> metrics = {
      {"sim.events", events, "count"},
      {"sim.peak_processes", static_cast<double>(co.peak_processes), "count"},
      {"sim.stack_pool_hit_ratio", co.stack_pool_hit_ratio, "ratio"},
      {"residual_s", run.residual_s, "s"},
      {"sim.ns_per_event", 1e9 * ratio(run.residual_s, events), "ns/event"},
      {"sim.rounds", par.rounds, "count"},
      {"sim.null_rounds", par.null_rounds, "count"},
      {"sim.events_per_round", par.events_per_round, "events/round"},
      {"sim.lookahead_stalls", par.stalls, "count"},
      {"sim.deliveries", par.deliveries, "count"},
      {"kernels.calls", static_cast<double>(c.kernel_calls), "count"},
      {"kernels.busy_s", self(layers::Layer::Kernels), "s"},
      {"kernels.flops", c.kernel_flops, "flop"},
      {"core.ops.write", op(layers::CoreOp::Write), "count"},
      {"core.ops.read", op(layers::CoreOp::Read), "count"},
      {"core.ops.poll", op(layers::CoreOp::Poll), "count"},
      {"core.ops.clean", op(layers::CoreOp::Clean), "count"},
      {"core.ops.wrap", op(layers::CoreOp::Wrap), "count"},
      {"core.self_s", self(layers::Layer::Core), "s"},
      {"core.ns_per_op",
       1e9 * ratio(self(layers::Layer::Core), static_cast<double>(core_ops)),
       "ns/op"},
      {"core.poll_hit_ratio",
       ratio(static_cast<double>(c.poll_hits), op(layers::CoreOp::Poll)),
       "ratio"},
      {"core.transport_events", static_cast<double>(co.transport_events),
       "count"},
      {"core.crc_bytes", crc_bytes, "B"},
      {"core.crc_s", time_crc(c.crc_sizes), "s"},
      {"platform.prices", static_cast<double>(c.prices), "count"},
      {"platform.busy_s", self(layers::Layer::Platform), "s"},
      {"platform.ns_per_price",
       1e9 * ratio(self(layers::Layer::Platform), static_cast<double>(c.prices)),
       "ns/op"},
      {"kv.ops", static_cast<double>(c.kv_ops), "count"},
      {"kv.busy_s", self(layers::Layer::Kv), "s"},
      {"kv.bytes_put", static_cast<double>(c.kv_bytes_put), "B"},
      {"kv.keys_resident", static_cast<double>(co.keys_resident), "count"},
      {"serve.batches", static_cast<double>(co.batches), "count"},
      {"serve.mean_batch_size",
       ratio(static_cast<double>(co.completed), static_cast<double>(co.batches)),
       "req/batch"},
      {"serve.peak_queue_depth", static_cast<double>(co.peak_queue_depth),
       "count"},
      {"serve.weight_refreshes", static_cast<double>(co.weight_refreshes),
       "count"},
      {"traced_wall_s", run.wall_s, "s"},
      {"trace_overhead_ratio", ratio(run.wall_s, timed_wall), "ratio"},
  };

  // The accounting line: each run's base, CPU time, layer self times and
  // residual, the tolerance, and the boundaries left in the residual.
  auto accounting = [&](const TracedRun& r) {
    util::Json a = util::Json::object();
    a["base_s"] = r.base_s;
    a["wall_s"] = r.wall_s;
    a["cpu_s"] = r.cpu_s;
    for (std::size_t l = 0; l < layers::kLayers; ++l)
      a[std::string(layers::layer_name(static_cast<layers::Layer>(l))) + "_s"] =
          r.totals.self_s[l];
    a["residual_s"] = r.residual_s;
    a["spans"] = r.totals.spans;
    a["threads"] = r.totals.threads;
    a["suspended"] = r.totals.suspended;
    a["ok"] = r.accounting_ok;
    return a;
  };
  util::Json acc = util::Json::object();
  acc["tolerance"] = kAccountingTolerance;
  acc["base"] = "wall seconds x threads";
  acc["run"] = accounting(run);
  acc["held_out"] = accounting(held_run);
  util::Json& untimed = acc["untimed"] = util::Json::array();
  for (const std::string& u : co.untimed) untimed.push_back(u);
  util::Json line = util::Json::object();
  line["accounting"] = std::move(acc);
  print_line(line);

  const bool correct =
      gate.failed == 0 && run.accounting_ok && held_run.accounting_ok;
  if (!run.accounting_ok || !held_run.accounting_ok)
    std::fprintf(stderr, "LAYER ACCOUNTING CHECK FAILED\n");
  print_result(correct, gate.attempted, gate.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (!o.make_references.empty()) return make_references(o.make_references);

    Spec spec;
    spec.kind = parse_workload(o.workload);
    spec.scale = o.scale;
    spec.variant = o.seed % kVariants;
    const std::vector<std::string> refs =
        load_references(o.references, spec.scale, spec.kind);
    Gate gate;
    gate.reference = refs[spec.variant];
    gate.held_out_reference = refs[kHeldOutVariant];
    if (o.perturb) {
      // Smoke-test hook: a reference no run can match.
      gate.reference[0] = gate.reference[0] == '0' ? '1' : '0';
    }
    obs::set_enabled(false);

    print_stamp(o);
    std::fflush(stdout);
    return o.trace == 0 ? run_timed(o, spec, gate) : run_traced(o, spec, gate);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
