// Host-time spans at the library's layer boundaries, recorded from outside
// the library: a kv::IKeyValueStore decorator, a kernel registered through
// kernels::register_kernel that wraps the real one, and scopes the composed
// workloads open around DataStore calls (issued with a null Context, so they
// never suspend) and TransportModel::cost calls.
//
// A span never encloses a call that charges virtual time: Context::delay
// suspends the fiber, so a span around it would include other processes'
// work. What no span covers — engine queue, fiber switches, process bodies,
// and any layer the benchmark cannot reach without editing the library —
// is the residual.
//
// Spans (layer, start, end, parent) are appended to per-thread buffers while
// armed and read back once the run has ended. A layer's self time is its
// spans' durations minus the parts their child spans cover.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kv/store.hpp"
#include "sim/engine.hpp"

namespace perfbench::layers {

using namespace simai;

enum class Layer : std::uint8_t { Kernels, Core, Platform, Kv };
inline constexpr std::size_t kLayers = 4;
const char* layer_name(Layer layer);

enum class CoreOp : std::uint8_t { Write, Read, Poll, Clean, Wrap };
inline constexpr std::size_t kCoreOps = 5;

/// Clears every thread's spans and counters and starts recording.
void arm();
/// Stops recording; buffers keep their contents until the next arm().
void disarm();

/// RAII span on the calling thread. Free when recording is off. Given the
/// calling process's Context, it also checks that virtual time stood still
/// while it was open.
class Scope {
 public:
  explicit Scope(Layer layer, const sim::Context* ctx = nullptr);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  struct Buffer* buf_ = nullptr;
  std::uint32_t index_ = 0;
  const sim::Context* ctx_ = nullptr;
  SimTime opened_at_ = 0.0;
};

/// Per-layer work counts, summed over threads by collect().
struct Counts {
  std::array<std::uint64_t, kCoreOps> core_ops{};
  std::uint64_t poll_hits = 0;
  std::uint64_t prices = 0;
  std::uint64_t kernel_calls = 0;
  double kernel_flops = 0.0;
  std::uint64_t kv_ops = 0;
  std::uint64_t kv_bytes_put = 0;
  /// Body sizes of the stored values the DataStore checksummed (CRC flag
  /// set in the staged header), one entry per write or read.
  std::vector<std::uint32_t> crc_sizes;
};

/// The calling thread's counters while armed; nullptr when not recording.
Counts* counts();

struct Totals {
  std::array<double, kLayers> self_s{};  // per-layer self time
  std::uint64_t threads = 0;  // threads that recorded at least one span
  /// Spans that enclosed a suspension: they did not close innermost-first
  /// on the thread that opened them, or virtual time advanced while they
  /// were open. Must be 0.
  std::uint64_t suspended = 0;
  std::uint64_t spans = 0;
  Counts counts;
};

/// Sum every thread's spans and counters. Call only after the run ended.
Totals collect();

/// Write every span as CSV (thread, index, layer, start_ns, end_ns, parent)
/// to `path`. Call only after the run ended.
void write_spans(const std::string& path);

/// Times every call into the wrapped backend as a Kv span.
class TimedStore final : public kv::IKeyValueStore {
 public:
  explicit TimedStore(kv::StorePtr inner) : inner_(std::move(inner)) {}

  using IKeyValueStore::get;
  void put(std::string_view key, util::Payload value) override;
  std::optional<util::Payload> get(std::string_view key) override;
  bool exists(std::string_view key) override;
  std::size_t erase(std::string_view key) override;
  std::vector<std::string> keys(std::string_view pattern) override;
  std::size_t size() override;
  void clear() override;

 private:
  kv::StorePtr inner_;
};

/// Kernel name whose factory wraps the real MatMulSimple2D and times each
/// run() as a Kernels span. Registered once per process.
inline constexpr const char* kTimedMatMul = "perfbench.MatMulSimple2D";
void register_timed_kernels();

}  // namespace perfbench::layers
