#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "kernels/kernel.hpp"

namespace perfbench::layers {

namespace {

constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  Layer layer = Layer::Kernels;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<bool> g_armed{false};

}  // namespace

struct Buffer {
  std::vector<Span> spans;
  std::uint32_t open = kNoParent;  // innermost open span on this thread
  std::uint64_t suspended = 0;
  Counts counts;
};

namespace {

std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

// Not inlined, so the thread-local address is recomputed on every call: a
// fiber may resume on another worker thread between two spans of one
// function, and a cached address would name the old thread's buffer.
__attribute__((noinline)) Buffer& this_thread_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Kernels: return "kernels";
    case Layer::Core: return "core";
    case Layer::Platform: return "platform";
    case Layer::Kv: return "kv";
  }
  return "?";
}

void arm() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) *b = Buffer{};
  g_armed.store(true, std::memory_order_relaxed);
}

void disarm() { g_armed.store(false, std::memory_order_relaxed); }

Scope::Scope(Layer layer, const sim::Context* ctx) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  ctx_ = ctx;
  if (ctx_ != nullptr) opened_at_ = ctx_->now();
  buf_ = &this_thread_buffer();
  index_ = static_cast<std::uint32_t>(buf_->spans.size());
  buf_->spans.push_back({now_ns(), 0, buf_->open, layer});
  buf_->open = index_;
}

Scope::~Scope() {
  if (buf_ == nullptr) return;
  const std::uint64_t end = now_ns();
  // A span closes on the thread that opened it, innermost first, unless it
  // enclosed a suspension: then other processes' spans interleaved with it,
  // or the fiber resumed on another worker. Count that on this thread and
  // leave the opening thread's buffer alone. A suspension with nothing
  // interleaved still shows as an advanced virtual clock.
  Buffer& here = this_thread_buffer();
  if (&here != buf_ || buf_->open != index_) {
    ++here.suspended;
    return;
  }
  if (ctx_ != nullptr && ctx_->now() != opened_at_) ++here.suspended;
  Span& s = buf_->spans[index_];
  s.end_ns = end;
  buf_->open = s.parent;
}

Counts* counts() {
  if (!g_armed.load(std::memory_order_relaxed)) return nullptr;
  return &this_thread_buffer().counts;
}

Totals collect() {
  Totals t;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) {
      // A span left open by a suspension counts zero; suspended fails the run.
      const double d =
          s.end_ns > s.start_ns
              ? static_cast<double>(s.end_ns - s.start_ns) * 1e-9
              : 0.0;
      t.self_s[static_cast<std::size_t>(s.layer)] += d;
      if (s.parent != kNoParent)
        t.self_s[static_cast<std::size_t>(b->spans[s.parent].layer)] -= d;
    }
    t.suspended += b->suspended;
    if (!b->spans.empty()) ++t.threads;
    t.spans += b->spans.size();
    const Counts& c = b->counts;
    for (std::size_t i = 0; i < kCoreOps; ++i)
      t.counts.core_ops[i] += c.core_ops[i];
    t.counts.poll_hits += c.poll_hits;
    t.counts.prices += c.prices;
    t.counts.kernel_calls += c.kernel_calls;
    t.counts.kernel_flops += c.kernel_flops;
    t.counts.kv_ops += c.kv_ops;
    t.counts.kv_bytes_put += c.kv_bytes_put;
    t.counts.crc_sizes.insert(t.counts.crc_sizes.end(), c.crc_sizes.begin(),
                              c.crc_sizes.end());
  }
  return t;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "thread,index,layer,start_ns,end_ns,parent\n";
  std::lock_guard<std::mutex> lock(g_mu);
  for (std::size_t th = 0; th < g_buffers.size(); ++th) {
    const auto& spans = g_buffers[th]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << th << ',' << i << ',' << layer_name(s.layer) << ',' << s.start_ns
          << ',' << s.end_ns << ',';
      if (s.parent == kNoParent)
        out << "-1\n";
      else
        out << s.parent << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// ---------------------------------------------------------------------------
// kv decorator
// ---------------------------------------------------------------------------

namespace {

// DataStore's staged header: u64 little-endian nominal size whose top bit
// flags a u32 CRC32 of the body that follows (core/datastore.hpp).
constexpr std::uint64_t kCrcFlag = 1ull << 63;
constexpr std::size_t kCrcHeader = 12;

void note_crc(Counts* c, const util::Payload& value) {
  if (c == nullptr || value.size() < kCrcHeader) return;
  std::uint64_t head = 0;
  std::memcpy(&head, value.data(), sizeof head);
  if ((head & kCrcFlag) != 0)
    c->crc_sizes.push_back(
        static_cast<std::uint32_t>(value.size() - kCrcHeader));
}

}  // namespace

void TimedStore::put(std::string_view key, util::Payload value) {
  Counts* c = counts();
  if (c != nullptr) {
    ++c->kv_ops;
    c->kv_bytes_put += value.size();
  }
  note_crc(c, value);
  Scope s(Layer::Kv);
  inner_->put(key, std::move(value));
}

std::optional<util::Payload> TimedStore::get(std::string_view key) {
  std::optional<util::Payload> out;
  {
    Scope s(Layer::Kv);
    out = inner_->get(key);
  }
  Counts* c = counts();
  if (c != nullptr) ++c->kv_ops;
  if (out) note_crc(c, *out);
  return out;
}

bool TimedStore::exists(std::string_view key) {
  if (Counts* c = counts()) ++c->kv_ops;
  Scope s(Layer::Kv);
  return inner_->exists(key);
}

std::size_t TimedStore::erase(std::string_view key) {
  if (Counts* c = counts()) ++c->kv_ops;
  Scope s(Layer::Kv);
  return inner_->erase(key);
}

std::vector<std::string> TimedStore::keys(std::string_view pattern) {
  if (Counts* c = counts()) ++c->kv_ops;
  Scope s(Layer::Kv);
  return inner_->keys(pattern);
}

std::size_t TimedStore::size() { return inner_->size(); }

void TimedStore::clear() {
  if (Counts* c = counts()) ++c->kv_ops;
  Scope s(Layer::Kv);
  inner_->clear();
}

// ---------------------------------------------------------------------------
// kernel decorator
// ---------------------------------------------------------------------------

namespace {

class TimedKernel final : public kernels::Kernel {
 public:
  TimedKernel(kernels::KernelPtr inner, double flops)
      : inner_(std::move(inner)), flops_(flops) {}

  std::string_view name() const override { return inner_->name(); }

  kernels::KernelResult run(kernels::KernelContext& ctx) override {
    if (Counts* c = counts()) {
      ++c->kernel_calls;
      c->kernel_flops += flops_;
    }
    Scope s(Layer::Kernels);
    return inner_->run(ctx);
  }

 private:
  kernels::KernelPtr inner_;
  double flops_;  // computed: 2 n^3 for an n x n product
};

}  // namespace

void register_timed_kernels() {
  static std::once_flag once;
  std::call_once(once, [] {
    kernels::register_kernel(kTimedMatMul, [](const util::Json& config) {
      const double n =
          static_cast<double>(kernels::parse_data_size(config, 256)[0]);
      return std::make_unique<TimedKernel>(
          kernels::make_kernel("MatMulSimple2D", config), 2.0 * n * n * n);
    });
  });
}

}  // namespace perfbench::layers
