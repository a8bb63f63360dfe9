#include "composed.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>

#include "ai/mlp.hpp"
#include "kv/memory_store.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

using layers::CoreOp;
using layers::Layer;
using layers::Scope;

/// A DataStore client whose pricing the benchmark performs itself: the
/// DataStore gets no TransportModel and every op is issued with a null
/// Context, so the op never suspends and can be timed as a Core span. The
/// body then prices the op (a Platform span) and charges the virtual clock
/// exactly as DataStore::charge would have — a zero cost still yields.
class PricedClient {
 public:
  PricedClient(std::string name, kv::StorePtr store,
               const platform::TransportModel& model,
               const core::DataStoreConfig& config)
      : store_(std::move(name), std::move(store), nullptr, config),
        model_(model),
        config_(config) {
    if (config.faults != nullptr)
      throw std::logic_error("PricedClient: fault pricing is not composed");
  }

  core::DataStore& store() { return store_; }

  /// DataStore::stage_write; `nominal` 0 = the value's own size.
  void write(sim::Context& ctx, std::string_view key, ByteView value,
             std::uint64_t nominal = 0) {
    bool ok = false;
    {
      Scope s(Layer::Core, &ctx);
      ok = store_.stage_write(nullptr, key, value, nominal);
    }
    count(CoreOp::Write);
    if (!ok) throw std::runtime_error("composed: stage_write failed");
    price(ctx, platform::StoreOp::Write, nominal != 0 ? nominal : value.size());
  }

  /// DataStore::stage_read. The read is priced at `nominal`, or at the
  /// stored body's size when 0 (uncapped values).
  bool read(sim::Context& ctx, std::string_view key, util::Payload& out,
            std::uint64_t nominal = 0) {
    bool found = false;
    {
      Scope s(Layer::Core, &ctx);
      found = store_.stage_read(nullptr, key, out);
    }
    count(CoreOp::Read);
    if (found)
      price(ctx, platform::StoreOp::Read, nominal != 0 ? nominal : out.size());
    else
      price(ctx, platform::StoreOp::Poll, 0);
    return found;
  }

  bool poll(sim::Context& ctx, std::string_view key) {
    bool found = false;
    {
      Scope s(Layer::Core, &ctx);
      found = store_.poll_staged_data(nullptr, key);
    }
    count(CoreOp::Poll);
    if (found)
      if (layers::Counts* c = layers::counts()) ++c->poll_hits;
    price(ctx, platform::StoreOp::Poll, 0);
    return found;
  }

  void clean(sim::Context& ctx, std::string_view key) {
    {
      Scope s(Layer::Core, &ctx);
      store_.clean_staged_data(nullptr, key);
    }
    count(CoreOp::Clean);
    price(ctx, platform::StoreOp::Clean, 0);
  }

  util::Payload wrap(ByteView value, std::uint64_t& nominal) {
    count(CoreOp::Wrap);
    Scope s(Layer::Core);
    return store_.wrap_payload(value, nominal);
  }

 private:
  static void count(CoreOp op) {
    if (layers::Counts* c = layers::counts())
      ++c->core_ops[static_cast<std::size_t>(op)];
  }

  void price(sim::Context& ctx, platform::StoreOp op, std::uint64_t bytes) {
    SimTime t = 0.0;
    {
      Scope s(Layer::Platform, &ctx);
      t = model_.cost(config_.backend, op, bytes, config_.transport);
    }
    if (layers::Counts* c = layers::counts()) ++c->prices;
    ctx.delay(t);
  }

  core::DataStore store_;
  const platform::TransportModel& model_;
  core::DataStoreConfig config_;
};

/// Same deterministic bytes as the harness's snapshot payloads.
util::Payload make_payload(std::uint64_t nominal, std::size_t cap,
                           std::uint64_t salt) {
  const std::size_t real =
      cap == 0 ? static_cast<std::size_t>(nominal)
               : std::min<std::size_t>(cap, static_cast<std::size_t>(nominal));
  Bytes p(real);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::byte>((i * 131 + salt) & 0xFF);
  return util::Payload::from_bytes(std::move(p));
}

util::Json timed_matmul_config(const char* name, double run_time) {
  util::Json kernel;
  kernel["name"] = name;
  kernel["mini_app_kernel"] = layers::kTimedMatMul;
  kernel["data_size"] = util::Json::array({64, 64});
  kernel["device"] = "xpu";
  kernel["run_time"] = run_time;
  util::Json sim_cfg;
  sim_cfg["kernels"].push_back(kernel);
  return sim_cfg;
}

void read_engine(const sim::Engine& engine, ComposedOutcome& out) {
  out.sim_events = engine.dispatched_events();
  out.peak_processes = engine.process_slots();
  const sim::Engine::FiberStats f = engine.fiber_stats();
  out.stack_pool_hit_ratio =
      f.stacks_acquired == 0 ? 0.0
                             : static_cast<double>(f.stack_pool_hits) /
                                   static_cast<double>(f.stacks_acquired);
}

// ---------------------------------------------------------------------------
// Pattern 1 (core::run_pattern1, sequential engine)
// ---------------------------------------------------------------------------

ComposedOutcome run_fig3(const core::Pattern1Config& config) {
  if (config.workers != 1 || config.sim_iter_std > 0.0 ||
      config.train_iter_std > 0.0 || config.record_trace)
    throw std::logic_error("composed fig3: config outside the composed shape");
  const int pairs = config.instantiated_pairs();

  platform::TransportModel model;
  sim::Engine engine(sim::Parallel{.workers = 1, .window = config.window});
  auto backing = std::make_shared<kv::MemoryStore>();
  auto timed = std::make_shared<layers::TimedStore>(backing);

  core::DataStoreConfig ds_cfg;
  ds_cfg.backend = config.backend;
  ds_cfg.payload_cap = config.payload_cap;
  ds_cfg.transport.remote = false;
  ds_cfg.transport.fanin = 1;
  ds_cfg.transport.concurrent_clients = config.concurrent_clients();

  std::vector<std::unique_ptr<PricedClient>> sim_stores, train_stores;
  std::vector<std::unique_ptr<core::Simulation>> sims;
  std::vector<std::unique_ptr<core::AiComponent>> trainers;
  for (int p = 0; p < pairs; ++p) {
    const std::string tag = std::to_string(p);
    sim_stores.push_back(
        std::make_unique<PricedClient>("sim" + tag, timed, model, ds_cfg));
    train_stores.push_back(
        std::make_unique<PricedClient>("train" + tag, timed, model, ds_cfg));
    sims.push_back(std::make_unique<core::Simulation>(
        "sim" + tag, timed_matmul_config("nekrs_iter", config.sim_iter_time),
        config.seed + 1000 + static_cast<std::uint64_t>(p)));
    util::Json ai_cfg;
    ai_cfg["run_time"] = config.train_iter_time;
    trainers.push_back(std::make_unique<core::AiComponent>(
        "train" + tag, ai_cfg,
        config.seed + 2000 + static_cast<std::uint64_t>(p)));
  }

  core::Workflow w;
  w.spawn_order_salt(config.spawn_order_salt);
  std::vector<std::uint64_t> sim_steps(pairs, 0), train_steps(pairs, 0);
  for (int p = 0; p < pairs; ++p) {
    const auto i = static_cast<std::size_t>(p);
    const std::string tag = std::to_string(p);
    core::Simulation* sim = sims[i].get();
    core::AiComponent* trainer = trainers[i].get();
    PricedClient* sim_store = sim_stores[i].get();
    PricedClient* train_store = train_stores[i].get();

    w.component("sim_pair" + tag, "remote", {},
                [=, &config, &sim_steps](sim::Context& ctx,
                                         const core::ComponentInfo&) {
      ctx.delay(config.sim_init_time);
      const util::Payload x_payload = make_payload(
          config.payload_bytes, config.payload_cap, 11 + static_cast<unsigned>(p));
      const util::Payload y_payload = make_payload(
          config.payload_bytes, config.payload_cap, 29 + static_cast<unsigned>(p));
      std::int64_t step = 0;
      while (true) {
        sim->run_iteration(ctx);
        ++step;
        sim_steps[i] = static_cast<std::uint64_t>(step);
        if (step % config.write_every == 0) {
          sim_store->write(ctx, "y_" + tag + "_" + std::to_string(step),
                           y_payload.view(), config.payload_bytes);
          sim_store->write(ctx, "x_" + tag + "_" + std::to_string(step),
                           x_payload.view(), config.payload_bytes);
          if (sim_store->poll(ctx, "stop_" + tag)) {
            util::Payload ignored;
            sim_store->read(ctx, "stop_" + tag, ignored);
            break;
          }
        }
        if (config.max_sim_iters > 0 && step >= config.max_sim_iters) break;
      }
    });

    w.component("train_pair" + tag, "remote", {},
                [=, &config, &train_steps](sim::Context& ctx,
                                           const core::ComponentInfo&) {
      ctx.delay(config.train_init_time);
      std::int64_t next_snapshot = config.write_every;
      for (std::int64_t it = 1; it <= config.train_iters; ++it) {
        trainer->train_iteration(ctx);
        train_steps[i] = static_cast<std::uint64_t>(it);
        if (it % config.read_every == 0) {
          while (true) {
            const std::string snap = std::to_string(next_snapshot);
            const std::string xkey = "x_" + tag + "_" + snap;
            const std::string ykey = "y_" + tag + "_" + snap;
            if (!train_store->poll(ctx, xkey)) break;
            util::Payload xb, yb;
            train_store->read(ctx, xkey, xb, config.payload_bytes);
            train_store->read(ctx, ykey, yb, config.payload_bytes);
            next_snapshot += config.write_every;
          }
        }
      }
      train_store->write(ctx, "stop_" + tag, as_bytes_view("stop"));
    });
  }

  w.launch(engine);

  core::Pattern1Result r;
  r.makespan = w.makespan();
  ComposedOutcome out;
  for (int p = 0; p < pairs; ++p) {
    const auto i = static_cast<std::size_t>(p);
    r.sim.steps += sim_steps[i];
    r.train.steps += train_steps[i];
    core::absorb_datastore_stats(r.sim, sim_stores[i]->store());
    core::absorb_datastore_stats(r.train, train_stores[i]->store());
    r.sim.iter_time.merge(sims[i]->stats().all().at("iter_time"));
    r.train.iter_time.merge(trainers[i]->stats().all().at("iter_time"));
  }
  out.outcome = {fingerprint(r), model_events(r.sim, r.train)};
  out.transport_events = r.sim.transport_events + r.train.transport_events;
  out.keys_resident = backing->size();
  read_engine(engine, out);
  return out;
}

// ---------------------------------------------------------------------------
// Pattern 2 (core::run_pattern2, parallel engine)
// ---------------------------------------------------------------------------

ComposedOutcome run_fig6(const core::Pattern2Config& config) {
  platform::TransportModel model;
  sim::Engine engine(
      sim::Parallel{.workers = config.workers, .window = config.window});
  const bool par = engine.parallel();
  const auto trainer_lp = static_cast<std::uint32_t>(config.num_sims);
  if (par) {
    engine.ensure_lps(trainer_lp + 1);
    for (int s = 0; s < config.num_sims; ++s)
      engine.add_lp_edge(static_cast<std::uint32_t>(s), trainer_lp, 0.0);
  }

  std::vector<std::shared_ptr<kv::MemoryStore>> backings;
  backings.push_back(std::make_shared<kv::MemoryStore>());
  auto shared = std::make_shared<layers::TimedStore>(backings.back());
  std::shared_ptr<layers::TimedStore> ai_backing = shared;
  if (par) {
    backings.push_back(std::make_shared<kv::MemoryStore>());
    ai_backing = std::make_shared<layers::TimedStore>(backings.back());
  }

  core::DataStoreConfig write_cfg;
  write_cfg.backend = config.backend;
  write_cfg.payload_cap = config.payload_cap;
  write_cfg.transport.remote = false;
  write_cfg.transport.fanin = 1;
  write_cfg.transport.concurrent_clients = config.concurrent_clients();
  core::DataStoreConfig read_cfg = write_cfg;
  read_cfg.transport.remote =
      (config.backend != platform::BackendKind::Filesystem);
  read_cfg.transport.fanin = config.num_sims;
  read_cfg.transport.concurrent_streams =
      std::min(config.ai_reader_ranks, config.num_sims);

  std::vector<std::unique_ptr<PricedClient>> sim_stores;
  std::vector<std::unique_ptr<core::Simulation>> sims;
  for (int s = 0; s < config.num_sims; ++s) {
    kv::StorePtr member_backing = shared;
    if (par) {
      backings.push_back(std::make_shared<kv::MemoryStore>());
      member_backing = std::make_shared<layers::TimedStore>(backings.back());
    }
    sim_stores.push_back(std::make_unique<PricedClient>(
        "sim" + std::to_string(s), member_backing, model, write_cfg));
    sims.push_back(std::make_unique<core::Simulation>(
        "sim" + std::to_string(s),
        timed_matmul_config("ensemble_member", config.sim_iter_time),
        config.seed + 100 + static_cast<std::uint64_t>(s)));
  }
  PricedClient ai_store("train", ai_backing, model, read_cfg);
  util::Json ai_cfg;
  ai_cfg["run_time"] = config.train_iter_time;
  core::AiComponent trainer("train", ai_cfg, config.seed + 999);

  const std::int64_t rounds = config.train_iters / config.read_every;
  const std::int64_t sim_iters =
      rounds * config.write_every + config.write_every;

  core::Workflow w;
  w.spawn_order_salt(config.spawn_order_salt);
  if (par) {
    for (int s = 0; s < config.num_sims; ++s)
      w.place("sim" + std::to_string(s), static_cast<std::uint32_t>(s));
    w.place("train", trainer_lp);
  }
  std::vector<std::uint64_t> sim_steps(
      static_cast<std::size_t>(config.num_sims), 0);
  std::uint64_t train_steps = 0;
  SimTime train_runtime = 0.0;

  for (int s = 0; s < config.num_sims; ++s) {
    const std::string tag = std::to_string(s);
    core::Simulation* sim = sims[static_cast<std::size_t>(s)].get();
    PricedClient* sim_store = sim_stores[static_cast<std::size_t>(s)].get();
    w.component("sim" + tag, "remote", {},
                [=, &config, &sim_steps, &engine](sim::Context& ctx,
                                                  const core::ComponentInfo&) {
      const util::Payload payload = make_payload(
          config.payload_bytes, config.payload_cap, 7 + static_cast<unsigned>(s));
      for (std::int64_t step = 1; step <= sim_iters; ++step) {
        sim->run_iteration(ctx);
        sim_steps[static_cast<std::size_t>(s)] =
            static_cast<std::uint64_t>(step);
        if (step % config.write_every == 0) {
          const std::string key =
              "data_" + tag + "_" + std::to_string(step / config.write_every);
          if (par) {
            std::uint64_t nominal = config.payload_bytes;
            const util::Payload wrapped =
                sim_store->wrap(payload.view(), nominal);
            engine.post(trainer_lp, ctx.now(), [ai_backing, key, wrapped] {
              ai_backing->put(key, wrapped);
            });
          }
          sim_store->write(ctx, key, payload.view(), config.payload_bytes);
        }
      }
    });
  }

  w.component("train", "remote", {},
              [&](sim::Context& ctx, const core::ComponentInfo&) {
    const SimTime t0 = ctx.now();
    std::int64_t round = 0;
    for (std::int64_t i = 1; i <= config.train_iters; ++i) {
      trainer.train_iteration(ctx);
      train_steps = static_cast<std::uint64_t>(i);
      if (i % config.read_every == 0) {
        ++round;
        for (int s = 0; s < config.num_sims; ++s) {
          const std::string key =
              "data_" + std::to_string(s) + "_" + std::to_string(round);
          while (!ai_store.poll(ctx, key)) ctx.delay(config.poll_interval);
          util::Payload data;
          ai_store.read(ctx, key, data, config.payload_bytes);
        }
      }
    }
    train_runtime = ctx.now() - t0;
  });

  w.launch(engine);

  core::Pattern2Result r;
  r.makespan = w.makespan();
  r.train.steps = train_steps;
  r.train_runtime_per_iter =
      train_runtime / static_cast<double>(config.train_iters);
  core::absorb_datastore_stats(r.train, ai_store.store());
  r.train.iter_time.merge(trainer.stats().all().at("iter_time"));
  for (int s = 0; s < config.num_sims; ++s) {
    const auto i = static_cast<std::size_t>(s);
    r.sim.steps += sim_steps[i];
    core::absorb_datastore_stats(r.sim, sim_stores[i]->store());
    r.sim.iter_time.merge(sims[i]->stats().all().at("iter_time"));
  }
  ComposedOutcome out;
  out.outcome = {fingerprint(r), model_events(r.sim, r.train)};
  out.transport_events = r.sim.transport_events + r.train.transport_events;
  for (const auto& b : backings) out.keys_resident += b->size();
  read_engine(engine, out);
  return out;
}

// ---------------------------------------------------------------------------
// Serving plane (serve::run_cluster, no faults, no trace)
// ---------------------------------------------------------------------------

constexpr const char* kWeightsKey = "serve/weights";
constexpr std::uint64_t kRefreshSalt = 0x3efe5ull;
constexpr SimTime kPublisherHeartbeat = 0.05;

ComposedOutcome run_serve(const serve::ServeConfig& config) {
  if (config.faults != nullptr || config.record_trace || !config.model.is_null())
    throw std::logic_error("composed serve: config outside the composed shape");

  util::Json model_spec = util::Json::object();
  model_spec["layers"] = util::Json::array({16, 64, 32, 8});
  model_spec["activation"] = "tanh";
  model_spec["seed"] = config.weight_seed;
  const auto in_features = static_cast<std::size_t>(
      model_spec.at("layers").at(std::size_t{0}).as_int());

  serve::RequestGenerator gen(config.arrivals, in_features);
  const int clients = gen.clients();
  const int total = gen.total_requests();

  sim::Engine engine;
  platform::TransportModel model;
  auto backing = std::make_shared<kv::MemoryStore>();
  auto store = std::make_shared<layers::TimedStore>(backing);

  core::DataStoreConfig base;
  base.backend = config.backend;
  base.payload_cap = config.payload_cap;
  base.verify_integrity = config.verify_integrity;
  base.retry = config.retry;
  base.transport.concurrent_clients = clients + config.replicas + 2;
  const bool remote = config.backend == platform::BackendKind::Redis ||
                      config.backend == platform::BackendKind::Dragon;

  std::vector<std::unique_ptr<PricedClient>> client_stores;
  for (int c = 0; c < clients; ++c) {
    core::DataStoreConfig cfg = base;
    cfg.node = c;
    client_stores.push_back(std::make_unique<PricedClient>(
        "client" + std::to_string(c), store, model, cfg));
  }
  // Replica-side ops run inside ReplicaServer with their own Context, so
  // these clients keep the real TransportModel and stay untimed.
  std::vector<std::unique_ptr<core::DataStore>> replica_stores;
  for (int r = 0; r < config.replicas; ++r) {
    core::DataStoreConfig cfg = base;
    cfg.node = clients + r;
    cfg.transport.remote = remote;
    replica_stores.push_back(std::make_unique<core::DataStore>(
        "replica" + std::to_string(r) + "_store", store, &model, cfg));
  }
  core::DataStoreConfig frontend_cfg = base;
  frontend_cfg.node = clients + config.replicas;
  frontend_cfg.transport.remote = remote;
  frontend_cfg.transport.fanin = config.replicas;
  PricedClient frontend_store("frontend", store, model, frontend_cfg);
  core::DataStoreConfig pub_cfg = base;
  pub_cfg.node = clients + config.replicas + 1;
  pub_cfg.transport.remote = remote;
  PricedClient publisher_store("publisher", store, model, pub_cfg);

  serve::Scheduler scheduler(engine, config.policy, total);
  std::deque<serve::Request*> done;
  sim::Event done_event(engine);
  scheduler.set_resolve_event(&done_event);

  std::uint64_t published_version = 0;
  std::vector<std::unique_ptr<serve::ReplicaServer>> replicas;
  for (int r = 0; r < config.replicas; ++r) {
    serve::ReplicaConfig rc;
    rc.index = r;
    rc.name = "replica" + std::to_string(r);
    rc.model = util::Json::object();
    rc.model["model"] = model_spec;
    rc.model["device"] = config.device;
    rc.batch_overhead = config.batch_overhead;
    rc.poll_interval = config.poll_interval;
    rc.weights_key = kWeightsKey;
    rc.seed = config.weight_seed;
    auto replica = std::make_unique<serve::ReplicaServer>(
        engine, std::move(rc), replica_stores[static_cast<std::size_t>(r)].get(),
        &scheduler);
    replica->set_published_version(&published_version);
    replica->set_on_complete(
        [&done, &done_event](sim::Context&, serve::Batch& b) {
          for (serve::Request* req : b.requests) done.push_back(req);
          done_event.notify_all();
        });
    scheduler.add_replica(replica.get());
    replicas.push_back(std::move(replica));
  }

  std::vector<std::unique_ptr<serve::Request>> pool;
  pool.reserve(static_cast<std::size_t>(total));

  engine.spawn("publisher", [&](sim::Context& ctx) {
    ai::Mlp mlp = ai::Mlp::from_json(model_spec);
    {
      const util::Payload w =
          serve::pack_weights(1, mlp.flatten_parameters());
      publisher_store.write(ctx, kWeightsKey, w.view());
      published_version = 1;
    }
    if (config.weight_refresh_rate <= 0.0) return;
    util::Xoshiro256 rng(util::mix64(config.weight_seed ^ kRefreshSalt));
    SimTime next = ctx.now() + rng.next_exponential(config.weight_refresh_rate);
    while (!scheduler.finished()) {
      const SimTime gap = next - ctx.now();
      ctx.delay(gap > 0.0 ? std::min(gap, kPublisherHeartbeat)
                          : kPublisherHeartbeat);
      if (scheduler.finished()) return;
      if (ctx.now() < next) continue;
      util::Json spec = model_spec;
      spec["seed"] = config.weight_seed + published_version;
      ai::Mlp fresh = ai::Mlp::from_json(spec);
      const util::Payload w =
          serve::pack_weights(published_version + 1, fresh.flatten_parameters());
      publisher_store.write(ctx, kWeightsKey, w.view());
      ++published_version;
      next = ctx.now() + rng.next_exponential(config.weight_refresh_rate);
    }
  });

  for (auto& replica : replicas) {
    serve::ReplicaServer* rp = replica.get();
    engine.spawn(rp->name(), [rp](sim::Context& ctx) { rp->run(ctx); });
  }
  engine.spawn("scheduler",
               [&scheduler](sim::Context& ctx) { scheduler.run(ctx); });

  engine.spawn("frontend", [&](sim::Context& ctx) {
    while (!scheduler.finished() || !done.empty()) {
      if (done.empty()) {
        ctx.wait(done_event);
        continue;
      }
      serve::Request* r = done.front();
      done.pop_front();
      util::Payload resp;
      while (!frontend_store.read(ctx, r->response_key(), resp))
        ctx.delay(config.poll_interval);
      try {
        r->output = ai::unpack_tensor(resp.view());
      } catch (const util::SerializationError&) {
      }
      r->completed = ctx.now();
      r->status = serve::RequestStatus::Completed;
      frontend_store.clean(ctx, r->input_key());
      frontend_store.clean(ctx, r->response_key());
      scheduler.on_resolved(ctx);
    }
  });

  const auto& arrivals = gen.arrivals();
  for (int c = 0; c < clients; ++c) {
    PricedClient* cstore = client_stores[static_cast<std::size_t>(c)].get();
    engine.spawn("client" + std::to_string(c),
                 [&, cstore, c](sim::Context& ctx) {
      const auto& times = arrivals[static_cast<std::size_t>(c)];
      for (std::size_t k = 0; k < times.size(); ++k) {
        if (times[k] > ctx.now()) ctx.delay(times[k] - ctx.now());
        pool.push_back(std::make_unique<serve::Request>(
            gen.make_request(c, static_cast<int>(k))));
        serve::Request* r = pool.back().get();
        if (!scheduler.admit(ctx, *r)) continue;
        const Bytes packed = ai::pack_tensor(r->input);
        cstore->write(ctx, r->input_key(), ByteView(packed));
        scheduler.enqueue(ctx, *r);
      }
    });
  }

  engine.run();

  serve::ServeResult result;
  result.makespan = engine.now();
  if (pool.size() != static_cast<std::size_t>(total))
    throw std::runtime_error("composed serve: request pool diverged");
  std::sort(pool.begin(), pool.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  for (const auto& rp : pool) {
    const serve::Request& r = *rp;
    if (r.status == serve::RequestStatus::Pending)
      throw std::runtime_error("composed serve: a request never resolved");
    result.requests.push_back({r.id, r.client, r.replica, r.status,
                               r.attempts, r.arrival, r.batched,
                               r.compute_start, r.compute_end, r.completed});
    if (r.status == serve::RequestStatus::Completed) ++result.completed;
  }

  ComposedOutcome out;
  out.outcome = {result.fingerprint(), result.completed};
  out.completed = result.completed;
  out.batches = scheduler.batches_dispatched();
  out.peak_queue_depth = scheduler.peak_queue_depth();
  for (const auto& replica : replicas)
    out.weight_refreshes += replica->weight_refreshes();
  for (const auto& c : client_stores)
    out.transport_events += c->store().transport_events();
  for (const auto& s : replica_stores) out.transport_events += s->transport_events();
  out.transport_events += frontend_store.store().transport_events() +
                          publisher_store.store().transport_events();
  out.keys_resident = backing->size();
  read_engine(engine, out);
  out.untimed = {"serve: ReplicaServer DataStore ops (weight/input reads, "
                 "response writes) with their pricing and CRC",
                 "ai: AiComponent::infer_batch MLP forwards",
                 "serve: Scheduler bookkeeping"};
  return out;
}

}  // namespace

ComposedOutcome run_composed(const Spec& spec) {
  if (obs::enabled())
    throw std::logic_error("composed runs expect the obs plane disarmed");
  layers::register_timed_kernels();
  ComposedOutcome out;
  switch (spec.kind) {
    case Kind::Fig3: out = run_fig3(fig3_config(spec)); break;
    case Kind::Fig6: out = run_fig6(fig6_config(spec)); break;
    case Kind::Serve: out = run_serve(serve_config(spec)); break;
  }
  out.untimed.insert(out.untimed.begin(),
                     "sim: engine queue, fiber switches and process bodies "
                     "between spans");
  return out;
}

}  // namespace perfbench
