// Microbenchmarks A4 — simulator-kernel throughput and parallel-sweep
// scaling: the costs everything else in this repository is built on.
//
// The CI perf gate (tools/check_bench_regression.py against
// bench/BENCH_kernel_baseline.json) watches BM_Simulator_EventStorm,
// BM_Simulator_EventStormPayload, BM_Network_BroadcastFanout,
// BM_Scenario_SingleRun, BM_Mac_MultihopRun, BM_EventQueue_MacShaped and
// BM_EventQueue_Sparse at 15%, and
// BM_Aggregator_Record / BM_Aggregator_Finalize (filesystem-bound) at a
// looser 50%; keep their workloads stable.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "geom/aabb.hpp"
#include "io/json.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "world/config_json.hpp"
#include "world/deployment.hpp"
#include "world/paper_setup.hpp"
#include "world/scenario.hpp"
#include "world/sweep.hpp"
#include "world/workspace.hpp"

namespace {

void BM_EventQueue_PushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pas::sim::Pcg32 rng(1, 1);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(rng.uniform(0.0, 1e6), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_PushPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueue_CancelHeavy(benchmark::State& state) {
  // Protocol-shaped churn: a working set of pending timers is repeatedly
  // cancelled and replaced before firing (exactly what wake/eval/recheck
  // timers do on every state transition). Dominated by cancel() + push().
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLive = 256;
  pas::sim::Pcg32 rng(7, 1);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    std::vector<pas::sim::EventId> live;
    live.reserve(kLive);
    for (std::size_t i = 0; i < kLive; ++i) {
      live.push_back(q.push(rng.uniform(0.0, 1e3), [] {}));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i % kLive;
      q.cancel(live[k]);
      live[k] = q.push(rng.uniform(0.0, 1e3), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_CancelHeavy)->Arg(10000)->Arg(100000);

void BM_EventQueue_MixedHorizon(benchmark::State& state) {
  // A near-term working set churns on top of a stable far-future tail — the
  // shape of a live protocol run (imminent MAC/wake events over distant
  // failure and timeout events). Stresses heap locality with a deep heap.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTail = 4096;
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < kTail; ++i) {
      q.push(1e6 + static_cast<double>(i), [] {});
    }
    double now = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(now + 0.5, [] {});
      const auto popped = q.pop();
      now = popped.time;
      benchmark::DoNotOptimize(now);
    }
    q.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_MixedHorizon)->Arg(10000)->Arg(100000);

void BM_EventQueue_MacShaped(benchmark::State& state) {
  // Synthetic MAC-scale pending set: n periodic timers always armed (n live
  // events at all times), each re-arming one period ahead as it fires, with
  // a thin layer of short-horizon traffic on top — the shape an eager
  // per-slot LPL sampler would give. The real MAC samples lazily (see
  // BM_Mac_MultihopRun), so this is now a pure queue stress: a heap pays
  // O(log n) per re-arm against a deep heap; the ladder touches one bucket.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr double kPeriod = 0.25;
  pas::sim::Pcg32 rng(5, 9);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(kPeriod * static_cast<double>(i) / static_cast<double>(n),
             [] {});
    }
    const std::size_t pops = 8 * n;
    for (std::size_t i = 0; i < pops; ++i) {
      const auto popped = q.pop();
      benchmark::DoNotOptimize(popped.time);
      if (i % 8 == 7) {
        q.push(popped.time + 0.01 * rng.uniform01(), [] {});  // traffic
      } else {
        q.push(popped.time + kPeriod, [] {});  // timer re-arm
      }
    }
    q.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(8 * n) *
                          state.iterations());
}
BENCHMARK(BM_EventQueue_MacShaped)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueue_Sparse(benchmark::State& state) {
  // The opposite extreme: a near-empty pending set churning across an
  // astronomically wide horizon (idle nodes holding a failure timer and
  // little else). Guards the ladder's constant factors — with almost
  // nothing live, reseeds must cost almost nothing.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLive = 16;
  pas::sim::Pcg32 rng(13, 2);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < kLive; ++i) {
      q.push(rng.uniform(0.0, 1e9), [] {});
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto popped = q.pop();
      benchmark::DoNotOptimize(popped.time);
      q.push(popped.time + rng.uniform(0.0, 1e9), [] {});
    }
    q.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_Sparse)->Arg(100000);

void BM_Simulator_EventStorm(benchmark::State& state) {
  // Self-rescheduling chain through a 16-byte POD functor: measures the
  // kernel's per-event dispatch cost with the smallest realistic capture (a
  // protocol timer's `this` + node index). (A previous version rescheduled
  // a captured std::function, so every event also paid a heap-allocating
  // self-copy of the callback — it benchmarked std::function, not us.)
  struct Tick {
    pas::sim::Simulator* sim;
    std::size_t* remaining;
    void operator()() const {
      if (--*remaining > 0) sim->schedule_in(0.001, Tick{sim, remaining});
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pas::sim::Simulator sim;
    std::size_t remaining = n;
    sim.schedule_in(0.001, Tick{&sim, &remaining});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Simulator_EventStorm)->Arg(10000)->Arg(100000);

void BM_Simulator_EventStormPayload(benchmark::State& state) {
  // Same chain with a large capture: a net::Message-sized payload rides in
  // every callback. Together with the two pointers the capture is 128 B,
  // beyond SmallFn::kInlineBytes, so every event here pays one heap
  // allocation — the cost of a closure that outgrows the inline buffer.
  // BM_Network_BroadcastFanout below measures the real delivery path.
  struct Tick {
    pas::sim::Simulator* sim;
    std::size_t* remaining;
    unsigned char payload[sizeof(pas::net::Message)];
    void operator()() const {
      if (--*remaining > 0) {
        Tick next = *this;
        sim->schedule_in(0.001, next);
      }
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pas::sim::Simulator sim;
    std::size_t remaining = n;
    sim.schedule_in(0.001, Tick{&sim, &remaining, {}});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Simulator_EventStormPayload)->Arg(10000)->Arg(100000);

void BM_Network_BroadcastFanout(benchmark::State& state) {
  // The mac-off delivery path the paper campaign spends its time in: the
  // paper's 30 nodes, uniform over 40 m x 40 m with 10 m radios, each
  // broadcasting real RESPONSE messages through net::Network — jitter draw,
  // the in-flight frame slab, one fan-out event per broadcast, and the
  // per-receiver failed/listening/channel checks before the rx handler.
  // Every third node is asleep, as in a duty-cycled run.
  pas::sim::Simulator sim;
  pas::sim::Pcg32 rng(7, 7);
  const auto positions = pas::world::uniform_deployment(
      30, pas::geom::Aabb::square(40.0), rng);
  pas::net::Network network(sim, positions, pas::net::RadioConfig{},
                            std::make_shared<pas::net::PerfectChannel>(),
                            pas::sim::SeedSequence(1));
  std::uint64_t heard = 0;
  for (std::uint32_t i = 0; i < network.size(); ++i) {
    network.set_rx_handler(i, [&heard](const pas::net::Message& m) {
      heard += m.payload.state;
    });
    if (i % 3 == 0) network.set_listening(i, false);
  }
  pas::net::Message msg;
  msg.type = pas::net::MessageType::kResponse;
  msg.payload.state = 1;
  msg.payload.velocity_valid = true;
  constexpr int kRounds = 100;
  for (auto _ : state) {
    for (int r = 0; r < kRounds; ++r) {
      for (std::uint32_t i = 0; i < network.size(); ++i) {
        network.broadcast(i, msg);
      }
      sim.run();
    }
  }
  benchmark::DoNotOptimize(heard);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(network.stats().broadcasts));
}
BENCHMARK(BM_Network_BroadcastFanout);

void BM_Scenario_SingleRun(benchmark::State& state) {
  // One full paper-scenario simulation, the unit of every sweep.
  pas::world::PaperSetupOverrides o;
  o.policy = pas::core::Policy::kPas;
  const auto cfg = pas::world::paper_scenario(o);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto run_cfg = cfg;
    run_cfg.seed = seed++;
    benchmark::DoNotOptimize(pas::world::run_scenario(run_cfg).metrics);
  }
}
BENCHMARK(BM_Scenario_SingleRun)->Unit(benchmark::kMillisecond);

void BM_Mac_MultihopRun(benchmark::State& state) {
  // One MAC-on run: the base scenario of examples/multihop_collection.json
  // (49-node grid, 14 m radios, slotted LPL MAC at 0.1 s slots, tree
  // collection to a corner sink, PAS). Lazy slot sampling, rendezvous,
  // contention and collection forwarding, end to end through a Workspace.
  const auto cfg = pas::world::scenario_from_json(pas::io::Json::parse(R"({
    "duration_s": 150,
    "deployment": {"kind": "grid", "count": 49, "region_m": 80},
    "radio": {"range_m": 14},
    "stimulus": {
      "kind": "radial",
      "radial": {
        "source": {"x": 4, "y": 4},
        "base_speed_mps": 1.0,
        "start_time_s": 5,
        "max_radius_m": 120,
        "harmonics": [{"k": 2, "amplitude": 0.08, "phase": 1.3}]
      }
    },
    "mac": {"enabled": true, "slot_period_s": 0.1},
    "collection": {"sink_placement": "corner", "max_hops": 16,
                   "node_queue_limit": 8}
  })"));
  pas::world::Workspace workspace;
  std::uint64_t seed = 1;
  std::uint64_t samples = 0;
  for (auto _ : state) {
    auto run_cfg = cfg;
    run_cfg.seed = seed++;
    samples += workspace.run_metrics(run_cfg).mac.lpl_samples;
  }
  benchmark::DoNotOptimize(samples);
}
BENCHMARK(BM_Mac_MultihopRun)->Unit(benchmark::kMicrosecond);

void BM_Scenario_Replicated(benchmark::State& state) {
  // A replicated point, serially — the unit of campaign work. Unlike
  // SingleRun this path may reuse world state across replications, so the
  // gap between the two is the workspace win.
  pas::world::PaperSetupOverrides o;
  o.policy = pas::core::Policy::kPas;
  const auto cfg = pas::world::paper_scenario(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pas::world::run_replicated(cfg, 8, nullptr).energy_j.mean);
  }
  state.SetItemsProcessed(8 * state.iterations());
}
BENCHMARK(BM_Scenario_Replicated)->Unit(benchmark::kMillisecond);

void BM_Sweep_Parallel(benchmark::State& state) {
  // Replicated sweep over the thread pool: should scale with cores until
  // memory bandwidth binds.
  const auto threads = static_cast<std::size_t>(state.range(0));
  pas::world::PaperSetupOverrides o;
  const auto cfg = pas::world::paper_scenario(o);
  for (auto _ : state) {
    pas::runtime::ThreadPool pool(threads);
    benchmark::DoNotOptimize(
        pas::world::run_replicated(cfg, 16, &pool).energy_j.mean);
  }
  state.SetItemsProcessed(16 * state.iterations());
}
BENCHMARK(BM_Sweep_Parallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Aggregation pipeline ---------------------------------------------------

pas::world::ReplicatedMetrics bench_point_metrics(std::size_t point,
                                                  std::size_t reps) {
  pas::world::ReplicatedMetrics m;
  const double d = 0.25 + 0.001 * static_cast<double>(point % 97);
  m.delay_s = {.n = reps, .mean = d, .stddev = 0.01, .min = d * 0.9,
               .max = d * 1.4, .ci95_half = 0.005};
  m.energy_j = {.n = reps, .mean = 1.5, .stddev = 0.02, .min = 1.4,
                .max = 1.6, .ci95_half = 0.01};
  m.active_fraction = {.n = reps, .mean = 0.05, .stddev = 0.0, .min = 0.05,
                       .max = 0.05, .ci95_half = 0.0};
  m.mean_missed = static_cast<double>(point % 3);
  m.mean_broadcasts = 100.0;
  m.runs.resize(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    m.runs[r].avg_delay_s = d + 0.01 * static_cast<double>(r);
    m.runs[r].avg_energy_j = 1.5;
  }
  return m;
}

pas::exp::AggregatorOptions bench_agg_options(const std::filesystem::path& dir,
                                              std::size_t points,
                                              std::size_t reps) {
  pas::exp::AggregatorOptions options;
  options.csv_path = (dir / "out.csv").string();
  options.per_run_path = (dir / "runs.csv").string();
  options.axis_names = {"x"};
  options.total_points = points;
  options.replications = reps;
  // Small budget relative to the campaign so finalize really runs the
  // external merge instead of a single-buffer fast path.
  options.spill_budget_bytes = 256 * 1024;
  return options;
}

void BM_Aggregator_Record(benchmark::State& state) {
  // Record throughput: per-run rows + summary encoded, CRC'd, batched and
  // flushed once per point. The cost every worker pays per completed grid
  // point.
  constexpr std::size_t kPoints = 512;
  constexpr std::size_t kReps = 4;
  const auto dir = std::filesystem::temp_directory_path() / "pas_bench_agg_r";
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    pas::exp::Aggregator agg(bench_agg_options(dir, kPoints, kReps));
    agg.load_existing();
    for (std::size_t p = 0; p < kPoints; ++p) {
      agg.record(p, 1000 + p, {std::to_string(p)},
                 bench_point_metrics(p, kReps));
    }
    benchmark::DoNotOptimize(agg.done_count());
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(kPoints) *
                          state.iterations());
}
BENCHMARK(BM_Aggregator_Record)->Unit(benchmark::kMillisecond);

void BM_Aggregator_Finalize(benchmark::State& state) {
  // External-merge finalize over a recorded store: spill sorted runs, k-way
  // merge, stream the CSV artifacts, then render the JSONL from the point
  // CSV as pas-exp --json does. Timed without the record phase.
  constexpr std::size_t kPoints = 2048;
  constexpr std::size_t kReps = 4;
  const auto dir = std::filesystem::temp_directory_path() / "pas_bench_agg_f";
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      pas::exp::Aggregator agg(bench_agg_options(dir, kPoints, kReps));
      agg.load_existing();
      for (std::size_t p = 0; p < kPoints; ++p) {
        agg.record(p, 1000 + p, {std::to_string(p)},
                   bench_point_metrics(p, kReps));
      }
      state.ResumeTiming();
      agg.finalize();
      pas::exp::render_jsonl((dir / "out.csv").string(),
                             (dir / "out.jsonl").string());
    }
    benchmark::DoNotOptimize(dir);
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(kPoints) *
                          state.iterations());
}
BENCHMARK(BM_Aggregator_Finalize)->Unit(benchmark::kMillisecond);

void BM_Pcg32_Uniform(benchmark::State& state) {
  pas::sim::Pcg32 rng(42, 1);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng.uniform01();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Pcg32_Uniform);

}  // namespace

BENCHMARK_MAIN();
