// perfbench_trace — the benchmark's traced, in-process replay of a campaign.
//
//   perfbench_trace --manifest m.json --out-dir DIR [--jobs N] [--per-run]
//   perfbench_trace --manifest m.json --first-point
//
// Replay mode runs the manifest's campaign the way exp::run_campaign does
// (same Workspace reuse, same rep chunking, same Aggregator and row store),
// but from here, so every call into a src/ module's public API can be
// wrapped in a span without touching the program. It writes:
//   DIR/replay.csv, DIR/replay_runs.csv  the Aggregator's artifacts, which
//                                        must equal pas-exp's byte for byte
//   DIR/spans.csv                        one row per span (see SpanRec)
//   DIR/summary.json                     exact counters summed over runs
//
// Deployment, stimulus-model builds and arrival maps happen inside
// Workspace::run_metrics, where no span can reach. They are timed by
// calling the same public functions again on the same config right after
// the run ("replica" spans, children of the run_metrics span), so the
// report can subtract them from run_metrics to get the simulation's self
// time. The replicas are benchmark-only work; the report lists their time
// separately.
//
// First-point mode times point 0 of the manifest on a cold Workspace (all
// of its replications, serially) and prints {"busy_s": ...}; run.py
// subtracts it from pas-exp's launch-to-first-point time to get setup_s.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "exp/row_store.hpp"
#include "io/json.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/rng.hpp"
#include "stimulus/arrival_map.hpp"
#include "world/deployment.hpp"
#include "world/scenario.hpp"
#include "world/sweep.hpp"
#include "world/workspace.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every global operator new in this process bumps a
// per-thread count, read around Workspace::run_metrics.
// ---------------------------------------------------------------------------
namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace pas;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_t0)
      .count();
}

// ---------------------------------------------------------------------------
// Spans: kept in per-thread buffers in memory, written out at the end.
// ---------------------------------------------------------------------------
struct SpanRec {
  const char* name = "";
  std::int32_t parent = -1;  // index in the same thread's buffer; -1 = root
  std::int64_t point = -1;
  std::int64_t rep = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t allocs = -1;  // operator new calls inside; -1 = not counted
};

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<SpanRec> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
};

std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by the mutex

ThreadSpans& thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard lock(g_threads_mutex);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
    mine->thread = static_cast<std::uint32_t>(g_threads.size() - 1);
    mine->spans.reserve(1 << 14);
  }
  return *mine;
}

/// RAII span. Nested spans on one thread get the innermost open span as
/// parent; `parent` overrides that for replica spans.
class Span {
 public:
  Span(const char* name, std::int64_t point = -1, std::int64_t rep = -1,
       std::int32_t parent = -2)
      : buf_(thread_spans()) {
    SpanRec rec;
    rec.name = name;
    rec.parent = parent != -2 ? parent
                 : buf_.open.empty() ? -1
                                     : buf_.open.back();
    rec.point = point;
    rec.rep = rep;
    index_ = static_cast<std::int32_t>(buf_.spans.size());
    buf_.spans.push_back(rec);
    buf_.open.push_back(index_);
    buf_.spans[index_].start_ns = now_ns();
  }
  ~Span() {
    buf_.spans[index_].end_ns = now_ns();
    buf_.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int32_t index() const noexcept { return index_; }
  void set_allocs(std::uint64_t n) {
    buf_.spans[index_].allocs = static_cast<std::int64_t>(n);
  }

 private:
  ThreadSpans& buf_;
  std::int32_t index_ = 0;
};

/// A finished interval recorded after the fact (runtime.wait: submit time
/// on one thread, start time on another).
void record_interval(const char* name, std::int64_t point, std::int64_t start,
                     std::int64_t end) {
  ThreadSpans& buf = thread_spans();
  SpanRec rec;
  rec.name = name;
  rec.point = point;
  rec.start_ns = start;
  rec.end_ns = end;
  buf.spans.push_back(rec);
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "thread,index,parent,name,point,rep,start_ns,end_ns,allocs\n";
  const std::lock_guard lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRec& s = t->spans[i];
      out << t->thread << ',' << i << ',' << s.parent << ',' << s.name << ','
          << s.point << ',' << s.rep << ',' << s.start_ns << ',' << s.end_ns
          << ',' << s.allocs << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Exact counters, summed over every run of the replay.
// ---------------------------------------------------------------------------
struct Totals {
  std::mutex mutex;
  world::RunTelemetry telemetry;  // guarded by mutex
  net::Network::Stats network;    // guarded by mutex
  std::uint64_t deploy_attempts = 0;
  std::uint64_t model_builds = 0;

  void add_point(const world::ReplicatedMetrics& m,
                 std::uint64_t point_deploy_attempts,
                 std::uint64_t point_model_builds) {
    const std::lock_guard lock(mutex);
    for (const auto& run : m.runs) {
      telemetry.add(run);
      network.broadcasts += run.network.broadcasts;
      network.deliveries += run.network.deliveries;
      network.dropped_channel += run.network.dropped_channel;
      network.dropped_not_listening += run.network.dropped_not_listening;
      network.dropped_failed += run.network.dropped_failed;
      network.blocked_sender_failed += run.network.blocked_sender_failed;
    }
    deploy_attempts += point_deploy_attempts;
    model_builds += point_model_builds;
  }
};

/// One thread's world plus the replica state used to time the parts of
/// run_metrics that spans cannot reach.
struct TracedWorkspace {
  world::Workspace workspace;
  std::unique_ptr<stimulus::StimulusModel> model;
  world::ScenarioConfig model_key;
  bool model_valid = false;
  std::vector<geom::Vec2> positions;
  stimulus::ArrivalMap arrivals;
};

/// Replication r of `point`: the timed run_metrics call, then the replica
/// calls (deployment + connectivity, stimulus model on a cache miss,
/// arrival map) on the same config.
void traced_rep(TracedWorkspace& tw, const exp::GridPoint& point,
                std::size_t r, metrics::RunMetrics& out,
                std::uint64_t& deploy_attempts, std::uint64_t& model_builds) {
  const auto p = static_cast<std::int64_t>(point.index);
  const auto rr = static_cast<std::int64_t>(r);
  // Exactly what world::run_replication does before calling run_metrics.
  world::ScenarioConfig cfg = point.config;
  cfg.seed = point.config.seed + r;
  cfg.enable_trace = false;

  const Span rep("world.rep", p, rr);
  std::int32_t run_index = 0;
  {
    Span run("world.run_metrics", p, rr);
    run_index = run.index();
    const std::uint64_t before = t_allocs;
    const metrics::RunMetrics& m = tw.workspace.run_metrics(cfg);
    run.set_allocs(t_allocs - before);
    out = m;
  }
  deploy_attempts += tw.workspace.deployment_attempts();

  {
    const Span deploy("world.deploy", p, rr, run_index);
    const sim::SeedSequence seeds(cfg.seed);
    for (std::size_t attempt = 0; attempt < cfg.max_deployment_attempts;
         ++attempt) {
      sim::Pcg32 rng = seeds.stream(sim::SeedSequence::kDeployment, attempt);
      tw.positions = world::generate_deployment(cfg.deployment, rng);
      if (world::is_connected(tw.positions, cfg.radio.range_m)) break;
    }
  }
  if (!tw.model_valid || !world::same_stimulus(tw.model_key, cfg)) {
    const Span build("stimulus.model_build", p, rr, run_index);
    tw.model = world::make_stimulus(cfg);
    tw.model_key = cfg;
    tw.model_valid = true;
    ++model_builds;
  }
  {
    const Span arrivals("stimulus.arrivals", p, rr, run_index);
    tw.arrivals.assign(*tw.model, tw.positions, cfg.duration_s);
  }
}

/// Mirrors exp::run_campaign's automatic rep chunking (runner.cpp).
std::size_t auto_rep_chunk(std::size_t points, std::size_t reps,
                           std::size_t jobs) {
  if (points == 0 || jobs <= 1 || points >= jobs * 2) return reps;
  const std::size_t jobs_per_point = (jobs * 2 + points - 1) / points;
  return std::max<std::size_t>(1, (reps + jobs_per_point - 1) / jobs_per_point);
}

struct PointTask {
  const exp::GridPoint* point = nullptr;
  std::vector<metrics::RunMetrics> runs;
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::uint64_t> deploy_attempts{0};
  std::atomic<std::uint64_t> model_builds{0};
};

struct Args {
  std::string manifest;
  std::string out_dir;
  std::size_t jobs = 1;
  bool per_run = false;
  bool first_point = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--manifest") {
      a.manifest = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--jobs") {
      a.jobs = std::stoul(value());
    } else if (flag == "--per-run") {
      a.per_run = true;
    } else if (flag == "--first-point") {
      a.first_point = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.manifest.empty()) throw std::invalid_argument("--manifest is required");
  if (!a.first_point && a.out_dir.empty()) {
    throw std::invalid_argument("--out-dir is required");
  }
  if (a.jobs == 0) throw std::invalid_argument("--jobs must be >= 1");
  return a;
}

int first_point(const Args& args) {
  const auto manifest = exp::Manifest::load(args.manifest);
  const auto points = exp::expand_grid(manifest);
  world::Workspace workspace;
  const auto t0 = Clock::now();
  std::vector<metrics::RunMetrics> runs(manifest.replications);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    runs[r] = world::run_replication(workspace, points.front().config, r);
  }
  // pas-exp reduces the point before printing its line; so does this.
  [[maybe_unused]] const auto reduced = world::reduce_runs(std::move(runs));
  const double busy =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("{\"busy_s\": %.9f}\n", busy);
  return 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

int replay(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.out_dir);
  const std::string csv = args.out_dir + "/replay.csv";
  const std::string per_run =
      args.per_run ? args.out_dir + "/replay_runs.csv" : std::string();
  const std::string store = exp::RowStore::path_for(csv);
  for (const auto& path : {csv, per_run, store}) {
    if (!path.empty()) fs::remove(path);
  }

  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = now_ns();
  Totals totals;
  std::uintmax_t store_bytes = 0;
  std::size_t point_count = 0;
  std::size_t replications = 0;
  {
    const Span campaign("campaign");
    std::unique_ptr<exp::Manifest> manifest;
    std::vector<exp::GridPoint> points;
    exp::AggregatorOptions agg;
    {
      const Span setup("exp.setup");
      manifest = std::make_unique<exp::Manifest>(
          exp::Manifest::load(args.manifest));
      points = exp::expand_grid(*manifest);
      agg.expected_identity = exp::grid_identity(points);
    }
    point_count = points.size();
    replications = manifest->replications;
    agg.csv_path = csv;
    agg.per_run_path = per_run;
    agg.axis_names = exp::axis_columns(*manifest);
    agg.total_points = points.size();
    agg.replications = manifest->replications;
    agg.store_path = store;
    std::unique_ptr<exp::Aggregator> aggregator;
    {
      const Span open("exp.open");
      aggregator = std::make_unique<exp::Aggregator>(std::move(agg));
      aggregator->load_existing();
    }

    const std::size_t reps = manifest->replications;
    const std::size_t chunk = auto_rep_chunk(points.size(), reps, args.jobs);
    const std::size_t chunks_per_point = (reps + chunk - 1) / chunk;
    std::vector<PointTask> tasks(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      tasks[i].point = &points[i];
      tasks[i].runs.resize(reps);
      tasks[i].remaining.store(chunks_per_point);
    }

    const auto finish_point = [&](PointTask& task) {
      const auto p = static_cast<std::int64_t>(task.point->index);
      world::ReplicatedMetrics reduced;
      {
        const Span reduce("metrics.reduce", p);
        reduced = world::reduce_runs(std::move(task.runs));
      }
      {
        const Span record("exp.record", p);
        aggregator->record(task.point->index, task.point->seed,
                           task.point->values, reduced);
      }
      totals.add_point(reduced, task.deploy_attempts.load(),
                       task.model_builds.load());
    };
    const auto run_chunk = [&](PointTask& task, std::size_t begin,
                               std::size_t end, TracedWorkspace& tw) {
      std::uint64_t attempts = 0;
      std::uint64_t builds = 0;
      for (std::size_t r = begin; r < end; ++r) {
        traced_rep(tw, *task.point, r, task.runs[r], attempts, builds);
      }
      task.deploy_attempts.fetch_add(attempts);
      task.model_builds.fetch_add(builds);
      if (task.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finish_point(task);
      }
    };

    if (args.jobs == 1) {
      TracedWorkspace tw;
      for (auto& task : tasks) {
        const Span point("exp.point",
                         static_cast<std::int64_t>(task.point->index));
        run_chunk(task, 0, reps, tw);
      }
    } else {
      runtime::ThreadPool pool(args.jobs);
      std::vector<std::future<void>> futures;
      futures.reserve(tasks.size() * chunks_per_point);
      const Span pooled("runtime.pool");
      for (auto& task : tasks) {
        for (std::size_t begin = 0; begin < reps; begin += chunk) {
          const std::size_t end = std::min(reps, begin + chunk);
          const std::int64_t submitted = now_ns();
          futures.push_back(pool.submit([&run_chunk, &task, begin, end,
                                         submitted] {
            const auto p = static_cast<std::int64_t>(task.point->index);
            record_interval("runtime.wait", p, submitted, now_ns());
            const Span span("runtime.chunk", p);
            static thread_local TracedWorkspace tw;
            run_chunk(task, begin, end, tw);
          }));
        }
      }
      for (auto& f : futures) f.get();
    }

    std::error_code ec;
    store_bytes = fs::file_size(store, ec);
    if (ec) store_bytes = 0;
    {
      const Span finalize("exp.finalize");
      aggregator->finalize();
    }
  }
  const double wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
  const double cpu_s = cpu_seconds() - cpu0;

  write_spans(args.out_dir + "/spans.csv");

  const world::RunTelemetry& t = totals.telemetry;
  io::JsonObject kernel;
  kernel["events_scheduled"] = t.kernel.events_scheduled;
  kernel["events_dispatched"] = t.kernel.events_dispatched;
  kernel["events_cancelled"] = t.kernel.events_cancelled;
  kernel["max_pending"] = t.kernel.max_pending;
  kernel["timer_reschedules"] = t.kernel.timer_reschedules;
  io::JsonObject protocol;
  protocol["wakeups"] = t.protocol.wakeups;
  protocol["requests_sent"] = t.protocol.requests_sent;
  protocol["responses_sent"] = t.protocol.responses_sent;
  protocol["responses_pushed"] = t.protocol.responses_pushed;
  protocol["pushes_suppressed"] = t.protocol.pushes_suppressed;
  protocol["messages_received"] = t.protocol.messages_received;
  protocol["prediction_hits"] = t.protocol.prediction_hits;
  protocol["prediction_misses"] = t.protocol.prediction_misses;
  io::JsonObject network;
  network["broadcasts"] = totals.network.broadcasts;
  network["deliveries"] = totals.network.deliveries;
  network["dropped"] = totals.network.dropped_channel +
                       totals.network.dropped_not_listening +
                       totals.network.dropped_failed;
  io::JsonObject mac;
  mac["data_tx"] = t.mac.data_tx;
  mac["retries"] = t.mac.retries;
  mac["lpl_samples"] = t.mac.lpl_samples;
  io::JsonObject collection;
  collection["originated"] = t.collection.originated;
  collection["delivered"] = t.collection.delivered;

  io::JsonObject summary;
  summary["points"] = point_count;
  summary["replications"] = replications;
  summary["runs"] = t.runs;
  summary["jobs"] = args.jobs;
  summary["wall_s"] = wall_s;
  summary["cpu_s"] = cpu_s;
  summary["store_bytes"] = static_cast<std::uint64_t>(store_bytes);
  summary["deploy_attempts"] = totals.deploy_attempts;
  summary["model_builds"] = totals.model_builds;
  summary["kernel"] = std::move(kernel);
  summary["protocol"] = std::move(protocol);
  summary["network"] = std::move(network);
  summary["mac"] = std::move(mac);
  summary["collection"] = std::move(collection);
  std::ofstream out(args.out_dir + "/summary.json");
  out << io::Json(std::move(summary)).dump() << '\n';
  if (!out) throw std::runtime_error("cannot write summary.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.first_point ? first_point(args) : replay(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
