#include "exp/aggregate.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "exp/grid.hpp"
#include "exp/telemetry.hpp"
#include "io/csv.hpp"

namespace pas::exp {

namespace {

/// Default spill-buffer budget for the external-merge export.
constexpr std::size_t kDefaultSpillBudgetBytes = 32u << 20;

/// Replication counts up to this use exact (sort-based) delay quantiles in
/// record(); beyond it the streaming t-digest answers instead. The
/// threshold keeps every existing golden CSV bit-identical (campaign
/// manifests run far fewer replications) while bounding the sort cost for
/// sketch-scale points.
constexpr std::size_t kExactQuantileMaxReps = 256;

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

std::string join_csv(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += io::CsvWriter::escape(cells[i]);
  }
  return line;
}

bool parse_index(const std::string& cell, std::size_t& out) {
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), out);
  return ec == std::errc{} && ptr == cell.data() + cell.size();
}

/// True if the whole cell parses as a *finite* double (→ emit raw in JSON
/// lines). Non-finite cells ("nan"/"inf" from format_double) must not leak
/// into JSON, which has no such tokens; the caller emits null instead,
/// matching io::Json::dump's convention.
bool is_finite_numeric_cell(const std::string& cell, bool& non_finite) {
  non_finite = false;
  if (cell.empty()) return false;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) return false;
  if (!std::isfinite(value)) {
    non_finite = true;
    return false;
  }
  return true;
}

/// A point's batch commit order, as record() appends it: per-run rows by
/// rep, the telemetry row, then the summary (the commit mark).
int kind_rank(RowStore::Kind kind) {
  switch (kind) {
    case RowStore::Kind::kPerRun: return 0;
    case RowStore::Kind::kTelemetry: return 1;
    case RowStore::Kind::kSummary: return 2;
  }
  return 3;
}

/// True when `b` may follow `a` inside one point's batch.
bool continues_batch(const RowStore::Record& a, const RowStore::Record& b) {
  if (a.point != b.point) return false;
  const int ra = kind_rank(a.kind), rb = kind_rank(b.kind);
  return ra != rb ? ra < rb : a.rep < b.rep;
}

/// Export merge order: by point, then commit order; sequence numbers break
/// ties so later appends win deterministically.
bool record_less(const RowStore::Record& a, const RowStore::Record& b) {
  if (a.point != b.point) return a.point < b.point;
  const int ra = kind_rank(a.kind), rb = kind_rank(b.kind);
  if (ra != rb) return ra < rb;
  if (a.rep != b.rep) return a.rep < b.rep;
  return a.seq < b.seq;
}

/// Approximate in-memory footprint of a buffered record, for the spill
/// budget accounting.
std::size_t record_bytes(const RowStore::Record& r) {
  std::size_t n = sizeof(RowStore::Record) + 32;
  for (const auto& cell : r.cells) n += cell.size() + sizeof(std::string);
  return n;
}

}  // namespace

PointSummary PointSummary::of(std::size_t point, std::uint64_t seed,
                              const world::ReplicatedMetrics& m) {
  PointSummary s;
  s.point = point;
  s.seed = seed;
  s.replications = m.runs.size();
  s.delay_s = m.delay_s;
  s.energy_j = m.energy_j;
  s.active_fraction = m.active_fraction;
  s.mean_missed = m.mean_missed;
  s.mean_broadcasts = m.mean_broadcasts;
  return s;
}

std::vector<std::string> Aggregator::metric_columns() {
  return {"replications",  "delay_mean_s",         "delay_ci95_s",
          "delay_min_s",   "delay_max_s",          "delay_p50_s",
          "delay_p95_s",   "delay_p99_s",          "energy_mean_j",
          "energy_ci95_j", "energy_min_j",         "energy_max_j",
          "active_fraction_mean",                  "missed_mean",
          "broadcasts_mean"};
}

std::vector<std::string> Aggregator::per_run_metric_columns() {
  return {"avg_delay_s", "p95_delay_s", "max_delay_s",     "avg_energy_j",
          "active_fraction",            "missed",          "censored",
          "broadcasts"};
}

Aggregator::Aggregator(AggregatorOptions options)
    : csv_path_(std::move(options.csv_path)),
      per_run_path_(std::move(options.per_run_path)),
      metrics_path_(std::move(options.metrics_path)),
      axis_count_(options.axis_names.size()),
      total_points_(options.total_points),
      replications_(options.replications),
      expected_identity_(std::move(options.expected_identity)),
      store_path_(std::move(options.store_path)),
      spill_budget_bytes_(options.spill_budget_bytes) {
  if (!expected_identity_.empty() &&
      expected_identity_.size() != total_points_) {
    throw std::logic_error("Aggregator: expected_identity size mismatch");
  }
  if (!per_run_path_.empty() && replications_ == 0) {
    throw std::logic_error(
        "Aggregator: per-run output requires the replication count");
  }
  if (!per_run_path_.empty() && csv_path_.empty()) {
    // Resume pairs per-run groups with summary rows; without the summary
    // CSV every recovered group would look orphaned and be wiped.
    throw std::logic_error(
        "Aggregator: per-run output requires a summary CSV path");
  }
  if (!metrics_path_.empty() && csv_path_.empty()) {
    // Telemetry rows live in the row store, which backs the CSV artifact.
    throw std::logic_error(
        "Aggregator: telemetry output requires a summary CSV path");
  }
  if (!store_path_.empty() && csv_path_.empty()) {
    // The store exists to back a CSV artifact; in-memory aggregation
    // (benches, unit tests) has nothing to export.
    throw std::logic_error(
        "Aggregator: a row-store path requires a summary CSV path");
  }
  if (store_path_.empty() && !csv_path_.empty()) {
    store_path_ = RowStore::path_for(csv_path_);
  }
  if (!options.owned_points.empty()) {
    owned_.assign(total_points_, 0);
    for (const auto p : options.owned_points) {
      if (p >= total_points_) {
        throw std::logic_error("Aggregator: owned point out of range");
      }
      if (owned_[p] == 0) ++owned_count_;
      owned_[p] = 1;
    }
  }
  columns_ = {"point", "seed"};
  columns_.insert(columns_.end(), options.axis_names.begin(),
                  options.axis_names.end());
  const auto metrics = metric_columns();
  columns_.insert(columns_.end(), metrics.begin(), metrics.end());

  per_run_columns_ = {"point", "rep", "seed"};
  per_run_columns_.insert(per_run_columns_.end(), options.axis_names.begin(),
                          options.axis_names.end());
  const auto run_metrics = per_run_metric_columns();
  per_run_columns_.insert(per_run_columns_.end(), run_metrics.begin(),
                          run_metrics.end());

  if (!store_path_.empty()) {
    identity_hash_ = RowStore::hash_identity(columns_, total_points_,
                                             replications_,
                                             expected_identity_);
  }
  done_.assign(total_points_, 0);
}

Aggregator::Aggregator(std::string csv_path,
                       std::vector<std::string> axis_names,
                       std::size_t total_points,
                       std::vector<std::vector<std::string>> expected_identity)
    : Aggregator(AggregatorOptions{
          .csv_path = std::move(csv_path),
          .per_run_path = {},
          .metrics_path = {},
          .axis_names = std::move(axis_names),
          .total_points = total_points,
          .replications = 0,
          .expected_identity = std::move(expected_identity),
          .owned_points = {},
          .store_path = {},
          .spill_budget_bytes = 0}) {}

std::string Aggregator::csv_line(const std::vector<std::string>& cells) const {
  return join_csv(cells);
}

void Aggregator::load_rows_file(
    const std::string& path, const std::vector<std::string>& want_header,
    const char* flag_hint, std::size_t key_arity,
    const std::function<void(std::size_t, std::size_t,
                             std::vector<std::string>)>& on_row) {
  std::ifstream in(path);
  if (!in) return;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (split_csv_line(line) != want_header) {
        throw std::runtime_error(
            "Aggregator: existing output header does not match this "
            "campaign (" + path + "); delete it or change " + flag_hint);
      }
      continue;
    }
    auto cells = split_csv_line(line);
    // A row truncated by a kill mid-write has the wrong cell count;
    // drop it and let the runner recompute that point.
    if (cells.size() != want_header.size()) continue;
    std::size_t point = 0, rep = 0;
    if (!parse_index(cells[0], point)) continue;
    if (key_arity > 1 && !parse_index(cells[1], rep)) continue;
    if (point >= total_points_) continue;
    if (!owns(point)) {
      throw std::runtime_error(
          "Aggregator: row for point " + std::to_string(point) + " in " +
          path +
          " does not belong to this shard (wrong --shard/--out pairing?)");
    }
    on_row(point, rep, std::move(cells));
  }
}

std::map<std::size_t, std::vector<std::string>> Aggregator::load_point_rows() {
  std::map<std::size_t, std::vector<std::string>> rows;
  load_rows_file(
      csv_path_, columns_, "--out", /*key_arity=*/1,
      [&](std::size_t point, std::size_t, std::vector<std::string> cells) {
        if (!expected_identity_.empty()) {
          // cells[1..1+axis_count] are the seed + axis values, and the
          // replications cell follows them; a mismatch means the file was
          // produced by a different manifest, and resuming over it would
          // mix incompatible results. (Seeds are independent of the
          // replication count, hence the separate check.)
          const auto& want = expected_identity_[point];
          bool matches = true;
          for (std::size_t k = 0; matches && k < want.size(); ++k) {
            matches = cells[1 + k] == want[k];
          }
          if (matches && replications_ > 0) {
            matches =
                cells[1 + want.size()] == std::to_string(replications_);
          }
          if (!matches) {
            throw std::runtime_error(
                "Aggregator: row for point " + std::to_string(point) +
                " in " + csv_path_ +
                " was computed with different parameters (manifest "
                "changed?); delete the file or change --out");
          }
        }
        rows[point] = std::move(cells);
      });
  return rows;
}

std::map<std::size_t, std::map<std::size_t, std::vector<std::string>>>
Aggregator::load_per_run_rows() {
  std::map<std::size_t, std::map<std::size_t, std::vector<std::string>>>
      groups;
  load_rows_file(
      per_run_path_, per_run_columns_, "--per-run",
      /*key_arity=*/2,
      [&](std::size_t point, std::size_t rep,
          std::vector<std::string> cells) {
        if (rep >= replications_) return;
        if (!expected_identity_.empty()) {
          // Mirror of load_point_rows' identity check: cells are
          // point,rep,seed,axes...; the run's seed must be the point seed
          // plus the replication index, and the axis cells must match.
          const auto& want = expected_identity_[point];
          std::size_t point_seed = 0;
          bool matches = parse_index(want.front(), point_seed) &&
                         cells[2] == std::to_string(point_seed + rep);
          for (std::size_t k = 1; matches && k < want.size(); ++k) {
            matches = cells[2 + k] == want[k];
          }
          if (!matches) {
            throw std::runtime_error(
                "Aggregator: run row for point " + std::to_string(point) +
                " in " + per_run_path_ +
                " was computed with different parameters (manifest "
                "changed?); delete the file or change --per-run");
          }
        }
        groups[point][rep] = std::move(cells);
      });
  return groups;
}

void Aggregator::ensure_store() {
  if (!store_) {
    store_ = std::make_unique<RowStore>(store_path_, identity_hash_);
  }
  if (!store_->is_open()) store_->open_append();
}

std::size_t Aggregator::load_store() {
  store_ = std::make_unique<RowStore>(store_path_, identity_hash_);
  std::error_code ec;
  if (!store_->file_exists() &&
      (std::filesystem::exists(csv_path_, ec) ||
       (!per_run_path_.empty() &&
        std::filesystem::exists(per_run_path_, ec)))) {
    // A finalized or bare artifact (or a stale per-run file from another
    // campaign) is on disk: run the CSV readers, which validate every
    // row's identity, and seed a fresh store from the survivors.
    seed_store_from_csv();
    import_telemetry(std::vector<std::uint8_t>(total_points_, 0));
    return done_count_;
  }
  const bool per_run = !per_run_path_.empty();
  std::vector<std::uint8_t> summary_live(total_points_, 0);
  std::vector<std::uint8_t> telemetry_live(total_points_, 0);
  std::vector<std::uint8_t> rep_live;
  if (per_run) rep_live.assign(total_points_ * replications_, 0);
  // Scanned before open_append, which validates the header against this
  // campaign's identity hash and truncates a torn trailing record: a
  // refused resume must leave the store byte-unchanged.
  store_->scan([&](const RowStore::Record& r) {
    if (r.point >= total_points_) return;
    if (!owns(r.point)) {
      throw std::runtime_error(
          "Aggregator: row for point " + std::to_string(r.point) + " in " +
          store_path_ +
          " does not belong to this shard (wrong --shard/--out pairing?)");
    }
    refuse_unexported(r.kind, store_path_);
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        summary_live[r.point] = 1;
        break;
      case RowStore::Kind::kTelemetry:
        telemetry_live[r.point] = 1;
        break;
      case RowStore::Kind::kPerRun:
        if (per_run && r.rep < replications_) {
          rep_live[r.point * replications_ + r.rep] = 1;
        }
        break;
    }
  }, /*with_cells=*/false);
  store_->open_append();

  for (std::size_t p = 0; p < total_points_; ++p) {
    if (summary_live[p] == 0) continue;
    if (per_run) {
      // A summary without its full per-run group is torn (kill between the
      // group and the summary, or a partial batch) — recompute the point.
      bool complete = true;
      for (std::size_t r = 0; complete && r < replications_; ++r) {
        complete = rep_live[p * replications_ + r] != 0;
      }
      if (!complete) continue;
    }
    done_[p] = 1;
    ++done_count_;
  }
  import_telemetry(std::move(telemetry_live));
  return done_count_;
}

void Aggregator::import_telemetry(std::vector<std::uint8_t> telemetry_live) {
  if (metrics_path_.empty()) return;
  std::ifstream in(metrics_path_);
  if (!in) return;
  // Lenient on purpose: the store and the CSV are what resume validates;
  // a telemetry line only has to name an owned grid point still missing
  // its row (first line per point wins).
  std::string line;
  bool appended = false;
  while (std::getline(in, line)) {
    const std::size_t point = parse_point_row(line, total_points_);
    if (point == SIZE_MAX || !owns(point) || telemetry_live[point] != 0) {
      continue;
    }
    telemetry_live[point] = 1;
    store_->append(RowStore::Kind::kTelemetry, point, 0, {line});
    appended = true;
  }
  if (appended) store_->flush();
}

void Aggregator::refuse_unexported(RowStore::Kind kind,
                                   const std::string& source) const {
  const char* flag = nullptr;
  if (kind == RowStore::Kind::kPerRun && per_run_path_.empty()) {
    flag = "--per-run";
  } else if (kind == RowStore::Kind::kTelemetry && metrics_path_.empty()) {
    flag = "--metrics";
  }
  if (flag != nullptr) {
    throw std::runtime_error(
        "Aggregator: " + source + " holds " +
        (kind == RowStore::Kind::kPerRun ? "per-run" : "telemetry") +
        " rows that this campaign would not write; resume it with " + flag +
        " (finishing without it would delete them with the store)");
  }
}

std::size_t Aggregator::seed_store_from_csv() {
  // No store but a CSV exists (a finalized or bare artifact). Recover
  // through the CSV readers — header, identity, shard, and torn-group
  // checks — then import the surviving rows into a fresh store. The CSV
  // stays on disk untouched; the next export replaces it.
  auto rows = load_point_rows();
  std::map<std::size_t, std::map<std::size_t, std::vector<std::string>>>
      groups;
  if (!per_run_path_.empty()) {
    groups = load_per_run_rows();
    // A point is only truly done when its per-run group is complete: a
    // kill can land between the per-run rows and the summary row. Torn
    // groups are dropped and the point recomputed (orphaned groups without
    // a summary row are never imported).
    for (auto it = rows.begin(); it != rows.end();) {
      const auto group = groups.find(it->first);
      const bool complete =
          group != groups.end() && group->second.size() == replications_;
      it = complete ? std::next(it) : rows.erase(it);
    }
  }

  store_->open_append();
  for (const auto& [point, cells] : rows) {
    const auto group = groups.find(point);
    if (group != groups.end()) {
      for (const auto& [rep, rc] : group->second) {
        store_->append(RowStore::Kind::kPerRun, point, rep, rc);
      }
    }
    store_->append(RowStore::Kind::kSummary, point, 0, cells);
    done_[point] = 1;
    ++done_count_;
  }
  store_->flush();
  return done_count_;
}

std::size_t Aggregator::load_existing() {
  const std::lock_guard lock(mutex_);
  if (loaded_) throw std::logic_error("Aggregator: load_existing called twice");
  loaded_ = true;
  // In-memory aggregation has nothing on disk to resume.
  return store_path_.empty() ? 0 : load_store();
}

std::vector<std::size_t> Aggregator::absorb(
    const std::string& part_store_path) {
  const std::lock_guard lock(mutex_);
  if (store_path_.empty()) {
    throw std::logic_error("Aggregator: absorb requires a summary CSV path");
  }
  const RowStore part(part_store_path, identity_hash_);
  ensure_store();
  const bool per_run = !per_run_path_.empty();
  std::vector<std::size_t> absorbed;
  // The open batch: its records' keys, and their frames verbatim. A frame
  // scan() verified under this campaign's identity is exactly what
  // RowStore::append() would write for its record, so it is copied as is.
  std::vector<RowStore::Record> batch;
  std::string frames;
  part.scan([&](const RowStore::Record& r) {
    refuse_unexported(r.kind, part_store_path);
    // Records that cannot continue the open batch start a new one: the
    // open batch never reached its summary, so it is torn.
    if (!batch.empty() && !continues_batch(batch.back(), r)) {
      batch.clear();
      frames.clear();
    }
    batch.push_back(r);  // keys only: the scan leaves cells empty
    batch.back().frame = {};
    frames += r.frame;
    if (r.kind != RowStore::Kind::kSummary) return;
    std::size_t runs = 0;
    for (const auto& b : batch) {
      if (b.kind == RowStore::Kind::kPerRun) ++runs;
    }
    // Reps ascend strictly within a batch, so R per-run records below R
    // are the whole group.
    if (owns(r.point) && done_[r.point] == 0 &&
        (!per_run ||
         (runs == replications_ && batch[runs - 1].rep < replications_))) {
      store_->append_frames(frames);
      done_[r.point] = 1;
      ++done_count_;
      absorbed.push_back(r.point);
    }
    batch.clear();
    frames.clear();
  }, /*with_cells=*/false);
  store_->flush();
  return absorbed;
}

void Aggregator::export_store(const std::vector<std::string>& trailers) {
  // Caller holds mutex_; store_ is open. External merge: buffer records up
  // to the spill budget, spill sorted runs, then k-way merge the runs with
  // the final in-memory batch and render the artifacts in one streaming
  // pass — memory stays O(budget) + O(one per-run group).
  store_->flush();
  const std::size_t budget =
      spill_budget_bytes_ != 0 ? spill_budget_bytes_ : kDefaultSpillBudgetBytes;

  // A crashed export leaves numbered run files behind; they are always
  // consecutive from 0, so delete until the first gap.
  for (std::size_t k = 0;; ++k) {
    std::error_code ec;
    if (!std::filesystem::remove(store_path_ + ".run" + std::to_string(k),
                                 ec)) {
      break;
    }
  }

  // Every temp file and spill run this export creates is deleted when it
  // returns or throws (the renamed temps are gone by then): a failed write
  // (ENOSPC, short write) replaces no artifact, and since finalize()
  // deletes the store only after this returns, the store stays.
  struct Scratch {
    std::vector<std::string> paths;
    ~Scratch() {
      for (const auto& path : paths) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
      }
    }
  } scratch;

  std::vector<std::string> run_paths;
  std::vector<RowStore::Record> buffer;
  std::size_t buffered = 0;
  const auto spill = [&] {
    std::sort(buffer.begin(), buffer.end(), record_less);
    std::string path = store_path_ + ".run" + std::to_string(run_paths.size());
    scratch.paths.push_back(path);
    RowStore::write_run(path, buffer);
    run_paths.push_back(std::move(path));
    buffer.clear();
    buffered = 0;
  };
  // Records are buffered as their rendered line, the one cell the export
  // writes: kept as separate strings, a row's cells cost several times its
  // text. Records the export never writes (a wrong cell count, or a kind
  // whose artifact is off) are dropped here.
  const bool per_run = !per_run_path_.empty();
  const bool metrics = !metrics_path_.empty();
  store_->scan([&](const RowStore::Record& r) {
    std::string line;
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        if (r.cells.size() != columns_.size()) return;
        line = csv_line(r.cells);
        break;
      case RowStore::Kind::kPerRun:
        if (!per_run || r.rep >= replications_ ||
            r.cells.size() != per_run_columns_.size()) {
          return;
        }
        line = csv_line(r.cells);
        break;
      case RowStore::Kind::kTelemetry:
        if (!metrics || r.cells.size() != 1) return;
        line = r.cells.front();
        break;
    }
    buffer.push_back({.kind = r.kind,
                      .point = r.point,
                      .rep = r.rep,
                      .seq = r.seq,
                      .cells = {std::move(line)},
                      .frame = {}});
    buffered += record_bytes(buffer.back());
    if (buffered >= budget) spill();
  });
  std::sort(buffer.begin(), buffer.end(), record_less);

  struct Source {
    std::unique_ptr<RowStore::RunReader> reader;
    const std::vector<RowStore::Record>* mem = nullptr;
    std::size_t mem_idx = 0;
    RowStore::Record cur;
    bool advance() {
      if (reader) return reader->next(cur);
      if (mem_idx >= mem->size()) return false;
      cur = (*mem)[mem_idx++];
      return true;
    }
  };
  std::vector<Source> sources(run_paths.size() + 1);
  for (std::size_t i = 0; i < run_paths.size(); ++i) {
    sources[i].reader = std::make_unique<RowStore::RunReader>(run_paths[i]);
  }
  sources.back().mem = &buffer;
  const auto source_after = [](const Source* a, const Source* b) {
    return record_less(b->cur, a->cur);
  };
  std::priority_queue<Source*, std::vector<Source*>, decltype(source_after)>
      heap(source_after);
  for (auto& s : sources) {
    if (s.advance()) heap.push(&s);
  }

  const std::string csv_tmp = csv_path_ + ".tmp";
  scratch.paths.push_back(csv_tmp);
  std::ofstream csv_out(csv_tmp, std::ios::trunc);
  if (!csv_out) {
    throw std::runtime_error("Aggregator: cannot write " + csv_tmp);
  }
  csv_out << csv_line(columns_) << '\n';
  std::ofstream per_run_out;
  const std::string per_run_tmp = per_run_path_ + ".tmp";
  if (per_run) {
    scratch.paths.push_back(per_run_tmp);
    per_run_out.open(per_run_tmp, std::ios::trunc);
    if (!per_run_out) {
      throw std::runtime_error("Aggregator: cannot write " + per_run_tmp);
    }
    per_run_out << csv_line(per_run_columns_) << '\n';
  }
  std::ofstream metrics_out;
  const std::string metrics_tmp = metrics_path_ + ".tmp";
  if (metrics) {
    scratch.paths.push_back(metrics_tmp);
    metrics_out.open(metrics_tmp, std::ios::trunc);
    if (!metrics_out) {
      throw std::runtime_error("Aggregator: cannot write " + metrics_tmp);
    }
  }

  // Per-point group state, last-wins by sequence number. Only a complete
  // group — summary plus, in per-run mode, every replication — is
  // rendered; torn batches vanish.
  std::size_t cur_point = SIZE_MAX;
  std::optional<RowStore::Record> summary;
  std::optional<RowStore::Record> telemetry;
  std::vector<std::optional<RowStore::Record>> latest_rep(
      per_run ? replications_ : 0);

  const auto emit_group = [&] {
    if (cur_point == SIZE_MAX) return;
    const bool complete =
        summary.has_value() &&
        std::all_of(latest_rep.begin(), latest_rep.end(),
                    [](const auto& run) { return run.has_value(); });
    if (complete) {
      for (const auto& run : latest_rep) {
        per_run_out << run->cells.front() << '\n';
      }
      csv_out << summary->cells.front() << '\n';
      if (telemetry.has_value()) {
        metrics_out << telemetry->cells.front() << '\n';
      }
    }
    summary.reset();
    telemetry.reset();
    std::fill(latest_rep.begin(), latest_rep.end(), std::nullopt);
  };

  while (!heap.empty()) {
    Source* s = heap.top();
    heap.pop();
    const RowStore::Record& r = s->cur;
    if (r.point != cur_point) {
      emit_group();
      cur_point = r.point;
    }
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        if (!summary.has_value() || summary->seq < r.seq) summary = r;
        break;
      case RowStore::Kind::kTelemetry:
        if (!telemetry.has_value() || telemetry->seq < r.seq) telemetry = r;
        break;
      case RowStore::Kind::kPerRun: {
        auto& slot = latest_rep[r.rep];
        if (!slot.has_value() || slot->seq < r.seq) slot = r;
        break;
      }
    }
    if (s->advance()) heap.push(s);
  }
  emit_group();

  // Every artifact is written in full before any is replaced.
  const auto close_checked = [](std::ofstream& out, const std::string& tmp) {
    out.close();
    if (!out) {
      throw std::runtime_error("Aggregator: cannot write " + tmp +
                               " (disk full?)");
    }
  };
  close_checked(csv_out, csv_tmp);
  if (per_run) close_checked(per_run_out, per_run_tmp);
  if (metrics) {
    for (const auto& trailer : trailers) metrics_out << trailer << '\n';
    close_checked(metrics_out, metrics_tmp);
  }
  if (std::rename(csv_tmp.c_str(), csv_path_.c_str()) != 0) {
    throw std::runtime_error("Aggregator: cannot replace " + csv_path_);
  }
  if (per_run &&
      std::rename(per_run_tmp.c_str(), per_run_path_.c_str()) != 0) {
    throw std::runtime_error("Aggregator: cannot replace " + per_run_path_);
  }
  if (metrics &&
      std::rename(metrics_tmp.c_str(), metrics_path_.c_str()) != 0) {
    throw std::runtime_error("Aggregator: cannot replace " + metrics_path_);
  }
  sources.clear();  // closes the run readers before scratch unlinks them
}

bool Aggregator::is_done(std::size_t point) const {
  const std::lock_guard lock(mutex_);
  return point < done_.size() && done_[point] != 0;
}

std::vector<std::size_t> Aggregator::pending() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::size_t> out;
  out.reserve(owned_count() - done_count_);
  for (std::size_t p = 0; p < total_points_; ++p) {
    if (owns(p) && done_[p] == 0) out.push_back(p);
  }
  return out;
}

void Aggregator::record(std::size_t point, std::uint64_t seed,
                        const std::vector<std::string>& axis_values,
                        const world::ReplicatedMetrics& m,
                        std::string telemetry_row) {
  if (axis_values.size() != axis_count_) {
    throw std::logic_error("Aggregator: axis value count mismatch");
  }
  if (!owns(point)) {
    throw std::logic_error("Aggregator: record for a point outside the shard");
  }
  std::vector<std::string> cells;
  cells.reserve(columns_.size());
  cells.push_back(std::to_string(point));
  cells.push_back(std::to_string(seed));
  cells.insert(cells.end(), axis_values.begin(), axis_values.end());
  cells.push_back(std::to_string(m.runs.size()));
  metrics::Percentiles delay_pct;
  if (m.runs.size() > kExactQuantileMaxReps &&
      m.delay_digest.count() == m.runs.size()) {
    // Sketch-scale point: read the streamed digest instead of sorting the
    // full per-run sample.
    delay_pct = metrics::Percentiles{.p50 = m.delay_digest.quantile(0.50),
                                     .p95 = m.delay_digest.quantile(0.95),
                                     .p99 = m.delay_digest.quantile(0.99)};
  } else {
    std::vector<double> delays;
    delays.reserve(m.runs.size());
    for (const auto& run : m.runs) delays.push_back(run.avg_delay_s);
    delay_pct = metrics::Percentiles::of_inplace(delays);
  }
  for (const double v :
       {m.delay_s.mean, m.delay_s.ci95_half, m.delay_s.min, m.delay_s.max,
        delay_pct.p50, delay_pct.p95, delay_pct.p99, m.energy_j.mean,
        m.energy_j.ci95_half, m.energy_j.min, m.energy_j.max,
        m.active_fraction.mean, m.mean_missed, m.mean_broadcasts}) {
    cells.push_back(io::format_double(v));
  }

  // Per-run rows, one per replication (seed column is the run's own seed).
  std::map<std::size_t, std::vector<std::string>> run_rows;
  if (!per_run_path_.empty()) {
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const auto& run = m.runs[r];
      std::vector<std::string> rc;
      rc.reserve(per_run_columns_.size());
      rc.push_back(std::to_string(point));
      rc.push_back(std::to_string(r));
      rc.push_back(std::to_string(seed + r));
      rc.insert(rc.end(), axis_values.begin(), axis_values.end());
      for (const double v : {run.avg_delay_s, run.p95_delay_s,
                             run.max_delay_s, run.avg_energy_j,
                             run.avg_active_fraction}) {
        rc.push_back(io::format_double(v));
      }
      rc.push_back(std::to_string(run.missed));
      rc.push_back(std::to_string(run.censored));
      rc.push_back(std::to_string(run.network.broadcasts));
      run_rows.emplace(r, std::move(rc));
    }
  }

  const std::lock_guard lock(mutex_);
  if (done_[point] != 0) return;  // already recovered via resume
  summaries_.emplace(point, PointSummary::of(point, seed, m));
  if (!store_path_.empty()) {
    ensure_store();
    // The whole point — per-run group, telemetry row, then summary — lands
    // in one batched write + flush at the point boundary: the summary
    // record doubles as the batch's commit mark, so a torn batch is
    // dropped on resume.
    for (const auto& [r, rc] : run_rows) {
      store_->append(RowStore::Kind::kPerRun, point, r, rc);
    }
    if (!telemetry_row.empty()) {
      store_->append(RowStore::Kind::kTelemetry, point, 0,
                     {std::move(telemetry_row)});
    }
    store_->append(RowStore::Kind::kSummary, point, 0, cells);
    store_->flush();
  }
  done_[point] = 1;
  ++done_count_;
}

void Aggregator::finalize(const std::vector<std::string>& trailers) {
  const std::lock_guard lock(mutex_);
  if (done_count_ != owned_count()) {
    throw std::logic_error("Aggregator: finalize with incomplete campaign");
  }
  if (store_path_.empty()) return;
  ensure_store();
  export_store(trailers);
  // The artifacts now carry everything (resume re-seeds from the CSV if
  // ever needed).
  store_->remove_file();
}

void Aggregator::compact() {
  const std::lock_guard lock(mutex_);
  if (store_path_.empty()) return;
  // Export the current state; the store stays open and authoritative
  // (superseded generations resolve at export, so no store rewrite is
  // needed).
  ensure_store();
  export_store({});
}

std::size_t Aggregator::done_count() const {
  const std::lock_guard lock(mutex_);
  return done_count_;
}

void refuse_existing_outputs(const std::string& csv_path,
                             const std::string& per_run_path,
                             const std::string& metrics_path,
                             const std::vector<std::string>& more) {
  std::vector<std::string> paths = {
      csv_path, per_run_path, metrics_path,
      csv_path.empty() ? std::string() : RowStore::path_for(csv_path)};
  paths.insert(paths.end(), more.begin(), more.end());
  for (const auto& path : paths) {
    std::error_code ec;
    if (!path.empty() && std::filesystem::exists(path, ec)) {
      throw std::runtime_error(path +
                               " exists; pass --resume to continue its "
                               "campaign or remove it to start over");
    }
  }
}

std::string part_path(const std::string& base, int worker) {
  return base + ".w" + std::to_string(worker);
}

std::vector<std::string> discover_part_stores(const std::string& csv_path) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  // An in-memory campaign has no output, so no parts.
  if (csv_path.empty()) return paths;
  const fs::path out(csv_path);
  fs::path dir = out.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = out.filename().string() + ".w";
  constexpr std::string_view kStoreExt = ".pasrows";
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + kStoreExt.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        !name.ends_with(kStoreExt)) {
      continue;
    }
    const std::string tail = name.substr(
        prefix.size(), name.size() - prefix.size() - kStoreExt.size());
    int id = 0;
    const auto [ptr, err] =
        std::from_chars(tail.data(), tail.data() + tail.size(), id);
    // Canonical ".w<k>" names only: reject trailing junk (".w0.tmp"),
    // overflow-wide suffixes, and leading zeros (".w0009").
    if (err != std::errc{} || ptr != tail.data() + tail.size() || id < 0 ||
        std::to_string(id) != tail) {
      continue;
    }
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::size_t absorb_part_stores(Aggregator& aggregator,
                               const std::string& csv_path) {
  std::size_t absorbed = 0;
  for (const auto& part : discover_part_stores(csv_path)) {
    absorbed += aggregator.absorb(part).size();
    std::filesystem::remove(part);
  }
  return absorbed;
}

// --- Shard merging ----------------------------------------------------------

namespace {

/// Appended to every coverage error: the streaming merge meets an
/// unsorted input's rows out of order, which looks exactly like a gap.
constexpr const char* kUnsortedHint =
    " (or an input is not sorted; resuming that shard with --resume "
    "re-exports it in order)";

struct MergeExpectations {
  std::vector<std::string> want_point_header;
  std::vector<std::string> want_per_run_header;
  std::vector<GridPoint> grid;
};

MergeExpectations merge_expectations(const Manifest* manifest) {
  MergeExpectations e;
  if (manifest != nullptr) {
    manifest->validate();
    const auto axes = axis_columns(*manifest);
    e.want_point_header = {"point", "seed"};
    e.want_point_header.insert(e.want_point_header.end(), axes.begin(),
                               axes.end());
    const auto metrics = Aggregator::metric_columns();
    e.want_point_header.insert(e.want_point_header.end(), metrics.begin(),
                               metrics.end());
    e.want_per_run_header = {"point", "rep", "seed"};
    e.want_per_run_header.insert(e.want_per_run_header.end(), axes.begin(),
                                 axes.end());
    const auto run_metrics = Aggregator::per_run_metric_columns();
    e.want_per_run_header.insert(e.want_per_run_header.end(),
                                 run_metrics.begin(), run_metrics.end());
    e.grid = expand_grid(*manifest);
  }
  return e;
}

/// Validates one data row's manifest identity (seed/axis cells, summary
/// replication count); mirrors the resume-path checks.
void check_manifest_row(const std::vector<std::string>& cells,
                        std::size_t point, std::size_t rep, bool per_run,
                        const std::string& path, const Manifest& manifest,
                        const std::vector<GridPoint>& grid) {
  if (point >= grid.size()) {
    throw std::runtime_error("merge_outputs: " + path + " has point " +
                             std::to_string(point) +
                             " beyond the manifest's grid");
  }
  if (per_run && rep >= manifest.replications) {
    throw std::runtime_error("merge_outputs: " + path + " has replication " +
                             std::to_string(rep) +
                             " beyond the manifest's count");
  }
  const std::size_t seed_cell = per_run ? 2 : 1;
  const std::uint64_t want_seed = grid[point].seed + (per_run ? rep : 0);
  bool matches = cells[seed_cell] == std::to_string(want_seed);
  for (std::size_t a = 0; matches && a < grid[point].values.size(); ++a) {
    matches = cells[seed_cell + 1 + a] == grid[point].values[a];
  }
  // Point seeds do not depend on the replication count, so a summary
  // row's "replications" cell (right after the axes) is the only
  // evidence of a changed count; per-run rows are caught by the
  // rectangularity check instead.
  if (matches && !per_run) {
    matches = cells[seed_cell + 1 + grid[point].values.size()] ==
              std::to_string(manifest.replications);
  }
  if (!matches) {
    throw std::runtime_error(
        "merge_outputs: row for point " + std::to_string(point) + " in " +
        path + " was computed with different parameters (manifest mismatch)");
  }
}

}  // namespace

/// Streaming merge: every input is read once through a k-way heap merge by
/// (point, rep), holding one row per input — O(inputs) memory. Inputs must
/// be internally sorted (finalized/compacted/exported outputs always are);
/// an unsorted or self-duplicating input is rejected.
std::size_t merge_outputs(const std::vector<std::string>& inputs,
                          const std::string& out_path,
                          const Manifest* manifest) {
  if (inputs.empty()) {
    throw std::invalid_argument("merge_outputs: no input files");
  }
  const MergeExpectations expect = merge_expectations(manifest);

  struct Input {
    std::string path;
    std::ifstream in;
    std::string line;
    std::size_t point = 0;
    std::size_t rep = 0;
    bool started = false;  // true once the first data row was read
  };

  std::string header_line;
  std::vector<std::string> header;
  bool per_run = false;

  std::vector<std::unique_ptr<Input>> open_inputs;
  for (const auto& path : inputs) {
    auto input = std::make_unique<Input>();
    input->path = path;
    input->in.open(path);
    if (!input->in) {
      throw std::runtime_error("merge_outputs: cannot open " + path);
    }
    // Header line (skipping leading blanks).
    std::string line;
    bool have_header = false;
    while (std::getline(input->in, line)) {
      if (line.empty()) continue;
      have_header = true;
      break;
    }
    if (!have_header) continue;  // empty file contributes nothing
    if (header.empty()) {
      header_line = line;
      header = split_csv_line(line);
      per_run = header.size() > 1 && header[1] == "rep";
      if (manifest != nullptr &&
          header != (per_run ? expect.want_per_run_header
                             : expect.want_point_header)) {
        throw std::runtime_error("merge_outputs: header of " + path +
                                 " does not match the manifest's output "
                                 "columns");
      }
    } else if (split_csv_line(line) != header) {
      throw std::runtime_error("merge_outputs: header of " + path +
                               " does not match " + inputs.front() +
                               " (shards of different campaigns?)");
    }
    open_inputs.push_back(std::move(input));
  }
  if (header.empty()) {
    throw std::runtime_error("merge_outputs: inputs contain no header");
  }

  // Advances an input to its next valid data row: cell count, key and
  // manifest identity checks, then strictly ascending (point, rep) within
  // the input.
  const auto advance = [&](Input& input) -> bool {
    std::string line;
    while (std::getline(input.in, line)) {
      if (line.empty()) continue;
      const auto cells = split_csv_line(line);
      if (cells.size() != header.size()) {
        throw std::runtime_error(
            "merge_outputs: truncated row in " + input.path +
            "; resume that shard to completion before merging");
      }
      std::size_t point = 0, rep = 0;
      if (!parse_index(cells[0], point) ||
          (per_run && !parse_index(cells[1], rep))) {
        throw std::runtime_error("merge_outputs: unparsable row key in " +
                                 input.path);
      }
      if (manifest != nullptr) {
        check_manifest_row(cells, point, rep, per_run, input.path, *manifest,
                           expect.grid);
      }
      if (input.started && std::make_pair(point, rep) <=
                               std::make_pair(input.point, input.rep)) {
        const std::string where =
            "point " + std::to_string(point) +
            (per_run ? " replication " + std::to_string(rep) : std::string());
        if (point == input.point && rep == input.rep) {
          throw std::runtime_error("merge_outputs: " + where +
                                   " appears twice in " + input.path +
                                   " (duplicate row)");
        }
        throw std::runtime_error(
            "merge_outputs: " + input.path + " is not sorted (" +
            where + " follows point " + std::to_string(input.point) +
            "); resume that shard with --resume to re-export it in order");
      }
      input.started = true;
      input.point = point;
      input.rep = rep;
      input.line = std::move(line);
      return true;
    }
    return false;
  };

  const auto input_after = [](const Input* a, const Input* b) {
    return std::make_pair(b->point, b->rep) < std::make_pair(a->point, a->rep);
  };
  std::priority_queue<Input*, std::vector<Input*>, decltype(input_after)> heap(
      input_after);
  for (auto& input : open_inputs) {
    if (advance(*input)) heap.push(input.get());
  }

  const std::string tmp = out_path + ".tmp";
  std::size_t merged = 0;
  try {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("merge_outputs: cannot write " + tmp);
    out << header_line << '\n';

    // Walking the merged stream in key order makes every global check
    // local: duplicates are consecutive equal keys, point gaps are jumps
    // in the point sequence, and rectangularity is a per-point rep count.
    std::size_t prev_point = SIZE_MAX, prev_rep = 0;
    std::size_t cur_reps = 0;       // rows seen for the current point
    std::size_t points_seen = 0;
    std::size_t first_point_reps = 0;
    const auto want_reps_known = manifest != nullptr;
    const std::size_t manifest_reps =
        manifest != nullptr ? (per_run ? manifest->replications : 1) : 0;
    const auto check_point_complete = [&](std::size_t point) {
      const std::size_t want =
          want_reps_known ? manifest_reps
                          : (points_seen == 1 ? cur_reps : first_point_reps);
      if (points_seen == 1 && !want_reps_known) first_point_reps = cur_reps;
      if (cur_reps != want) {
        throw std::runtime_error(
            "merge_outputs: point " + std::to_string(point) + " has " +
            std::to_string(cur_reps) + " of " + std::to_string(want) +
            " replication rows; a shard output is incomplete" + kUnsortedHint);
      }
    };

    while (!heap.empty()) {
      Input* input = heap.top();
      heap.pop();
      const std::size_t point = input->point, rep = input->rep;
      if (prev_point != SIZE_MAX && point == prev_point && rep == prev_rep) {
        throw std::runtime_error(
            "merge_outputs: point " + std::to_string(point) +
            (per_run ? " replication " + std::to_string(rep) : std::string()) +
            " appears in multiple inputs (overlapping shards?)");
      }
      if (point != prev_point) {
        if (prev_point != SIZE_MAX) check_point_complete(prev_point);
        const std::size_t want_next = prev_point == SIZE_MAX ? 0
                                                             : prev_point + 1;
        if (point != want_next) {
          throw std::runtime_error(
              "merge_outputs: merged inputs cover " +
              std::to_string(points_seen) + " points up to " +
              std::to_string(prev_point == SIZE_MAX ? 0 : prev_point) +
              " but point " + std::to_string(want_next) +
              " is missing; a shard output is missing or incomplete" +
              kUnsortedHint);
        }
        ++points_seen;
        cur_reps = 0;
      }
      ++cur_reps;
      // Sorted unique keys mean the rep sequence within a point must be
      // 0,1,2,…; a jump is a missing replication row.
      if (per_run && rep != cur_reps - 1) {
        throw std::runtime_error(
            "merge_outputs: point " + std::to_string(point) + " has " +
            std::to_string(cur_reps) + " of " + std::to_string(rep + 1) +
            " replication rows; a shard output is incomplete" +
            kUnsortedHint);
      }
      prev_point = point;
      prev_rep = rep;
      out << input->line << '\n';
      ++merged;
      if (advance(*input)) heap.push(input);
    }
    if (prev_point != SIZE_MAX) check_point_complete(prev_point);

    const std::size_t want_points =
        manifest != nullptr ? manifest->point_count() : points_seen;
    if (merged == 0 || points_seen != want_points || points_seen == 0) {
      throw std::runtime_error(
          "merge_outputs: merged inputs cover " +
          std::to_string(points_seen) + " of " + std::to_string(want_points) +
          " points; a shard output is missing or incomplete");
    }
    out.close();
    if (!out) throw std::runtime_error("merge_outputs: cannot write " + tmp);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    throw std::runtime_error("merge_outputs: cannot replace " + out_path);
  }
  return merged;
}

void render_jsonl(const std::string& point_csv, const std::string& jsonl_path) {
  std::ifstream in(point_csv);
  if (!in) throw std::runtime_error("render_jsonl: cannot open " + point_csv);
  std::string line;
  std::getline(in, line);
  const auto header = split_csv_line(line);
  if (header.size() < 2 || header[0] != "point" || header[1] != "seed") {
    throw std::runtime_error("render_jsonl: " + point_csv +
                             " is not a point CSV (its header must start "
                             "with point,seed)");
  }
  const std::string tmp = jsonl_path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("render_jsonl: cannot write " + tmp);
    std::string json;
    while (std::getline(in, line)) {
      const auto cells = split_csv_line(line);
      if (cells.size() != header.size()) {
        throw std::runtime_error(
            "render_jsonl: a row of " + point_csv + " has " +
            std::to_string(cells.size()) + " cells where the header has " +
            std::to_string(header.size()));
      }
      json = "{";
      for (std::size_t i = 0; i < header.size(); ++i) {
        if (i > 0) json.push_back(',');
        json.push_back('"');
        json += header[i];
        json += "\":";
        bool non_finite = false;
        if (is_finite_numeric_cell(cells[i], non_finite)) {
          json += cells[i];
        } else if (non_finite) {
          json += "null";
        } else {
          json.push_back('"');
          json += cells[i];
          json.push_back('"');
        }
      }
      json += "}\n";
      out << json;
    }
    out.close();
    if (!out) throw std::runtime_error("render_jsonl: cannot write " + tmp);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  if (std::rename(tmp.c_str(), jsonl_path.c_str()) != 0) {
    throw std::runtime_error("render_jsonl: cannot replace " + jsonl_path);
  }
}

}  // namespace pas::exp
