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
#include "io/json.hpp"

namespace pas::exp {

namespace {

/// Default spill-buffer budget for the external-merge export.
constexpr std::size_t kDefaultSpillBudgetBytes = 32u << 20;

/// Rows an import buffers before it writes them to the store.
constexpr std::size_t kImportFlushRows = 4096;

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

/// Appends `cells` to `line` as one CSV row (no newline).
template <typename Cells>
void append_csv(std::string& line, const Cells& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line.push_back(',');
    io::CsvWriter::append_escaped(line, cells[i]);
  }
}

std::string join_csv(const std::vector<std::string>& cells) {
  std::string line;
  append_csv(line, cells);
  return line;
}

std::runtime_error header_mismatch(const std::string& path) {
  return std::runtime_error("Aggregator: the header of " + path +
                            " does not match this campaign's columns "
                            "(an output of another manifest?)");
}

bool parse_index(const std::string& cell, std::size_t& out) {
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), out);
  return ec == std::errc{} && ptr == cell.data() + cell.size();
}

/// True if `line` is one JSON object: a telemetry file's first line, a
/// point row or, from a shard that owns no point, its registry trailer.
bool is_json_object(const std::string& line) {
  try {
    return io::Json::parse(line).is_object();
  } catch (const std::runtime_error&) {
    return false;
  }
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
    // (examples, unit tests) has nothing to export.
    throw std::logic_error(
        "Aggregator: a row-store path requires a summary CSV path");
  }
  if (store_path_.empty() && !csv_path_.empty()) {
    store_path_ = RowStore::path_for(csv_path_);
  }
  if (options.owned_points.has_value()) {
    full_grid_ = false;
    owned_.assign(total_points_, 0);
    for (const auto p : *options.owned_points) {
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

struct Aggregator::Held {
  std::size_t replications = 0;
  std::vector<std::uint8_t> summary;
  std::vector<std::uint8_t> telemetry;
  /// Indexed point × replications + rep; empty without per-run output.
  std::vector<std::uint8_t> runs;

  /// Marks a key held; false when it already was.
  bool take(RowStore::Kind kind, std::size_t point, std::size_t rep) {
    std::uint8_t& bit = kind == RowStore::Kind::kSummary ? summary[point]
                        : kind == RowStore::Kind::kTelemetry
                            ? telemetry[point]
                            : runs[point * replications + rep];
    return std::exchange(bit, std::uint8_t{1}) == 0;
  }

  /// True when every replication of `point` is held.
  [[nodiscard]] bool group_complete(std::size_t point) const {
    const std::uint8_t* first = runs.data() + point * replications;
    return std::find(first, first + replications, std::uint8_t{0}) ==
           first + replications;
  }
};

void Aggregator::ensure_store() {
  if (!store_) {
    store_ = std::make_unique<RowStore>(store_path_, identity_hash_);
  }
  if (!store_->is_open()) store_->open_append();
}

Aggregator::ImportReport Aggregator::load(
    std::vector<std::pair<std::string, RowStore::Kind>> inputs) {
  store_ = std::make_unique<RowStore>(store_path_, identity_hash_);
  const bool created = !store_->file_exists();
  const bool per_run = !per_run_path_.empty();
  Held held{.replications = replications_,
            .summary = std::vector<std::uint8_t>(total_points_, 0),
            .telemetry = std::vector<std::uint8_t>(total_points_, 0),
            .runs = std::vector<std::uint8_t>(
                per_run ? total_points_ * replications_ : 0, 0)};
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
    if (r.kind != RowStore::Kind::kPerRun || r.rep < replications_) {
      held.take(r.kind, r.point, r.rep);
    }
  }, /*with_cells=*/false);

  // Imported in the order record() commits a point's batch, so a kill
  // mid-import never leaves a summary stored ahead of the rows it vouches
  // for.
  std::stable_sort(inputs.begin(), inputs.end(),
                   [](const auto& a, const auto& b) {
                     return kind_rank(a.second) < kind_rank(b.second);
                   });
  ImportReport report;
  try {
    store_->open_append();
    for (const auto& [path, kind] : inputs) {
      import_file(path, kind, held, report);
    }
    store_->flush();
  } catch (...) {
    if (created) store_->remove_file();
    throw;
  }

  for (std::size_t p = 0; p < total_points_; ++p) {
    // A summary without its full per-run group is torn (a kill between the
    // group and the summary, or a partial file) — recompute the point.
    if (held.summary[p] == 0 || (per_run && !held.group_complete(p))) {
      continue;
    }
    done_[p] = 1;
    ++done_count_;
    if (!metrics_path_.empty() && held.telemetry[p] == 0 &&
        report.untelemetered++ == 0) {
      report.first_untelemetered = p;
    }
  }
  return report;
}

void Aggregator::import_file(const std::string& path, RowStore::Kind kind,
                             Held& held, ImportReport& report) {
  std::ifstream in(path);
  if (!in) return;
  std::size_t appended = 0;
  const auto append = [&](std::size_t point, std::size_t rep,
                          const std::vector<std::string>& cells) {
    store_->append(kind, point, rep, cells);
    // Bounded buffer: the import holds the bitmaps, not the rows.
    if (++appended % kImportFlushRows == 0) store_->flush();
  };
  std::string line;
  if (kind == RowStore::Kind::kTelemetry) {
    // Lenient on purpose: the CSVs are what the import validates; a
    // telemetry line only has to name an owned grid point still missing
    // its row (first line per point wins).
    while (std::getline(in, line)) {
      const std::size_t point = parse_point_row(line, total_points_);
      if (point != SIZE_MAX && owns(point) && held.take(kind, point, 0)) {
        append(point, 0, {line});
      }
    }
    return;
  }

  const bool per_run = kind == RowStore::Kind::kPerRun;
  const auto& header = per_run ? per_run_columns_ : columns_;
  const std::size_t seed_cell = per_run ? 2 : 1;
  std::size_t line_no = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (first) {
      first = false;
      if (cells != header) throw header_mismatch(path);
      continue;
    }
    const auto drop = [&](const std::string& why) {
      if (report.dropped++ == 0) {
        report.first_dropped =
            path + " line " + std::to_string(line_no) + ": " + why;
      }
    };
    std::size_t point = 0, rep = 0;
    // A row truncated by a kill mid-write has the wrong cell count.
    if (cells.size() != header.size() || !parse_index(cells[0], point) ||
        (per_run && !parse_index(cells[1], rep))) {
      drop("torn row");
      continue;
    }
    const auto where = [&] {
      return "point " + std::to_string(point) +
             (per_run ? " replication " + std::to_string(rep) : std::string());
    };
    if (point >= total_points_ || (per_run && rep >= replications_)) {
      drop(where() + " is outside the grid");
      continue;
    }
    if (!owns(point)) {
      throw std::runtime_error(
          "Aggregator: row for point " + std::to_string(point) + " in " +
          path +
          " does not belong to this shard (wrong --shard/--out pairing?)");
    }
    if (!expected_identity_.empty()) {
      // The seed cell holds the point seed (a run row's: plus its rep),
      // the axis cells follow, and a summary's replications cell comes
      // next — seeds do not depend on the replication count, hence the
      // separate check. A mismatch means another manifest computed the
      // row, and importing it would mix incompatible results.
      const auto& want = expected_identity_[point];
      std::size_t point_seed = 0;
      bool matches = per_run ? parse_index(want.front(), point_seed) &&
                                   cells[2] == std::to_string(point_seed + rep)
                             : cells[1] == want.front();
      for (std::size_t k = 1; matches && k < want.size(); ++k) {
        matches = cells[seed_cell + k] == want[k];
      }
      if (matches && !per_run && replications_ > 0) {
        matches = cells[seed_cell + want.size()] ==
                  std::to_string(replications_);
      }
      if (!matches) {
        throw std::runtime_error(
            "Aggregator: row for point " + std::to_string(point) + " in " +
            path +
            " was computed with different parameters (manifest changed?)");
      }
    }
    if (!held.take(kind, point, rep)) {
      drop(where() + " appears twice");
      continue;
    }
    append(point, rep, cells);
  }
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
        " rows that this campaign would not write; pass " + flag +
        " (finishing without it would drop them)");
  }
}

std::size_t Aggregator::load_existing() {
  const std::lock_guard lock(mutex_);
  if (loaded_) throw std::logic_error("Aggregator: load_existing called twice");
  loaded_ = true;
  // In-memory aggregation has nothing on disk to resume.
  if (store_path_.empty()) return 0;
  std::vector<std::pair<std::string, RowStore::Kind>> inputs;
  if (!metrics_path_.empty()) {
    inputs.emplace_back(metrics_path_, RowStore::Kind::kTelemetry);
  }
  std::error_code ec;
  if (!std::filesystem::exists(store_path_, ec)) {
    // A present store wins; without one, a finalized or bare artifact
    // seeds a fresh store. The CSVs stay on disk untouched; the next
    // export replaces them.
    if (!per_run_path_.empty()) {
      inputs.emplace_back(per_run_path_, RowStore::Kind::kPerRun);
    }
    inputs.emplace_back(csv_path_, RowStore::Kind::kSummary);
  }
  // Resume recomputes whatever the import dropped.
  (void)load(std::move(inputs));
  return done_count_;
}

Aggregator::ImportReport Aggregator::import_outputs(
    const std::vector<std::string>& inputs) {
  const std::lock_guard lock(mutex_);
  if (loaded_) throw std::logic_error("Aggregator: campaign already loaded");
  if (store_path_.empty()) {
    throw std::logic_error("Aggregator: import requires a summary CSV path");
  }
  loaded_ = true;
  std::vector<std::pair<std::string, RowStore::Kind>> typed;
  for (const auto& path : inputs) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("Aggregator: cannot open " + path);
    std::string line;
    while (std::getline(in, line) && line.empty()) {
    }
    if (line.empty()) continue;  // an empty file holds no rows
    RowStore::Kind kind = RowStore::Kind::kTelemetry;
    if (!is_json_object(line)) {
      const auto cells = split_csv_line(line);
      if (cells == columns_) {
        kind = RowStore::Kind::kSummary;
      } else if (cells == per_run_columns_) {
        kind = RowStore::Kind::kPerRun;
      } else {
        throw header_mismatch(path);
      }
    }
    refuse_unexported(kind, path);
    typed.emplace_back(path, kind);
  }
  return load(std::move(typed));
}

std::vector<std::size_t> Aggregator::absorb(
    const std::string& part_store_path, std::uint64_t& offset) {
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
    // The next absorb starts after this batch; an open batch behind it may
    // still be in flight, so the offset never moves past one.
    offset = r.seq + r.frame.size();
  }, /*with_cells=*/false, offset);
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
  // text. The line is rendered straight from the verified frame's cells.
  // Records the export never writes (a wrong cell count, or a kind whose
  // artifact is off) are dropped here.
  const bool per_run = !per_run_path_.empty();
  const bool metrics = !metrics_path_.empty();
  std::vector<std::string_view> cells;
  std::string line;  // rendered here, then copied once at its exact size
  store_->scan([&](const RowStore::Record& r) {
    RowStore::cells_of(r.frame, cells);
    line.clear();
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        if (cells.size() != columns_.size()) return;
        append_csv(line, cells);
        break;
      case RowStore::Kind::kPerRun:
        if (!per_run || r.rep >= replications_ ||
            cells.size() != per_run_columns_.size()) {
          return;
        }
        append_csv(line, cells);
        break;
      case RowStore::Kind::kTelemetry:
        if (!metrics || cells.size() != 1) return;
        line = cells.front();
        break;
    }
    RowStore::Record& kept = buffer.emplace_back();
    kept.kind = r.kind;
    kept.point = r.point;
    kept.rep = r.rep;
    kept.seq = r.seq;
    kept.cells.emplace_back(line);
    buffered += record_bytes(kept);
    if (buffered >= budget) spill();
  }, /*with_cells=*/false);
  std::sort(buffer.begin(), buffer.end(), record_less);

  struct Source {
    std::unique_ptr<RowStore::RunReader> reader;
    std::vector<RowStore::Record>* mem = nullptr;
    std::size_t mem_idx = 0;
    RowStore::Record cur;
    bool advance() {
      if (reader) return reader->next(cur);
      if (mem_idx >= mem->size()) return false;
      cur = std::move((*mem)[mem_idx++]);
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
  csv_out << join_csv(columns_) << '\n';
  std::ofstream per_run_out;
  const std::string per_run_tmp = per_run_path_ + ".tmp";
  if (per_run) {
    scratch.paths.push_back(per_run_tmp);
    per_run_out.open(per_run_tmp, std::ios::trunc);
    if (!per_run_out) {
      throw std::runtime_error("Aggregator: cannot write " + per_run_tmp);
    }
    per_run_out << join_csv(per_run_columns_) << '\n';
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

  // The winning record is moved out of its source, which advance() then
  // refills.
  while (!heap.empty()) {
    Source* s = heap.top();
    heap.pop();
    RowStore::Record& r = s->cur;
    if (r.point != cur_point) {
      emit_group();
      cur_point = r.point;
    }
    const auto keep_latest = [&r](std::optional<RowStore::Record>& slot) {
      if (!slot.has_value() || slot->seq < r.seq) slot = std::move(r);
    };
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        keep_latest(summary);
        break;
      case RowStore::Kind::kTelemetry:
        keep_latest(telemetry);
        break;
      case RowStore::Kind::kPerRun:
        keep_latest(latest_rep[r.rep]);
        break;
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
    std::uint64_t offset = 0;
    absorbed += aggregator.absorb(part, offset).size();
    std::filesystem::remove(part);
  }
  return absorbed;
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
