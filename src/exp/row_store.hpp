// Binary campaign row store (".pasrows").
//
// The Aggregator's bounded-memory backend: completed rows are appended to a
// compact binary log instead of being kept as in-memory string maps. Each
// record carries its kind (per-run row, point summary or telemetry row),
// its (point, rep) key, and the row's cell strings verbatim, so
// the export step renders the CSV and --metrics bytes from them without
// reformatting anything.
//
// Layout:
//   header   = "PASROWS1" (8 bytes) + u64 identity hash (little-endian)
//   record   = u32 payload_len + u32 crc32(payload) + payload
//   payload  = u8 kind + u64 point + u32 rep + u32 cell_count
//              + cell_count × (u32 len + bytes)
//
// The identity hash fingerprints the campaign (columns, grid size,
// replication count, per-point seed/axis identity) so resume rejects a
// store written under a different manifest — the binary equivalent of the
// CSV header + per-row identity checks.
//
// Kill-safety: records are appended in batches and flushed at point
// boundaries. A torn trailing record (short write, CRC mismatch) ends the
// clean prefix; open_append() truncates the file back to that prefix, so a
// killed campaign always resumes from a valid record sequence — the same
// contract torn CSV rows have today.
//
// Spill runs: the external-merge export sorts buffered records and spills
// them to sibling ".run<k>" files using the same framing with the record's
// store sequence number embedded in the payload (a store record's sequence
// number is implicit: its byte offset).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pas::exp {

class RowStore {
 public:
  enum class Kind : std::uint8_t {
    kPerRun = 1,
    kSummary = 2,
    // 3 is retired (it was a tombstone); the decoder rejects it like any
    // unknown kind, so such a record ends the clean prefix.
    /// One cell: the point's --metrics JSONL row, verbatim. Appended in
    /// the point's batch before the summary, so the summary's commit mark
    /// covers it too.
    kTelemetry = 4,
  };

  struct Record {
    Kind kind = Kind::kSummary;
    std::size_t point = 0;
    std::size_t rep = 0;
    /// Monotonic within a store file: the record's byte offset. Later
    /// records win when a (point, rep) appears more than once.
    std::uint64_t seq = 0;
    std::vector<std::string> cells;
    /// In scan() callbacks: the record's bytes as stored (length, CRC,
    /// payload), valid until the callback returns. Empty elsewhere.
    std::string_view frame;
  };

  RowStore(std::string path, std::uint64_t identity_hash);

  /// The conventional store path for a campaign CSV.
  [[nodiscard]] static std::string path_for(const std::string& csv_path) {
    return csv_path + ".pasrows";
  }

  /// Campaign fingerprint for the store header. Hashes the output columns,
  /// grid size, replication count, and each point's expected seed/axis
  /// cells (FNV-1a, length-prefixed fields).
  [[nodiscard]] static std::uint64_t hash_identity(
      const std::vector<std::string>& columns, std::size_t total_points,
      std::size_t replications,
      const std::vector<std::vector<std::string>>& expected_identity);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool file_exists() const;

  /// Streams every record of the clean prefix in file order. Returns the
  /// clean-prefix byte count (header included). Throws std::runtime_error
  /// on a magic or identity-hash mismatch. `on_record` may be null (used
  /// to measure the prefix only). Without `with_cells` each record is
  /// validated just as strictly but its cells are left empty (readers that
  /// need only the keys, or the frame and cells_of()). A nonzero `from`
  /// starts at that byte offset, a record boundary an earlier scan of the
  /// same file reached (a record's seq plus its frame size, or a returned
  /// clean-prefix count); the header is still verified first.
  std::uint64_t scan(const std::function<void(const Record&)>& on_record,
                     bool with_cells = true, std::uint64_t from = 0) const;

  /// The cells of a frame scan() verified, as views into `frame`, in
  /// order; `cells` is cleared first so one vector serves a whole scan.
  static void cells_of(std::string_view frame,
                       std::vector<std::string_view>& cells);

  /// Opens the store for appending: validates the header, truncates a torn
  /// tail back to the clean prefix, and writes a fresh header when the file
  /// is missing or empty.
  void open_append();
  [[nodiscard]] bool is_open() const noexcept { return out_.is_open(); }

  /// Buffers one record; nothing reaches the file until flush(). The
  /// caller batches a point's per-run records + summary and flushes once
  /// per point boundary.
  void append(Kind kind, std::size_t point, std::size_t rep,
              const std::vector<std::string>& cells);

  /// Buffers records framed by this format verbatim: the `frame` bytes
  /// that scan() verified in a store of the same campaign.
  void append_frames(std::string_view frames);

  /// Writes the buffered batch with a single write + flush.
  void flush();

  void close();
  /// Closes and deletes the store file (finalize() exported everything).
  void remove_file();

  // --- Spill runs for the external-merge export -----------------------------

  /// Writes `records` (already sorted by the caller) as a spill run.
  static void write_run(const std::string& path,
                        const std::vector<Record>& records);

  /// Sequential reader over a spill run. Runs are written and read within
  /// one export pass, so corruption is an I/O error, not a torn tail:
  /// next() throws std::runtime_error instead of stopping early.
  class RunReader {
   public:
    explicit RunReader(const std::string& path);
    /// Reads the next record; returns false at end of file.
    bool next(Record& out);

   private:
    std::string path_;
    std::ifstream in_;
  };

 private:
  std::uint64_t scan_impl(const std::function<void(const Record&)>& on_record,
                          bool with_cells, std::uint64_t from,
                          bool* header_present) const;

  std::string path_;
  std::uint64_t identity_hash_ = 0;
  std::ofstream out_;
  std::string buffer_;
};

}  // namespace pas::exp
