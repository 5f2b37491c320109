// RowStore: binary framing, torn-tail truncation, identity hash, spill runs.
#include "exp/row_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

class RowStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_rowstore_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "out.csv.pasrows").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<RowStore::Record> scan_all(RowStore& store) {
    std::vector<RowStore::Record> records;
    store.scan([&records](const RowStore::Record& r) { records.push_back(r); });
    return records;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(RowStoreTest, RoundTripsRecordsThroughScan) {
  RowStore store(path_, 42);
  store.open_append();
  store.append(RowStore::Kind::kPerRun, 3, 1, {"3", "1", "abc", ""});
  store.append(RowStore::Kind::kSummary, 3, 0, {"3", "0.5"});
  store.append(RowStore::Kind::kTelemetry, 7, 0, {"{\"kind\":\"point\"}"});
  store.flush();
  store.close();

  RowStore reader(path_, 42);
  const auto records = scan_all(reader);
  ASSERT_EQ(records.size(), 3U);
  EXPECT_EQ(records[0].kind, RowStore::Kind::kPerRun);
  EXPECT_EQ(records[0].point, 3U);
  EXPECT_EQ(records[0].rep, 1U);
  EXPECT_EQ(records[0].cells,
            (std::vector<std::string>{"3", "1", "abc", ""}));
  EXPECT_EQ(records[1].kind, RowStore::Kind::kSummary);
  EXPECT_EQ(records[2].kind, RowStore::Kind::kTelemetry);
  EXPECT_EQ(records[2].point, 7U);
  EXPECT_EQ(records[2].cells,
            (std::vector<std::string>{"{\"kind\":\"point\"}"}));
  // seq is the record's byte offset: strictly increasing.
  EXPECT_LT(records[0].seq, records[1].seq);
  EXPECT_LT(records[1].seq, records[2].seq);
}

// Kind 3 (a tombstone in older builds) is retired: the decoder rejects it
// like any unknown kind, so it ends the clean prefix and reopening
// truncates it and everything after it; resume recomputes those points.
TEST_F(RowStoreTest, RetiredKindEndsTheCleanPrefix) {
  std::uintmax_t prefix = 0;
  {
    RowStore store(path_, 42);
    store.open_append();
    store.append(RowStore::Kind::kSummary, 0, 0, {"a"});
    store.flush();
    prefix = fs::file_size(path_);
    store.append(static_cast<RowStore::Kind>(3), 0, 0, {});
    store.append(RowStore::Kind::kSummary, 1, 0, {"b"});
    store.flush();
  }
  RowStore reader(path_, 42);
  const auto records = scan_all(reader);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].cells, (std::vector<std::string>{"a"}));
  EXPECT_EQ(reader.scan(nullptr), prefix);
  reader.open_append();
  reader.close();
  EXPECT_EQ(fs::file_size(path_), prefix);
}

TEST_F(RowStoreTest, IdentityHashMismatchThrows) {
  {
    RowStore store(path_, 1);
    store.open_append();
    store.append(RowStore::Kind::kSummary, 0, 0, {"x"});
    store.flush();
  }
  RowStore other(path_, 2);
  EXPECT_THROW(other.open_append(), std::runtime_error);
  EXPECT_THROW(scan_all(other), std::runtime_error);
}

TEST_F(RowStoreTest, ForeignFileThrows) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "point,seed\n0,12\n";  // a CSV is not a row store
  }
  RowStore store(path_, 42);
  EXPECT_THROW(store.open_append(), std::runtime_error);
}

TEST_F(RowStoreTest, TornTailIsDroppedOnReopen) {
  {
    RowStore store(path_, 42);
    store.open_append();
    store.append(RowStore::Kind::kSummary, 0, 0, {"a"});
    store.append(RowStore::Kind::kSummary, 1, 0, {"b"});
    store.flush();
  }
  const auto full_size = fs::file_size(path_);
  // Chop into the last record's payload: the clean prefix must survive and
  // the torn bytes must be truncated away by open_append.
  fs::resize_file(path_, full_size - 3);
  RowStore store(path_, 42);
  store.open_append();
  store.append(RowStore::Kind::kSummary, 2, 0, {"c"});
  store.flush();
  store.close();

  RowStore reader(path_, 42);
  const auto records = scan_all(reader);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[0].cells, (std::vector<std::string>{"a"}));
  EXPECT_EQ(records[1].cells, (std::vector<std::string>{"c"}));
}

TEST_F(RowStoreTest, CorruptPayloadEndsScanAtCleanPrefix) {
  {
    RowStore store(path_, 42);
    store.open_append();
    store.append(RowStore::Kind::kSummary, 0, 0, {"good"});
    store.append(RowStore::Kind::kSummary, 1, 0, {"flipped"});
    store.flush();
  }
  // Flip one payload byte of the last record: the CRC catches it and the
  // scan stops at the clean prefix instead of returning garbage cells.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    f.put('!');
  }
  RowStore reader(path_, 42);
  const auto records = scan_all(reader);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].cells, (std::vector<std::string>{"good"}));
}

TEST_F(RowStoreTest, SpillRunRoundTripsThroughRunReader) {
  std::vector<RowStore::Record> records;
  for (std::uint64_t i = 0; i < 100; ++i) {
    RowStore::Record r;
    r.kind = RowStore::Kind::kPerRun;
    r.point = i / 4;
    r.rep = static_cast<std::uint32_t>(i % 4);
    r.seq = i * 10;
    r.cells = {std::to_string(i), std::string(i % 7, 'x')};
    records.push_back(std::move(r));
  }
  const std::string run_path = (dir_ / "spill.run0").string();
  RowStore::write_run(run_path, records);

  RowStore::RunReader reader(run_path);
  RowStore::Record r;
  std::size_t n = 0;
  while (reader.next(r)) {
    ASSERT_LT(n, records.size());
    EXPECT_EQ(r.kind, records[n].kind);
    EXPECT_EQ(r.point, records[n].point);
    EXPECT_EQ(r.rep, records[n].rep);
    EXPECT_EQ(r.seq, records[n].seq);
    EXPECT_EQ(r.cells, records[n].cells);
    ++n;
  }
  EXPECT_EQ(n, records.size());
}

// A store of three records (one batch: a per-run row, a telemetry row and
// the summary that commits them) as the byte-at-a-time CRC-32 build wrote
// it. The format is pinned: a record written today has the same bytes, and
// this file still scans, every CRC included.
constexpr std::uint64_t kPinnedIdentity = 0x0123456789abcdefULL;
constexpr unsigned char kPinnedStore[] = {
    // header: magic, identity hash
    0x50, 0x41, 0x53, 0x52, 0x4f, 0x57, 0x53, 0x31, 0xef, 0xcd, 0xab, 0x89,
    0x67, 0x45, 0x23, 0x01,
    // per-run (3, 1): {"3", "1", "a,b", ""}
    0x26, 0x00, 0x00, 0x00, 0xb9, 0x92, 0x43, 0x24, 0x01, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x33, 0x01, 0x00, 0x00, 0x00, 0x31, 0x03,
    0x00, 0x00, 0x00, 0x61, 0x2c, 0x62, 0x00, 0x00, 0x00, 0x00,
    // telemetry (3): {"{"kind":"point","point":3}"}
    0x2f, 0x00, 0x00, 0x00, 0xa4, 0x9c, 0x16, 0x56, 0x04, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x1a, 0x00, 0x00, 0x00, 0x7b, 0x22, 0x6b, 0x69, 0x6e, 0x64, 0x22,
    0x3a, 0x22, 0x70, 0x6f, 0x69, 0x6e, 0x74, 0x22, 0x2c, 0x22, 0x70, 0x6f,
    0x69, 0x6e, 0x74, 0x22, 0x3a, 0x33, 0x7d,
    // summary (3): {"3", "0.5", "x\"y"}
    0x24, 0x00, 0x00, 0x00, 0x6c, 0x5e, 0xc5, 0x1a, 0x02, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x33, 0x03, 0x00, 0x00, 0x00, 0x30, 0x2e,
    0x35, 0x03, 0x00, 0x00, 0x00, 0x78, 0x22, 0x79};

std::string pinned_store() {
  return {reinterpret_cast<const char*>(kPinnedStore), sizeof kPinnedStore};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_F(RowStoreTest, WritesThePinnedFrameBytes) {
  RowStore store(path_, kPinnedIdentity);
  store.open_append();
  store.append(RowStore::Kind::kPerRun, 3, 1, {"3", "1", "a,b", ""});
  store.append(RowStore::Kind::kTelemetry, 3, 0,
               {"{\"kind\":\"point\",\"point\":3}"});
  store.append(RowStore::Kind::kSummary, 3, 0, {"3", "0.5", "x\"y"});
  store.close();
  EXPECT_EQ(slurp(path_), pinned_store());
}

TEST_F(RowStoreTest, ScansAStoreInThePinnedFormat) {
  std::ofstream(path_, std::ios::binary) << pinned_store();
  RowStore store(path_, kPinnedIdentity);
  const auto records = scan_all(store);
  ASSERT_EQ(records.size(), 3U);
  EXPECT_EQ(records[0].kind, RowStore::Kind::kPerRun);
  EXPECT_EQ(records[0].rep, 1U);
  EXPECT_EQ(records[0].cells,
            (std::vector<std::string>{"3", "1", "a,b", ""}));
  EXPECT_EQ(records[1].kind, RowStore::Kind::kTelemetry);
  EXPECT_EQ(records[1].cells, (std::vector<std::string>{
                                  "{\"kind\":\"point\",\"point\":3}"}));
  EXPECT_EQ(records[2].kind, RowStore::Kind::kSummary);
  EXPECT_EQ(records[2].cells,
            (std::vector<std::string>{"3", "0.5", "x\"y"}));
  for (const auto& r : records) EXPECT_EQ(r.point, 3U);
  EXPECT_EQ(store.scan(nullptr), sizeof kPinnedStore);
  // Reopening finds no torn tail to cut.
  store.open_append();
  store.close();
  EXPECT_EQ(slurp(path_), pinned_store());
}

// cells_of() reads a verified frame's cells without copying them.
TEST_F(RowStoreTest, CellsOfViewsTheFrameCells) {
  std::ofstream(path_, std::ios::binary) << pinned_store();
  std::vector<std::vector<std::string>> from_views;
  std::vector<std::string_view> cells;
  RowStore(path_, kPinnedIdentity)
      .scan(
          [&](const RowStore::Record& r) {
            RowStore::cells_of(r.frame, cells);
            from_views.emplace_back(cells.begin(), cells.end());
          },
          /*with_cells=*/false);
  RowStore store(path_, kPinnedIdentity);
  const auto records = scan_all(store);
  ASSERT_EQ(from_views.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(from_views[i], records[i].cells) << i;
  }
}

// A scan from a record boundary an earlier scan reached sees only the
// records after it, and reports the same clean prefix.
TEST_F(RowStoreTest, ScanFromAnOffsetStartsAtThatRecord) {
  std::ofstream(path_, std::ios::binary) << pinned_store();
  RowStore store(path_, kPinnedIdentity);
  const auto all = scan_all(store);
  ASSERT_EQ(all.size(), 3U);
  std::vector<RowStore::Record> tail;
  EXPECT_EQ(store.scan([&](const RowStore::Record& r) { tail.push_back(r); },
                       true, all[1].seq),
            sizeof kPinnedStore);
  ASSERT_EQ(tail.size(), 2U);
  EXPECT_EQ(tail[0].seq, all[1].seq);
  EXPECT_EQ(tail[0].cells, all[1].cells);
  EXPECT_EQ(tail[1].cells, all[2].cells);
  // At the end there is nothing left to read.
  tail.clear();
  EXPECT_EQ(store.scan([&](const RowStore::Record& r) { tail.push_back(r); },
                       true, sizeof kPinnedStore),
            sizeof kPinnedStore);
  EXPECT_TRUE(tail.empty());
  // The header is still checked.
  EXPECT_THROW((void)RowStore(path_, 7).scan(nullptr, true, all[1].seq),
               std::runtime_error);
}

TEST_F(RowStoreTest, HashIdentityCoversColumnsPointsAndIdentity) {
  const std::vector<std::string> cols = {"point", "seed", "x"};
  const std::vector<std::vector<std::string>> id = {{"12", "a"}, {"13", "b"}};
  const auto base = RowStore::hash_identity(cols, 2, 4, id);
  EXPECT_EQ(base, RowStore::hash_identity(cols, 2, 4, id));
  EXPECT_NE(base, RowStore::hash_identity({"point", "seed", "y"}, 2, 4, id));
  EXPECT_NE(base, RowStore::hash_identity(cols, 3, 4, id));
  EXPECT_NE(base, RowStore::hash_identity(cols, 2, 5, id));
  EXPECT_NE(base,
            RowStore::hash_identity(cols, 2, 4, {{"12", "a"}, {"13", "c"}}));
}

TEST_F(RowStoreTest, PathForAppendsExtension) {
  EXPECT_EQ(RowStore::path_for("out.csv"), "out.csv.pasrows");
}

}  // namespace
}  // namespace pas::exp
