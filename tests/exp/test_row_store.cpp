// RowStore: binary framing, torn-tail truncation, identity hash, spill runs.
#include "exp/row_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
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
