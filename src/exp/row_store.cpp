#include "exp/row_store.hpp"

#include <array>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace pas::exp {

namespace {

constexpr char kMagic[8] = {'P', 'A', 'S', 'R', 'O', 'W', 'S', '1'};
constexpr std::uint64_t kHeaderBytes = 16;
/// Sanity cap: a payload longer than this is treated as a torn/garbage
/// length field, ending the clean prefix.
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// Little-endian loads, spelled out so the compiler emits one load each.
std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

/// Slicing-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
/// table[0] is the classic byte table, table[k][b] advances table[k-1][b]
/// by one more zero byte, so eight bytes fold in with eight lookups.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t crc32(const char* data, std::size_t size) {
  const auto& t = crc32_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = get_u32(data) ^ c;
    const std::uint32_t hi = get_u32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint64_t get_u64(const char* p) {
  return get_u32(p) | static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

/// Serializes a record payload; `with_seq` embeds the sequence number
/// (spill-run framing — a store record's seq is its byte offset instead).
std::string encode_payload(RowStore::Kind kind, std::size_t point,
                           std::size_t rep, std::uint64_t seq,
                           const std::vector<std::string>& cells,
                           bool with_seq) {
  std::string payload;
  payload.push_back(static_cast<char>(kind));
  if (with_seq) put_u64(payload, seq);
  put_u64(payload, static_cast<std::uint64_t>(point));
  put_u32(payload, static_cast<std::uint32_t>(rep));
  put_u32(payload, static_cast<std::uint32_t>(cells.size()));
  for (const auto& cell : cells) {
    put_u32(payload, static_cast<std::uint32_t>(cell.size()));
    payload += cell;
  }
  return payload;
}

/// Parses a record payload; returns false on any malformed field (the
/// caller treats that as a torn record). Without `with_cells` the cells are
/// checked just as strictly but not copied out.
bool decode_payload(const char* data, std::size_t size, bool with_seq,
                    RowStore::Record& out, bool with_cells = true) {
  std::size_t pos = 0;
  auto need = [&](std::size_t n) { return size - pos >= n; };
  if (!need(1)) return false;
  const auto kind = static_cast<std::uint8_t>(data[pos++]);
  if (kind != 1 && kind != 2 && kind != 4) return false;
  out.kind = static_cast<RowStore::Kind>(kind);
  if (with_seq) {
    if (!need(8)) return false;
    out.seq = get_u64(data + pos);
    pos += 8;
  }
  if (!need(8 + 4 + 4)) return false;
  out.point = static_cast<std::size_t>(get_u64(data + pos));
  pos += 8;
  out.rep = get_u32(data + pos);
  pos += 4;
  const std::uint32_t cell_count = get_u32(data + pos);
  pos += 4;
  out.cells.clear();
  if (with_cells) out.cells.reserve(cell_count);
  for (std::uint32_t i = 0; i < cell_count; ++i) {
    if (!need(4)) return false;
    const std::uint32_t len = get_u32(data + pos);
    pos += 4;
    if (!need(len)) return false;
    if (with_cells) out.cells.emplace_back(data + pos, len);
    pos += len;
  }
  return pos == size;
}

void frame_record(std::string& out, const std::string& payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out += payload;
}

constexpr std::size_t kFrameHeadBytes = 8;

/// Reads one framed record from `in`; returns false on a clean or torn end
/// (`torn` distinguishes the two). `frame` receives the verified bytes:
/// length, CRC, then the payload from offset kFrameHeadBytes.
bool read_frame(std::istream& in, std::string& frame, bool& torn) {
  torn = false;
  frame.resize(kFrameHeadBytes);
  in.read(frame.data(), kFrameHeadBytes);
  if (in.gcount() == 0) return false;  // clean end
  if (in.gcount() < static_cast<std::streamsize>(kFrameHeadBytes)) {
    torn = true;
    return false;
  }
  const std::uint32_t len = get_u32(frame.data());
  const std::uint32_t crc = get_u32(frame.data() + 4);
  if (len == 0 || len > kMaxPayloadBytes) {
    torn = true;
    return false;
  }
  frame.resize(kFrameHeadBytes + len);
  char* payload = frame.data() + kFrameHeadBytes;
  in.read(payload, len);
  if (in.gcount() < static_cast<std::streamsize>(len) ||
      crc32(payload, len) != crc) {
    torn = true;
    return false;
  }
  return true;
}

}  // namespace

RowStore::RowStore(std::string path, std::uint64_t identity_hash)
    : path_(std::move(path)), identity_hash_(identity_hash) {
  if (path_.empty()) {
    throw std::invalid_argument("RowStore: path must be set");
  }
}

std::uint64_t RowStore::hash_identity(
    const std::vector<std::string>& columns, std::size_t total_points,
    std::size_t replications,
    const std::vector<std::vector<std::string>>& expected_identity) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix_byte = [&](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte((v >> (8 * i)) & 0xFFu);
  };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
  };
  mix_str("pasrows-identity-v1");
  mix_u64(columns.size());
  for (const auto& c : columns) mix_str(c);
  mix_u64(total_points);
  mix_u64(replications);
  mix_u64(expected_identity.size());
  for (const auto& cells : expected_identity) {
    mix_u64(cells.size());
    for (const auto& cell : cells) mix_str(cell);
  }
  return h;
}

bool RowStore::file_exists() const {
  std::error_code ec;
  return std::filesystem::exists(path_, ec);
}

std::uint64_t RowStore::scan_impl(
    const std::function<void(const Record&)>& on_record, bool with_cells,
    std::uint64_t from, bool* header_present) const {
  if (header_present != nullptr) *header_present = false;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;
  char header[kHeaderBytes];
  in.read(header, sizeof header);
  if (in.gcount() < static_cast<std::streamsize>(sizeof header)) {
    return 0;  // torn header: clean prefix is empty, rewrite it
  }
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("RowStore: " + path_ +
                             " is not a .pasrows row store");
  }
  if (get_u64(header + sizeof kMagic) != identity_hash_) {
    throw std::runtime_error(
        "RowStore: " + path_ +
        " was written with different campaign parameters (manifest or "
        "output flags changed?); delete it or change --out");
  }
  if (header_present != nullptr) *header_present = true;
  std::uint64_t clean = kHeaderBytes;
  if (from > clean) {
    in.seekg(static_cast<std::streamoff>(from));
    clean = from;
  }
  std::string frame;
  Record record;
  bool torn = false;
  while (read_frame(in, frame, torn)) {
    if (!decode_payload(frame.data() + kFrameHeadBytes,
                        frame.size() - kFrameHeadBytes, /*with_seq=*/false,
                        record, with_cells)) {
      break;  // undecodable but CRC-valid payload: treat as torn
    }
    record.seq = clean;
    record.frame = frame;
    if (on_record) on_record(record);
    clean += frame.size();
  }
  return clean;
}

std::uint64_t RowStore::scan(
    const std::function<void(const Record&)>& on_record, bool with_cells,
    std::uint64_t from) const {
  return scan_impl(on_record, with_cells, from, nullptr);
}

void RowStore::cells_of(std::string_view frame,
                        std::vector<std::string_view>& cells) {
  // scan() verified the frame, so every length field is in range.
  cells.clear();
  const char* p = frame.data() + kFrameHeadBytes + 1 + 8 + 4;
  const std::uint32_t cell_count = get_u32(p);
  p += 4;
  for (std::uint32_t i = 0; i < cell_count; ++i) {
    const std::uint32_t len = get_u32(p);
    cells.emplace_back(p + 4, len);
    p += 4 + len;
  }
}

void RowStore::open_append() {
  if (out_.is_open()) return;
  bool header_present = false;
  const std::uint64_t clean =
      scan_impl(nullptr, /*with_cells=*/false, 0, &header_present);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (!ec && size > clean && clean >= kHeaderBytes) {
    // Torn tail from a kill mid-batch: truncate back to the last complete
    // record so the append stream starts on a record boundary.
    std::filesystem::resize_file(path_, clean);
  } else if (!ec && size > 0 && !header_present) {
    std::filesystem::resize_file(path_, 0);
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("RowStore: cannot open " + path_);
  }
  if (!header_present) {
    std::string header(kMagic, sizeof kMagic);
    put_u64(header, identity_hash_);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error("RowStore: cannot write header to " + path_);
    }
  }
}

void RowStore::append(Kind kind, std::size_t point, std::size_t rep,
                      const std::vector<std::string>& cells) {
  if (!out_.is_open()) {
    throw std::logic_error("RowStore: append before open_append");
  }
  frame_record(buffer_,
               encode_payload(kind, point, rep, 0, cells, /*with_seq=*/false));
}

void RowStore::append_frames(std::string_view frames) {
  if (!out_.is_open()) {
    throw std::logic_error("RowStore: append before open_append");
  }
  buffer_ += frames;
}

void RowStore::flush() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("RowStore: write failed on " + path_);
  }
  buffer_.clear();
}

void RowStore::close() {
  if (out_.is_open()) {
    flush();
    out_.close();
  }
}

void RowStore::remove_file() {
  close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

void RowStore::write_run(const std::string& path,
                         const std::vector<Record>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("RowStore: cannot write spill run " + path);
  }
  std::string buffer;
  for (const auto& r : records) {
    frame_record(buffer, encode_payload(r.kind, r.point, r.rep, r.seq,
                                        r.cells, /*with_seq=*/true));
    if (buffer.size() >= (1u << 20)) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("RowStore: write failed on spill run " + path);
  }
}

RowStore::RunReader::RunReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) {
    throw std::runtime_error("RowStore: cannot open spill run " + path);
  }
}

bool RowStore::RunReader::next(Record& out) {
  std::string frame;
  bool torn = false;
  if (!read_frame(in_, frame, torn)) {
    if (torn) {
      throw std::runtime_error("RowStore: corrupt spill run " + path_);
    }
    return false;
  }
  if (!decode_payload(frame.data() + kFrameHeadBytes,
                      frame.size() - kFrameHeadBytes, /*with_seq=*/true,
                      out)) {
    throw std::runtime_error("RowStore: corrupt spill run " + path_);
  }
  return true;
}

}  // namespace pas::exp
