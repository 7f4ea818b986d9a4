#include "io/serial.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace aps::io {

namespace {

// Hard ceilings for length fields; anything above these in a header is a
// corrupt or hostile input, not a real artifact or frame.
constexpr std::uint64_t kMaxStringLen = 1u << 20;       // 1 MiB
constexpr std::uint64_t kMaxElementCount = 1u << 28;    // 256M doubles

// The codec writes scalars in native byte order and documents the format
// as little-endian; a big-endian build would silently write foreign bytes.
static_assert(std::endian::native == std::endian::little,
              "serial formats are little-endian; port the codec first");

/// Slicing-by-8 tables for CRC-32 (IEEE, reflected polynomial 0xEDB88320),
/// built once. Table 0 is the classic byte-at-a-time table; table k holds
/// the CRC of a byte followed by k zero bytes, so eight bytes fold in one
/// step with the same result as eight single-byte steps.
const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto& t = crc32_tables();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kDecisionTree: return "decision-tree";
    case ArtifactKind::kMlp: return "mlp";
    case ArtifactKind::kLstm: return "lstm";
    case ArtifactKind::kTrainingArtifacts: return "training-artifacts";
    case ArtifactKind::kBundle: return "bundle";
  }
  return "unknown(" + std::to_string(static_cast<std::uint32_t>(kind)) + ")";
}

// ---- BinaryWriter ----------------------------------------------------------

BinaryWriter::BinaryWriter() : path_("<memory>") {}

BinaryWriter::BinaryWriter(std::vector<std::uint8_t>& sink)
    : path_("<memory>"), sink_(&sink) {}

BinaryWriter::BinaryWriter(const std::string& path)
    : path_(path), to_file_(true),
      out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    throw IoError("cannot open '" + path + "' for writing");
  }
}

void BinaryWriter::raw(const void* data, std::size_t n) {
  if (to_file_) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    if (!out_) {
      throw IoError("write failure on '" + path_ + "'");
    }
    return;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::vector<std::uint8_t>& buf = sink_ != nullptr ? *sink_ : buf_;
  buf.insert(buf.end(), bytes, bytes + n);
}

void BinaryWriter::u8(std::uint8_t v) { raw(&v, sizeof v); }
void BinaryWriter::u16(std::uint16_t v) { raw(&v, sizeof v); }
void BinaryWriter::u32(std::uint32_t v) { raw(&v, sizeof v); }
void BinaryWriter::u64(std::uint64_t v) { raw(&v, sizeof v); }
void BinaryWriter::i32(std::int32_t v) { raw(&v, sizeof v); }
void BinaryWriter::f64(double v) { raw(&v, sizeof v); }

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  if (!s.empty()) raw(s.data(), s.size());
}

void BinaryWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  if (!v.empty()) raw(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::map_f64(const std::map<std::string, double>& m) {
  u64(m.size());
  for (const auto& [key, value] : m) {
    str(key);
    f64(value);
  }
}

void BinaryWriter::finish() {
  if (!to_file_) return;
  out_.flush();
  if (!out_) {
    throw IoError("flush failure on '" + path_ + "'");
  }
}

// ---- BinaryReader ----------------------------------------------------------

BinaryReader::BinaryReader(const std::string& path)
    : path_(path), from_file_(true), in_(path, std::ios::binary) {
  if (!in_) {
    throw IoError("cannot open '" + path + "' for reading");
  }
  in_.seekg(0, std::ios::end);
  const auto end = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (end < 0 || !in_) {
    throw IoError("cannot determine size of '" + path + "'");
  }
  size_ = static_cast<std::uint64_t>(end);
}

BinaryReader::BinaryReader(std::span<const std::uint8_t> data,
                           std::string name)
    : path_(std::move(name)), view_(data), size_(data.size()) {}

void BinaryReader::raw(void* data, std::size_t n) {
  if (from_file_) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (in_.gcount() != static_cast<std::streamsize>(n)) {
      throw IoError("truncated artifact: unexpected end of file in '" +
                    path_ + "'");
    }
  } else {
    if (n > remaining()) {
      throw IoError("truncated artifact: unexpected end of input in '" +
                    path_ + "'");
    }
    std::memcpy(data, view_.data() + consumed_, n);
  }
  consumed_ += n;
}

std::uint64_t BinaryReader::remaining() const {
  return size_ > consumed_ ? size_ - consumed_ : 0;
}

std::uint64_t BinaryReader::count(std::uint64_t limit, const char* what,
                                  std::uint64_t min_bytes_per_element) {
  const std::uint64_t n = u64();
  if (n > limit) {
    throw IoError("corrupt artifact: implausible " + std::string(what) +
                  " count " + std::to_string(n) + " in '" + path_ + "'");
  }
  // min_bytes_per_element >= 1 and n <= limit << 2^64, so no overflow.
  const std::uint64_t min_bytes = n * std::max<std::uint64_t>(
                                          min_bytes_per_element, 1);
  if (min_bytes > remaining()) {
    throw IoError("truncated artifact: " + std::string(what) + " count " +
                  std::to_string(n) + " needs " + std::to_string(min_bytes) +
                  " bytes but only " + std::to_string(remaining()) +
                  " remain in '" + path_ + "'");
  }
  return n;
}

std::uint8_t BinaryReader::u8() {
  std::uint8_t v = 0;
  raw(&v, sizeof v);
  return v;
}

std::uint16_t BinaryReader::u16() {
  std::uint16_t v = 0;
  raw(&v, sizeof v);
  return v;
}

std::uint32_t BinaryReader::u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof v);
  return v;
}

std::int32_t BinaryReader::i32() {
  std::int32_t v = 0;
  raw(&v, sizeof v);
  return v;
}

double BinaryReader::f64() {
  double v = 0.0;
  raw(&v, sizeof v);
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t n = count(kMaxStringLen, "string length");
  std::string s(n, '\0');
  if (n > 0) raw(s.data(), n);
  return s;
}

std::vector<double> BinaryReader::vec_f64() {
  const std::uint64_t n = count(kMaxElementCount, "element", sizeof(double));
  std::vector<double> v(n);
  if (n > 0) raw(v.data(), n * sizeof(double));
  return v;
}

std::map<std::string, double> BinaryReader::map_f64() {
  // Minimum entry: 8-byte key length (empty key) + 8-byte value.
  const std::uint64_t n = count(kMaxElementCount, "map entry", 16);
  std::map<std::string, double> m;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = str();
    const double value = f64();
    m.emplace(std::move(key), value);
  }
  return m;
}

// ---- Header ----------------------------------------------------------------

void write_header(BinaryWriter& out, ArtifactKind kind) {
  out.u32(kMagic);
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(kind));
}

void read_header(BinaryReader& in, ArtifactKind expected) {
  const std::uint32_t magic = in.u32();
  if (magic != kMagic) {
    throw IoError("'" + in.path() +
                  "' is not an APS artifact (bad magic number)");
  }
  const std::uint32_t version = in.u32();
  if (version != kFormatVersion) {
    throw IoError("unsupported artifact format version " +
                  std::to_string(version) + " in '" + in.path() +
                  "' (this build reads version " +
                  std::to_string(kFormatVersion) + ")");
  }
  const auto kind = static_cast<ArtifactKind>(in.u32());
  if (kind != expected) {
    throw IoError("artifact kind mismatch in '" + in.path() + "': found " +
                  artifact_kind_name(kind) + ", expected " +
                  artifact_kind_name(expected));
  }
}

}  // namespace aps::io
