// Versioned binary serialization primitives shared by every length-
// prefixed format in the tree: persisted monitor artifacts, the network
// wire protocol (src/net/protocol.h), and session listfiles
// (src/net/listfile.h). Fixed-width little-endian (native x86-64)
// encoding behind a writer/reader pair that runs over either a file or an
// in-memory buffer — the bounds-checked read helpers (count(), str(),
// vec_f64()) are ONE hardened implementation, so a hostile length field
// is rejected identically whether it arrives in an artifact file or in a
// socket frame. Every artifact file starts with a common header (magic,
// format version, artifact kind) so loads fail fast with a clear error
// instead of misinterpreting bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace aps::io {

/// Thrown on any open/read/write/format failure, with the offending path
/// and a human-readable reason in what().
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kMagic = 0x4150534Du;  // "APSM"
inline constexpr std::uint32_t kFormatVersion = 1;

enum class ArtifactKind : std::uint32_t {
  kDecisionTree = 1,
  kMlp = 2,
  kLstm = 3,
  kTrainingArtifacts = 4,
  kBundle = 5,
};

[[nodiscard]] std::string artifact_kind_name(ArtifactKind kind);

/// CRC-32 (IEEE 802.3, reflected) over `n` bytes. Chain blocks by passing
/// the previous call's return value as `seed`. Frame and listfile-record
/// headers carry this so corruption is caught before a payload is decoded.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);
[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::uint8_t> bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

class BinaryWriter {
 public:
  /// Memory-backed writer: bytes accumulate in an internal buffer
  /// retrievable via bytes()/take().
  BinaryWriter();
  /// Memory-backed writer appending to `sink`, which must outlive it: how
  /// wire frames and listfile records are encoded in place, straight into
  /// their destination buffer. bytes()/take() stay empty.
  explicit BinaryWriter(std::vector<std::uint8_t>& sink);
  /// File-backed writer streaming straight to `path`.
  explicit BinaryWriter(const std::string& path);

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void f64(double v);
  void str(const std::string& s);
  void vec_f64(const std::vector<double>& v);
  void map_f64(const std::map<std::string, double>& m);

  /// Flush and verify the stream; throws IoError on write failure.
  /// No-op for memory-backed writers.
  void finish();

  /// Bytes written so far (memory-backed writers only).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buf_;
  }
  /// Move the accumulated buffer out (memory-backed writers only).
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void raw(const void* data, std::size_t n);

  std::string path_;
  bool to_file_ = false;
  std::ofstream out_;                          ///< file mode
  std::vector<std::uint8_t> buf_;              ///< memory mode
  std::vector<std::uint8_t>* sink_ = nullptr;  ///< memory mode, in place
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);
  /// View over an in-memory buffer (a wire-frame payload, a listfile
  /// record); `name` stands in for the path in error messages, e.g. a
  /// peer address. The buffer must outlive the reader.
  BinaryReader(std::span<const std::uint8_t> data, std::string name);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> vec_f64();
  [[nodiscard]] std::map<std::string, double> map_f64();

  /// Bulk read of exactly `n` bytes; IoError if fewer remain. The caller
  /// has already validated `n` (e.g. against a CRC'd header field).
  void bytes(void* data, std::size_t n) { raw(data, n); }

  /// Read an element count that must satisfy both a semantic ceiling and
  /// the bytes actually left in the input (count * min_bytes_per_element),
  /// so a corrupt or hostile length field can never trigger a huge
  /// allocation or a long decode loop — it throws IoError up front.
  [[nodiscard]] std::uint64_t count(std::uint64_t limit, const char* what,
                                    std::uint64_t min_bytes_per_element = 1);

  /// Bytes left between the read cursor and the end of the input.
  [[nodiscard]] std::uint64_t remaining() const;
  /// Bytes consumed so far (the read cursor).
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void raw(void* data, std::size_t n);

  std::string path_;
  bool from_file_ = false;
  std::ifstream in_;                      ///< file mode
  std::span<const std::uint8_t> view_;    ///< memory mode
  std::uint64_t size_ = 0;        ///< total input size in bytes
  std::uint64_t consumed_ = 0;    ///< bytes read so far
};

/// Write the common artifact header.
void write_header(BinaryWriter& out, ArtifactKind kind);

/// Validate magic / version / kind; throws IoError with a specific message
/// for each mismatch.
void read_header(BinaryReader& in, ArtifactKind expected);

}  // namespace aps::io
