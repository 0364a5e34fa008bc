// Binary snapshot framing for deterministic checkpoint/restore (DESIGN.md
// §11). A snapshot is a single self-delimiting blob:
//
//   magic "DEFLSNAP" (8 bytes) | format version (u32) | payload ... |
//   FNV-1a-64 footer over everything before it (u64, little-endian)
//
// All integers are little-endian; doubles are serialized as their IEEE-754
// bit pattern, so values round-trip bit-exactly (the whole point: a restored
// run must replay byte-identical telemetry). Strings and vectors carry a
// u64 length prefix. The reader is strict and total: truncated, corrupted,
// or version-skewed inputs produce a Result error naming what went wrong,
// never a crash or a partially-applied state.
#ifndef SRC_SIM_SNAPSHOT_IO_H_
#define SRC_SIM_SNAPSHOT_IO_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace defl {

// Streaming FNV-1a 64-bit: bytes fed across any number of Update() calls
// hash exactly as their concatenation would in one call.
class Fnv1a64Hasher {
 public:
  void Update(const char* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= static_cast<unsigned char>(data[i]);
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// FNV-1a 64-bit over a byte range (the same digest the golden suite pins
// tool output with; here it is the snapshot integrity footer).
uint64_t SnapshotFnv1a64(const char* data, size_t size);

// The little-endian bytes of `v`: every u64, i64 and f64 field, length
// prefix and footer.
inline std::array<char, 8> U64Le(uint64_t v) {
  std::array<char, 8> out;
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return out;
}

inline constexpr char kSnapshotMagic[8] = {'D', 'E', 'F', 'L', 'S', 'N', 'A', 'P'};
// Version history:
//   1 -- initial SimSession format (PR 5).
//   2 -- ClusterSimConfig carries the diurnal/bursty ArrivalGenConfig.
//   3 -- config-generated traces and strictly-future arrivals are elided
//        (length + checksum only); durable-run checkpoints (PR 7).
//   4 -- ClusterSimConfig carries the InteractiveSloConfig workload mix.
inline constexpr uint32_t kSnapshotFormatVersion = 4;

// The two byte sinks a WriteArchive (src/sim/snapshot_archive.h) encodes
// typed fields into. The constructor takes in the header; Finish() folds in
// the footer.
//
// SnapshotWriter builds the blob.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void Append(const char* data, size_t size) {
    assert(!finished_);
    bytes_.append(data, size);
  }

  // Seals and returns the blob (header + payload + FNV-1a footer). The
  // writer must not be reused afterwards.
  std::string Finish();

 private:
  std::string bytes_;
  bool finished_ = false;
};

// SnapshotDigest computes the FNV-1a-64 of the blob a SnapshotWriter would
// Finish() given the same appends -- header, payload and footer -- without
// materialising it, so the hashed bytes cannot drift from the written ones.
class SnapshotDigest {
 public:
  SnapshotDigest();

  void Append(const char* data, size_t size) { fnv_.Update(data, size); }

  // Folds in the footer (the little-endian running hash, as Finish() appends
  // it) and returns the digest. The object must not be reused afterwards.
  uint64_t Finish();

 private:
  Fnv1a64Hasher fnv_;
};

// Sequential typed decoder over a sealed blob. Open() verifies the magic,
// the version, and the integrity footer up front, so the typed reads only
// have to guard against logical truncation (reads past the payload).
//
// Ownership comes in two flavours: Open() takes the bytes by value and owns
// them for the reader's lifetime; OpenView() decodes IN PLACE over memory the
// caller keeps alive and never mutates. The view form is what makes restores
// from one shared const blob cheap -- N concurrent readers over the same
// string perform zero copies of it (DESIGN.md §15).
class SnapshotReader {
 public:
  // Validates framing; the reader is positioned at the start of the payload.
  static Result<SnapshotReader> Open(std::string bytes);
  // As Open(), but non-owning: `bytes` must outlive the reader and must not
  // change while any reader views it (readers never write through it).
  static Result<SnapshotReader> OpenView(std::string_view bytes);

  // Moves must rebind the view when the reader owns its storage (the string
  // buffer can live inside the object for small strings).
  SnapshotReader(SnapshotReader&& other) noexcept;
  SnapshotReader& operator=(SnapshotReader&& other) noexcept;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  // Typed reads. After any failure ok() turns false and every later read
  // returns a zero value; callers check ok()/error() once per section.
  uint8_t ReadU8();
  uint64_t ReadU64();
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  bool ReadBool() { return ReadU8() != 0; }
  double ReadF64();
  std::string ReadString();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Manual failure injection point for semantic validation errors, so one
  // error-reporting channel covers framing and content checks alike.
  void Fail(const std::string& message);

  // True when the payload was consumed exactly (trailing bytes are suspect).
  bool AtEnd() const { return pos_ == payload_end_; }
  // Payload bytes not yet consumed; lets callers sanity-bound length
  // prefixes before looping (a crafted count must not drive a huge loop).
  size_t Remaining() const { return payload_end_ - pos_; }

 private:
  SnapshotReader(std::string owned, std::string_view bytes, size_t payload_begin,
                 size_t payload_end);
  bool Need(size_t n);

  // Backing storage when the reader owns the blob (Open); empty for views.
  // `bytes_` always points at the blob being decoded.
  std::string owned_;
  std::string_view bytes_;
  size_t pos_ = 0;
  size_t payload_end_ = 0;
  std::string error_;
};

// File convenience wrappers. WriteSnapshotFile goes through WriteFileAtomic
// (tmp + fsync + rename + parent-dir fsync), so a crash -- even power loss --
// mid-write can never leave a half-written snapshot where a resumable one is
// expected.
Result<bool> WriteSnapshotFile(const std::string& bytes, const std::string& path);
Result<std::string> ReadSnapshotFile(const std::string& path);

}  // namespace defl

#endif  // SRC_SIM_SNAPSHOT_IO_H_
