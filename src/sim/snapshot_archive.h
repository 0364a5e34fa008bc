// Schema-driven snapshot serialization (DESIGN.md §11). Each serialized
// struct names its fields once, in format order, in one
//
//   template <class Ar> void Fields(Ar& ar, T& value);
//
// and the archive decides what visiting a field does: a WriteArchive over a
// SnapshotWriter appends the bytes, a WriteArchive over a SnapshotDigest
// hashes the same bytes without building them, and a ReadArchive decodes
// them through a SnapshotReader, validating as it goes. The writer, the
// reader and the digest therefore cannot drift apart.
//
// Field kinds (each takes the field's name first; names only label errors):
//   F64 / U64 / I64 / U8 / Bool / Str   little-endian fixed-width values (a
//                        bool is one byte; a string is a u64 length, then
//                        its bytes);
//   Enum(e, max)         one byte; the reader rejects a value above `max`;
//   Int(n, unit_bytes)   an int-like field stored as i64; the reader rejects
//                        a value its type cannot hold and, with unit_bytes
//                        > 0, a count of units the remaining payload cannot
//                        hold at unit_bytes each;
//   Vec(v, min_bytes[, each])  u64 count, then each element (its Fields by
//                        default); the reader bounds the count by the
//                        remaining payload at min_bytes per element;
//   Nest(s)              s's Fields, inline.
#ifndef SRC_SIM_SNAPSHOT_ARCHIVE_H_
#define SRC_SIM_SNAPSHOT_ARCHIVE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/sim/snapshot_io.h"

namespace defl {

// Encodes format-v4 bytes into a SnapshotWriter or a SnapshotDigest.
template <class Sink>
class WriteArchive {
 public:
  explicit WriteArchive(Sink& sink) : sink_(sink) {}

  void U64(const char*, uint64_t v) {
    const std::array<char, 8> le = U64Le(v);
    sink_.Append(le.data(), le.size());
  }
  void I64(const char*, int64_t v) { U64(nullptr, static_cast<uint64_t>(v)); }
  // IEEE-754 bit pattern: bit-exact round-trip.
  void F64(const char*, double v) { U64(nullptr, std::bit_cast<uint64_t>(v)); }
  void U8(const char*, uint8_t v) {
    const char c = static_cast<char>(v);
    sink_.Append(&c, 1);
  }
  void Bool(const char*, bool v) { U8(nullptr, v ? 1 : 0); }
  void Str(const char*, const std::string& v) {
    U64(nullptr, v.size());
    sink_.Append(v.data(), v.size());
  }
  template <class E>
  void Enum(const char*, E v, E) {
    U8(nullptr, static_cast<uint8_t>(v));
  }
  template <class T>
  void Int(const char*, T v, size_t = 0) {
    I64(nullptr, static_cast<int64_t>(v));
  }
  // `each` receives const elements; reader and writer share `auto&` lambdas.
  template <class Range, class Each>
  void Vec(const char*, const Range& v, size_t, Each&& each) {
    U64(nullptr, v.size());
    for (const auto& item : v) {
      each(item);
    }
  }
  template <class Range>
  void Vec(const char* name, const Range& v, size_t min_bytes) {
    Vec(name, v, min_bytes, [this](const auto& item) { Nest(nullptr, item); });
  }
  // Fields take a mutable reference so one definition serves the reader;
  // writing only reads through it.
  template <class T>
  void Nest(const char*, const T& v) {
    Fields(*this, const_cast<T&>(v));
  }

 private:
  Sink& sink_;
};

// Decodes and validates: every range, narrowing and count check of the
// snapshot format lives here, and a failure goes through the reader's Fail
// channel naming the field (its Nest/Vec path, dot-joined).
class ReadArchive {
 public:
  explicit ReadArchive(SnapshotReader& r) : r_(r) {}

  bool ok() const { return r_.ok(); }

  void F64(const char*, double& v) { v = r_.ReadF64(); }
  void U64(const char*, uint64_t& v) { v = r_.ReadU64(); }
  void I64(const char*, int64_t& v) { v = r_.ReadI64(); }
  void U8(const char*, uint8_t& v) { v = r_.ReadU8(); }
  void Bool(const char*, bool& v) { v = r_.ReadBool(); }
  void Str(const char*, std::string& v) { v = r_.ReadString(); }

  template <class E>
  void Enum(const char* name, E& v, E max) {
    const uint8_t byte = r_.ReadU8();
    if (byte > static_cast<uint8_t>(max)) {
      Reject(name, "byte " + std::to_string(byte) + " is out of range (max " +
                       std::to_string(static_cast<int>(max)) + ")");
      return;
    }
    v = static_cast<E>(byte);
  }

  template <class T>
  void Int(const char* name, T& v, size_t unit_bytes = 0) {
    const int64_t wide = r_.ReadI64();
    if (wide < std::numeric_limits<T>::min() || wide > std::numeric_limits<T>::max()) {
      Reject(name, "value " + std::to_string(wide) + " does not fit its type");
      return;
    }
    if (wide > 0 && !Affords(name, static_cast<uint64_t>(wide), unit_bytes)) {
      return;
    }
    v = static_cast<T>(wide);
  }

  // A u64 count of entries of at least `min_bytes` each, or 0 once failed.
  uint64_t Count(const char* name, size_t min_bytes) {
    const uint64_t n = r_.ReadU64();
    return Affords(name, n, min_bytes) ? n : 0;
  }

  // Bounds an already-read count against the remaining payload, so a
  // crafted count can never drive a near-infinite loop or allocation.
  bool Affords(const char* name, uint64_t n, size_t unit_bytes) {
    if (ok() && unit_bytes > 0 && n > r_.Remaining() / unit_bytes) {
      Reject(name, "count " + std::to_string(n) + " exceeds the remaining payload");
    }
    return ok();
  }

  template <class T, class Each>
  void Vec(const char* name, std::vector<T>& v, size_t min_bytes, Each&& each) {
    v.clear();
    v.resize(static_cast<size_t>(Count(name, min_bytes)));
    Push(name);
    for (T& item : v) {
      if (!ok()) {
        break;
      }
      each(item);
    }
    Pop();
  }
  template <class T>
  void Vec(const char* name, std::vector<T>& v, size_t min_bytes) {
    Vec(name, v, min_bytes, [this](T& item) { Fields(*this, item); });
  }

  template <class T>
  void Nest(const char* name, T& v) {
    Push(name);
    Fields(*this, v);
    Pop();
  }

 private:
  static constexpr int kMaxDepth = 8;

  void Reject(const char* name, const std::string& what) {
    if (!ok()) {
      return;  // the first failure is the one reported
    }
    std::string path;
    for (int i = 0; i < depth_ && i < kMaxDepth; ++i) {
      if (path_[i] != nullptr) {
        path += path_[i];
        path += '.';
      }
    }
    r_.Fail("snapshot field " + path + name + " " + what);
  }

  void Push(const char* name) {
    if (depth_ < kMaxDepth) {
      path_[depth_] = name;
    }
    ++depth_;
  }
  void Pop() { --depth_; }

  SnapshotReader& r_;
  const char* path_[kMaxDepth] = {};
  int depth_ = 0;
};

}  // namespace defl

#endif  // SRC_SIM_SNAPSHOT_ARCHIVE_H_
