#include "src/sim/snapshot_io.h"

#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/atomic_file.h"

namespace defl {

uint64_t SnapshotFnv1a64(const char* data, size_t size) {
  Fnv1a64Hasher fnv;
  fnv.Update(data, size);
  return fnv.digest();
}

namespace {

std::array<char, 4> U32Le(uint32_t v) {
  std::array<char, 4> out;
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return out;
}

uint64_t LoadU64Le(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

SnapshotWriter::SnapshotWriter() {
  bytes_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::array<char, 4> version = U32Le(kSnapshotFormatVersion);
  bytes_.append(version.data(), version.size());
}

std::string SnapshotWriter::Finish() {
  assert(!finished_);
  finished_ = true;
  const std::array<char, 8> footer =
      U64Le(SnapshotFnv1a64(bytes_.data(), bytes_.size()));
  bytes_.append(footer.data(), footer.size());
  return std::move(bytes_);
}

SnapshotDigest::SnapshotDigest() {
  fnv_.Update(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::array<char, 4> version = U32Le(kSnapshotFormatVersion);
  fnv_.Update(version.data(), version.size());
}

uint64_t SnapshotDigest::Finish() {
  const std::array<char, 8> footer = U64Le(fnv_.digest());
  fnv_.Update(footer.data(), footer.size());
  return fnv_.digest();
}

SnapshotReader::SnapshotReader(std::string owned, std::string_view bytes,
                               size_t payload_begin, size_t payload_end)
    : owned_(std::move(owned)),
      bytes_(owned_.empty() ? bytes : std::string_view(owned_)),
      pos_(payload_begin),
      payload_end_(payload_end) {}

SnapshotReader::SnapshotReader(SnapshotReader&& other) noexcept
    : owned_(std::move(other.owned_)),
      bytes_(owned_.empty() ? other.bytes_ : std::string_view(owned_)),
      pos_(other.pos_),
      payload_end_(other.payload_end_),
      error_(std::move(other.error_)) {}

SnapshotReader& SnapshotReader::operator=(SnapshotReader&& other) noexcept {
  if (this != &other) {
    owned_ = std::move(other.owned_);
    bytes_ = owned_.empty() ? other.bytes_ : std::string_view(owned_);
    pos_ = other.pos_;
    payload_end_ = other.payload_end_;
    error_ = std::move(other.error_);
  }
  return *this;
}

Result<SnapshotReader> SnapshotReader::Open(std::string bytes) {
  Result<SnapshotReader> opened = OpenView(std::string_view(bytes));
  if (!opened.ok()) {
    return Error{opened.error()};
  }
  // Re-anchor the validated framing onto storage the reader owns; pos_ and
  // payload_end_ are offsets, so they carry over unchanged.
  return SnapshotReader(std::move(bytes), std::string_view(),
                        opened.value().pos_, opened.value().payload_end_);
}

Result<SnapshotReader> SnapshotReader::OpenView(std::string_view bytes) {
  constexpr size_t kHeader = sizeof(kSnapshotMagic) + 4;
  constexpr size_t kFooter = 8;
  if (bytes.size() < kHeader + kFooter) {
    return Error{"snapshot truncated: " + std::to_string(bytes.size()) +
                 " bytes is smaller than the fixed header + footer"};
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Error{"not a deflation snapshot (bad magic)"};
  }
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(
                   static_cast<unsigned char>(bytes[sizeof(kSnapshotMagic) + i]))
               << (8 * i);
  }
  if (version != kSnapshotFormatVersion) {
    return Error{"unsupported snapshot format version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kSnapshotFormatVersion) +
                 "); re-run with the build that wrote it"};
  }
  const size_t body = bytes.size() - kFooter;
  const uint64_t expected = LoadU64Le(bytes.data() + body);
  const uint64_t actual = SnapshotFnv1a64(bytes.data(), body);
  if (expected != actual) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "footer %016llx != content %016llx",
                  static_cast<unsigned long long>(expected),
                  static_cast<unsigned long long>(actual));
    return Error{std::string("snapshot integrity check failed (") + buf +
                 "); the file is corrupted or truncated"};
  }
  return SnapshotReader(std::string(), bytes, kHeader, body);
}

bool SnapshotReader::Need(size_t n) {
  if (!ok()) {
    return false;
  }
  if (payload_end_ - pos_ < n) {
    Fail("snapshot payload ended early (needed " + std::to_string(n) +
         " more bytes at offset " + std::to_string(pos_) + ")");
    return false;
  }
  return true;
}

void SnapshotReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
  pos_ = payload_end_;
}

uint8_t SnapshotReader::ReadU8() {
  if (!Need(1)) {
    return 0;
  }
  return static_cast<uint8_t>(bytes_[pos_++]);
}

uint64_t SnapshotReader::ReadU64() {
  if (!Need(8)) {
    return 0;
  }
  const uint64_t v = LoadU64Le(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double SnapshotReader::ReadF64() {
  const uint64_t bits = ReadU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::ReadString() {
  const uint64_t size = ReadU64();
  // Bound before Need(): a corrupted length must not drive a huge allocation.
  if (ok() && size > payload_end_ - pos_) {
    Fail("snapshot string length " + std::to_string(size) +
         " exceeds the remaining payload");
    return {};
  }
  if (!Need(static_cast<size_t>(size))) {
    return {};
  }
  std::string out(bytes_.substr(pos_, static_cast<size_t>(size)));
  pos_ += static_cast<size_t>(size);
  return out;
}

Result<bool> WriteSnapshotFile(const std::string& bytes, const std::string& path) {
  return WriteFileAtomic(path, bytes);
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{"cannot open snapshot file " + path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Error{"read error on snapshot file " + path};
  }
  return std::move(buffer).str();
}

}  // namespace defl
