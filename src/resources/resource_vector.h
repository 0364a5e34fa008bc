// ResourceVector: the 4-dimensional resource quantity used throughout the
// paper and this reproduction -- (CPU cores, memory MB, disk bandwidth MB/s,
// network bandwidth MB/s). Deflation targets, VM specs, server capacities and
// reclamation results are all ResourceVectors.
#ifndef SRC_RESOURCES_RESOURCE_VECTOR_H_
#define SRC_RESOURCES_RESOURCE_VECTOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>

namespace defl {

enum class ResourceKind : int { kCpu = 0, kMemory = 1, kDiskBw = 2, kNetBw = 3 };

inline constexpr int kNumResources = 4;
inline constexpr std::array<ResourceKind, kNumResources> kAllResources = {
    ResourceKind::kCpu, ResourceKind::kMemory, ResourceKind::kDiskBw, ResourceKind::kNetBw};

// Inline so a snapshot writer, which ignores field names, compiles the call
// away.
constexpr const char* ResourceKindName(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cpu";
    case ResourceKind::kMemory:
      return "memory";
    case ResourceKind::kDiskBw:
      return "disk_bw";
    case ResourceKind::kNetBw:
      return "net_bw";
  }
  return "?";
}

class ResourceVector {
 public:
  constexpr ResourceVector() : v_{} {}
  constexpr ResourceVector(double cpu, double memory_mb, double disk_bw = 0.0,
                           double net_bw = 0.0)
      : v_{cpu, memory_mb, disk_bw, net_bw} {}

  static constexpr ResourceVector Zero() { return ResourceVector(); }
  // All dimensions set to the same value (useful for scalar comparisons).
  static constexpr ResourceVector Uniform(double x) { return ResourceVector(x, x, x, x); }

  double cpu() const { return v_[0]; }
  double memory_mb() const { return v_[1]; }
  double disk_bw() const { return v_[2]; }
  double net_bw() const { return v_[3]; }

  double operator[](ResourceKind kind) const { return v_[static_cast<size_t>(kind)]; }
  double& operator[](ResourceKind kind) { return v_[static_cast<size_t>(kind)]; }

  // The elementwise arithmetic below is inline: the per-VM accounting folds
  // call it hundreds of millions of times per run. Each result is one IEEE
  // operation per dimension, so inlining changes no bits as long as no fused
  // multiply-add is formed (the library builds with -ffp-contract=off).
  ResourceVector operator+(const ResourceVector& o) const {
    ResourceVector r = *this;
    r += o;
    return r;
  }
  ResourceVector operator-(const ResourceVector& o) const {
    ResourceVector r = *this;
    r -= o;
    return r;
  }
  ResourceVector operator*(double s) const;
  ResourceVector operator/(double s) const;
  ResourceVector& operator+=(const ResourceVector& o) {
    for (size_t i = 0; i < v_.size(); ++i) {
      v_[i] += o.v_[i];
    }
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) {
    for (size_t i = 0; i < v_.size(); ++i) {
      v_[i] -= o.v_[i];
    }
    return *this;
  }
  bool operator==(const ResourceVector& o) const = default;

  // Element-wise operations. std::min/std::max, not a hand-written
  // ternary: which operand wins a tie decides the sign of a zero result.
  ResourceVector Min(const ResourceVector& o) const {
    ResourceVector r;
    for (size_t i = 0; i < v_.size(); ++i) {
      r.v_[i] = std::min(v_[i], o.v_[i]);
    }
    return r;
  }
  ResourceVector Max(const ResourceVector& o) const {
    ResourceVector r;
    for (size_t i = 0; i < v_.size(); ++i) {
      r.v_[i] = std::max(v_[i], o.v_[i]);
    }
    return r;
  }
  // Clamps every dimension to be >= 0.
  ResourceVector ClampNonNegative() const { return Max(ResourceVector::Zero()); }
  // Element-wise multiply (e.g. scaling a spec by per-dimension fractions).
  ResourceVector Scale(const ResourceVector& fractions) const;
  // Element-wise divide; dimensions where `o` is 0 yield 0.
  ResourceVector SafeDivide(const ResourceVector& o) const;

  // True if every dimension of this is <= the corresponding dim of o + eps.
  bool AllLeq(const ResourceVector& o, double eps = 1e-9) const {
    for (size_t i = 0; i < v_.size(); ++i) {
      if (v_[i] > o.v_[i] + eps) {
        return false;
      }
    }
    return true;
  }
  // True if any dimension exceeds eps.
  bool AnyPositive(double eps = 1e-9) const;
  bool IsZero(double eps = 1e-9) const { return !AnyPositive(eps); }

  double Dot(const ResourceVector& o) const;
  double Norm() const;
  // max_i v_i; the "dominant" magnitude used for aggregate deflation checks.
  double MaxComponent() const;
  double MinComponent() const;
  double Sum() const;

  // Cosine similarity in [0, 1] for non-negative vectors; the paper's
  // placement "fitness" between a VM demand and server availability.
  // Returns 0 if either vector is all-zero.
  static double CosineSimilarity(const ResourceVector& a, const ResourceVector& b);

  // "(cpu=4, mem=16384MB, disk=100MB/s, net=1000MB/s)"
  std::string ToString() const;

 private:
  std::array<double, kNumResources> v_;
};

inline ResourceVector operator*(double s, const ResourceVector& v) { return v * s; }

}  // namespace defl

#endif  // SRC_RESOURCES_RESOURCE_VECTOR_H_
