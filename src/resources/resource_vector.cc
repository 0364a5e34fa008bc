#include "src/resources/resource_vector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace defl {

ResourceVector ResourceVector::operator*(double s) const {
  ResourceVector r;
  for (size_t i = 0; i < v_.size(); ++i) {
    r.v_[i] = v_[i] * s;
  }
  return r;
}

ResourceVector ResourceVector::operator/(double s) const { return *this * (1.0 / s); }

ResourceVector ResourceVector::Scale(const ResourceVector& fractions) const {
  ResourceVector r;
  for (size_t i = 0; i < v_.size(); ++i) {
    r.v_[i] = v_[i] * fractions.v_[i];
  }
  return r;
}

ResourceVector ResourceVector::SafeDivide(const ResourceVector& o) const {
  ResourceVector r;
  for (size_t i = 0; i < v_.size(); ++i) {
    r.v_[i] = o.v_[i] != 0.0 ? v_[i] / o.v_[i] : 0.0;
  }
  return r;
}

bool ResourceVector::AnyPositive(double eps) const {
  for (const double x : v_) {
    if (x > eps) {
      return true;
    }
  }
  return false;
}

double ResourceVector::Dot(const ResourceVector& o) const {
  double d = 0.0;
  for (size_t i = 0; i < v_.size(); ++i) {
    d += v_[i] * o.v_[i];
  }
  return d;
}

double ResourceVector::Norm() const { return std::sqrt(Dot(*this)); }

double ResourceVector::MaxComponent() const {
  return *std::max_element(v_.begin(), v_.end());
}

double ResourceVector::MinComponent() const {
  return *std::min_element(v_.begin(), v_.end());
}

double ResourceVector::Sum() const {
  double s = 0.0;
  for (const double x : v_) {
    s += x;
  }
  return s;
}

double ResourceVector::CosineSimilarity(const ResourceVector& a, const ResourceVector& b) {
  const double na = a.Norm();
  const double nb = b.Norm();
  // Degenerate vectors have no direction; define their similarity as 0.
  // Guard the PRODUCT, not the factors: two subnormal-but-nonzero norms can
  // underflow to denom == 0.0, and x/0.0 would leak an inf/NaN fitness into
  // the placement tie-breaks.
  const double denom = na * nb;
  if (denom == 0.0) {
    return 0.0;
  }
  return a.Dot(b) / denom;
}

std::string ResourceVector::ToString() const {
  std::ostringstream os;
  os << "(cpu=" << cpu() << ", mem=" << memory_mb() << "MB, disk=" << disk_bw()
     << "MB/s, net=" << net_bw() << "MB/s)";
  return os.str();
}

}  // namespace defl
