#include "partition/binary_search.h"

#include <cmath>
#include <stdexcept>

namespace jps::partition {

namespace {

void validate(const ProfileCurve& curve) {
  if (curve.size() == 0)
    throw std::invalid_argument("binary_search_cut: empty curve");
  if (!curve.is_monotone())
    throw std::invalid_argument(
        "binary_search_cut: curve is not monotone; cluster it first");
  // The local-only cut has g = 0 <= f, so a crossing always exists.
}

// Fill l_minus and ratio once l_star is known.
CutDecision finish(const ProfileCurve& curve, std::size_t l_star,
                   int iterations) {
  CutDecision d;
  d.l_star = l_star;
  d.iterations = iterations;
  if (l_star == 0) return d;  // no communication-heavy type exists

  d.l_minus = l_star - 1;
  const double surplus = curve.f(l_star) - curve.g(l_star);       // >= 0
  const double deficit = curve.g(l_star - 1) - curve.f(l_star - 1);  // > 0
  if (deficit > 0.0 && surplus > 0.0) {
    d.ratio = static_cast<std::int64_t>(std::floor(surplus / deficit));
  }
  return d;
}

}  // namespace

std::size_t l_star_search(std::span<const double> f, std::span<const double> g,
                          int& probes) {
  std::size_t lo = 0;
  std::size_t hi = f.size() - 1;
  // Invariant: f[hi] >= g[hi]; if lo > 0 then f[lo-1] < g[lo-1].
  for (probes = 0; lo < hi; ++probes) {
    const std::size_t mid = (lo + hi) / 2;
    if (f[mid] < g[mid]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

CutDecision binary_search_cut(const ProfileCurve& curve) {
  validate(curve);
  int probes = 0;
  const auto l_star = l_star_search(curve.f_lane(), curve.g_lane(), probes);
  return finish(curve, l_star, probes);
}

CutDecision linear_scan_cut(const ProfileCurve& curve) {
  validate(curve);
  std::size_t l_star = 0;  // one probe per cut up to the first f >= g
  while (l_star + 1 < curve.size() && curve.f(l_star) < curve.g(l_star))
    ++l_star;
  return finish(curve, l_star, static_cast<int>(l_star) + 1);
}

}  // namespace jps::partition
