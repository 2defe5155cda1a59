#include "stq/grid/shard_map.h"

#include <algorithm>
#include <cmath>

#include "stq/common/check.h"
#include "stq/grid/cell_resolver.h"

namespace stq {

namespace {

// Most-square factorization: the largest divisor of n that is <= sqrt(n).
int SquarestDivisor(int n) {
  int d = static_cast<int>(std::floor(std::sqrt(static_cast<double>(n))));
  while (d > 1 && n % d != 0) --d;
  return std::max(d, 1);
}

}  // namespace

ShardMap::ShardMap(const Rect& universe, int num_shards)
    : universe_(universe) {
  STQ_CHECK(!universe.IsEmpty()) << "shard map universe must be non-empty";
  STQ_CHECK(num_shards >= 1) << "num_shards must be >= 1";
  sy_ = SquarestDivisor(num_shards);
  sx_ = num_shards / sy_;
  shard_w_ = universe_.Width() / sx_;
  shard_h_ = universe_.Height() / sy_;
}

void ShardMap::SetBoundaries(std::vector<double> x_edges,
                             std::vector<double> y_edges) {
  STQ_CHECK(static_cast<int>(x_edges.size()) == sx_ + 1)
      << "need sx+1 x edges";
  STQ_CHECK(static_cast<int>(y_edges.size()) == sy_ + 1)
      << "need sy+1 y edges";
  STQ_CHECK(x_edges.front() == universe_.min_x &&
            x_edges.back() == universe_.max_x)
      << "x edges must cover the universe exactly";
  STQ_CHECK(y_edges.front() == universe_.min_y &&
            y_edges.back() == universe_.max_y)
      << "y edges must cover the universe exactly";
  for (size_t i = 1; i < x_edges.size(); ++i) {
    STQ_CHECK(x_edges[i - 1] < x_edges[i]) << "x edges must be ascending";
  }
  for (size_t i = 1; i < y_edges.size(); ++i) {
    STQ_CHECK(y_edges[i - 1] < y_edges[i]) << "y edges must be ascending";
  }
  x_edges_ = std::move(x_edges);
  y_edges_ = std::move(y_edges);
}

Status ShardMap::Validate() const {
  if (sx_ < 1 || sy_ < 1) return Status::Corruption("shard grid degenerate");
  if (x_edges_.empty() != y_edges_.empty()) {
    return Status::Corruption("shard map mixes uniform and explicit axes");
  }
  if (x_edges_.empty()) return Status::OK();
  if (static_cast<int>(x_edges_.size()) != sx_ + 1 ||
      static_cast<int>(y_edges_.size()) != sy_ + 1) {
    return Status::Corruption("shard boundary edge count mismatch");
  }
  if (x_edges_.front() != universe_.min_x ||
      x_edges_.back() != universe_.max_x ||
      y_edges_.front() != universe_.min_y ||
      y_edges_.back() != universe_.max_y) {
    return Status::Corruption("shard boundaries do not cover the universe");
  }
  for (size_t i = 1; i < x_edges_.size(); ++i) {
    if (!(x_edges_[i - 1] < x_edges_[i])) {
      return Status::Corruption("shard x boundaries not ascending");
    }
  }
  for (size_t i = 1; i < y_edges_.size(); ++i) {
    if (!(y_edges_[i - 1] < y_edges_[i])) {
      return Status::Corruption("shard y boundaries not ascending");
    }
  }
  return Status::OK();
}

Rect ShardMap::shard_rect(int s) const {
  STQ_CHECK(s >= 0 && s < num_shards()) << "shard index out of range";
  const int ix = s % sx_;
  const int iy = s / sx_;
  if (has_explicit_boundaries()) {
    return Rect{x_edges_[ix], y_edges_[iy], x_edges_[ix + 1],
                y_edges_[iy + 1]};
  }
  // The outermost edges use the exact universe bounds so border shards
  // never lose a sliver to rounding.
  return Rect{ix == 0 ? universe_.min_x : universe_.min_x + ix * shard_w_,
              iy == 0 ? universe_.min_y : universe_.min_y + iy * shard_h_,
              ix == sx_ - 1 ? universe_.max_x
                            : universe_.min_x + (ix + 1) * shard_w_,
              iy == sy_ - 1 ? universe_.max_y
                            : universe_.min_y + (iy + 1) * shard_h_};
}

namespace {

// The slab owning coordinate v under explicit edges: the last slab
// whose low edge is <= v, so interior seam points go to the upper
// neighbour — the same rule uniform floor-and-clamp produces.
int EdgeHome(const std::vector<double>& edges, double v) {
  const int n = static_cast<int>(edges.size()) - 1;
  const int i = static_cast<int>(std::upper_bound(edges.begin(), edges.end(),
                                                  v) -
                                 edges.begin()) -
                1;
  return std::clamp(i, 0, n - 1);
}

}  // namespace

int ShardMap::HomeOf(const Point& p) const {
  if (has_explicit_boundaries()) {
    return EdgeHome(y_edges_, p.y) * sx_ + EdgeHome(x_edges_, p.x);
  }
  const int ix =
      shard_w_ > 0.0 ? ClampedFloor((p.x - universe_.min_x) / shard_w_, sx_)
                     : 0;
  const int iy =
      shard_h_ > 0.0 ? ClampedFloor((p.y - universe_.min_y) / shard_h_, sy_)
                     : 0;
  return iy * sx_ + ix;
}

bool ShardMap::SlabSpan(double lo, double hi, double min, double max, double w,
                        int n, int* i0, int* i1) {
  if (hi < min || lo > max) return false;
  if (n == 1 || w <= 0.0) {
    // One slab, or a degenerate axis where every slab coincides with the
    // full (zero-width) extent: all slabs touch.
    *i0 = 0;
    *i1 = n - 1;
    return true;
  }
  int a = ClampedFloor((lo - min) / w, n);
  const int b = ClampedFloor((hi - min) / w, n);
  // A lower neighbour also touches when `lo` sits exactly on its upper
  // boundary (closed rects intersect on the shared seam line). The
  // boundary is compared with the same expression shard_rect() uses.
  if (a >= 1 && min + a * w == lo) --a;
  *i0 = a;
  *i1 = b;
  return true;
}

bool ShardMap::EdgeSpan(double lo, double hi, const std::vector<double>& edges,
                        int* i0, int* i1) {
  const int n = static_cast<int>(edges.size()) - 1;
  if (hi < edges.front() || lo > edges.back()) return false;
  // First slab whose high edge reaches lo (closed overlap keeps the
  // lower neighbour when lo sits exactly on a seam).
  const int a = static_cast<int>(std::lower_bound(edges.begin() + 1,
                                                  edges.end(), lo) -
                                 (edges.begin() + 1));
  // Last slab whose low edge is <= hi.
  const int b = static_cast<int>(std::upper_bound(edges.begin(),
                                                  edges.end() - 1, hi) -
                                 edges.begin()) -
                1;
  *i0 = std::clamp(a, 0, n - 1);
  *i1 = std::clamp(b, 0, n - 1);
  return true;
}

bool ShardMap::SpanX(double lo, double hi, int* i0, int* i1) const {
  if (has_explicit_boundaries()) return EdgeSpan(lo, hi, x_edges_, i0, i1);
  return SlabSpan(lo, hi, universe_.min_x, universe_.max_x, shard_w_, sx_, i0,
                  i1);
}

bool ShardMap::SpanY(double lo, double hi, int* i0, int* i1) const {
  if (has_explicit_boundaries()) return EdgeSpan(lo, hi, y_edges_, i0, i1);
  return SlabSpan(lo, hi, universe_.min_y, universe_.max_y, shard_h_, sy_, i0,
                  i1);
}

}  // namespace stq
