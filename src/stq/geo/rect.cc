#include "stq/geo/rect.h"

#include <sstream>

namespace stq {

bool Rect::ContainsRect(const Rect& other) const {
  if (other.IsEmpty()) return true;
  if (IsEmpty()) return false;
  return other.min_x >= min_x && other.max_x <= max_x &&
         other.min_y >= min_y && other.max_y <= max_y;
}

Rect Rect::Intersection(const Rect& other) const {
  if (!Intersects(other)) return Rect::Empty();
  return Rect{std::max(min_x, other.min_x), std::max(min_y, other.min_y),
              std::min(max_x, other.max_x), std::min(max_y, other.max_y)};
}

Rect Rect::Union(const Rect& other) const {
  if (IsEmpty()) return other;
  if (other.IsEmpty()) return *this;
  return Rect{std::min(min_x, other.min_x), std::min(min_y, other.min_y),
              std::max(max_x, other.max_x), std::max(max_y, other.max_y)};
}

std::string Rect::DebugString() const {
  std::ostringstream os;
  if (IsEmpty()) {
    os << "Rect(empty)";
  } else {
    os << "Rect[" << min_x << "," << min_y << " .. " << max_x << "," << max_y
       << "]";
  }
  return os.str();
}

std::vector<Rect> RectDifference(const Rect& a, const Rect& b) {
  std::vector<Rect> out;
  RectDifference(a, b, &out);
  return out;
}

void RectDifference(const Rect& a, const Rect& b, std::vector<Rect>* out) {
  out->clear();
  if (a.IsEmpty()) return;
  const Rect inter = a.Intersection(b);
  if (inter.IsEmpty()) {
    out->push_back(a);
    return;
  }
  if (inter == a) return;  // a fully covered by b

  // Split `a` into up to four bands around the intersection: bottom and
  // top spanning a's full width, left and right limited to the
  // intersection's vertical band. The bands are disjoint (they share only
  // boundary lines).
  if (inter.min_y > a.min_y) {
    out->push_back(Rect{a.min_x, a.min_y, a.max_x, inter.min_y});
  }
  if (inter.max_y < a.max_y) {
    out->push_back(Rect{a.min_x, inter.max_y, a.max_x, a.max_y});
  }
  if (inter.min_x > a.min_x) {
    out->push_back(Rect{a.min_x, inter.min_y, inter.min_x, inter.max_y});
  }
  if (inter.max_x < a.max_x) {
    out->push_back(Rect{inter.max_x, inter.min_y, a.max_x, inter.max_y});
  }
}

}  // namespace stq
