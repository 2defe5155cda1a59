#include "stq/core/types.h"

#include <algorithm>
#include <sstream>

namespace stq {

std::string Update::DebugString() const {
  std::ostringstream os;
  os << "(Q" << query << ", " << static_cast<char>(sign) << "p" << object
     << ")";
  return os.str();
}

void CanonicalizeUpdates(std::vector<Update>* updates) {
  std::sort(updates->begin(), updates->end(),
            [](const Update& a, const Update& b) {
              if (a.query != b.query) return a.query < b.query;
              if (a.object != b.object) return a.object < b.object;
              return a.sign < b.sign;  // '-' < '+'
            });
  // Drop cancelling (-,+) pairs for the same (query, object). After the
  // sort above, such a pair is adjacent with the negative first.
  // Compacted in place: this runs once per tick, so a temporary output
  // vector would allocate on every tick.
  size_t w = 0;
  for (size_t i = 0; i < updates->size(); ++i) {
    const Update& u = (*updates)[i];
    if (i + 1 < updates->size()) {
      const Update& v = (*updates)[i + 1];
      if (u.query == v.query && u.object == v.object && u.sign != v.sign) {
        ++i;  // skip both
        continue;
      }
    }
    (*updates)[w++] = u;
  }
  updates->resize(w);
}

}  // namespace stq
