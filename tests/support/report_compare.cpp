#include "report_compare.hpp"

#include <sstream>

namespace cpart {

namespace {

/// Appends "name: got vs want" to `out` when the two differ.
template <typename T>
void compare(std::vector<std::string>& out, const char* name, const T& got,
             const T& want) {
  if (got == want) return;
  std::ostringstream line;
  line << name;
  if constexpr (requires(std::ostream& os) { os << got; }) {
    line << ": " << got << " vs " << want;
  }
  out.push_back(line.str());
}

}  // namespace

std::vector<std::string> event_differences(
    const std::vector<ContactEvent>& got,
    const std::vector<ContactEvent>& want) {
  std::vector<std::string> out;
  compare(out, "events.size", got.size(), want.size());
  if (!out.empty()) return out;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ContactEvent& a = got[i];
    const ContactEvent& b = want[i];
    if (a.node != b.node || a.face != b.face || a.distance != b.distance ||
        a.signed_distance != b.signed_distance ||
        a.closest_point[0] != b.closest_point[0] ||
        a.closest_point[1] != b.closest_point[1] ||
        a.closest_point[2] != b.closest_point[2]) {
      std::ostringstream line;
      line.precision(17);
      line << "event " << i << ": (node " << a.node << ", face " << a.face
           << ", distance " << a.distance << ") vs (node " << b.node
           << ", face " << b.face << ", distance " << b.distance << ")";
      out.push_back(line.str());
      break;
    }
  }
  return out;
}

std::vector<std::string> report_differences(const DistributedStepReport& got,
                                            const DistributedStepReport& want) {
  std::vector<std::string> out;
  const auto& a = got;
  const auto& b = want;
#define CPART_COMPARE(field) compare(out, #field, a.field, b.field)
  CPART_COMPARE(step);
  CPART_COMPARE(migrated);
  CPART_COMPARE(fe_exchange);
  CPART_COMPARE(coupling_exchange);
  CPART_COMPARE(search_exchange);
  CPART_COMPARE(migration_exchange);
  CPART_COMPARE(descriptor_tree_nodes);
  CPART_COMPARE(descriptor_broadcast_bytes);
  CPART_COMPARE(label_broadcast_bytes);
  CPART_COMPARE(halo_payload_bytes);
  CPART_COMPARE(coupling_payload_bytes);
  CPART_COMPARE(face_payload_bytes);
  CPART_COMPARE(migration_payload_bytes);
  CPART_COMPARE(repart_moved_nodes);
  CPART_COMPARE(repart_moved_elements);
  CPART_COMPARE(contact_events);
  CPART_COMPARE(penetrating_events);
  CPART_COMPARE(events_per_processor);
  CPART_COMPARE(ownership_hash);
#undef CPART_COMPARE
  for (std::string& line : event_differences(a.events, b.events)) {
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace cpart
