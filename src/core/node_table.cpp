#include "core/node_table.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mp/metrics.hpp"

namespace scalparc::core {

void NodeTable::update(std::span<const std::int64_t> rids,
                       std::span<const std::int32_t> children,
                       std::int64_t block_limit) {
  if (rids.size() != children.size()) {
    throw std::invalid_argument("NodeTable::update: rid/child size mismatch");
  }
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("nodetable.updates", 1);
    sink->add("nodetable.update_entries", static_cast<double>(rids.size()));
  }
  // Only the child travels; the owner stamps the level's epoch.
  const std::uint32_t epoch = epoch_;
  table_.update<std::int32_t>(
      rids, children, block_limit,
      [epoch](NodeTableEntry& entry, std::int32_t child) {
        entry = NodeTableEntry{child, epoch};
      });
}

std::vector<std::int32_t> NodeTable::enquire(
    std::span<const std::int64_t> rids) {
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("nodetable.enquiries", 1);
    sink->add("nodetable.enquiry_entries", static_cast<double>(rids.size()));
  }
  // The owner answers with the child alone, or kStaleChild for an entry
  // another level wrote; the enquirer raises the protocol violation.
  const std::uint32_t epoch = epoch_;
  std::vector<std::int32_t> children =
      table_.enquire(rids, [epoch](const NodeTableEntry& entry) {
        return entry.epoch == epoch ? entry.child : kStaleChild;
      });
  if (std::find(children.begin(), children.end(), kStaleChild) !=
      children.end()) {
    throw std::logic_error(
        "NodeTable::enquire: record was not assigned a child this level "
        "(stale entry)");
  }
  return children;
}

}  // namespace scalparc::core
