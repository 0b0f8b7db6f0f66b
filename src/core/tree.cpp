#include "core/tree.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled_tree.hpp"

namespace scalparc::core {

bool SplitDecision::operator==(const SplitDecision& other) const {
  if (attribute != other.attribute || kind != other.kind ||
      num_children != other.num_children) {
    return false;
  }
  if (kind == data::AttributeKind::kContinuous) {
    return threshold == other.threshold;
  }
  return value_to_child == other.value_to_child;
}

int DecisionTree::add_node(TreeNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int DecisionTree::num_leaves() const {
  int leaves = 0;
  for (const TreeNode& n : nodes_) leaves += n.is_leaf;
  return leaves;
}

int DecisionTree::depth() const {
  int depth = 0;
  for (const TreeNode& n : nodes_) depth = std::max(depth, n.depth);
  return depth;
}

std::int32_t DecisionTree::predict_from(int node_id, const data::Dataset& dataset,
                                        std::size_t row) const {
  const TreeNode* n = &node(node_id);
  while (!n->is_leaf) {
    int slot = -1;
    if (n->split.kind == data::AttributeKind::kContinuous) {
      const double v = dataset.continuous_value(n->split.attribute, row);
      slot = v < n->split.threshold ? 0 : 1;
    } else {
      const std::int32_t code = dataset.categorical_value(n->split.attribute, row);
      if (code >= 0 &&
          code < static_cast<std::int32_t>(n->split.value_to_child.size())) {
        slot = n->split.value_to_child[static_cast<std::size_t>(code)];
      }
    }
    if (slot < 0) return n->majority_class;  // value unseen during training
    n = &node(n->children.at(static_cast<std::size_t>(slot)));
  }
  return n->majority_class;
}

std::int32_t DecisionTree::predict(const data::Dataset& dataset,
                                   std::size_t row) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict: empty tree");
  }
  return predict_from(root(), dataset, row);
}

double DecisionTree::accuracy(const data::Dataset& dataset) const {
  const std::size_t records = dataset.num_records();
  if (records == 0) return 0.0;
  // Scored in fixed-size batches, so the predictions never take O(N) memory.
  constexpr std::size_t kBatch = 8192;
  const CompiledTree compiled = CompiledTree::compile(*this);
  std::vector<std::int32_t> predicted(std::min(records, kBatch));
  std::size_t correct = 0;
  for (std::size_t begin = 0; begin < records; begin += kBatch) {
    const std::size_t end = std::min(begin + kBatch, records);
    compiled.predict_batch(
        dataset, begin, end,
        std::span<std::int32_t>(predicted.data(), end - begin));
    for (std::size_t row = begin; row < end; ++row) {
      correct += predicted[row - begin] == dataset.label(row);
    }
  }
  return static_cast<double>(correct) / static_cast<double>(records);
}

bool DecisionTree::same_structure(const DecisionTree& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& a = nodes_[i];
    const TreeNode& b = other.nodes_[i];
    if (a.is_leaf != b.is_leaf || a.num_records != b.num_records ||
        a.depth != b.depth || a.children != b.children ||
        a.class_counts != b.class_counts) {
      return false;
    }
    if (a.is_leaf) {
      if (a.majority_class != b.majority_class) return false;
    } else if (!(a.split == b.split)) {
      return false;
    }
  }
  return true;
}

void DecisionTree::print_node(std::ostream& out, int node_id, int indent) const {
  const TreeNode& n = node(node_id);
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  if (n.is_leaf) {
    out << pad << "leaf: class " << n.majority_class << " (" << n.num_records
        << " records)\n";
    return;
  }
  const data::AttributeInfo& info = schema_.attribute(n.split.attribute);
  if (n.split.kind == data::AttributeKind::kContinuous) {
    out << pad << info.name << " < " << n.split.threshold << "?\n";
    out << pad << "yes:\n";
    print_node(out, n.children.at(0), indent + 1);
    out << pad << "no:\n";
    print_node(out, n.children.at(1), indent + 1);
    return;
  }
  out << pad << info.name << " in {...}? (" << n.split.num_children
      << "-way)\n";
  for (int slot = 0; slot < n.split.num_children; ++slot) {
    out << pad << "values[";
    bool first = true;
    for (std::size_t code = 0; code < n.split.value_to_child.size(); ++code) {
      if (n.split.value_to_child[code] == slot) {
        if (!first) out << ',';
        out << code;
        first = false;
      }
    }
    out << "]:\n";
    print_node(out, n.children.at(static_cast<std::size_t>(slot)), indent + 1);
  }
}

void DecisionTree::print(std::ostream& out) const {
  if (nodes_.empty()) {
    out << "(empty tree)\n";
    return;
  }
  print_node(out, root(), 0);
}

std::string DecisionTree::to_string() const {
  std::ostringstream out;
  print(out);
  return out.str();
}

std::size_t DecisionTree::payload_bytes() const {
  std::size_t bytes = nodes_.size() * sizeof(TreeNode);
  for (const TreeNode& n : nodes_) {
    bytes += n.class_counts.size() * sizeof(std::int64_t);
    bytes += n.children.size() * sizeof(int);
    bytes += n.split.value_to_child.size() * sizeof(std::int32_t);
  }
  return bytes;
}

}  // namespace scalparc::core
