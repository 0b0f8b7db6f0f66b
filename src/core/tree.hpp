// The decision-tree model produced by tree induction.
//
// Internal nodes carry a splitting decision; every node also carries the
// class histogram of the training records that reached it (used for leaf
// labels, unseen-categorical fallbacks and MDL pruning).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/schema.hpp"

namespace scalparc::core {

struct SplitDecision {
  int attribute = -1;
  data::AttributeKind kind = data::AttributeKind::kContinuous;
  // Continuous: records with value < threshold go to child slot 0, others to
  // slot 1. The threshold is a data value: in exact mode the smallest value
  // of the right partition (the winning "A < v" candidate's v), in
  // histogram/voting mode the recorded minimum value of the first bin right
  // of the cut.
  double threshold = 0.0;
  // Categorical: child slot per value code; -1 for values absent at the node
  // during training (prediction falls back to the node's majority label).
  // For kBinarySubset splits, entries are 0 (in subset) or 1.
  std::vector<std::int32_t> value_to_child;
  int num_children = 0;

  bool operator==(const SplitDecision& other) const;
};

struct TreeNode {
  bool is_leaf = true;
  // Majority class of the training records at this node (the prediction if
  // evaluation stops here).
  std::int32_t majority_class = 0;
  std::vector<std::int64_t> class_counts;
  std::int64_t num_records = 0;
  int depth = 0;
  SplitDecision split;          // valid iff !is_leaf
  std::vector<int> children;    // node ids, indexed by child slot
};

class DecisionTree {
 public:
  DecisionTree() = default;
  explicit DecisionTree(data::Schema schema) : schema_(std::move(schema)) {}

  const data::Schema& schema() const { return schema_; }

  int add_node(TreeNode node);
  TreeNode& node(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
  const TreeNode& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  int root() const { return 0; }
  bool empty() const { return nodes_.empty(); }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_leaves() const;
  int depth() const;

  // Class predicted for row `row` of `dataset` (same schema), by a recursive
  // walk. Production scoring goes through CompiledTree; this walk is the
  // reference the compiled engine is tested against.
  std::int32_t predict(const data::Dataset& dataset, std::size_t row) const;

  // Fraction of rows whose prediction equals the stored label, scored with
  // the compiled batch kernel (same predictions as `predict`).
  double accuracy(const data::Dataset& dataset) const;

  // Structural equality: same shape, same decisions, same leaf labels.
  // Thresholds are compared exactly — ScalParC's decisions are functions of
  // integer counts and attribute values only, so any processor count must
  // produce bit-identical trees.
  bool same_structure(const DecisionTree& other) const;

  // Multi-line ASCII rendering (for the examples and debugging).
  std::string to_string() const;
  void print(std::ostream& out) const;

  // Approximate model size for memory accounting.
  std::size_t payload_bytes() const;

 private:
  std::int32_t predict_from(int node_id, const data::Dataset& dataset,
                            std::size_t row) const;
  void print_node(std::ostream& out, int node_id, int indent) const;

  data::Schema schema_;
  std::vector<TreeNode> nodes_;
};

}  // namespace scalparc::core
