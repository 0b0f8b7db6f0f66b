// The level protocol shared by the two induction engines: the exact ScalParC
// engine over sorted attribute lists (induction.cpp) and the histogram-
// quantized PV-Tree engine over a horizontal record partition
// (histogram_induction.cpp). Both run the same level-synchronous protocol
// (§3-4) into the same tree/checkpoint artifacts, so each protocol step
// lives here once: option validation, the SPMD/checkpoint fingerprint, the
// root node, the resume preamble (level choice, manifest checks, the
// repartition policy, the joiner handshake, tree.txt and active.bin), the
// checkpoint-write framing, the level-boundary fault hook, the split rule,
// the child layout and kid-count allreduce, the tree growth, and the level
// bookkeeping (LevelStats, live telemetry, the induction.* metrics).
//
// An engine owns its data plane and its level loop: the record layout,
// FindSplitI/II, how value -> child mappings reach every rank,
// PerformSplitI/II, and the attribute-list sections it writes into and
// restores from a checkpoint. The loop calls these free functions at each
// protocol step and opens the spans of its own phases (presort or
// checkpoint_restore, findsplit_i/ii, performsplit_i/ii); the shared steps
// open checkpoint_write and level_stats.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/gini.hpp"
#include "core/induction.hpp"
#include "core/options.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "core/tree.hpp"
#include "data/schema.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "mp/telemetry.hpp"
#include "util/trace.hpp"

namespace scalparc::core::internal {

struct ActiveNode {
  int tree_id = -1;
  int depth = 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> class_totals;
};

inline std::int32_t majority_class(std::span<const std::int64_t> counts) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < counts.size(); ++j) {
    if (counts[j] > counts[best]) best = j;
  }
  return static_cast<std::int32_t>(best);
}

inline bool is_pure(std::span<const std::int64_t> counts) {
  int non_zero = 0;
  for (const std::int64_t c : counts) non_zero += c > 0;
  return non_zero <= 1;
}

// Phase span carrying both clocks: wall time from the TraceScope itself and
// the modeled virtual clock sampled at construction/destruction. The phase
// spans tile every vtime-advancing statement of the induction, so a trace's
// per-rank vtime deltas sum to InductionStats::total_seconds.
class PhaseSpan {
 public:
  PhaseSpan(mp::Comm& comm, const char* name, int level = -1,
            std::int64_t nodes = -1, std::int64_t records = -1)
      : comm_(comm), scope_(name, level, nodes, records) {
    scope_.set_begin_vtime(comm.vtime());
    // Every phase boundary advances this rank's gray-failure progress
    // watermark (no-op unless health monitoring is on): the spans are SPMD,
    // so the Hub can compare watermarks across ranks to tell slow from
    // stuck.
    comm.publish_watermark(level);
  }
  ~PhaseSpan() { scope_.set_end_vtime(comm_.vtime()); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  void set_bytes(std::int64_t bytes) { scope_.set_bytes(bytes); }

 private:
  mp::Comm& comm_;
  util::TraceScope scope_;
};

// SPMD argument-consistency / checkpoint-compatibility fingerprint (FNV-1a
// over total, schema and the tree-shaping options). fuse_collectives and
// the split-mode trio (split_mode/hist_bins/top_k) are deliberately
// excluded: all of them consume and produce the same checkpoint format, so
// a checkpoint written under one setting resumes under any other.
// min_gini_improvement is mixed in only when non-zero, so runs at the
// paper's default keep the fingerprint (and the checkpoints) they always
// had.
inline std::uint64_t induction_fingerprint(const data::Schema& schema,
                                           std::uint64_t total_records,
                                           const InductionOptions& options,
                                           SplittingStrategy strategy) {
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  const auto mix = [&fp](std::uint64_t v) {
    fp = (fp ^ v) * 0x100000001b3ULL;
  };
  mix(total_records);
  mix(static_cast<std::uint64_t>(schema.num_classes()));
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const data::AttributeInfo& info = schema.attribute(a);
    mix(static_cast<std::uint64_t>(info.kind));
    mix(static_cast<std::uint64_t>(info.cardinality));
    for (const char ch : info.name) mix(static_cast<std::uint64_t>(ch));
  }
  mix(static_cast<std::uint64_t>(options.max_depth));
  mix(static_cast<std::uint64_t>(options.min_split_records));
  mix(static_cast<std::uint64_t>(options.criterion));
  mix(static_cast<std::uint64_t>(options.categorical_split));
  // Slot of the retired categorical-reduction option, whose coordinator
  // mode was 0: keeps every existing checkpoint fingerprint valid.
  mix(0);
  mix(static_cast<std::uint64_t>(strategy));
  if (options.min_gini_improvement != 0.0) {
    mix(std::bit_cast<std::uint64_t>(options.min_gini_improvement));
  }
  return fp;
}

// A mismatch would otherwise corrupt results silently (e.g. misaligned
// count-matrix reductions), so every engine compares fingerprints up front.
inline void verify_spmd_fingerprint(mp::Comm& comm, std::uint64_t fp) {
  const std::uint64_t lo = mp::allreduce_value(comm, fp, mp::MinOp{});
  const std::uint64_t hi = mp::allreduce_value(comm, fp, mp::MaxOp{});
  if (lo != hi) {
    throw std::invalid_argument(
        "induce_tree_distributed: ranks disagree on schema/options/total");
  }
}

// A fit holds at most this many records: the node table sends record ids
// as uint32 slots, and the histogram engine stores and ships its class
// counts as uint32, neither of which can then overflow.
inline constexpr std::uint64_t kMaxFitRecords =
    std::numeric_limits<std::uint32_t>::max();

// Rejects an empty or too large training set, bad options and a resume
// without a checkpoint directory (std::invalid_argument prefixed with
// `who`).
inline void validate_controls(const char* who, std::uint64_t total_records,
                              const InductionControls& controls) {
  const InductionOptions& options = controls.options;
  const std::string prefix = std::string(who) + ": ";
  if (total_records == 0) {
    throw std::invalid_argument(prefix + "empty training set");
  }
  if (total_records > kMaxFitRecords) {
    throw std::invalid_argument(
        prefix + std::to_string(total_records) +
        " training records; a fit holds fewer than 2^32 (node-table slots "
        "and histogram counts are 32-bit)");
  }
  if (options.max_depth < 0 || options.min_split_records < 2 ||
      options.node_table_update_block < 0 ||
      !(options.min_gini_improvement >= 0.0)) {
    throw std::invalid_argument(prefix + "bad options");
  }
  if (controls.checkpoint.resume && controls.checkpoint.directory.empty()) {
    throw std::invalid_argument(prefix +
                                "resume requires a checkpoint directory");
  }
}

// Adds the root to `tree` from the allreduced label histogram; returns the
// first active set (the root if splittable, else empty).
inline std::vector<ActiveNode> grow_root(mp::Comm& comm, const char* who,
                                         std::span<const std::int32_t> labels,
                                         std::uint64_t total_records,
                                         const InductionOptions& options,
                                         DecisionTree& tree) {
  const int c = tree.schema().num_classes();
  std::vector<std::int64_t> local_histogram(static_cast<std::size_t>(c), 0);
  for (const std::int32_t label : labels) {
    if (label < 0 || label >= c) {
      throw std::invalid_argument(std::string(who) + ": label out of range");
    }
    ++local_histogram[static_cast<std::size_t>(label)];
  }
  const std::vector<std::int64_t> root_totals =
      mp::allreduce_vec(comm, std::span<const std::int64_t>(local_histogram),
                        mp::SumOp{});
  const auto total = static_cast<std::int64_t>(total_records);
  TreeNode root;
  root.majority_class = majority_class(root_totals);
  root.class_counts = root_totals;
  root.num_records = total;
  tree.add_node(std::move(root));
  if (is_pure(root_totals) || total < options.min_split_records ||
      options.max_depth <= 0) {
    return {};
  }
  return {ActiveNode{0, 0, total, root_totals}};
}

struct RestoredLevel {
  std::string dir;
  CheckpointManifest manifest;
  // Sections need a re-tile: another world wrote them, or rank_weights ask
  // for a weighted tiling.
  bool repartition = false;
  std::vector<ActiveNode> active;
};

// Collective resume preamble: picks the newest complete level (rank 0's
// scan, broadcast), checks it against this run (CheckpointError), admits
// grow joiners, and replaces `tree` by the checkpointed one. The engine
// then restores its own sections from `dir`. A CRC-valid active.bin that
// does not fit the tree is CheckpointCorruptError.
inline RestoredLevel restore_level(mp::Comm& comm,
                                   const CheckpointControls& controls,
                                   std::uint64_t total_records,
                                   std::uint64_t fingerprint,
                                   int num_attributes, DecisionTree& tree) {
  const int p = comm.size();
  const int c = tree.schema().num_classes();
  const std::string& root = controls.directory;
  int latest = -1;
  if (comm.rank() == 0) latest = checkpoint_latest_level(root).value_or(-1);
  latest = mp::bcast_value(comm, latest, 0);
  if (latest < 0) {
    throw CheckpointError("no complete level checkpoint under '" + root + "'");
  }
  RestoredLevel out;
  out.dir = checkpoint_level_dir(root, latest);
  out.manifest = checkpoint_read_manifest(out.dir);
  const CheckpointManifest& manifest = out.manifest;
  if (manifest.level != latest) {
    throw CheckpointError("manifest level disagrees with its directory name");
  }
  if (!controls.rank_weights.empty() &&
      controls.rank_weights.size() != static_cast<std::size_t>(p)) {
    throw CheckpointError(
        "rank_weights has " + std::to_string(controls.rank_weights.size()) +
        " entries but the world has " + std::to_string(p) + " ranks");
  }
  // A weighted re-tile is a repartition even at the checkpoint's own rank
  // count: a per-rank reload would restore the uniform layout.
  const bool weighted = controls.weighted();
  out.repartition = manifest.ranks != p || weighted;
  if (out.repartition && !controls.allow_repartition) {
    throw CheckpointError(
        weighted ? "rank_weights require allow_repartition"
                 : "checkpoint was written by " +
                       std::to_string(manifest.ranks) +
                       " ranks; resuming with " + std::to_string(p));
  }
  if (manifest.total_records != total_records || manifest.num_classes != c ||
      manifest.fingerprint != fingerprint) {
    throw CheckpointError(
        "checkpoint parameters do not match this run "
        "(schema/options/total changed since the checkpoint was written)");
  }

  // On a grow resume the fresh joiners first pass the capability
  // handshake: each must present the same checkpoint fingerprint and
  // dataset geometry rank 0 is restoring against, or the run aborts
  // before any partition is handed to a bad joiner. This runs whether or
  // not the world size changed — survivors + joiners can land back on the
  // checkpoint's world, which resumes without repartitioning but still
  // admits fresh ranks.
  mp::JoinCapability capability;
  capability.fingerprint = fingerprint;
  capability.total_records = static_cast<std::int64_t>(total_records);
  capability.num_attributes = static_cast<std::int32_t>(num_attributes);
  (void)mp::join_handshake(comm, capability);

  tree = checkpoint_read_tree(out.dir, manifest);

  const std::vector<std::int64_t> flat =
      checkpoint_read_active(out.dir, manifest);
  const std::size_t stride = 3 + static_cast<std::size_t>(c);
  if (flat.size() % stride != 0) {
    throw CheckpointCorruptError("active.bin has a bad record stride");
  }
  for (std::size_t i = 0; i < flat.size() / stride; ++i) {
    const std::int64_t* rec = flat.data() + i * stride;
    if (rec[0] < 0 || rec[0] >= tree.num_nodes()) {
      throw CheckpointCorruptError(
          "active node references a missing tree node");
    }
    out.active.push_back(ActiveNode{static_cast<int>(rec[0]),
                                    static_cast<int>(rec[1]), rec[2],
                                    {rec + 3, rec + 3 + c}});
  }
  return out;
}

// Collective level checkpoint ("checkpoint_write" span): rank 0 prepares
// staging, every rank writes its sections through `write_sections`, rank 0
// adds tree.txt, active.bin and the MANIFEST and commits. Barriers order
// the steps so a committed level_<L> always holds a complete file set.
inline void write_level_checkpoint(
    mp::Comm& comm, const std::string& root, int level,
    std::int64_t level_records, const DecisionTree& tree,
    const std::vector<ActiveNode>& active, std::uint64_t total_records,
    std::uint64_t fingerprint,
    const std::function<void(CheckpointRankWriter&)>& write_sections) {
  PhaseSpan ckpt_span(comm, "checkpoint_write", level,
                      static_cast<std::int64_t>(active.size()), level_records);
  if (comm.rank() == 0) checkpoint_prepare_staging(root, level);
  mp::barrier(comm);
  const std::string staging = checkpoint_staging_dir(root, level);
  CheckpointRankWriter writer(staging, comm.rank());
  write_sections(writer);
  writer.finalize();
  if (comm.rank() == 0) {
    std::vector<std::int64_t> flat;
    for (const ActiveNode& node : active) {
      flat.insert(flat.end(), {node.tree_id, node.depth, node.total});
      flat.insert(flat.end(), node.class_totals.begin(),
                  node.class_totals.end());
    }
    CheckpointManifest manifest;
    manifest.level = level;
    manifest.ranks = comm.size();
    manifest.num_classes = tree.schema().num_classes();
    manifest.total_records = total_records;
    manifest.fingerprint = fingerprint;
    checkpoint_write_globals(staging, tree, flat, manifest);
  }
  mp::barrier(comm);
  if (comm.rank() == 0) checkpoint_commit(root, level);
  mp::barrier(comm);
}

// This rank's counters where a level's FindSplitI begins.
struct LevelStart {
  std::uint64_t bytes_sent = 0;
  std::array<std::uint64_t, mp::kNumCommOps> calls_by_op{};
  double vtime = 0.0;
};

// Fires injected level-kills (after the level's checkpoint is committed,
// so recovery restarts at the level that failed) and marks the start.
inline LevelStart start_level(mp::Comm& comm, int level) {
  comm.fault_level_boundary(level);
  return LevelStart{comm.stats().bytes_sent, comm.stats().calls_by_op,
                    comm.vtime()};
}

// The split rule: a valid best candidate that beats the node's impurity by
// more than min_gini_improvement.
inline std::vector<bool> decide_splits(const std::vector<ActiveNode>& active,
                                       const std::vector<SplitCandidate>& best,
                                       const InductionOptions& options) {
  std::vector<bool> will_split(active.size(), false);
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (!best[i].valid()) continue;
    const double node_impurity =
        impurity_of_counts(active[i].class_totals, options.criterion);
    will_split[i] = best[i].gini < node_impurity - options.min_gini_improvement;
  }
  return will_split;
}

struct ChildLayout {
  std::vector<int> num_children;  // 0 for a node that stays a leaf
  // Start of node i's [child][class] kid counts; size m + 1.
  std::vector<std::size_t> kid_offset;
};

inline ChildLayout layout_children(
    const std::vector<SplitCandidate>& best,
    const std::vector<bool>& will_split,
    const std::vector<std::vector<std::int32_t>>& value_to_child, int c) {
  const std::size_t m = best.size();
  ChildLayout layout{std::vector<int>(m, 0),
                     std::vector<std::size_t>(m + 1, 0)};
  for (std::size_t i = 0; i < m; ++i) {
    int& kids = layout.num_children[i];
    if (will_split[i]) {
      kids = best[i].kind == SplitKind::kContinuous
                 ? 2
                 : num_children_of(value_to_child[i]);
      if (kids < 2) {
        throw std::logic_error("induction: categorical split with <2 children");
      }
    }
    layout.kid_offset[i + 1] =
        layout.kid_offset[i] +
        static_cast<std::size_t>(kids) * static_cast<std::size_t>(c);
  }
  return layout;
}

// Collective sum of the kid counts: one batch round, or (fused = false)
// one plain allreduce.
inline std::vector<WireCount> reduce_kid_counts(
    mp::Comm& comm, mp::CollectiveBatch& batch,
    std::span<const WireCount> local_kid_counts, bool fused) {
  if (local_kid_counts.empty()) return {};
  if (!fused) return mp::allreduce_vec(comm, local_kid_counts, mp::SumOp{});
  batch.reset();
  const std::size_t seg = batch.add<WireCount>(local_kid_counts, mp::SumOp{});
  batch.allreduce();
  return batch.take<WireCount>(seg);
}

// Counts the level, records its LevelStats ("level_stats" span, two small
// collectives) when asked, and publishes this rank's live metrics.
inline void finish_level(mp::Comm& comm, const InductionControls& controls,
                         InductionStats& stats, const LevelStart& start,
                         int level, std::int64_t nodes, std::int64_t records) {
  ++stats.levels;
  if (controls.collect_level_stats) {
    PhaseSpan level_span(comm, "level_stats", level, nodes, records);
    LevelStats row;
    row.level = stats.levels;
    row.active_nodes = nodes;
    row.active_records = records;
    // Count collective entries before the level-stats collectives below
    // add their own.
    std::uint64_t calls = 0;
    for (int op = 0; op < mp::kNumCommOps; ++op) {
      if (op == static_cast<int>(mp::CommOp::kPointToPoint)) continue;
      calls += comm.stats().calls_by_op[static_cast<std::size_t>(op)] -
               start.calls_by_op[static_cast<std::size_t>(op)];
    }
    row.collective_calls = static_cast<std::int64_t>(calls);
    const std::uint64_t sent = comm.stats().bytes_sent - start.bytes_sent;
    row.max_bytes_sent_per_rank = mp::allreduce_value(comm, sent, mp::MaxOp{});
    row.vtime_end = comm.vtime();
    stats.per_level.push_back(row);
  }

  // Live telemetry: publish a copy of this rank's cumulative counters so
  // the exporter can sample mid-run. The real sink is untouched; cost when
  // telemetry is off is one relaxed atomic load.
  if (telemetry::live_metrics_enabled()) {
    if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
      mp::MetricsSnapshot live = *sink;
      absorb_induction_stats(live, stats);
      mp::absorb_comm_stats(live, comm.stats());
      telemetry::publish_metrics("rank" + std::to_string(comm.rank()), live);
    }
  }
}

// total_seconds, and the induction.* families on the metrics sink that
// run_ranks binds for this rank.
inline void finish_induction(mp::Comm& comm, InductionStats& stats) {
  stats.total_seconds = comm.vtime();
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    absorb_induction_stats(*sink, stats);
  }
}

struct LevelGrowth {
  std::vector<ActiveNode> next_active;
  // child_slot_target[i][slot]: index into next_active, or -1 if the child
  // became a leaf.
  std::vector<std::vector<int>> child_slot_target;
};

// Creates the children of every splitting node in the tree (identically on
// every rank — all inputs are global) and builds the next level's active
// set. Shared verbatim by both engines so the splittability rule and child
// ordering cannot diverge.
inline LevelGrowth grow_tree_level(
    DecisionTree& tree, const std::vector<ActiveNode>& active,
    const std::vector<SplitCandidate>& best,
    const std::vector<bool>& will_split, const ChildLayout& layout,
    const std::vector<std::vector<std::int32_t>>& value_to_child,
    std::span<const WireCount> global_kid_counts, int c,
    const InductionOptions& options) {
  const std::size_t m = active.size();
  const std::vector<int>& num_children = layout.num_children;
  LevelGrowth out;
  out.child_slot_target.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    TreeNode& node = tree.node(active[i].tree_id);
    if (!will_split[i]) continue;  // node stays a leaf
    node.is_leaf = false;
    node.split.attribute = best[i].attribute;
    node.split.num_children = num_children[i];
    if (best[i].kind == SplitKind::kContinuous) {
      node.split.kind = data::AttributeKind::kContinuous;
      node.split.threshold = best[i].threshold;
    } else {
      node.split.kind = data::AttributeKind::kCategorical;
      node.split.value_to_child = value_to_child[i];
    }
    out.child_slot_target[i].assign(static_cast<std::size_t>(num_children[i]),
                                    -1);
    for (int slot = 0; slot < num_children[i]; ++slot) {
      const std::span<const WireCount> counts = global_kid_counts.subspan(
          layout.kid_offset[i] +
              static_cast<std::size_t>(slot) * static_cast<std::size_t>(c),
          static_cast<std::size_t>(c));
      TreeNode child;
      child.is_leaf = true;
      child.class_counts.assign(counts.begin(), counts.end());
      child.num_records = std::accumulate(child.class_counts.begin(),
                                          child.class_counts.end(),
                                          std::int64_t{0});
      child.majority_class = majority_class(child.class_counts);
      child.depth = active[i].depth + 1;
      const int child_id = tree.add_node(std::move(child));
      tree.node(active[i].tree_id).children.push_back(child_id);
      const TreeNode& stored = tree.node(child_id);
      const bool splittable = !is_pure(stored.class_counts) &&
                              stored.num_records >= options.min_split_records &&
                              stored.depth < options.max_depth;
      if (splittable) {
        out.child_slot_target[i][static_cast<std::size_t>(slot)] =
            static_cast<int>(out.next_active.size());
        out.next_active.push_back(ActiveNode{child_id, stored.depth,
                                             stored.num_records,
                                             stored.class_counts});
      }
    }
  }
  return out;
}

}  // namespace scalparc::core::internal
