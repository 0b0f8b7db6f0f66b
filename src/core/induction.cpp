#include "core/induction.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/elastic_restore.hpp"
#include "core/gini.hpp"
#include "core/histogram_induction.hpp"
#include "core/induction_internal.hpp"
#include "core/node_table.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "data/attribute_list.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"
#include "util/arena.hpp"
#include "util/trace.hpp"

namespace scalparc::core {

namespace {

using data::AttributeKind;
using data::CategoricalColumns;
using data::CategoricalEntry;
using data::ContinuousColumns;
using data::ContinuousEntry;
using internal::ActiveNode;
using internal::PhaseSpan;

// Element for the boundary exscan in FindSplitII: the last attribute value
// of a node's segment on each rank; combine keeps the rightmost non-empty.
struct Boundary {
  double value = 0.0;
  std::uint8_t has = 0;
};

struct RightmostOp {
  Boundary operator()(const Boundary& left, const Boundary& right) const {
    return right.has != 0 ? right : left;
  }
};

// Attribute lists live as structure-of-arrays columns. `cols_next` is the
// regroup double-buffer: PerformSplitII writes the next level's layout into
// it and swaps, so its vectors' capacity is reused and steady-state levels
// allocate nothing.
struct ContList {
  int attribute = -1;
  ContinuousColumns cols;
  ContinuousColumns cols_next;
  std::vector<std::size_t> offsets;  // per-active-node segment bounds
  std::vector<std::int32_t> child;   // per-entry child slot (split phases)
  util::ScopedAllocation mem;
};

struct CatList {
  int attribute = -1;
  std::int32_t cardinality = 0;
  int coordinator = 0;  // rank that reduces/owns this attribute's matrices
  CategoricalColumns cols;
  CategoricalColumns cols_next;
  std::vector<std::size_t> offsets;
  std::vector<std::int32_t> child;
  util::ScopedAllocation mem;
  // Coordinator-only: this level's global count matrices, laid out
  // [active node][value][class].
  std::vector<std::int64_t> global_counts;
};

}  // namespace

InductionResult induce_tree_distributed(mp::Comm& comm,
                                        const data::Dataset& local_block,
                                        std::int64_t first_rid,
                                        std::uint64_t total_records,
                                        const InductionControls& controls) {
  const InductionOptions& options = controls.options;
  const data::Schema& schema = local_block.schema();
  const int p = comm.size();
  const int c = schema.num_classes();

  // Histogram/voting modes run on a horizontal record partition with their
  // own level loop (same tree/checkpoint artifacts, O(bins) instead of
  // O(N/p) per-level communication).
  if (options.split_mode != SplitMode::kExact) {
    return induce_tree_quantized(comm, local_block, first_rid, total_records,
                                 controls);
  }
  internal::validate_controls("induce_tree_distributed", total_records,
                              controls);

  const bool resuming = controls.checkpoint.resume;
  const std::string& ckpt_root = controls.checkpoint.directory;
  const bool checkpointing = !ckpt_root.empty();

  // SPMD argument consistency: every rank must pass the same total, schema
  // and options. A mismatch would otherwise corrupt results silently (e.g.
  // misaligned count-matrix reductions), so fingerprint and compare. The
  // fingerprint doubles as the checkpoint compatibility stamp: a resume
  // under different parameters could not reproduce the tree, so manifests
  // record it and the restore path rejects a mismatch.
  // Setup phase span: Presort (sort + root histogram) on a fresh run, the
  // checkpoint restore on a resume. Ends where the level loop begins.
  std::optional<PhaseSpan> setup_span(
      std::in_place, comm, resuming ? "checkpoint_restore" : "presort");
  const std::uint64_t fp = internal::induction_fingerprint(
      schema, total_records, options, controls.strategy);
  internal::verify_spmd_fingerprint(comm, fp);

  InductionResult result;
  result.tree = DecisionTree(schema);
  InductionStats& stats = result.stats;

  // -------------------------------------------------------------------------
  // Build the local fragments of all attribute lists.
  // -------------------------------------------------------------------------
  std::vector<ContList> cont_lists;
  std::vector<CatList> cat_lists;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind == AttributeKind::kContinuous) {
      ContList list;
      list.attribute = a;
      if (!resuming) {
        list.cols = data::build_continuous_columns(local_block, a, first_rid);
      }
      cont_lists.push_back(std::move(list));
    } else {
      CatList list;
      list.attribute = a;
      list.cardinality = schema.attribute(a).cardinality;
      list.coordinator = a % p;
      if (!resuming) {
        list.cols = data::build_categorical_columns(local_block, a, first_rid);
      }
      cat_lists.push_back(std::move(list));
    }
  }

  std::vector<ActiveNode> active;
  int level_index = 0;

  if (!resuming) {
    // Presort: sample sort every continuous list, then shift back to equal
    // fragments so per-rank load stays balanced.
    const std::vector<std::size_t> equal_sizes =
        sort::equal_partition_sizes(total_records, p);
    for (ContList& list : cont_lists) {
      list.cols = sort::sample_sort_columns(comm, std::move(list.cols));
      list.cols = sort::rebalance_columns(comm, std::move(list.cols),
                                          equal_sizes);
      list.mem = util::ScopedAllocation(comm.meter(),
                                        util::MemCategory::kAttributeLists,
                                        list.cols.size_bytes());
    }
    for (CatList& list : cat_lists) {
      list.mem = util::ScopedAllocation(comm.meter(),
                                        util::MemCategory::kAttributeLists,
                                        list.cols.size_bytes());
    }
    active = internal::grow_root(comm, "induce_tree_distributed",
                                 local_block.labels(), total_records, options,
                                 result.tree);

    for (ContList& list : cont_lists) list.offsets = {0, list.cols.size()};
    for (CatList& list : cat_lists) list.offsets = {0, list.cols.size()};
  } else {
    // -----------------------------------------------------------------------
    // Resume: restore the last complete level checkpoint instead of deriving
    // the state from the training data.
    // -----------------------------------------------------------------------
    internal::RestoredLevel saved = internal::restore_level(
        comm, controls.checkpoint, total_records, fp,
        static_cast<int>(cont_lists.size() + cat_lists.size()), result.tree);
    active = std::move(saved.active);
    const std::string& level_dir = saved.dir;
    const CheckpointManifest& manifest = saved.manifest;

    // Checkpoint sections are AoS entries; the columns are rebuilt on the
    // way in.
    const auto install = [&](auto& list, const auto& entries,
                             std::vector<std::size_t> offsets) {
      list.offsets = std::move(offsets);
      list.cols = data::columns_from_entries(std::span(entries));
      list.mem = util::ScopedAllocation(comm.meter(),
                                        util::MemCategory::kAttributeLists,
                                        list.cols.size_bytes());
    };
    if (!saved.repartition) {
      CheckpointRankReader reader(level_dir, comm.rank());
      const auto restore_offsets = [&](const std::string& tag,
                                       std::size_t num_entries) {
        return reader.read_segment_offsets(tag, active.size(), num_entries);
      };
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        const std::string tag = "cont" + std::to_string(li);
        const std::vector<ContinuousEntry> entries =
            reader.read_section<ContinuousEntry>(tag);
        install(cont_lists[li], entries, restore_offsets(tag, entries.size()));
      }
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        const std::string tag = "cat" + std::to_string(li);
        const std::vector<CategoricalEntry> entries =
            reader.read_section<CategoricalEntry>(tag);
        install(cat_lists[li], entries, restore_offsets(tag, entries.size()));
      }
    } else {
      // Shrink/grow restore: repartition every list written by
      // manifest.ranks ranks across the current p ranks, preserving each
      // node's globally sorted segment (see core/elastic_restore.hpp). The
      // node table below is rebuilt for the current world every run, so its
      // shard moves implicitly.
      const std::span<const double> weights =
          controls.checkpoint.weighted()
              ? std::span<const double>(controls.checkpoint.rank_weights)
              : std::span<const double>{};
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        RestoredList<ContinuousEntry> restored =
            elastic_restore_list<ContinuousEntry>(
                comm, level_dir, manifest.ranks, "cont" + std::to_string(li),
                active.size(), weights);
        install(cont_lists[li], restored.entries, std::move(restored.offsets));
      }
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        RestoredList<CategoricalEntry> restored =
            elastic_restore_list<CategoricalEntry>(
                comm, level_dir, manifest.ranks, "cat" + std::to_string(li),
                active.size(), weights);
        install(cat_lists[li], restored.entries, std::move(restored.offsets));
      }
    }
    level_index = manifest.level;
    stats.levels = manifest.level;
  }

  // Splitting-phase state. ScalParC keeps the rid -> child mapping in a
  // distributed node table (O(N/p) per rank); the SPRINT baseline replicates
  // the full mapping on every rank (O(N) per rank).
  const bool replicated =
      controls.strategy == SplittingStrategy::kReplicatedHash;
  std::optional<NodeTable> node_table;
  std::vector<std::int32_t> replicated_child;
  std::vector<std::uint32_t> replicated_epoch_of;
  std::uint32_t replicated_epoch = 0;
  util::ScopedAllocation replicated_mem;
  if (replicated) {
    replicated_child.assign(total_records, -1);
    replicated_epoch_of.assign(total_records, 0);
    replicated_mem = util::ScopedAllocation(
        comm.meter(), util::MemCategory::kNodeTable,
        total_records * (sizeof(std::int32_t) + sizeof(std::uint32_t)));
  } else {
    node_table.emplace(comm, total_records);
  }
  const std::int64_t default_block = static_cast<std::int64_t>(
      (total_records + static_cast<std::uint64_t>(p) - 1) /
      static_cast<std::uint64_t>(p));
  const std::int64_t update_block = options.node_table_update_block == 0
                                        ? default_block
                                        : options.node_table_update_block;

  struct ReplicatedUpdate {
    std::int64_t rid = 0;
    std::int32_t child = 0;
    std::int32_t pad = 0;
  };
  const auto publish_assignments = [&](std::span<const std::int64_t> rids,
                                       std::span<const std::int32_t> children) {
    if (!replicated) {
      node_table->begin_level();
      node_table->update(rids, children, update_block);
      return;
    }
    ++replicated_epoch;
    std::vector<ReplicatedUpdate> local(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      local[i] = ReplicatedUpdate{rids[i], children[i], 0};
    }
    const std::vector<ReplicatedUpdate> all = mp::allgatherv_concat(
        comm, std::span<const ReplicatedUpdate>(local));
    for (const ReplicatedUpdate& u : all) {
      replicated_child[static_cast<std::size_t>(u.rid)] = u.child;
      replicated_epoch_of[static_cast<std::size_t>(u.rid)] = replicated_epoch;
    }
    comm.add_work(static_cast<double>(local.size() + all.size()));
  };
  const auto lookup_assignments =
      [&](std::span<const std::int64_t> rids) -> std::vector<std::int32_t> {
    if (!replicated) return node_table->enquire(rids);
    std::vector<std::int32_t> out(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      const auto rid = static_cast<std::size_t>(rids[i]);
      if (replicated_epoch_of[rid] != replicated_epoch) {
        throw std::logic_error(
            "induction: record was not assigned a child this level");
      }
      out[i] = replicated_child[rid];
    }
    comm.add_work(static_cast<double>(rids.size()));
    return out;
  };

  // Per-level working storage, hoisted out of the level loop so capacity is
  // reused across levels instead of reallocated (the sizes shrink with the
  // active record count, so the first level's allocation usually suffices).
  const bool fused = options.fuse_collectives;
  mp::CollectiveBatch batch(comm);
  std::vector<std::int64_t> counts_scratch;
  std::vector<Boundary> boundary_scratch;
  std::vector<std::int64_t> local_kid_counts;
  std::vector<std::int64_t> update_rids;
  std::vector<std::int32_t> update_children;
  std::vector<std::int32_t> mapping_scratch;
  std::vector<std::int64_t> enquiry_scratch;
  std::vector<std::size_t> enquiry_begin(cont_lists.size() + cat_lists.size() +
                                         1);
  // Checkpoint sections are AoS entries: the columns are widened into these
  // scratch buffers at write time.
  std::vector<ContinuousEntry> ckpt_cont_scratch;
  std::vector<CategoricalEntry> ckpt_cat_scratch;
  // Per-level arena for the variable-size regroup scratch (segment size /
  // offset / cursor arrays in PerformSplitII). reset() at each level start
  // rewinds without freeing, so after the first level these allocations are
  // pure pointer bumps — together with the hoisted vectors above and the
  // cols_next double-buffers, steady-state levels do no heap allocation.
  util::Arena level_arena;
  // Fused-round segment directories (sized by list count, fixed per run).
  std::vector<std::size_t> cont_count_segs(cont_lists.size());
  std::vector<std::size_t> cont_boundary_segs(cont_lists.size());
  std::vector<std::size_t> cat_segs(cat_lists.size());
  std::vector<std::size_t> map_segs(cat_lists.size());

  // presort_seconds is the setup vtime: Presort (sort + root histogram) on a
  // fresh run, the checkpoint restore on a resume.
  stats.presort_seconds = comm.vtime();
  setup_span.reset();

  // -------------------------------------------------------------------------
  // Level loop.
  // -------------------------------------------------------------------------
  while (!active.empty()) {
    const std::size_t m = active.size();
    std::int64_t level_records = 0;
    for (const ActiveNode& node : active) level_records += node.total;
    const auto mm = static_cast<std::int64_t>(m);
    // Persist this level's consistent state before processing it; every
    // rank contributes its attribute-list partitions.
    if (checkpointing) {
      const auto write_sections = [&](CheckpointRankWriter& writer) {
        for (std::size_t li = 0; li < cont_lists.size(); ++li) {
          const std::string tag = "cont" + std::to_string(li);
          data::entries_from_columns(cont_lists[li].cols, ckpt_cont_scratch);
          writer.write_section<ContinuousEntry>(tag, ckpt_cont_scratch);
          writer.write_segment_offsets(tag, cont_lists[li].offsets);
        }
        for (std::size_t li = 0; li < cat_lists.size(); ++li) {
          const std::string tag = "cat" + std::to_string(li);
          data::entries_from_columns(cat_lists[li].cols, ckpt_cat_scratch);
          writer.write_section<CategoricalEntry>(tag, ckpt_cat_scratch);
          writer.write_segment_offsets(tag, cat_lists[li].offsets);
        }
      };
      internal::write_level_checkpoint(comm, ckpt_root, level_index,
                                       level_records, result.tree, active,
                                       total_records, fp, write_sections);
    }
    const internal::LevelStart level_start =
        internal::start_level(comm, level_index);
    level_arena.reset();

    // ---------------- FindSplitI + FindSplitII -----------------------------
    std::vector<SplitCandidate> best(m);

    // Local class counts per (node, class) for one continuous list. The
    // loop touches only the class stream (4B/record).
    const auto count_continuous = [&](const ContList& list,
                                      std::vector<std::int64_t>& local_counts) {
      local_counts.assign(m * static_cast<std::size_t>(c), 0);
      const std::int32_t* const cls = list.cols.cls.data();
      for (std::size_t i = 0; i < m; ++i) {
        std::int64_t* const row = local_counts.data() +
                                  i * static_cast<std::size_t>(c);
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          ++row[static_cast<std::size_t>(cls[idx])];
        }
      }
      comm.add_work(static_cast<double>(list.cols.size()));
    };
    // Boundary values: the last attribute value of each node's segment on
    // any earlier rank.
    const auto boundaries_of = [&](const ContList& list,
                                   std::vector<Boundary>& boundary) {
      boundary.assign(m, Boundary{});
      for (std::size_t i = 0; i < m; ++i) {
        if (list.offsets[i + 1] == list.offsets[i]) continue;
        boundary[i] = Boundary{list.cols.values[list.offsets[i + 1] - 1], 1};
      }
    };
    const auto scan_cont_list = [&](const ContList& list,
                                    std::span<const std::int64_t> below_start,
                                    std::span<const Boundary> prev) {
      for (std::size_t i = 0; i < m; ++i) {
        const auto below = below_start.subspan(i * static_cast<std::size_t>(c),
                                               static_cast<std::size_t>(c));
        IncrementalImpurityScanner scanner(active[i].class_totals, below,
                                           options.criterion);
        const std::size_t work = scan_continuous_columns(
            list.cols, list.offsets[i], list.offsets[i + 1], scanner,
            prev[i].has != 0, prev[i].value,
            static_cast<std::int32_t>(list.attribute), best[i]);
        comm.add_work(static_cast<double>(work));
      }
    };

    if (fused) {
      // One packed exscan carries every continuous list's count matrices AND
      // boundary elements: 2A collectives fuse into 1.
      std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                     level_index, mm, level_records);
      batch.reset();
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        count_continuous(cont_lists[li], counts_scratch);
        cont_count_segs[li] = batch.add<std::int64_t>(
            std::span<const std::int64_t>(counts_scratch), mp::SumOp{},
            std::int64_t{0});
        boundaries_of(cont_lists[li], boundary_scratch);
        cont_boundary_segs[li] = batch.add<Boundary>(
            std::span<const Boundary>(boundary_scratch), RightmostOp{},
            Boundary{});
      }
      phase->set_bytes(static_cast<std::int64_t>(batch.packed_bytes()));
      util::ScopedAllocation counts_mem(comm.meter(),
                                        util::MemCategory::kCountMatrices,
                                        2 * batch.packed_bytes());
      batch.exscan();
      phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        scan_cont_list(cont_lists[li],
                       batch.view<std::int64_t>(cont_count_segs[li]),
                       batch.view<Boundary>(cont_boundary_segs[li]));
      }
    } else {
      for (ContList& list : cont_lists) {
        std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                       level_index, mm, level_records);
        count_continuous(list, counts_scratch);
        util::ScopedAllocation counts_mem(
            comm.meter(), util::MemCategory::kCountMatrices,
            2 * counts_scratch.size() * sizeof(std::int64_t));
        const std::vector<std::int64_t> below_start = mp::exscan_vec(
            comm, std::span<const std::int64_t>(counts_scratch), mp::SumOp{},
            std::int64_t{0});
        boundaries_of(list, boundary_scratch);
        const std::vector<Boundary> prev = mp::exscan_vec(
            comm, std::span<const Boundary>(boundary_scratch), RightmostOp{},
            Boundary{});
        phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
        scan_cont_list(list, below_start, prev);
      }
    }

    const auto count_categorical = [&](const CatList& list,
                                       std::vector<std::int64_t>& local_counts) {
      const std::size_t card = static_cast<std::size_t>(list.cardinality);
      local_counts.assign(m * card * static_cast<std::size_t>(c), 0);
      const std::int32_t* const values = list.cols.values.data();
      const std::int32_t* const cls = list.cols.cls.data();
      for (std::size_t i = 0; i < m; ++i) {
        std::int64_t* const block =
            local_counts.data() + i * card * static_cast<std::size_t>(c);
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          ++block[static_cast<std::size_t>(values[idx]) *
                      static_cast<std::size_t>(c) +
                  static_cast<std::size_t>(cls[idx])];
        }
      }
      comm.add_work(static_cast<double>(list.cols.size()));
    };
    // Evaluates one categorical list's candidates from list.global_counts
    // (callable only on the list's coordinator, where the global matrices
    // live).
    const auto eval_categorical = [&](CatList& list) {
      const std::size_t card = static_cast<std::size_t>(list.cardinality);
      for (std::size_t i = 0; i < m; ++i) {
        const CountMatrix matrix = CountMatrix::from_flat(
            list.cardinality, c,
            std::span<const std::int64_t>(list.global_counts)
                .subspan(i * card * static_cast<std::size_t>(c),
                         card * static_cast<std::size_t>(c)));
        const SplitCandidate candidate = best_categorical_split(
            matrix, static_cast<std::int32_t>(list.attribute),
            options.categorical_split, options.criterion);
        if (candidate_less(candidate, best[i])) best[i] = candidate;
      }
    };

    if (fused) {
      // One packed round makes every categorical list's count matrices
      // global: A collectives fuse into 1 (reduce_rooted carries each
      // matrix to its own coordinator).
      std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                     level_index, mm, level_records);
      batch.reset();
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        count_categorical(cat_lists[li], counts_scratch);
        cat_segs[li] = batch.add<std::int64_t>(
            std::span<const std::int64_t>(counts_scratch), mp::SumOp{},
            std::int64_t{0}, cat_lists[li].coordinator);
      }
      phase->set_bytes(static_cast<std::int64_t>(batch.packed_bytes()));
      util::ScopedAllocation counts_mem(comm.meter(),
                                        util::MemCategory::kCountMatrices,
                                        batch.packed_bytes());
      batch.reduce_rooted();
      phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        CatList& list = cat_lists[li];
        if (comm.rank() == list.coordinator) {
          list.global_counts = batch.take<std::int64_t>(cat_segs[li]);
          eval_categorical(list);
        } else {
          list.global_counts.clear();
        }
      }
    } else {
      for (CatList& list : cat_lists) {
        std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                       level_index, mm, level_records);
        count_categorical(list, counts_scratch);
        util::ScopedAllocation counts_mem(
            comm.meter(), util::MemCategory::kCountMatrices,
            counts_scratch.size() * sizeof(std::int64_t));
        std::vector<std::int64_t> global = mp::reduce_vec(
            comm, std::span<const std::int64_t>(counts_scratch), mp::SumOp{},
            list.coordinator);
        phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
        if (comm.rank() == list.coordinator) {
          list.global_counts = std::move(global);
          eval_categorical(list);
        } else {
          list.global_counts.clear();
        }
      }
    }

    {
      // The min-allreduce that makes every rank agree on the winning
      // candidate per node — the closing collective of FindSplitII.
      PhaseSpan phase(comm, "findsplit_ii", level_index, mm, level_records);
      best = mp::allreduce_vec(comm, std::span<const SplitCandidate>(best),
                               CandidateMinOp{});
    }
    stats.findsplit_seconds += comm.vtime() - level_start.vtime;
    const double split_phase_start_vtime = comm.vtime();
    std::optional<PhaseSpan> split_span(std::in_place, comm, "performsplit_i",
                                        level_index, mm, level_records);

    // ---------------- Decide which nodes split -----------------------------
    const std::vector<bool> will_split =
        internal::decide_splits(active, best, options);

    // Categorical winners need the value -> child mapping, which only the
    // attribute's coordinator can build (it holds the global matrix).
    std::vector<std::vector<std::int32_t>> value_to_child(m);
    const auto winners_of = [&](const CatList& list) {
      std::vector<std::size_t> winner_nodes;
      for (std::size_t i = 0; i < m; ++i) {
        if (will_split[i] && best[i].attribute == list.attribute) {
          winner_nodes.push_back(i);
        }
      }
      return winner_nodes;
    };
    const auto build_mappings = [&](const CatList& list,
                                    const std::vector<std::size_t>& winner_nodes,
                                    std::vector<std::int32_t>& flat) {
      const std::size_t card = static_cast<std::size_t>(list.cardinality);
      flat.clear();
      flat.reserve(winner_nodes.size() * card);
      for (const std::size_t i : winner_nodes) {
        const CountMatrix matrix = CountMatrix::from_flat(
            list.cardinality, c,
            std::span<const std::int64_t>(list.global_counts)
                .subspan(i * card * static_cast<std::size_t>(c),
                         card * static_cast<std::size_t>(c)));
        const std::vector<std::int32_t> mapping =
            best[i].kind == SplitKind::kCategoricalMultiWay
                ? value_to_child_multiway(matrix)
                : value_to_child_subset(matrix, best[i].subset);
        flat.insert(flat.end(), mapping.begin(), mapping.end());
      }
    };

    if (fused) {
      // All winning mappings travel in one rooted broadcast round. The
      // winner sets and cardinalities are globally known, so every rank can
      // contribute a correctly-sized placeholder for segments it doesn't own.
      batch.reset();
      std::vector<std::vector<std::size_t>> winners(cat_lists.size());
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        const CatList& list = cat_lists[li];
        winners[li] = winners_of(list);
        if (winners[li].empty()) continue;
        const std::size_t card = static_cast<std::size_t>(list.cardinality);
        if (comm.rank() == list.coordinator) {
          build_mappings(list, winners[li], mapping_scratch);
        } else {
          mapping_scratch.assign(winners[li].size() * card, 0);
        }
        map_segs[li] = batch.add<std::int32_t>(
            std::span<const std::int32_t>(mapping_scratch), mp::SumOp{},
            std::int32_t{0}, list.coordinator);
      }
      batch.bcast_rooted();  // no-op when no node split on a categorical
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        if (winners[li].empty()) continue;
        const std::size_t card =
            static_cast<std::size_t>(cat_lists[li].cardinality);
        const std::span<const std::int32_t> flat =
            batch.view<std::int32_t>(map_segs[li]);
        for (std::size_t k = 0; k < winners[li].size(); ++k) {
          value_to_child[winners[li][k]].assign(
              flat.begin() + static_cast<std::ptrdiff_t>(k * card),
              flat.begin() + static_cast<std::ptrdiff_t>((k + 1) * card));
        }
      }
    } else {
      for (CatList& list : cat_lists) {
        const std::vector<std::size_t> winner_nodes = winners_of(list);
        if (winner_nodes.empty()) continue;
        const std::size_t card = static_cast<std::size_t>(list.cardinality);
        std::vector<std::int32_t> flat;
        if (comm.rank() == list.coordinator) {
          build_mappings(list, winner_nodes, flat);
        }
        mp::bcast(comm, flat, list.coordinator);
        if (flat.size() != winner_nodes.size() * card) {
          throw std::logic_error("induction: bad value_to_child broadcast");
        }
        for (std::size_t k = 0; k < winner_nodes.size(); ++k) {
          value_to_child[winner_nodes[k]].assign(
              flat.begin() + static_cast<std::ptrdiff_t>(k * card),
              flat.begin() + static_cast<std::ptrdiff_t>((k + 1) * card));
        }
      }
    }

    const internal::ChildLayout layout =
        internal::layout_children(best, will_split, value_to_child, c);
    const std::vector<std::size_t>& kid_offset = layout.kid_offset;

    // ---------------- PerformSplitI ----------------------------------------
    // Assign child slots on the splitting attributes' own lists, collect the
    // node-table updates, and count (node, child, class) locally.
    local_kid_counts.assign(kid_offset[m], 0);
    update_rids.clear();
    update_children.clear();

    // Queues node i's freshly assigned segment for the node table and counts
    // its records per (child, class).
    const auto record_assignments = [&](const auto& list, std::size_t i) {
      for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
           ++idx) {
        const std::int32_t kid = list.child[idx];
        update_rids.push_back(list.cols.rids[idx]);
        update_children.push_back(kid);
        ++local_kid_counts[kid_offset[i] +
                           static_cast<std::size_t>(kid) *
                               static_cast<std::size_t>(c) +
                           static_cast<std::size_t>(list.cols.cls[idx])];
      }
      comm.add_work(static_cast<double>(list.offsets[i + 1] - list.offsets[i]));
    };
    for (ContList& list : cont_lists) {
      list.child.assign(list.cols.size(), -1);
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i] || best[i].attribute != list.attribute) continue;
        const std::size_t off = list.offsets[i];
        const std::size_t len = list.offsets[i + 1] - off;
        assign_children_continuous(
            std::span<const double>(list.cols.values.data() + off, len),
            best[i].threshold,
            std::span<std::int32_t>(list.child.data() + off, len));
        record_assignments(list, i);
      }
    }
    for (CatList& list : cat_lists) {
      list.child.assign(list.cols.size(), -1);
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i] || best[i].attribute != list.attribute) continue;
        const std::size_t off = list.offsets[i];
        const std::size_t len = list.offsets[i + 1] - off;
        assign_children_categorical(
            std::span<const std::int32_t>(list.cols.values.data() + off, len),
            value_to_child[i],
            std::span<std::int32_t>(list.child.data() + off, len));
        record_assignments(list, i);
      }
    }

    const std::vector<std::int64_t> global_kid_counts =
        internal::reduce_kid_counts(comm, batch, local_kid_counts, fused);

    // Create the children in the tree (identically on every rank) and build
    // the next level's active set (shared with the quantized engine).
    internal::LevelGrowth growth = internal::grow_tree_level(
        result.tree, active, best, will_split, layout, value_to_child,
        global_kid_counts, c, options);
    std::vector<ActiveNode>& next_active = growth.next_active;
    std::vector<std::vector<int>>& child_slot_target =
        growth.child_slot_target;

    // Scatter this level's rid -> child assignments.
    split_span->set_bytes(static_cast<std::int64_t>(
        update_rids.size() * (sizeof(std::int64_t) + sizeof(std::int32_t))));
    publish_assignments(update_rids, update_children);
    split_span.emplace(comm, "performsplit_ii", level_index, mm,
                       level_records);

    // ---------------- PerformSplitII ---------------------------------------
    // For every list: enquire children for segments whose node split on a
    // different attribute, then rebuild the list grouped by the next level's
    // active nodes (dropping records that landed in leaves). On the fused
    // path every list's enquiry travels in ONE node-table lookup per level;
    // unfused issues one lookup (two all-to-all rounds) per list.
    const auto collect_enquiry = [&](const auto& list,
                                     std::vector<std::int64_t>& rids) {
      for (std::size_t i = 0; i < m; ++i) {
        // The splitting attribute's own list was assigned in PerformSplitI.
        if (!will_split[i] || best[i].attribute == list.attribute) continue;
        rids.insert(rids.end(), list.cols.rids.begin() + list.offsets[i],
                    list.cols.rids.begin() + list.offsets[i + 1]);
      }
    };
    const auto apply_and_regroup = [&](auto& list,
                                       std::span<const std::int32_t> answers) {
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i] || best[i].attribute == list.attribute) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1]; ++idx) {
          list.child[idx] = answers[cursor++];
        }
      }
      if (cursor != answers.size()) {
        throw std::logic_error("induction: enquiry answer count mismatch");
      }

      const std::size_t old_size = list.cols.size();

      // Stable grouped placement into the next level's layout. The
      // size/offset/cursor scratch comes from the level arena and the records
      // land in the cols_next double-buffer — no heap traffic once capacities
      // have warmed up.
      std::span<std::size_t> new_sizes =
          level_arena.alloc_zeroed<std::size_t>(next_active.size());
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i]) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          const int target =
              child_slot_target[i][static_cast<std::size_t>(list.child[idx])];
          if (target >= 0) ++new_sizes[static_cast<std::size_t>(target)];
        }
      }
      std::span<std::size_t> new_offsets =
          level_arena.alloc<std::size_t>(next_active.size() + 1);
      std::span<std::size_t> cursors =
          level_arena.alloc<std::size_t>(next_active.size());
      new_offsets[0] = 0;
      for (std::size_t t = 0; t < next_active.size(); ++t) {
        new_offsets[t + 1] = new_offsets[t] + new_sizes[t];
        cursors[t] = new_offsets[t];
      }
      list.cols_next.resize(new_offsets.back());
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i]) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          const int target =
              child_slot_target[i][static_cast<std::size_t>(list.child[idx])];
          if (target >= 0) {
            list.cols_next.set(cursors[static_cast<std::size_t>(target)]++,
                               list.cols, idx);
          }
        }
      }
      std::swap(list.cols, list.cols_next);
      list.offsets.assign(new_offsets.begin(), new_offsets.end());
      list.mem.resize(list.cols.size_bytes());
      comm.add_work(static_cast<double>(old_size));
      list.child.clear();
      list.child.shrink_to_fit();
    };

    if (fused) {
      enquiry_scratch.clear();
      std::size_t li = 0;
      for (const ContList& list : cont_lists) {
        enquiry_begin[li++] = enquiry_scratch.size();
        collect_enquiry(list, enquiry_scratch);
      }
      for (const CatList& list : cat_lists) {
        enquiry_begin[li++] = enquiry_scratch.size();
        collect_enquiry(list, enquiry_scratch);
      }
      enquiry_begin[li] = enquiry_scratch.size();
      split_span->set_bytes(static_cast<std::int64_t>(enquiry_scratch.size() *
                                                      sizeof(std::int64_t)));
      const std::vector<std::int32_t> answers =
          lookup_assignments(enquiry_scratch);
      const std::span<const std::int32_t> all(answers);
      li = 0;
      for (ContList& list : cont_lists) {
        apply_and_regroup(list, all.subspan(enquiry_begin[li],
                                            enquiry_begin[li + 1] -
                                                enquiry_begin[li]));
        ++li;
      }
      for (CatList& list : cat_lists) {
        apply_and_regroup(list, all.subspan(enquiry_begin[li],
                                            enquiry_begin[li + 1] -
                                                enquiry_begin[li]));
        ++li;
      }
    } else {
      const auto rebuild = [&](auto& list) {
        enquiry_scratch.clear();
        collect_enquiry(list, enquiry_scratch);
        const std::vector<std::int32_t> answers =
            lookup_assignments(enquiry_scratch);
        apply_and_regroup(list, answers);
      };
      for (ContList& list : cont_lists) rebuild(list);
      for (CatList& list : cat_lists) rebuild(list);
    }

    // ---------------- Level bookkeeping ------------------------------------
    split_span.reset();
    stats.performsplit_seconds += comm.vtime() - split_phase_start_vtime;
    internal::finish_level(comm, controls, stats, level_start, level_index, mm,
                           level_records);

    ++level_index;
    active = std::move(next_active);
  }

  internal::finish_induction(comm, stats);
  return result;
}

void absorb_induction_stats(mp::MetricsSnapshot& snapshot,
                            const InductionStats& stats) {
  // The stats are SPMD-identical (or near-identical) across ranks, so every
  // family is a max-merged gauge: folding p copies yields the per-run value,
  // not p times it.
  snapshot.gauge_max("induction.presort_seconds", stats.presort_seconds);
  snapshot.gauge_max("induction.findsplit_seconds", stats.findsplit_seconds);
  snapshot.gauge_max("induction.performsplit_seconds",
                     stats.performsplit_seconds);
  snapshot.gauge_max("induction.total_seconds", stats.total_seconds);
  snapshot.gauge_max("induction.levels", static_cast<double>(stats.levels));
  snapshot.gauge_max("induction.split_mode",
                     static_cast<double>(stats.split_mode));
  std::int64_t collective_calls = 0;
  std::uint64_t max_bytes = 0;
  std::int64_t max_nodes = 0;
  std::int64_t max_records = 0;
  for (const LevelStats& level : stats.per_level) {
    collective_calls += level.collective_calls;
    max_bytes = std::max(max_bytes, level.max_bytes_sent_per_rank);
    max_nodes = std::max(max_nodes, level.active_nodes);
    max_records = std::max(max_records, level.active_records);
  }
  if (!stats.per_level.empty()) {
    snapshot.gauge_max("induction.collective_calls",
                       static_cast<double>(collective_calls));
    snapshot.gauge_max("induction.max_bytes_sent_per_rank_level",
                       static_cast<double>(max_bytes));
    snapshot.gauge_max("induction.max_active_nodes",
                       static_cast<double>(max_nodes));
    snapshot.gauge_max("induction.max_active_records",
                       static_cast<double>(max_records));
  }
}

}  // namespace scalparc::core
