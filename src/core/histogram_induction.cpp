#include "core/histogram_induction.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/histogram.hpp"
#include "core/induction_internal.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "data/attribute_list.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"
#include "util/trace.hpp"

namespace scalparc::core {

namespace {

using data::AttributeKind;
using data::CategoricalEntry;
using data::ContinuousEntry;
using internal::ActiveNode;
using internal::PhaseSpan;

// Orders continuous checkpoint entries by (node, value, rid) — the node slot
// rides in the otherwise-unused pad field during the write — reproducing the
// exact engine's on-disk layout: node segments in slot order, each globally
// sorted by (value, rid).
struct ContCkptLess {
  bool operator()(const ContinuousEntry& a, const ContinuousEntry& b) const {
    if (a.pad != b.pad) return a.pad < b.pad;
    if (a.value != b.value) return a.value < b.value;
    return a.rid < b.rid;
  }
};

// Categorical checkpoint entry widened with its node slot for the sort; the
// exact engine keeps categorical segments in ascending-rid order, so sort by
// (node, rid) and strip the key before writing.
struct CatKeyedEntry {
  std::int64_t rid = 0;
  std::int32_t value = 0;
  std::int32_t cls = 0;
  std::int32_t node = 0;
  std::int32_t pad = 0;
};

struct CatKeyedLess {
  bool operator()(const CatKeyedEntry& a, const CatKeyedEntry& b) const {
    if (a.node != b.node) return a.node < b.node;
    return a.rid < b.rid;
  }
};

// One attribute value of one record in flight during a checkpoint restore:
// sections are read round-robin by whoever is present and every value is
// routed to the rank owning the record's row in the equal block partition.
struct RowWire {
  double value = 0.0;       // continuous value (slot < num continuous)
  std::int64_t rid = 0;
  std::int32_t slot = 0;    // list index: continuous lists first, then cat
  std::int32_t ivalue = 0;  // categorical code
  std::int32_t cls = 0;
  std::int32_t node = 0;    // active-node index
};

int owner_of_rid(std::int64_t rid, std::uint64_t total, int p) {
  const auto t = static_cast<std::int64_t>(total);
  const std::int64_t base = t / p;
  const std::int64_t extra = t % p;
  const std::int64_t boundary = (base + 1) * extra;
  if (rid < boundary) return static_cast<int>(rid / (base + 1));
  return static_cast<int>(extra + (rid - boundary) / base);
}

}  // namespace

InductionResult induce_tree_quantized(mp::Comm& comm,
                                      const data::Dataset& local_block,
                                      std::int64_t first_rid,
                                      std::uint64_t total_records,
                                      const InductionControls& controls) {
  const InductionOptions& options = controls.options;
  const data::Schema& schema = local_block.schema();
  const int p = comm.size();
  const int c = schema.num_classes();
  const int bins = options.hist_bins;
  const bool voting = options.split_mode == SplitMode::kVoting;

  internal::validate_controls("induce_tree_quantized", total_records,
                              controls);
  if (bins < 2) {
    throw std::invalid_argument("induce_tree_quantized: hist_bins must be >= 2");
  }
  if (voting && options.top_k < 1) {
    throw std::invalid_argument("induce_tree_quantized: top_k must be >= 1");
  }

  const bool resuming = controls.checkpoint.resume;
  const std::string& ckpt_root = controls.checkpoint.directory;
  const bool checkpointing = !ckpt_root.empty();
  if (controls.checkpoint.weighted()) {
    // The quantized engine's record ownership is structural (owner_of_rid
    // tiles [0, total) uniformly), so a weighted restore cannot steer work
    // away from a slow rank here. Reject loudly instead of silently
    // ignoring the rebalance request.
    throw std::invalid_argument(
        "induce_tree_quantized: non-uniform rank_weights are not supported "
        "by the histogram engine (row ownership is structural); use the "
        "exact engine for straggler rebalance");
  }

  std::optional<PhaseSpan> setup_span(
      std::in_place, comm, resuming ? "checkpoint_restore" : "presort");
  const std::uint64_t fp = internal::induction_fingerprint(
      schema, total_records, options, controls.strategy);
  internal::verify_spmd_fingerprint(comm, fp);

  InductionResult result;
  result.tree = DecisionTree(schema);
  InductionStats& stats = result.stats;
  stats.split_mode = options.split_mode;

  // Attribute bookkeeping: continuous and categorical list slots in schema
  // order (matching the exact engine's cont<li>/cat<li> checkpoint tags).
  std::vector<int> cont_attr, cat_attr;
  std::vector<std::int32_t> cat_card;
  const int num_attrs = schema.num_attributes();
  std::vector<int> slot_of_attr(static_cast<std::size_t>(num_attrs), -1);
  std::vector<bool> attr_is_cont(static_cast<std::size_t>(num_attrs), false);
  for (int a = 0; a < num_attrs; ++a) {
    if (schema.attribute(a).kind == AttributeKind::kContinuous) {
      slot_of_attr[static_cast<std::size_t>(a)] =
          static_cast<int>(cont_attr.size());
      attr_is_cont[static_cast<std::size_t>(a)] = true;
      cont_attr.push_back(a);
    } else {
      slot_of_attr[static_cast<std::size_t>(a)] =
          static_cast<int>(cat_attr.size());
      cat_attr.push_back(a);
      cat_card.push_back(schema.attribute(a).cardinality);
    }
  }
  const std::size_t num_cont = cont_attr.size();
  const std::size_t num_cat = cat_attr.size();
  const auto ubins = static_cast<std::size_t>(bins);
  const auto uc = static_cast<std::size_t>(c);

  // The horizontal record block: one column per attribute plus the label
  // stream, and node_of mapping each local row to its current active-node
  // index (-1 once the row lands in a leaf).
  std::vector<std::vector<double>> cont_col(num_cont);
  std::vector<std::vector<std::int32_t>> cat_col(num_cat);
  std::vector<std::int32_t> row_cls;
  std::vector<std::int32_t> node_of;
  std::int64_t my_first = first_rid;
  util::ScopedAllocation rows_mem;

  const auto meter_rows = [&] {
    const std::size_t n = row_cls.size();
    rows_mem = util::ScopedAllocation(
        comm.meter(), util::MemCategory::kAttributeLists,
        n * (num_cont * sizeof(double) + num_cat * sizeof(std::int32_t) +
             2 * sizeof(std::int32_t)));
  };

  std::vector<ActiveNode> active;
  int level_index = 0;

  if (!resuming) {
    const std::size_t local_n = local_block.num_records();
    for (std::size_t li = 0; li < num_cont; ++li) {
      const std::span<const double> col =
          local_block.continuous_column(cont_attr[li]);
      cont_col[li].assign(col.begin(), col.end());
    }
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::span<const std::int32_t> col =
          local_block.categorical_column(cat_attr[li]);
      cat_col[li].assign(col.begin(), col.end());
    }
    row_cls.assign(local_block.labels().begin(), local_block.labels().end());
    meter_rows();

    active = internal::grow_root(comm, "induce_tree_quantized", row_cls,
                                 total_records, options, result.tree);
    comm.add_work(static_cast<double>(local_n));
    node_of.assign(local_n, active.empty() ? -1 : 0);
  } else {
    // -----------------------------------------------------------------------
    // Resume. Checkpoints are written as sorted vertical attribute-list
    // sections (the shared on-disk format); reconstruct the horizontal rows
    // by reading the writer ranks' sections round-robin and routing every
    // value to the rank owning its record in the equal block partition.
    // This one path serves same-world, shrink and grow resumes alike, and
    // accepts checkpoints written by either engine.
    // -----------------------------------------------------------------------
    internal::RestoredLevel saved = internal::restore_level(
        comm, controls.checkpoint, total_records, fp,
        static_cast<int>(num_cont + num_cat), result.tree);
    active = std::move(saved.active);

    // Equal block partition of [0, total) across the current world.
    const std::vector<std::size_t> sizes =
        sort::equal_partition_sizes(total_records, p);
    const std::vector<std::size_t> block_offsets =
        sort::offsets_from_sizes(sizes);
    my_first = static_cast<std::int64_t>(
        block_offsets[static_cast<std::size_t>(comm.rank())]);
    const std::size_t local_n = sizes[static_cast<std::size_t>(comm.rank())];
    for (std::size_t li = 0; li < num_cont; ++li) {
      cont_col[li].assign(local_n, 0.0);
    }
    for (std::size_t li = 0; li < num_cat; ++li) cat_col[li].assign(local_n, 0);
    row_cls.assign(local_n, 0);
    node_of.assign(local_n, -1);
    std::vector<std::uint16_t> seen(local_n, 0);
    meter_rows();

    std::vector<std::vector<RowWire>> sendbufs(static_cast<std::size_t>(p));
    // Routes one section's entries to the owners of their rows; `fill` sets
    // the list slot and the attribute value.
    const auto route = [&](const auto& entries,
                           const std::vector<std::size_t>& offs, auto fill) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        for (std::size_t idx = offs[i]; idx < offs[i + 1]; ++idx) {
          RowWire w;
          fill(entries[idx], w);
          w.rid = entries[idx].rid;
          w.cls = entries[idx].cls;
          w.node = static_cast<std::int32_t>(i);
          sendbufs[static_cast<std::size_t>(
                       owner_of_rid(w.rid, total_records, p))]
              .push_back(w);
        }
      }
    };
    for (int writer = comm.rank(); writer < saved.manifest.ranks; writer += p) {
      CheckpointRankReader reader(saved.dir, writer);
      for (std::size_t li = 0; li < num_cont; ++li) {
        const std::string tag = "cont" + std::to_string(li);
        const std::vector<ContinuousEntry> entries =
            reader.read_section<ContinuousEntry>(tag);
        route(entries,
              reader.read_segment_offsets(tag, active.size(), entries.size()),
              [&](const ContinuousEntry& e, RowWire& w) {
                w.value = e.value;
                w.slot = static_cast<std::int32_t>(li);
              });
      }
      for (std::size_t li = 0; li < num_cat; ++li) {
        const std::string tag = "cat" + std::to_string(li);
        const std::vector<CategoricalEntry> entries =
            reader.read_section<CategoricalEntry>(tag);
        route(entries,
              reader.read_segment_offsets(tag, active.size(), entries.size()),
              [&](const CategoricalEntry& e, RowWire& w) {
                w.ivalue = e.value;
                w.slot = static_cast<std::int32_t>(num_cont + li);
              });
      }
    }

    const std::vector<std::vector<RowWire>> received =
        mp::alltoallv(comm, std::move(sendbufs));
    std::size_t arrived = 0;
    for (const std::vector<RowWire>& from : received) {
      for (const RowWire& w : from) {
        const std::int64_t row64 = w.rid - my_first;
        if (row64 < 0 || row64 >= static_cast<std::int64_t>(local_n)) {
          throw CheckpointCorruptError("restored rid outside this rank's block");
        }
        const auto row = static_cast<std::size_t>(row64);
        const auto slot = static_cast<std::size_t>(w.slot);
        if (slot < num_cont) {
          cont_col[slot][row] = w.value;
        } else if (slot < num_cont + num_cat) {
          cat_col[slot - num_cont][row] = w.ivalue;
        } else {
          throw CheckpointCorruptError("restored value names a bad list slot");
        }
        row_cls[row] = w.cls;
        if (node_of[row] < 0) {
          node_of[row] = w.node;
        } else if (node_of[row] != w.node) {
          throw CheckpointCorruptError(
              "restored record is assigned to two active nodes");
        }
        ++seen[row];
        ++arrived;
      }
    }
    comm.add_work(static_cast<double>(arrived));
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::size_t expect = node_of[row] >= 0 ? num_cont + num_cat : 0;
      if (seen[row] != expect) {
        throw CheckpointCorruptError(
            "restored record is missing attribute values");
      }
    }
    level_index = saved.manifest.level;
    stats.levels = saved.manifest.level;
  }

  // Per-level scratch, hoisted so capacity is reused across levels.
  mp::CollectiveBatch batch(comm);
  std::vector<ValueRange> ranges_scratch;
  std::vector<ValueRange> ranges;
  std::vector<WireCount> cont_counts;      // [li][node][bin][class]
  std::vector<double> cont_bin_min;        // [li][node][bin]
  std::vector<WireCount> cat_counts;       // per list: [node][value][class]
  std::vector<std::size_t> cat_counts_begin(num_cat + 1);
  std::vector<std::int64_t> local_totals;  // [node][class], voting only
  std::vector<std::int32_t> votes;         // [node][attribute], voting only
  std::vector<std::uint8_t> elected_mask;  // [node][attribute]
  std::vector<std::vector<std::size_t>> elected_nodes(num_cont + num_cat);
  std::vector<WireCount> merge_counts_scratch;  // voting gather
  std::vector<double> merge_min_scratch;
  // This rank's owner slices: segment ids, and per list the position of
  // its first node within elected_nodes.
  std::vector<std::size_t> seg_counts(num_cont), seg_min(num_cont);
  std::vector<std::size_t> seg_cat(num_cat);
  std::vector<std::size_t> owned_first(num_cont + num_cat);
  std::vector<std::int32_t> mapping_scratch;
  std::vector<std::size_t> map_segs;  // per owner, its mapping segment
  std::vector<WireCount> local_kid_counts;
  std::vector<std::int32_t> child_of_row(node_of.size(), -1);
  std::uint64_t histogram_bytes_total = 0;
  std::uint64_t vote_bytes_total = 0;

  // presort_seconds is the setup vtime: Presort on a fresh run, the
  // checkpoint restore on a resume (the same rule as the exact engine).
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
    const auto local_n = row_cls.size();

    if (checkpointing) {
      // Same collective write protocol and on-disk format as the exact
      // engine: this engine's rows are widened back into per-attribute
      // sorted AoS sections (one parallel sort per list), so any engine /
      // world size can restore the result.
      const auto write_sections = [&](CheckpointRankWriter& writer) {
        std::vector<std::size_t> offs;
        const auto offsets_of = [&](auto node_of_entry, std::size_t count) {
          offs.assign(m + 1, 0);
          for (std::size_t k = 0; k < count; ++k) {
            ++offs[static_cast<std::size_t>(node_of_entry(k)) + 1];
          }
          for (std::size_t i = 0; i < m; ++i) offs[i + 1] += offs[i];
        };
        for (std::size_t li = 0; li < num_cont; ++li) {
          std::vector<ContinuousEntry> ent;
          ent.reserve(local_n);
          for (std::size_t row = 0; row < local_n; ++row) {
            if (node_of[row] < 0) continue;
            ContinuousEntry e;
            e.value = cont_col[li][row];
            e.rid = my_first + static_cast<std::int64_t>(row);
            e.cls = row_cls[row];
            e.pad = node_of[row];
            ent.push_back(e);
          }
          ent = sort::sample_sort(comm, std::move(ent), ContCkptLess{});
          offsets_of([&](std::size_t k) { return ent[k].pad; }, ent.size());
          for (ContinuousEntry& e : ent) e.pad = 0;
          const std::string tag = "cont" + std::to_string(li);
          writer.write_section<ContinuousEntry>(tag, ent);
          writer.write_segment_offsets(tag, offs);
        }
        for (std::size_t li = 0; li < num_cat; ++li) {
          std::vector<CatKeyedEntry> keyed;
          keyed.reserve(local_n);
          for (std::size_t row = 0; row < local_n; ++row) {
            if (node_of[row] < 0) continue;
            CatKeyedEntry e;
            e.rid = my_first + static_cast<std::int64_t>(row);
            e.value = cat_col[li][row];
            e.cls = row_cls[row];
            e.node = node_of[row];
            keyed.push_back(e);
          }
          keyed = sort::sample_sort(comm, std::move(keyed), CatKeyedLess{});
          offsets_of([&](std::size_t k) { return keyed[k].node; },
                     keyed.size());
          std::vector<CategoricalEntry> ent(keyed.size());
          for (std::size_t k = 0; k < keyed.size(); ++k) {
            ent[k] =
                CategoricalEntry{keyed[k].rid, keyed[k].value, keyed[k].cls};
          }
          const std::string tag = "cat" + std::to_string(li);
          writer.write_section<CategoricalEntry>(tag, ent);
          writer.write_segment_offsets(tag, offs);
        }
      };
      internal::write_level_checkpoint(comm, ckpt_root, level_index,
                                       level_records, result.tree, active,
                                       total_records, fp, write_sections);
    }
    const internal::LevelStart level_start =
        internal::start_level(comm, level_index);
    std::uint64_t level_histogram_bytes = 0;
    std::uint64_t level_vote_bytes = 0;

    // ---------------- FindSplitI: ranges, histograms, election -------------
    std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                   level_index, mm, level_records);

    // Round 1: global [lo, hi] per (continuous attribute, node) so every
    // rank bins with the identical edges.
    ranges_scratch.assign(num_cont * m, ValueRange{});
    for (std::size_t li = 0; li < num_cont; ++li) {
      const double* const col = cont_col[li].data();
      ValueRange* const out = ranges_scratch.data() + li * m;
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        ValueRange& r = out[static_cast<std::size_t>(i)];
        const double v = col[row];
        if (v < r.lo) r.lo = v;
        if (v > r.hi) r.hi = v;
      }
      comm.add_work(static_cast<double>(local_n));
    }
    batch.reset();
    const std::size_t seg_ranges = batch.add<ValueRange>(
        std::span<const ValueRange>(ranges_scratch), RangeOp{}, ValueRange{});
    level_histogram_bytes += batch.packed_bytes();
    batch.allreduce();
    ranges = batch.take<ValueRange>(seg_ranges);

    // Local histograms: per continuous list [node][bin][class] counts plus
    // the per-bin minimum value; per categorical list the usual
    // [node][value][class] count matrix.
    cont_counts.assign(num_cont * m * ubins * uc, 0);
    cont_bin_min.assign(num_cont * m * ubins,
                        std::numeric_limits<double>::infinity());
    for (std::size_t li = 0; li < num_cont; ++li) {
      const double* const col = cont_col[li].data();
      const ValueRange* const rng = ranges.data() + li * m;
      WireCount* const counts = cont_counts.data() + li * m * ubins * uc;
      double* const mins = cont_bin_min.data() + li * m * ubins;
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        const auto ui = static_cast<std::size_t>(i);
        const double v = col[row];
        const auto b =
            static_cast<std::size_t>(histogram_bin_of(v, rng[ui], bins));
        ++counts[(ui * ubins + b) * uc +
                 static_cast<std::size_t>(row_cls[row])];
        if (v < mins[ui * ubins + b]) mins[ui * ubins + b] = v;
      }
      comm.add_work(static_cast<double>(local_n));
    }
    cat_counts_begin[0] = 0;
    for (std::size_t li = 0; li < num_cat; ++li) {
      cat_counts_begin[li + 1] =
          cat_counts_begin[li] + m * static_cast<std::size_t>(cat_card[li]) * uc;
    }
    cat_counts.assign(cat_counts_begin[num_cat], 0);
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::int32_t* const col = cat_col[li].data();
      const auto card = static_cast<std::size_t>(cat_card[li]);
      WireCount* const counts = cat_counts.data() + cat_counts_begin[li];
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        ++counts[(static_cast<std::size_t>(i) * card +
                  static_cast<std::size_t>(col[row])) *
                     uc +
                 static_cast<std::size_t>(row_cls[row])];
      }
      comm.add_work(static_cast<double>(local_n));
    }

    // Election: which (node, attribute) histograms get merged. Histogram
    // mode merges everything; voting mode lets each rank vote its local
    // top-k attributes per node, sums the votes in one packed allreduce and
    // keeps the global top-2k (all attributes when nobody could vote, e.g.
    // every rank's local fragment of the node is single-valued).
    elected_mask.assign(m * static_cast<std::size_t>(num_attrs), 1);
    if (voting) {
      local_totals.assign(m * uc, 0);
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        ++local_totals[static_cast<std::size_t>(i) * uc +
                       static_cast<std::size_t>(row_cls[row])];
      }
      comm.add_work(static_cast<double>(local_n));
      votes.assign(m * static_cast<std::size_t>(num_attrs), 0);
      std::vector<std::pair<double, int>> scored;
      for (std::size_t i = 0; i < m; ++i) {
        scored.clear();
        const std::span<const std::int64_t> totals(
            local_totals.data() + i * uc, uc);
        for (std::size_t li = 0; li < num_cont; ++li) {
          SplitCandidate cand;
          best_histogram_split(
              std::span<const WireCount>(
                  cont_counts.data() + (li * m + i) * ubins * uc, ubins * uc),
              std::span<const double>(
                  cont_bin_min.data() + (li * m + i) * ubins, ubins),
              totals, bins, options.criterion,
              static_cast<std::int32_t>(cont_attr[li]), cand);
          if (cand.valid()) scored.emplace_back(cand.gini, cont_attr[li]);
        }
        for (std::size_t li = 0; li < num_cat; ++li) {
          const auto card = static_cast<std::size_t>(cat_card[li]);
          const CountMatrix matrix = CountMatrix::from_flat(
              cat_card[li], c,
              std::span<const WireCount>(
                  cat_counts.data() + cat_counts_begin[li] + i * card * uc,
                  card * uc));
          const SplitCandidate cand = best_categorical_split(
              matrix, static_cast<std::int32_t>(cat_attr[li]),
              options.categorical_split, options.criterion);
          if (cand.valid()) scored.emplace_back(cand.gini, cat_attr[li]);
        }
        std::sort(scored.begin(), scored.end());
        const std::size_t k =
            std::min(scored.size(), static_cast<std::size_t>(options.top_k));
        for (std::size_t s = 0; s < k; ++s) {
          votes[i * static_cast<std::size_t>(num_attrs) +
                static_cast<std::size_t>(scored[s].second)] = 1;
        }
        comm.add_work(static_cast<double>(num_attrs));
      }
      batch.reset();
      const std::size_t vote_seg = batch.add<std::int32_t>(
          std::span<const std::int32_t>(votes), mp::SumOp{}, std::int32_t{0});
      level_vote_bytes += batch.packed_bytes();
      batch.allreduce();
      const std::span<const std::int32_t> vote_totals =
          batch.view<std::int32_t>(vote_seg);

      elected_mask.assign(m * static_cast<std::size_t>(num_attrs), 0);
      std::vector<std::pair<std::int32_t, int>> ranked;
      for (std::size_t i = 0; i < m; ++i) {
        ranked.clear();
        for (int a = 0; a < num_attrs; ++a) {
          const std::int32_t v =
              vote_totals[i * static_cast<std::size_t>(num_attrs) +
                          static_cast<std::size_t>(a)];
          ranked.emplace_back(-v, a);  // by votes desc, ties by attr asc
        }
        std::sort(ranked.begin(), ranked.end());
        // Always elect exactly min(2k, A) attributes: zero-vote attributes
        // (valid globally but never scoreable locally — e.g. every rank's
        // fragment is single-valued) rank after the voted ones in ascending
        // id order, so the merge set stays deterministic and with
        // 2k >= A voting degenerates to histogram mode exactly.
        const std::size_t keep = std::min(
            ranked.size(), static_cast<std::size_t>(2) *
                               static_cast<std::size_t>(options.top_k));
        for (std::size_t s = 0; s < keep; ++s) {
          elected_mask[i * static_cast<std::size_t>(num_attrs) +
                       static_cast<std::size_t>(ranked[s].second)] = 1;
        }
      }
    }

    // Round 2: the owner-sliced merge (PV-Tree's reduce-scatter). Rank r
    // owns the active nodes [own_off[r], own_off[r+1]); each (list, owner)
    // slice of the elected histograms / count matrices is one segment
    // rooted at its owner, so a single reduce_rooted round leaves every
    // owner the merged histograms of exactly its own nodes. Each rank
    // sends and combines (p-1)/p of the level's histograms. The elected
    // sets derive from global data, so every rank builds the identical
    // segment directory.
    for (std::size_t li = 0; li < num_cont + num_cat; ++li) {
      const int attr = li < num_cont ? cont_attr[li] : cat_attr[li - num_cont];
      std::vector<std::size_t>& nodes = elected_nodes[li];
      nodes.clear();
      for (std::size_t i = 0; i < m; ++i) {
        if (elected_mask[i * static_cast<std::size_t>(num_attrs) +
                         static_cast<std::size_t>(attr)]) {
          nodes.push_back(i);
        }
      }
    }
    const std::vector<std::size_t> own_off =
        sort::offsets_from_sizes(sort::equal_partition_sizes(m, p));
    const auto me = static_cast<std::size_t>(comm.rank());
    // Adds `src` — `stride` elements per entry of `nodes` — as one segment
    // per owner. Returns this rank's segment and stores the position of its
    // first node within `nodes` in `first`.
    const auto add_owner_slices =
        [&]<typename T, typename Op>(const std::vector<std::size_t>& nodes,
                                     const T* src, std::size_t stride, Op op,
                                     T identity, std::size_t& first) {
          std::size_t mine = 0;
          for (int r = 0; r < p; ++r) {
            const auto ur = static_cast<std::size_t>(r);
            const auto lo = static_cast<std::size_t>(
                std::lower_bound(nodes.begin(), nodes.end(), own_off[ur]) -
                nodes.begin());
            const auto hi = static_cast<std::size_t>(
                std::lower_bound(nodes.begin(), nodes.end(), own_off[ur + 1]) -
                nodes.begin());
            const std::size_t seg = batch.add<T>(
                std::span<const T>(src + lo * stride, (hi - lo) * stride), op,
                identity, r);
            if (ur == me) {
              mine = seg;
              first = lo;
            }
          }
          return mine;
        };
    // Owner slices of a list whose every node is elected (always in
    // histogram mode) are contiguous in the local histograms; a voting
    // election first gathers the elected nodes' rows.
    batch.reset();
    for (std::size_t li = 0; li < num_cont; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[li];
      const WireCount* counts = cont_counts.data() + li * m * ubins * uc;
      const double* mins = cont_bin_min.data() + li * m * ubins;
      if (nodes.size() != m) {
        merge_counts_scratch.resize(nodes.size() * ubins * uc);
        merge_min_scratch.resize(nodes.size() * ubins);
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          std::copy_n(counts + nodes[k] * ubins * uc, ubins * uc,
                      merge_counts_scratch.data() + k * ubins * uc);
          std::copy_n(mins + nodes[k] * ubins, ubins,
                      merge_min_scratch.data() + k * ubins);
        }
        counts = merge_counts_scratch.data();
        mins = merge_min_scratch.data();
      }
      seg_counts[li] = add_owner_slices(nodes, counts, ubins * uc, mp::SumOp{},
                                        WireCount{0}, owned_first[li]);
      seg_min[li] = add_owner_slices(nodes, mins, ubins, mp::MinOp{},
                                     std::numeric_limits<double>::infinity(),
                                     owned_first[li]);
    }
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[num_cont + li];
      const std::size_t stride = static_cast<std::size_t>(cat_card[li]) * uc;
      const WireCount* counts = cat_counts.data() + cat_counts_begin[li];
      if (nodes.size() != m) {
        merge_counts_scratch.resize(nodes.size() * stride);
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          std::copy_n(counts + nodes[k] * stride, stride,
                      merge_counts_scratch.data() + k * stride);
        }
        counts = merge_counts_scratch.data();
      }
      seg_cat[li] =
          add_owner_slices(nodes, counts, stride, mp::SumOp{},
                           WireCount{0}, owned_first[num_cont + li]);
    }
    // Payload of the segments other ranks root: what this rank sends in a
    // rooted reduce, and receives in a rooted broadcast.
    const auto off_rank_bytes = [&] {
      std::size_t bytes = 0;
      for (int r = 0; r < p; ++r) {
        if (r != comm.rank()) bytes += batch.rooted_bytes(r);
      }
      return bytes;
    };
    const std::size_t scattered_bytes = off_rank_bytes();
    phase->set_bytes(static_cast<std::int64_t>(scattered_bytes));
    level_histogram_bytes += scattered_bytes;
    // This level's histogram working set: the local histograms, the voting
    // gather scratch (reused list by list, so its capacity is what it
    // holds) and the packed buffer of the round.
    const util::ScopedAllocation histogram_mem(
        comm.meter(), util::MemCategory::kCountMatrices,
        (cont_counts.size() + cat_counts.size() +
         merge_counts_scratch.capacity()) *
                sizeof(WireCount) +
            (cont_bin_min.size() + merge_min_scratch.capacity()) *
                sizeof(double) +
            batch.packed_bytes());
    {
      // Plus, while the round runs, the p-1 slices this rank receives and
      // combines as the owner of its nodes.
      const util::ScopedAllocation received_mem(
          comm.meter(), util::MemCategory::kCountMatrices,
          static_cast<std::size_t>(p - 1) * batch.rooted_bytes(comm.rank()));
      batch.reduce_rooted();
    }

    // ---------------- FindSplitII: evaluate the owned histograms -----------
    // Each rank scans only its own nodes; every other node keeps the
    // invalid candidate, the identity of the winner merge below.
    phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
    std::vector<SplitCandidate> best(m);
    for (std::size_t li = 0; li < num_cont; ++li) {
      const std::span<const WireCount> counts =
          batch.view<WireCount>(seg_counts[li]);
      const std::span<const double> mins = batch.view<double>(seg_min[li]);
      for (std::size_t k = 0; k < mins.size() / ubins; ++k) {
        const std::size_t i = elected_nodes[li][owned_first[li] + k];
        best_histogram_split(counts.subspan(k * ubins * uc, ubins * uc),
                             mins.subspan(k * ubins, ubins),
                             active[i].class_totals, bins, options.criterion,
                             static_cast<std::int32_t>(cont_attr[li]), best[i]);
        comm.add_work(static_cast<double>(ubins));
      }
    }
    // The merged count matrix of categorical list li at position k of this
    // rank's slice.
    const auto owned_matrix = [&](std::size_t li, std::size_t k) {
      const std::size_t stride = static_cast<std::size_t>(cat_card[li]) * uc;
      return CountMatrix::from_flat(
          cat_card[li], c,
          batch.view<WireCount>(seg_cat[li]).subspan(k * stride, stride));
    };
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[num_cont + li];
      const std::size_t owned =
          batch.view<WireCount>(seg_cat[li]).size() /
          (static_cast<std::size_t>(cat_card[li]) * uc);
      for (std::size_t k = 0; k < owned; ++k) {
        const std::size_t i = nodes[owned_first[num_cont + li] + k];
        const SplitCandidate cand = best_categorical_split(
            owned_matrix(li, k), static_cast<std::int32_t>(cat_attr[li]),
            options.categorical_split, options.criterion);
        if (candidate_less(cand, best[i])) best[i] = cand;
        comm.add_work(static_cast<double>(cat_card[li]));
      }
    }
    // The winner merge: each node's candidate comes from its owner.
    best = mp::allreduce_vec(comm, std::span<const SplitCandidate>(best),
                             CandidateMinOp{});

    const std::vector<bool> will_split =
        internal::decide_splits(active, best, options);

    // Categorical winners: only a node's owner holds its merged count
    // matrix, so owners build the value -> child mappings and publish them
    // in one bcast_rooted round, skipped when no node splits on a
    // categorical attribute. Winners and cardinalities are global, so
    // every rank sizes every owner's segment identically.
    const auto is_cat_winner = [&](std::size_t i) {
      return will_split[i] && best[i].kind != SplitKind::kContinuous;
    };
    const auto cat_slot_of = [&](std::size_t i) {
      return static_cast<std::size_t>(
          slot_of_attr[static_cast<std::size_t>(best[i].attribute)]);
    };
    const auto card_of = [&](std::size_t i) {
      return static_cast<std::size_t>(cat_card[cat_slot_of(i)]);
    };
    std::vector<std::vector<std::int32_t>> value_to_child(m);
    for (std::size_t i = own_off[me]; i < own_off[me + 1]; ++i) {
      if (!is_cat_winner(i)) continue;
      const std::size_t li = cat_slot_of(i);
      const std::vector<std::size_t>& nodes = elected_nodes[num_cont + li];
      const auto k = static_cast<std::size_t>(
          std::lower_bound(nodes.begin(), nodes.end(), i) - nodes.begin());
      const CountMatrix matrix =
          owned_matrix(li, k - owned_first[num_cont + li]);
      value_to_child[i] = best[i].kind == SplitKind::kCategoricalMultiWay
                              ? value_to_child_multiway(matrix)
                              : value_to_child_subset(matrix, best[i].subset);
    }
    batch.reset();
    map_segs.assign(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      mapping_scratch.clear();
      for (std::size_t i = own_off[ur]; i < own_off[ur + 1]; ++i) {
        if (!is_cat_winner(i)) continue;
        if (ur == me) {
          mapping_scratch.insert(mapping_scratch.end(),
                                 value_to_child[i].begin(),
                                 value_to_child[i].end());
        } else {
          mapping_scratch.resize(mapping_scratch.size() + card_of(i), 0);
        }
      }
      if (mapping_scratch.empty()) continue;
      map_segs[ur] = batch.add<std::int32_t>(
          std::span<const std::int32_t>(mapping_scratch), mp::SumOp{},
          std::int32_t{0}, r);
    }
    {
      const util::ScopedAllocation received_mem(
          comm.meter(), util::MemCategory::kCountMatrices, off_rank_bytes());
      batch.bcast_rooted();  // no segments, no round
    }
    for (int r = 0; r < p; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      if (ur == me) continue;
      std::size_t cursor = 0;
      for (std::size_t i = own_off[ur]; i < own_off[ur + 1]; ++i) {
        if (!is_cat_winner(i)) continue;
        const std::span<const std::int32_t> flat =
            batch.view<std::int32_t>(map_segs[ur]);
        value_to_child[i].assign(flat.begin() + cursor,
                                 flat.begin() + cursor + card_of(i));
        cursor += card_of(i);
      }
    }

    stats.findsplit_seconds += comm.vtime() - level_start.vtime;
    const double split_phase_start_vtime = comm.vtime();
    std::optional<PhaseSpan> split_span(std::in_place, comm, "performsplit_i",
                                        level_index, mm, level_records);

    // ---------------- PerformSplitI: apply splits locally ------------------
    // Every attribute of a record lives on this rank, so child assignment
    // is one local pass — no node table, no scatter, no enquiries. The only
    // communication is the child class-count allreduce that makes the new
    // tree nodes global.
    const internal::ChildLayout layout =
        internal::layout_children(best, will_split, value_to_child, c);
    const std::vector<std::size_t>& kid_offset = layout.kid_offset;
    local_kid_counts.assign(kid_offset[m], 0);
    child_of_row.assign(local_n, -1);
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of[row];
      if (i < 0) continue;
      const auto ui = static_cast<std::size_t>(i);
      if (!will_split[ui]) continue;
      const SplitCandidate& win = best[ui];
      const auto slot =
          static_cast<std::size_t>(slot_of_attr[static_cast<std::size_t>(
              win.attribute)]);
      std::int32_t child;
      if (win.kind == SplitKind::kContinuous) {
        child = cont_col[slot][row] < win.threshold ? 0 : 1;
      } else {
        child = value_to_child[ui][static_cast<std::size_t>(
            cat_col[slot][row])];
        if (child < 0) {
          throw std::logic_error(
              "induction: training record with an unmapped categorical value");
        }
      }
      child_of_row[row] = child;
      ++local_kid_counts[kid_offset[ui] +
                         static_cast<std::size_t>(child) * uc +
                         static_cast<std::size_t>(row_cls[row])];
    }
    comm.add_work(static_cast<double>(local_n));

    const std::vector<WireCount> global_kid_counts =
        internal::reduce_kid_counts(comm, batch, local_kid_counts,
                                    /*fused=*/true);

    internal::LevelGrowth growth = internal::grow_tree_level(
        result.tree, active, best, will_split, layout, value_to_child,
        global_kid_counts, c, options);

    split_span.emplace(comm, "performsplit_ii", level_index, mm,
                       level_records);

    // ---------------- PerformSplitII: renumber rows to next level ----------
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of[row];
      if (i < 0) continue;
      const std::int32_t child = child_of_row[row];
      node_of[row] =
          child >= 0
              ? growth.child_slot_target[static_cast<std::size_t>(i)]
                                        [static_cast<std::size_t>(child)]
              : -1;
    }
    comm.add_work(static_cast<double>(local_n));

    // ---------------- Level bookkeeping ------------------------------------
    split_span.reset();
    stats.performsplit_seconds += comm.vtime() - split_phase_start_vtime;
    histogram_bytes_total += level_histogram_bytes;
    vote_bytes_total += level_vote_bytes;
    internal::finish_level(comm, controls, stats, level_start, level_index, mm,
                           level_records);

    ++level_index;
    active = std::move(growth.next_active);
  }

  internal::finish_induction(comm, stats);
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("comm.histogram_bytes",
              static_cast<double>(histogram_bytes_total));
    if (voting) {
      sink->add("comm.vote_bytes", static_cast<double>(vote_bytes_total));
    }
  }
  return result;
}

}  // namespace scalparc::core
