// Randomized property sweeps across generator configurations and seeds.
//
// Each case draws a workload configuration deterministically from its seed
// and checks end-to-end invariants that must hold for ANY input:
//   * processor-count invariance of the induced tree
//   * perfect memorization of noise-free training data
//   * structural invariants (children partition parents exactly)
//   * pruning only shrinks the tree and never invalidates prediction
//   * the root split of tiny inputs has the minimum gini of every candidate,
//     found by brute force without the induction's scanners
//   * the non-commutative boundary exscan the induction relies on
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "core/predict.hpp"
#include "core/pruning.hpp"
#include "core/scalparc.hpp"
#include "data/synthetic.hpp"
#include "mp/collectives.hpp"
#include "mp/runtime.hpp"
#include "sprint/serial_sprint.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

data::GeneratorConfig config_for_seed(std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 13);
  data::GeneratorConfig config;
  config.seed = seed;
  config.function =
      static_cast<data::LabelFunction>(1 + rng.next_below(7));
  config.num_attributes = static_cast<int>(4 + rng.next_below(6));  // 4..9
  config.label_noise = rng.next_bool(0.5) ? 0.0 : 0.08;
  return config;
}

class RandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST_P(RandomWorkload, ProcessorCountInvariance) {
  const data::GeneratorConfig config = config_for_seed(GetParam());
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 350);
  core::InductionControls controls;
  controls.options.max_depth = 10;
  const core::DecisionTree reference =
      core::ScalParC::fit(training, 1, controls, kZero).tree;
  util::Rng rng(GetParam());
  const int p = static_cast<int>(2 + rng.next_below(7));  // 2..8
  const core::DecisionTree parallel =
      core::ScalParC::fit(training, p, controls, kZero).tree;
  EXPECT_TRUE(reference.same_structure(parallel))
      << "seed " << GetParam() << " p=" << p;
}

TEST_P(RandomWorkload, AgreesWithSerialSprintOracle) {
  const data::GeneratorConfig config = config_for_seed(GetParam() + 100);
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 250);
  core::InductionControls controls;
  controls.options.max_depth = 10;
  const core::DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);
  const core::DecisionTree tree =
      core::ScalParC::fit(training, 5, controls, kZero).tree;
  EXPECT_TRUE(oracle.same_structure(tree)) << "seed " << GetParam();
}

TEST_P(RandomWorkload, StructuralInvariantsHold) {
  const data::GeneratorConfig config = config_for_seed(GetParam() + 200);
  const data::QuestGenerator generator(config);
  const auto report = core::ScalParC::fit_generated(generator, 400, 3);
  const core::DecisionTree& tree = report.tree;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const core::TreeNode& node = tree.node(id);
    const std::int64_t total = std::accumulate(
        node.class_counts.begin(), node.class_counts.end(), std::int64_t{0});
    ASSERT_EQ(total, node.num_records) << "node " << id;
    if (node.is_leaf) continue;
    std::int64_t child_total = 0;
    for (const int child : node.children) {
      ASSERT_GT(tree.node(child).num_records, 0);
      ASSERT_EQ(tree.node(child).depth, node.depth + 1);
      child_total += tree.node(child).num_records;
    }
    ASSERT_EQ(child_total, node.num_records) << "node " << id;
  }
}

TEST_P(RandomWorkload, NoiseFreeDataIsMemorized) {
  data::GeneratorConfig config = config_for_seed(GetParam() + 300);
  config.label_noise = 0.0;
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 300);
  const auto report = core::ScalParC::fit(training, 4);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(training), 1.0) << "seed " << GetParam();
}

TEST_P(RandomWorkload, PruningShrinksAndStaysValid) {
  data::GeneratorConfig config = config_for_seed(GetParam() + 400);
  config.label_noise = 0.1;  // give pruning something to remove
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 400);
  const data::Dataset holdout = generator.generate(50000, 400);
  auto report = core::ScalParC::fit(training, 2);
  const int nodes_before = report.tree.num_nodes();
  const double holdout_before = report.tree.accuracy(holdout);
  const auto prune_report = core::mdl_prune(report.tree);
  EXPECT_LE(prune_report.nodes_after, nodes_before);
  // The pruned tree must still be a well-formed predictor...
  for (std::size_t row = 0; row < holdout.num_records(); ++row) {
    const std::int32_t y = report.tree.predict(holdout, row);
    ASSERT_GE(y, 0);
    ASSERT_LT(y, 2);
  }
  // ...and on noisy data should not get dramatically worse held out.
  EXPECT_GE(report.tree.accuracy(holdout), holdout_before - 0.05);
}

TEST_P(RandomWorkload, LevelRecordsNeverIncrease) {
  const data::GeneratorConfig config = config_for_seed(GetParam() + 500);
  const data::QuestGenerator generator(config);
  core::InductionControls controls;
  controls.collect_level_stats = true;
  const auto report = core::ScalParC::fit_generated(generator, 300, 3, controls);
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (const auto& level : report.stats.per_level) {
    EXPECT_LE(level.active_records, previous);
    previous = level.active_records;
    EXPECT_GT(level.active_nodes, 0);
  }
}

// ---------------------------------------------------------------------------
// Brute-force split oracle: on inputs of at most 10 records, enumerate every
// candidate split of the root and score it here, without core:: impurity
// code or scanners.
// ---------------------------------------------------------------------------

// Class counts per child when `child_of(row)` assigns each record a child.
template <typename ChildOf>
std::vector<std::vector<std::int64_t>> partition_counts(const data::Dataset& d,
                                                        int num_children,
                                                        ChildOf child_of) {
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(num_children),
      std::vector<std::int64_t>(
          static_cast<std::size_t>(d.schema().num_classes()), 0));
  for (std::size_t row = 0; row < d.num_records(); ++row) {
    ++counts[static_cast<std::size_t>(child_of(row))]
            [static_cast<std::size_t>(d.label(row))];
  }
  return counts;
}

// Weighted gini: sum over children of (n_k / n) * (1 - sum_j (c_kj / n_k)^2).
double weighted_gini(const std::vector<std::vector<std::int64_t>>& children) {
  const auto total = [](const std::vector<std::int64_t>& counts) {
    return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  };
  std::int64_t n = 0;
  for (const auto& child : children) n += total(child);
  double gini = 0.0;
  for (const auto& child : children) {
    const std::int64_t nk = total(child);
    if (nk == 0) continue;
    double sum_sq = 0.0;
    for (const std::int64_t count : child) {
      const double share = static_cast<double>(count) / static_cast<double>(nk);
      sum_sq += share * share;
    }
    gini += static_cast<double>(nk) / static_cast<double>(n) * (1.0 - sum_sq);
  }
  return gini;
}

// 1..10 records over (x0, x1 continuous; c categorical), 2..3 classes. x0
// draws from four values so duplicate runs are common.
data::Dataset tiny_dataset(std::uint64_t seed) {
  util::Rng rng(seed * 104729 + 7);
  const auto classes = static_cast<std::int32_t>(2 + rng.next_below(2));
  const auto cardinality = static_cast<std::int32_t>(2 + rng.next_below(3));
  data::Dataset d(data::Schema({data::Schema::continuous("x0"),
                                data::Schema::continuous("x1"),
                                data::Schema::categorical("c", cardinality)},
                               classes));
  const auto n = static_cast<int>(1 + rng.next_below(10));
  for (int i = 0; i < n; ++i) {
    const double x[] = {0.5 * static_cast<double>(rng.next_below(4)),
                        rng.next_double(-1.0, 1.0)};
    const std::int32_t c[] = {
        static_cast<std::int32_t>(rng.next_below(
            static_cast<std::uint64_t>(cardinality)))};
    d.append(x, c, static_cast<std::int32_t>(
                       rng.next_below(static_cast<std::uint64_t>(classes))));
  }
  return d;
}

TEST(BruteForceSplitOracle, RootSplitHasMinimumGini) {
  constexpr int kCategorical = 2;
  int splits = 0;
  int leaves = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const data::Dataset d = tiny_dataset(seed);

    // Every candidate: "x_a < v" for each distinct v above the minimum, and
    // the one multiway partition (a child per present value) of c.
    double best = std::numeric_limits<double>::infinity();
    for (const int a : {0, 1}) {
      std::set<double> values;
      for (std::size_t row = 0; row < d.num_records(); ++row) {
        values.insert(d.continuous_value(a, row));
      }
      for (auto v = std::next(values.begin()); v != values.end(); ++v) {
        const double cut = *v;
        best = std::min(best, weighted_gini(partition_counts(
                                  d, 2, [&](std::size_t row) {
                                    return d.continuous_value(a, row) >= cut;
                                  })));
      }
    }
    std::set<std::int32_t> present;
    for (std::size_t row = 0; row < d.num_records(); ++row) {
      present.insert(d.categorical_value(kCategorical, row));
    }
    if (present.size() >= 2) {
      best = std::min(best, weighted_gini(partition_counts(
                                d, static_cast<int>(present.size()),
                                [&](std::size_t row) {
                                  return std::distance(
                                      present.begin(),
                                      present.find(d.categorical_value(
                                          kCategorical, row)));
                                })));
    }
    const double root_gini =
        weighted_gini(partition_counts(d, 1, [](std::size_t) { return 0; }));
    const bool pure = root_gini == 0.0;

    core::InductionControls controls;
    controls.options.max_depth = 1;
    controls.options.split_mode = core::SplitMode::kExact;
    controls.options.categorical_split = core::CategoricalSplit::kMultiWay;
    for (const int p : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " p=" << p
                                        << " records=" << d.num_records());
      const core::DecisionTree tree =
          core::ScalParC::fit(d, p, controls, kZero).tree;
      const core::TreeNode& root = tree.node(0);
      if (pure || best == std::numeric_limits<double>::infinity()) {
        EXPECT_TRUE(root.is_leaf);
        ++leaves;
        continue;
      }
      // An improving split exists: the root must take one. (A best split
      // that only ties the root's gini may go either way.)
      if (best < root_gini - 1e-12) {
        EXPECT_FALSE(root.is_leaf);
      }
      if (root.is_leaf) {
        ++leaves;
        continue;
      }
      ++splits;
      const core::SplitDecision& split = root.split;
      double chosen = 0.0;
      if (split.kind == data::AttributeKind::kContinuous) {
        ASSERT_LT(split.attribute, kCategorical);
        chosen = weighted_gini(partition_counts(d, 2, [&](std::size_t row) {
          return d.continuous_value(split.attribute, row) < split.threshold ? 0
                                                                           : 1;
        }));
      } else {
        ASSERT_EQ(split.attribute, kCategorical);
        ASSERT_EQ(split.num_children, static_cast<int>(present.size()));
        for (const std::int32_t value : present) {
          const std::int32_t child =
              split.value_to_child[static_cast<std::size_t>(value)];
          ASSERT_TRUE(child >= 0 && child < split.num_children) << value;
        }
        chosen = weighted_gini(
            partition_counts(d, split.num_children, [&](std::size_t row) {
              return split.value_to_child[static_cast<std::size_t>(
                  d.categorical_value(kCategorical, row))];
            }));
      }
      EXPECT_NEAR(chosen, best, 1e-12);
    }
  }
  // Both outcomes are exercised, so neither branch above is vacuous.
  EXPECT_GT(splits, 0);
  EXPECT_GT(leaves, 0);
}

// ---------------------------------------------------------------------------
// The non-commutative "rightmost non-empty" exscan used by FindSplitII to
// propagate boundary values across ranks.
// ---------------------------------------------------------------------------

struct LastSeen {
  double value = 0.0;
  std::uint8_t has = 0;
};
struct RightmostOp {
  LastSeen operator()(const LastSeen& left, const LastSeen& right) const {
    return right.has != 0 ? right : left;
  }
};

class BoundaryExscan : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, BoundaryExscan,
                         ::testing::Values(2, 3, 4, 5, 8, 13));

TEST_P(BoundaryExscan, PropagatesRightmostNonEmpty) {
  const int p = GetParam();
  // Ranks 0, 3, 6, ... carry a value; every rank must see the value of the
  // closest carrying rank strictly before it.
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    LastSeen mine;
    if (comm.rank() % 3 == 0) {
      mine = LastSeen{static_cast<double>(comm.rank()) + 0.5, 1};
    }
    const LastSeen before =
        mp::exscan_value(comm, mine, RightmostOp{}, LastSeen{});
    int expected_rank = -1;
    for (int r = 0; r < comm.rank(); ++r) {
      if (r % 3 == 0) expected_rank = r;
    }
    if (expected_rank < 0) {
      EXPECT_EQ(before.has, 0) << "rank " << comm.rank();
    } else {
      ASSERT_EQ(before.has, 1) << "rank " << comm.rank();
      EXPECT_DOUBLE_EQ(before.value, expected_rank + 0.5);
    }
  });
}

TEST_P(BoundaryExscan, AllEmptyStaysEmpty) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const LastSeen before =
        mp::exscan_value(comm, LastSeen{}, RightmostOp{}, LastSeen{});
    EXPECT_EQ(before.has, 0);
  });
}

TEST_P(BoundaryExscan, VectorFormPerNode) {
  const int p = GetParam();
  // Two "nodes": node 0 carried by even ranks, node 1 by rank 1 only.
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    std::vector<LastSeen> mine(2);
    if (comm.rank() % 2 == 0) mine[0] = LastSeen{static_cast<double>(comm.rank()), 1};
    if (comm.rank() == 1) mine[1] = LastSeen{42.0, 1};
    const auto before = mp::exscan_vec(comm, std::span<const LastSeen>(mine),
                                       RightmostOp{}, LastSeen{});
    // Node 0: rightmost even rank before me.
    int expected = -1;
    for (int r = 0; r < comm.rank(); ++r) {
      if (r % 2 == 0) expected = r;
    }
    if (expected < 0) {
      EXPECT_EQ(before[0].has, 0);
    } else {
      EXPECT_DOUBLE_EQ(before[0].value, static_cast<double>(expected));
    }
    // Node 1: set only for ranks > 1.
    if (comm.rank() > 1) {
      ASSERT_EQ(before[1].has, 1);
      EXPECT_DOUBLE_EQ(before[1].value, 42.0);
    } else {
      EXPECT_EQ(before[1].has, 0);
    }
  });
}

// ---------------------------------------------------------------------------
// Virtual-time sanity under the real cost model.
// ---------------------------------------------------------------------------

TEST(CostModelProperties, ModeledTimeScalesDownWithRanks) {
  data::GeneratorConfig config;
  config.seed = 17;
  config.function = data::LabelFunction::kF2;
  const data::QuestGenerator generator(config);
  const auto model = mp::CostModel::cray_t3d();
  double previous = std::numeric_limits<double>::infinity();
  for (const int p : {1, 2, 4, 8}) {
    const auto report = core::ScalParC::fit_generated(
        generator, 20000, p, core::InductionControls{}, model);
    EXPECT_LT(report.run.modeled_seconds, previous) << "p=" << p;
    previous = report.run.modeled_seconds;
  }
}

TEST(CostModelProperties, WorkConservation) {
  // Total metered work should be nearly independent of p (the algorithm does
  // the same record visits, just spread over ranks).
  data::GeneratorConfig config;
  config.seed = 23;
  config.function = data::LabelFunction::kF1;
  const data::QuestGenerator generator(config);
  const auto w = [&](int p) {
    const auto report = core::ScalParC::fit_generated(generator, 10000, p);
    return report.run.total_stats().work_units;
  };
  const double serial = w(1);
  const double parallel = w(8);
  EXPECT_NEAR(parallel / serial, 1.0, 0.25);
}

TEST(CostModelProperties, PerRankBytesFallWithP) {
  data::GeneratorConfig config;
  config.seed = 29;
  config.function = data::LabelFunction::kF2;
  const data::QuestGenerator generator(config);
  const auto bytes = [&](int p) {
    return core::ScalParC::fit_generated(generator, 40000, p)
        .run.max_bytes_sent_per_rank();
  };
  EXPECT_GT(bytes(2), bytes(8));
  EXPECT_GT(bytes(8), bytes(32));
}

}  // namespace
}  // namespace scalparc
