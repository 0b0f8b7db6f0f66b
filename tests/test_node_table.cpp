// Tests for the parallel hashing paradigm: the generic distributed hash
// table (update / enquiry / blocked rounds) and the ScalParC node table
// (epoch-stamped child assignments) — validated against a serial map for a
// sweep of rank counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/node_table.hpp"
#include "core/scalparc.hpp"
#include "data/synthetic.hpp"
#include "mp/runtime.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

struct Value {
  std::int64_t payload = 0;
};

using Table = core::DistributedHashTable<Value>;

class Dht : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, Dht, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST_P(Dht, HashIsCollisionFreeBlockDistribution) {
  const int p = GetParam();
  constexpr std::uint64_t kKeys = 29;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    Table table(comm, kKeys, Value{});
    // The paper's example: N = 9, p = 3 gives h(j) = (j div 3, j mod 3).
    std::vector<int> owner_count(static_cast<std::size_t>(p), 0);
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
      const int owner = table.owner_of(key);
      const std::uint64_t slot = table.slot_of(key);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, p);
      EXPECT_EQ(static_cast<std::uint64_t>(key),
                static_cast<std::uint64_t>(owner) * table.block() + slot);
      ++owner_count[static_cast<std::size_t>(owner)];
    }
    // Block distribution: every owner holds at most ceil(N/p).
    for (const int count : owner_count) {
      EXPECT_LE(count, static_cast<int>(table.block()));
    }
  });
}

TEST_P(Dht, UpdateThenEnquireMatchesSerialMap) {
  const int p = GetParam();
  constexpr std::uint64_t kKeys = 200;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    Table table(comm, kKeys, Value{-1});
    // Each rank updates a strided subset of keys.
    std::vector<std::int64_t> update_keys;
    std::vector<Value> values;
    for (std::int64_t key = comm.rank(); key < static_cast<std::int64_t>(kKeys);
         key += p) {
      update_keys.push_back(key);
      values.push_back(Value{key * 10});
    }
    table.update(update_keys, values);
    // Every rank enquires a different permutation of all keys.
    std::vector<std::int64_t> keys;
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
      keys.push_back((key * 7 + comm.rank()) % static_cast<std::int64_t>(kKeys));
    }
    const std::vector<Value> got = table.enquire(keys);
    ASSERT_EQ(got.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(got[i].payload, keys[i] * 10);
    }
  });
}

TEST_P(Dht, LastWriterWinsWithinOneRound) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Table table(comm, 10, Value{0});
    // Only rank 0 writes, twice to the same key: later entry wins (FIFO
    // application at the owner).
    std::vector<std::int64_t> keys;
    std::vector<Value> values;
    if (comm.rank() == 0) {
      keys = {3, 3};
      values = {Value{111}, Value{222}};
    }
    table.update(keys, values);
    const auto got = table.enquire(std::vector<std::int64_t>{3});
    EXPECT_EQ(got[0].payload, 222);
  });
}

TEST_P(Dht, BlockedUpdatesMatchUnblocked) {
  const int p = GetParam();
  constexpr std::uint64_t kKeys = 150;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    Table table(comm, kKeys, Value{-1});
    // Rank 0 sends ALL updates (the pathological skew §3.3.2 worries about);
    // a block limit of 16 forces ceil(150/16) = 10 all-to-all rounds on
    // every rank.
    std::vector<std::int64_t> update_keys;
    std::vector<Value> values;
    if (comm.rank() == 0) {
      for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
        update_keys.push_back(key);
        values.push_back(Value{key + 1000});
      }
    }
    table.update(update_keys, values, /*block_limit=*/16);
    std::vector<std::int64_t> keys;
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
      keys.push_back(key);
    }
    const auto got = table.enquire(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(got[i].payload, static_cast<std::int64_t>(i) + 1000);
    }
    (void)p;
  });
}

TEST_P(Dht, BlockedUpdateBoundsStagedBufferMemory) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "needs >= 2 ranks for staging to matter";
  constexpr std::uint64_t kKeys = 4096;
  const auto run = [&](std::int64_t block_limit) {
    return mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      Table table(comm, kKeys, Value{});
      std::vector<std::int64_t> keys;
      std::vector<Value> values;
      if (comm.rank() == 0) {
        for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
          keys.push_back(key);
          values.push_back(Value{key});
        }
      }
      table.update(keys, values, block_limit);
    });
  };
  const auto unblocked = run(0);
  const auto blocked = run(64);
  // Peak comm-buffer memory must be strictly smaller with blocking.
  std::size_t peak_unblocked = 0;
  std::size_t peak_blocked = 0;
  for (const auto& r : unblocked.ranks) {
    peak_unblocked = std::max(
        peak_unblocked, r.meter.peak_bytes(util::MemCategory::kCommBuffers));
  }
  for (const auto& r : blocked.ranks) {
    peak_blocked = std::max(peak_blocked,
                            r.meter.peak_bytes(util::MemCategory::kCommBuffers));
  }
  EXPECT_LT(peak_blocked, peak_unblocked);
}

TEST_P(Dht, EnquireUnwrittenKeyReturnsInitial) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Table table(comm, 5, Value{-7});
    table.update({}, {});
    const auto got = table.enquire(std::vector<std::int64_t>{0, 4});
    EXPECT_EQ(got[0].payload, -7);
    EXPECT_EQ(got[1].payload, -7);
  });
}

TEST(Dht, KeyOutOfRangeThrows) {
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               Table table(comm, 10, Value{});
                               (void)table.owner_of(10);
                             }),
               std::out_of_range);
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               Table table(comm, 10, Value{});
                               (void)table.owner_of(-1);
                             }),
               std::out_of_range);
}

TEST(Dht, TooManyKeysThrowBeforeTheTableIsSized) {
  // Slots travel as uint32. At p = 1 the block is the whole key space, so
  // sizing it first would allocate 2^32 values.
  const auto result = mp::run_ranks(1, kZero, [](mp::Comm& comm) {
    EXPECT_THROW(Table(comm, Table::kMaxKeys + 1, Value{}), std::length_error);
  });
  EXPECT_EQ(result.ranks[0].meter.peak_bytes(util::MemCategory::kNodeTable),
            0u);
}

TEST(Dht, LocalSizeTilesKeySpace) {
  // 10 keys over 4 ranks: block = 3, local sizes 3,3,3,1.
  mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    Table table(comm, 10, Value{});
    const std::uint64_t expected[] = {3, 3, 3, 1};
    EXPECT_EQ(table.local_size(), expected[comm.rank()]);
  });
}

TEST(Dht, MoreRanksThanKeys) {
  mp::run_ranks(6, kZero, [](mp::Comm& comm) {
    Table table(comm, 3, Value{-1});
    std::vector<std::int64_t> keys;
    std::vector<Value> values;
    if (comm.rank() == 5) {
      keys = {2};
      values = {Value{42}};
    }
    table.update(keys, values);
    const auto got = table.enquire(std::vector<std::int64_t>{2});
    EXPECT_EQ(got[0].payload, 42);
  });
}

// ---------------------------------------------------------------------------
// NodeTable (epoch semantics)
// ---------------------------------------------------------------------------

class NodeTableTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, NodeTableTest, ::testing::Values(1, 2, 3, 5));

TEST_P(NodeTableTest, UpdateAndEnquireRoundTrip) {
  const int p = GetParam();
  constexpr std::uint64_t kRecords = 64;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    core::NodeTable table(comm, kRecords);
    table.begin_level();
    std::vector<std::int64_t> rids;
    std::vector<std::int32_t> children;
    for (std::int64_t rid = comm.rank(); rid < static_cast<std::int64_t>(kRecords);
         rid += p) {
      rids.push_back(rid);
      children.push_back(static_cast<std::int32_t>(rid % 3));
    }
    table.update(rids, children, /*block_limit=*/0);
    std::vector<std::int64_t> all;
    for (std::int64_t rid = 0; rid < static_cast<std::int64_t>(kRecords); ++rid) {
      all.push_back(rid);
    }
    const auto got = table.enquire(all);
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<std::int32_t>(all[i] % 3));
    }
  });
}

TEST_P(NodeTableTest, StaleEnquiryThrows) {
  const int p = GetParam();
  EXPECT_THROW(
      mp::run_ranks(p, kZero,
                    [](mp::Comm& comm) {
                      core::NodeTable table(comm, 8);
                      table.begin_level();
                      std::vector<std::int64_t> rids;
                      std::vector<std::int32_t> children;
                      if (comm.rank() == 0) {
                        rids = {0, 1, 2, 3};
                        children = {0, 0, 1, 1};
                      }
                      table.update(rids, children, 0);
                      table.begin_level();  // new level, no updates yet
                      std::vector<std::int64_t> query{2};
                      (void)table.enquire(query);
                    }),
      std::logic_error);
}

TEST_P(NodeTableTest, BlockedUpdatesMatchUnblocked) {
  const int p = GetParam();
  constexpr std::uint64_t kRecords = 97;
  const auto children_after = [&](std::int64_t block_limit) {
    std::vector<std::int32_t> seen;
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      core::NodeTable table(comm, kRecords);
      table.begin_level();
      // The last rank assigns every record, most of them owned elsewhere.
      std::vector<std::int64_t> rids;
      std::vector<std::int32_t> children;
      if (comm.rank() == comm.size() - 1) {
        for (std::int64_t rid = 0; rid < static_cast<std::int64_t>(kRecords);
             ++rid) {
          rids.push_back((rid * 37) % static_cast<std::int64_t>(kRecords));
          children.push_back(static_cast<std::int32_t>(rid % 5));
        }
      }
      table.update(rids, children, block_limit);
      std::vector<std::int64_t> all(kRecords);
      std::iota(all.begin(), all.end(), std::int64_t{0});
      const std::vector<std::int32_t> got = table.enquire(all);
      if (comm.is_root()) seen = got;
    });
    return seen;
  };
  const std::vector<std::int32_t> unblocked = children_after(0);
  ASSERT_EQ(unblocked.size(), kRecords);
  EXPECT_EQ(children_after(4), unblocked);
  EXPECT_EQ(children_after(1), unblocked);
}

TEST_P(NodeTableTest, EpochsSeparateLevels) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    core::NodeTable table(comm, 4);
    for (std::uint32_t level = 1; level <= 3; ++level) {
      table.begin_level();
      std::vector<std::int64_t> rids;
      std::vector<std::int32_t> children;
      if (comm.is_root()) {
        rids = {0, 1, 2, 3};
        children.assign(4, static_cast<std::int32_t>(level));
      }
      table.update(rids, children, 0);
      std::vector<std::int64_t> query{0, 3};
      const auto got = table.enquire(query);
      EXPECT_EQ(got[0], static_cast<std::int32_t>(level));
      EXPECT_EQ(got[1], static_cast<std::int32_t>(level));
    }
  });
}

// A stale entry is detected whether its record is owned by the enquiring
// rank (answered in place) or by another rank (answered over the wire).
class NodeTableStale : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, NodeTableStale, ::testing::Values(2, 3, 5));

TEST_P(NodeTableStale, OwnerLocalAndRemoteStaleEntriesThrow) {
  const int p = GetParam();
  constexpr std::uint64_t kRecords = 40;
  for (const bool remote : {false, true}) {
    std::string message;
    try {
      mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
        core::NodeTable table(comm, kRecords);
        // Level 1 assigns every record; level 2 every record but `stale`,
        // the first record of rank 1's block.
        const auto stale = static_cast<std::int64_t>(table.block());
        for (int level = 1; level <= 2; ++level) {
          table.begin_level();
          std::vector<std::int64_t> rids;
          std::vector<std::int32_t> children;
          for (std::int64_t rid = comm.rank();
               rid < static_cast<std::int64_t>(kRecords); rid += comm.size()) {
            if (level == 2 && rid == stale) continue;
            rids.push_back(rid);
            children.push_back(level);
          }
          table.update(rids, children, 0);
        }
        ASSERT_EQ(table.table().owner_of(stale), 1);
        // Rank 1 asks for its own stale record, or rank 0 for rank 1's; the
        // other ranks' enquiries are fresh.
        const int asker = remote ? 0 : 1;
        std::vector<std::int64_t> query{0, static_cast<std::int64_t>(kRecords) - 1};
        if (comm.rank() == asker) query.push_back(stale);
        const std::vector<std::int32_t> got = table.enquire(query);
        EXPECT_NE(comm.rank(), asker);
        EXPECT_EQ(got, (std::vector<std::int32_t>{2, 2}));
      });
    } catch (const std::logic_error& e) {
      message = e.what();
    }
    EXPECT_NE(message.find("stale entry"), std::string::npos)
        << (remote ? "remote" : "owner-local") << " stale entry not detected";
  }
}

TEST(NodeTableTest2, MismatchedSpansThrow) {
  EXPECT_THROW(mp::run_ranks(1, kZero,
                             [](mp::Comm& comm) {
                               core::NodeTable table(comm, 4);
                               table.begin_level();
                               std::vector<std::int64_t> rids{0, 1};
                               std::vector<std::int32_t> children{0};
                               table.update(rids, children, 0);
                             }),
               std::invalid_argument);
}

TEST(NodeTableTest2, MemoryIsBlockSizedPerRank) {
  constexpr std::uint64_t kRecords = 1024;
  const auto result = mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    core::NodeTable table(comm, kRecords);
    mp::barrier(comm);
  });
  for (const auto& rank : result.ranks) {
    const std::size_t table_bytes =
        rank.meter.peak_bytes(util::MemCategory::kNodeTable);
    // 1024/4 = 256 entries of 8 bytes each.
    EXPECT_EQ(table_bytes, 256 * sizeof(core::NodeTableEntry));
  }
}

// ---------------------------------------------------------------------------
// Wire format: only rids another rank owns travel, as a 4-byte slot out and
// a 4-byte child back per enquiry and an 8-byte (slot, child) per update.
// ---------------------------------------------------------------------------

TEST(NodeTableWire, ExactFitMovesFourBytesEachWayPerRemoteEnquiry) {
  // With N divisible by p, rank r holds records [r*N/p, (r+1)*N/p) — the
  // node table's block of r — and every categorical list keeps its records
  // there, so only the presorted continuous lists can hold another rank's
  // records: sorted position k lives on rank k / (N/p). A depth-1 fit
  // updates the root's winning list and enquires every other list once;
  // a depth-0 fit runs the same presort and no level.
  constexpr int kRanks = 4;
  constexpr std::size_t kRecords = 2000;
  constexpr std::size_t kBlock = kRecords / kRanks;
  const data::QuestGenerator generator(
      data::GeneratorConfig{.seed = 11, .function = data::LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, kRecords);
  const auto fit = [&](int max_depth) {
    core::InductionControls controls;
    controls.options.max_depth = max_depth;
    return core::ScalParC::fit(training, kRanks, controls, kZero);
  };
  const auto alltoall_bytes = [](const core::FitReport& report) {
    std::uint64_t bytes = 0;
    for (const mp::RankOutcome& rank : report.run.ranks) {
      bytes += rank.stats.bytes_sent_by_op[static_cast<std::size_t>(
          mp::CommOp::kAlltoall)];
    }
    return bytes;
  };
  const core::FitReport level = fit(1);
  const core::TreeNode& root = level.tree.node(level.tree.root());
  ASSERT_FALSE(root.is_leaf);

  std::uint64_t remote_updates = 0;
  std::uint64_t remote_enquiries = 0;
  const data::Schema& schema = training.schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind != data::AttributeKind::kContinuous) continue;
    const std::span<const double> values = training.continuous_column(a);
    std::vector<std::size_t> order(kRecords);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return values[x] != values[y] ? values[x] < values[y] : x < y;
    });
    std::uint64_t remote = 0;
    for (std::size_t k = 0; k < kRecords; ++k) {
      remote += k / kBlock != order[k] / kBlock ? 1 : 0;
    }
    (a == root.split.attribute ? remote_updates : remote_enquiries) += remote;
  }
  ASSERT_GT(remote_enquiries, 0u);
  EXPECT_EQ(alltoall_bytes(level) - alltoall_bytes(fit(0)),
            8 * remote_updates + 2 * 4 * remote_enquiries)
      << remote_updates << " remote updates, " << remote_enquiries
      << " remote enquiries";
}

}  // namespace
}  // namespace scalparc
