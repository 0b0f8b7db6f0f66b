// Unit tests for the message-passing runtime: point-to-point, every
// collective against a serial oracle for a sweep of rank counts, the cost
// model's virtual clock, statistics accounting, failure handling, the CRC-32
// frame checksum against a bytewise oracle, and the shared-ownership payload
// the reliable transport retains instead of copying.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "mp/costmodel.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "util/crc32.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

TEST(MpP2P, RoundTrip) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> payload{1, 2, 3};
      comm.send<int>(1, 7, payload);
      const auto echoed = comm.recv<int>(1, 8);
      EXPECT_EQ(echoed, payload);
    } else {
      const auto got = comm.recv<int>(0, 7);
      comm.send<int>(0, 8, got);
    }
  });
}

TEST(MpP2P, TagMatchingAllowsOutOfOrderArrival) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, /*tag=*/100, 10);
      comm.send_value<int>(1, /*tag=*/200, 20);
    } else {
      // Receive the second message first.
      EXPECT_EQ(comm.recv_value<int>(0, 200), 20);
      EXPECT_EQ(comm.recv_value<int>(0, 100), 10);
    }
  });
}

TEST(MpP2P, EmptyPayload) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::span<const int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(MpP2P, BadDestinationThrows) {
  EXPECT_THROW(mp::run_ranks(1, kZero,
                             [](mp::Comm& comm) {
                               comm.send_value<int>(5, 0, 1);
                             }),
               std::invalid_argument);
}

TEST(MpRuntime, ExceptionPropagatesAndPeersUnblock) {
  // Rank 1 dies; rank 0 is blocked in recv and must be woken via poisoning.
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               if (comm.rank() == 0) {
                                 (void)comm.recv<int>(1, 9);
                               } else {
                                 throw std::runtime_error("rank 1 died");
                               }
                             }),
               std::runtime_error);
}

TEST(MpRuntime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(mp::run_ranks(0, kZero, [](mp::Comm&) {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Collectives vs serial oracles across rank counts
// ---------------------------------------------------------------------------

class Collectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13));

TEST_P(Collectives, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    mp::run_ranks(p, kZero, [root](mp::Comm& comm) {
      std::vector<std::int64_t> data;
      if (comm.rank() == root) data = {1, 2, 3, 42};
      mp::bcast(comm, data, root);
      ASSERT_EQ(data.size(), 4u);
      EXPECT_EQ(data[3], 42);
    });
  }
}

TEST_P(Collectives, BroadcastValue) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const double v = mp::bcast_value(comm, comm.rank() == 0 ? 3.25 : -1.0, 0);
    EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST_P(Collectives, ReduceSumToEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    mp::run_ranks(p, kZero, [root, p](mp::Comm& comm) {
      const std::int64_t value = comm.rank() + 1;
      const std::int64_t sum = mp::reduce_value(comm, value, mp::SumOp{}, root);
      if (comm.rank() == root) {
        EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p + 1) / 2);
      }
    });
  }
}

TEST_P(Collectives, AllreduceVector) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    const std::vector<std::int64_t> local{comm.rank(), 1, 2 * comm.rank()};
    const auto total = mp::allreduce_vec(
        comm, std::span<const std::int64_t>(local), mp::SumOp{});
    const std::int64_t ranks_sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
    ASSERT_EQ(total.size(), 3u);
    EXPECT_EQ(total[0], ranks_sum);
    EXPECT_EQ(total[1], p);
    EXPECT_EQ(total[2], 2 * ranks_sum);
  });
}

TEST_P(Collectives, AllreduceMinMax) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    EXPECT_EQ(mp::allreduce_value(comm, comm.rank(), mp::MinOp{}), 0);
    EXPECT_EQ(mp::allreduce_value(comm, comm.rank(), mp::MaxOp{}), p - 1);
  });
}

TEST_P(Collectives, ExscanSum) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const std::int64_t r = comm.rank();
    const std::int64_t prefix =
        mp::exscan_value(comm, r + 1, mp::SumOp{}, std::int64_t{0});
    // sum of 1..r
    EXPECT_EQ(prefix, r * (r + 1) / 2);
  });
}

TEST_P(Collectives, ExscanVector) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const std::int64_t r = comm.rank();
    const std::vector<std::int64_t> local{1, r};
    const auto prefix = mp::exscan_vec(
        comm, std::span<const std::int64_t>(local), mp::SumOp{}, std::int64_t{0});
    ASSERT_EQ(prefix.size(), 2u);
    EXPECT_EQ(prefix[0], r);                 // count of earlier ranks
    EXPECT_EQ(prefix[1], r * (r - 1) / 2);   // sum of earlier ranks
  });
}

TEST_P(Collectives, GatherValues) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    const auto gathered = mp::gather_values(comm, comm.rank() * 10, 0);
    if (comm.is_root()) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) EXPECT_EQ(gathered[r], r * 10);
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(Collectives, GathervVariableChunks) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    std::vector<int> local(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto chunks = mp::gatherv(comm, std::span<const int>(local), p - 1);
    if (comm.rank() == p - 1) {
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(chunks[r].size(), static_cast<std::size_t>(r));
        for (const int v : chunks[r]) EXPECT_EQ(v, r);
      }
    }
  });
}

TEST_P(Collectives, AllgathervConcat) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    const std::vector<int> local{comm.rank(), comm.rank()};
    const auto flat = mp::allgatherv_concat(comm, std::span<const int>(local));
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(2 * p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(flat[2 * r], r);
      EXPECT_EQ(flat[2 * r + 1], r);
    }
  });
}

TEST_P(Collectives, AlltoallvPersonalizedExchange) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    // Rank r sends d copies of value r*100+d to destination d.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[d].assign(static_cast<std::size_t>(d), comm.rank() * 100 + d);
    }
    const auto recv = mp::alltoallv(comm, send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(recv[s].size(), static_cast<std::size_t>(comm.rank()));
      for (const int v : recv[s]) EXPECT_EQ(v, s * 100 + comm.rank());
    }
  });
}

TEST_P(Collectives, Barrier) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) { mp::barrier(comm); });
}

TEST(Collectives, AlltoallvRejectsWrongBufferCount) {
  EXPECT_THROW(
      mp::run_ranks(2, kZero,
                    [](mp::Comm& comm) {
                      std::vector<std::vector<int>> bad(1);
                      (void)mp::alltoallv(comm, bad);
                    }),
      std::invalid_argument);
}

TEST(Collectives, CustomCombineStruct) {
  struct ArgMin {
    double value;
    std::int32_t rank;
    std::int32_t pad = 0;
  };
  struct ArgMinOp {
    ArgMin operator()(const ArgMin& a, const ArgMin& b) const {
      return b.value < a.value ? b : a;
    }
  };
  mp::run_ranks(5, kZero, [](mp::Comm& comm) {
    // Rank 3 has the smallest value.
    const double v = comm.rank() == 3 ? -1.0 : static_cast<double>(comm.rank());
    const ArgMin winner =
        mp::allreduce_value(comm, ArgMin{v, comm.rank()}, ArgMinOp{});
    EXPECT_EQ(winner.rank, 3);
    EXPECT_DOUBLE_EQ(winner.value, -1.0);
  });
}

// ---------------------------------------------------------------------------
// Cost model / virtual time
// ---------------------------------------------------------------------------

TEST(MpCostModel, WorkAdvancesClock) {
  mp::CostModel model = mp::CostModel::zero();
  model.seconds_per_work_unit = 1e-6;
  const auto result = mp::run_ranks(2, model, [](mp::Comm& comm) {
    comm.add_work(1000.0);
  });
  EXPECT_DOUBLE_EQ(result.modeled_seconds, 1e-3);
}

TEST(MpCostModel, MessageCostsLatencyAndBandwidth) {
  mp::CostModel model = mp::CostModel::zero();
  model.latency_s = 1e-3;
  model.seconds_per_byte = 1e-6;
  const auto result = mp::run_ranks(2, model, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> payload(1000);
      comm.send_bytes(1, 0, payload);
    } else {
      (void)comm.recv_bytes(0, 0);
    }
  });
  // Receiver clock: 1 ms latency + 1000 B * 1 us/B = 2 ms.
  EXPECT_NEAR(result.modeled_seconds, 2e-3, 1e-12);
}

TEST(MpCostModel, SlowestRankDominatesAfterCollective) {
  mp::CostModel model = mp::CostModel::zero();
  model.seconds_per_work_unit = 1e-6;
  const auto result = mp::run_ranks(4, model, [](mp::Comm& comm) {
    if (comm.rank() == 2) comm.add_work(5000.0);
    mp::barrier(comm);
  });
  // Every rank's clock must have been pulled up to at least rank 2's work.
  for (const auto& rank : result.ranks) {
    EXPECT_GE(rank.vtime_seconds, 5e-3);
  }
}

TEST(MpCostModel, ZeroModelKeepsClockAtZero) {
  const auto result = mp::run_ranks(3, kZero, [](mp::Comm& comm) {
    comm.add_work(100.0);
    mp::barrier(comm);
  });
  EXPECT_DOUBLE_EQ(result.modeled_seconds, 0.0);
}

TEST(MpCostModel, CrayT3DDefaultsAreSane) {
  const mp::CostModel t3d = mp::CostModel::cray_t3d();
  EXPECT_GT(t3d.latency_s, 0.0);
  EXPECT_GT(t3d.seconds_per_byte, 0.0);
  EXPECT_GT(t3d.wire_seconds(1 << 20), t3d.wire_seconds(1));
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(MpStats, CountsBytesAndMessages) {
  const auto result = mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::int32_t> payload(25, 1);
      comm.send<std::int32_t>(1, 0, payload);
    } else {
      (void)comm.recv<std::int32_t>(0, 0);
    }
  });
  EXPECT_EQ(result.ranks[0].stats.bytes_sent, 100u);
  EXPECT_EQ(result.ranks[0].stats.messages_sent, 1u);
  EXPECT_EQ(result.ranks[1].stats.bytes_received, 100u);
  EXPECT_EQ(result.ranks[1].stats.messages_received, 1u);
}

TEST(MpStats, AttributesBytesToCollectiveClass) {
  const auto result = mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    std::vector<std::vector<std::int64_t>> send(4);
    for (auto& buf : send) buf.assign(10, comm.rank());
    (void)mp::alltoallv(comm, send);
  });
  const mp::CommStats total = result.total_stats();
  EXPECT_GT(total.bytes_sent_by_op[static_cast<int>(mp::CommOp::kAlltoall)], 0u);
  EXPECT_EQ(total.bytes_sent_by_op[static_cast<int>(mp::CommOp::kBroadcast)], 0u);
  EXPECT_EQ(total.calls_by_op[static_cast<int>(mp::CommOp::kAlltoall)], 4u);
}

TEST(MpStats, WorkUnitsRecorded) {
  const auto result = mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    comm.add_work(12.5);
  });
  EXPECT_DOUBLE_EQ(result.ranks[0].stats.work_units, 12.5);
  EXPECT_DOUBLE_EQ(result.total_stats().work_units, 25.0);
}

TEST(MpStats, OpNames) {
  EXPECT_EQ(mp::comm_op_name(mp::CommOp::kAlltoall), "alltoall");
  EXPECT_EQ(mp::comm_op_name(mp::CommOp::kScan), "scan");
}

TEST(MpStats, MaxBytesPerRank) {
  const auto result = mp::run_ranks(3, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 1) {
      const std::vector<std::byte> big(1000);
      comm.send_bytes(0, 0, big);
    }
    mp::barrier(comm);
    if (comm.rank() == 0) (void)comm.recv_bytes(1, 0);
  });
  EXPECT_GE(result.max_bytes_sent_per_rank(), 1000u);
}

// ---------------------------------------------------------------------------
// Frame checksum: slice-by-8 CRC-32 against the bytewise reference
// ---------------------------------------------------------------------------

// The classic one-table, one-byte-per-step CRC-32: the oracle the
// slice-by-8 implementation must match bit for bit.
std::uint32_t bytewise_crc32(const void* data, std::size_t len,
                             std::uint32_t seed = 0) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = util::detail::kCrc32Table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(FrameChecksum, KnownAnswers) {
  const std::string_view check = "123456789";
  EXPECT_EQ(util::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
  EXPECT_EQ(util::crc32(std::span<const std::byte>{}), 0u);
}

TEST(FrameChecksum, MatchesBytewiseOracleForEveryShortLength) {
  const std::vector<unsigned char> data = random_bytes(64, 1);
  for (std::size_t len = 0; len <= 64; ++len) {
    EXPECT_EQ(util::crc32(data.data(), len),
              bytewise_crc32(data.data(), len))
        << "len " << len;
    EXPECT_EQ(util::crc32(data.data(), len, 0xDEADBEEFu),
              bytewise_crc32(data.data(), len, 0xDEADBEEFu))
        << "seeded, len " << len;
  }
}

TEST(FrameChecksum, MatchesBytewiseOracleAtEveryStartOffset) {
  // A 1 MiB buffer entered at offsets 0..7: every alignment of the 8-byte
  // steps relative to the allocation.
  const std::size_t kMiB = std::size_t{1} << 20;
  const std::vector<unsigned char> data = random_bytes(kMiB + 8, 2);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    EXPECT_EQ(util::crc32(data.data() + offset, kMiB),
              bytewise_crc32(data.data() + offset, kMiB))
        << "offset " << offset;
  }
}

TEST(FrameChecksum, SeedChainsAcrossSplitPoints) {
  const std::vector<unsigned char> data = random_bytes(1000, 3);
  const std::uint32_t whole = util::crc32(data.data(), data.size());
  EXPECT_EQ(whole, bytewise_crc32(data.data(), data.size()));
  for (const std::size_t cut : {0, 1, 7, 8, 9, 63, 500, 999, 1000}) {
    const std::uint32_t head = util::crc32(data.data(), cut);
    EXPECT_EQ(util::crc32(data.data() + cut, data.size() - cut, head), whole)
        << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// Payload ownership
// ---------------------------------------------------------------------------

std::vector<std::int64_t> iota_values(std::size_t n) {
  std::vector<std::int64_t> out(n);
  std::iota(out.begin(), out.end(), std::int64_t{0});
  return out;
}

TEST(MpPayload, SharedTakeCopiesAndLeavesOtherHandleIntact) {
  const std::vector<std::int64_t> expected = iota_values(100);
  mp::Payload original = mp::Payload::adopt(iota_values(100));
  mp::Payload share = original.share();
  const std::byte* held = original.bytes().data();
  EXPECT_EQ(share.bytes().data(), held);

  const std::vector<std::int64_t> taken = share.take<std::int64_t>();
  EXPECT_EQ(taken, expected);
  EXPECT_NE(reinterpret_cast<const std::byte*>(taken.data()), held);
  EXPECT_TRUE(share.empty());
  // The surviving handle still owns the untouched original buffer, and is
  // now its sole owner: its take moves the buffer out.
  ASSERT_EQ(original.size(), expected.size() * sizeof(std::int64_t));
  EXPECT_EQ(original.bytes().data(), held);
  const std::vector<std::int64_t> reclaimed = original.take<std::int64_t>();
  EXPECT_EQ(reinterpret_cast<const std::byte*>(reclaimed.data()), held);
  EXPECT_EQ(reclaimed, expected);
}

TEST(MpPayload, SoleOwnerTakeReturnsTheSameBuffer) {
  std::vector<std::int64_t> values = iota_values(1000);
  const std::int64_t* address = values.data();
  mp::Payload payload = mp::Payload::adopt(std::move(values));
  const std::vector<std::int64_t> out = payload.take<std::int64_t>();
  EXPECT_EQ(out.data(), address);
  EXPECT_EQ(out, iota_values(1000));
  // A different element type always copies.
  mp::Payload bytes = mp::Payload::adopt(iota_values(8));
  const std::vector<std::int32_t> narrowed = bytes.take<std::int32_t>();
  EXPECT_EQ(narrowed.size(), 16u);
}

TEST(MpPayload, MutableBytesOnSharedPayloadDetaches) {
  mp::Payload wire = mp::Payload::adopt(iota_values(16));
  const mp::Payload retained = wire.share();
  const std::byte* held = retained.bytes().data();
  const std::span<std::byte> writable = wire.mutable_bytes();
  EXPECT_NE(writable.data(), held);
  writable[0] ^= std::byte{0xFF};
  EXPECT_NE(wire.bytes()[0], retained.bytes()[0]);
  EXPECT_EQ(retained.bytes().data(), held);
  mp::Payload check = retained.share();
  EXPECT_EQ(check.take<std::int64_t>(), iota_values(16));
  // A sole owner is written in place.
  mp::Payload sole = mp::Payload::adopt(iota_values(16));
  const std::byte* sole_held = sole.bytes().data();
  EXPECT_EQ(sole.mutable_bytes().data(), sole_held);
}

// ---------------------------------------------------------------------------
// Reliable transport: zero-copy with the in-flight copy retained
// ---------------------------------------------------------------------------

TEST(MpTransport, ReliableMoveSendArrivesAtTheSendersAddress) {
  mp::RunOptions options;
  ASSERT_TRUE(options.reliability.enabled);
  const std::size_t n = (std::size_t{1} << 20) / sizeof(std::int64_t) * 2;
  std::atomic<const std::int64_t*> sent_at{nullptr};
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [&](mp::Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::int64_t> values = iota_values(n);
          sent_at.store(values.data());
          comm.send<std::int64_t>(1, 5, std::move(values));
          // Sent after the big frame: once rank 1 holds this one, the big
          // frame is already queued, so its receive never waits (no
          // retransmit timer can put a second reference in flight).
          comm.send_value<int>(1, 6, 1);
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 6), 1);
          const std::vector<std::int64_t> got = comm.recv<std::int64_t>(0, 5);
          EXPECT_EQ(got.data(), sent_at.load());
          EXPECT_EQ(got, iota_values(n));
        }
      },
      options);
  EXPECT_FALSE(run.failed()) << run.failure_message;
}

TEST(MpTransport, CorruptionHealsToTheSentBytesForSpanAndMoveSends) {
  // op=1 is rank 0's first send in both bodies; the retained copy must stay
  // clean whether the payload was copied from a span or moved in.
  for (const bool move_send : {false, true}) {
    mp::FaultPlan plan;
    plan.parse("corrupt:r=0,op=1");
    mp::RunOptions options;
    options.fault_plan = &plan;
    const mp::RunResult run = mp::try_run_ranks(
        2, kZero,
        [&](mp::Comm& comm) {
          if (comm.rank() == 0) {
            std::vector<std::int64_t> values = iota_values(4096);
            if (move_send) {
              comm.send<std::int64_t>(1, 9, std::move(values));
            } else {
              comm.send<std::int64_t>(1, 9,
                                      std::span<const std::int64_t>(values));
            }
          } else {
            EXPECT_EQ(comm.recv<std::int64_t>(0, 9), iota_values(4096));
          }
        },
        options);
    EXPECT_FALSE(run.failed()) << run.failure_message;
    EXPECT_EQ(plan.corruptions_injected(), 1u) << "move_send " << move_send;
    EXPECT_GE(run.transport.nacks, 1u) << "move_send " << move_send;
    EXPECT_GE(run.transport.retransmits, 1u) << "move_send " << move_send;
  }
}

}  // namespace
}  // namespace scalparc
