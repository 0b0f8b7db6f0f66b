// Robustness and fuzzing: malformed persisted artifacts must throw (never
// crash or silently mis-parse), non-finite inputs are rejected, adversarial
// data shapes train correctly, and the full option matrix preserves
// processor-count invariance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "sprint/serial_sprint.hpp"
#include "util/crc32.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

using data::Schema;

const mp::CostModel kZero = mp::CostModel::zero();

// ---------------------------------------------------------------------------
// Non-finite values
// ---------------------------------------------------------------------------

TEST(NonFinite, ValidateRejectsNaN) {
  data::Dataset d(Schema({Schema::continuous("x")}, 2));
  const double nan_value[] = {std::numeric_limits<double>::quiet_NaN()};
  d.append(nan_value, {}, 0);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(NonFinite, ValidateRejectsInfinity) {
  data::Dataset d(Schema({Schema::continuous("x")}, 2));
  const double inf_value[] = {std::numeric_limits<double>::infinity()};
  d.append(inf_value, {}, 0);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(NonFinite, CsvReaderRejectsNaN) {
  std::stringstream in("x:cont,class:2\nnan,0\n1.0,1\n");
  EXPECT_THROW((void)data::read_csv(in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// CSV fuzzing: random mutations of a valid file must either parse or throw.
// ---------------------------------------------------------------------------

TEST(CsvFuzz, MutatedFilesNeverCrash) {
  data::GeneratorConfig config;
  config.seed = 99;
  const data::QuestGenerator generator(config);
  std::stringstream original;
  data::write_csv(generator.generate(0, 30), original);
  const std::string base = original.str();

  util::Rng rng(4242);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.next_below(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.next_below(5));
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.next_below(95)));
          break;
      }
    }
    std::stringstream in(mutated);
    try {
      const data::Dataset d = data::read_csv(in);
      d.validate();
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // Both outcomes must occur (some mutations are benign, e.g. in a value),
  // and none may escape as a crash or non-std exception.
  EXPECT_GT(parsed + rejected, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Tree-file fuzzing.
// ---------------------------------------------------------------------------

TEST(TreeIoFuzz, MutatedModelsNeverCrash) {
  data::GeneratorConfig config;
  config.seed = 7;
  const data::QuestGenerator generator(config);
  const core::DecisionTree tree =
      core::ScalParC::fit(generator.generate(0, 200), 2).tree;
  std::stringstream original;
  core::save_tree(tree, original);
  const std::string base = original.str();

  util::Rng rng(777);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(32 + rng.next_below(95));
    std::stringstream in(mutated);
    try {
      const core::DecisionTree loaded = core::load_tree(in);
      // If it parsed, it must still be a usable predictor.
      const data::Dataset probe = generator.generate(5000, 5);
      for (std::size_t row = 0; row < probe.num_records(); ++row) {
        const std::int32_t y = loaded.predict(probe, row);
        ASSERT_GE(y, 0);
        ASSERT_LT(y, 2);
      }
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Adversarial data shapes.
// ---------------------------------------------------------------------------

TEST(Adversarial, AlternatingClassesOnSortedValues) {
  // Worst case for the split scan: every adjacent pair flips class, so every
  // position is a candidate and gains are tiny but the tree must still
  // separate all records.
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 64; ++i) {
    const double x[] = {static_cast<double>(i)};
    d.append(x, {}, i % 2);
  }
  const auto report = core::ScalParC::fit(d, 4);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
  const core::DecisionTree serial = core::ScalParC::fit(d, 1).tree;
  EXPECT_TRUE(serial.same_structure(report.tree));
}

TEST(Adversarial, MassiveDuplicateRuns) {
  // 90% of records share one attribute value; candidates exist only at the
  // two run boundaries.
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 200; ++i) {
    const double x[] = {i < 180 ? 5.0 : static_cast<double>(i)};
    d.append(x, {}, i < 180 ? 0 : 1);
  }
  const auto report = core::ScalParC::fit(d, 5);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
  EXPECT_EQ(report.tree.num_nodes(), 3);  // one split suffices
}

TEST(Adversarial, ExtremeMagnitudes) {
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  const double values[] = {-1e300, -1e-300, 0.0, 1e-300, 1e300, 1e299};
  for (int i = 0; i < 6; ++i) {
    const double x[] = {values[i]};
    d.append(x, {}, i < 3 ? 0 : 1);
  }
  const auto report = core::ScalParC::fit(d, 3);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
}

TEST(Adversarial, SingleClassAmongMany) {
  // 5 declared classes but only class 3 occurs: root must be a pure leaf.
  Schema schema({Schema::continuous("x")}, 5);
  data::Dataset d(schema);
  for (int i = 0; i < 20; ++i) {
    const double x[] = {static_cast<double>(i)};
    d.append(x, {}, 3);
  }
  const auto report = core::ScalParC::fit(d, 2);
  EXPECT_EQ(report.tree.num_nodes(), 1);
  EXPECT_EQ(report.tree.node(0).majority_class, 3);
}

TEST(Adversarial, SkewedBlockSizesAcrossRanks) {
  // fit() gives contiguous equal blocks; emulate extreme skew by calling
  // fit_rank directly with all data on one rank.
  data::GeneratorConfig config;
  config.seed = 15;
  const data::QuestGenerator generator(config);
  const data::Dataset all = generator.generate(0, 200);
  std::vector<core::InductionResult> results(3);
  mp::run_ranks(3, kZero, [&](mp::Comm& comm) {
    const data::Dataset block =
        comm.rank() == 1 ? all : data::Dataset(generator.schema());
    const std::int64_t first_rid = comm.rank() <= 1 ? 0 : 200;
    results[static_cast<std::size_t>(comm.rank())] =
        core::ScalParC::fit_rank(comm, block, first_rid, 200, {});
  });
  const core::DecisionTree reference = core::ScalParC::fit(all, 1).tree;
  for (const auto& result : results) {
    EXPECT_TRUE(reference.same_structure(result.tree));
  }
}

// ---------------------------------------------------------------------------
// Full option-matrix invariance sweep.
// ---------------------------------------------------------------------------

struct OptionCase {
  core::SplitCriterion criterion;
  core::CategoricalSplit categorical;
  core::SplittingStrategy strategy;
  const char* name;
};

// gtest appends the printed parameter to each listed test name; without
// this it would dump the struct's raw bytes (padding and a pointer), and
// the names would change from build to build.
void PrintTo(const OptionCase& c, std::ostream* os) { *os << c.name; }

class OptionMatrix : public ::testing::TestWithParam<OptionCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllCombos, OptionMatrix,
    ::testing::Values(
        OptionCase{core::SplitCriterion::kGini, core::CategoricalSplit::kMultiWay,
                   core::SplittingStrategy::kDistributedHash, "gini_multi_dist"},
        OptionCase{core::SplitCriterion::kGini, core::CategoricalSplit::kMultiWay,
                   core::SplittingStrategy::kReplicatedHash, "gini_multi_repl"},
        OptionCase{core::SplitCriterion::kGini, core::CategoricalSplit::kBinarySubset,
                   core::SplittingStrategy::kDistributedHash, "gini_subset_dist"},
        OptionCase{core::SplitCriterion::kEntropy, core::CategoricalSplit::kMultiWay,
                   core::SplittingStrategy::kDistributedHash, "entropy_multi_dist"},
        OptionCase{core::SplitCriterion::kEntropy, core::CategoricalSplit::kBinarySubset,
                   core::SplittingStrategy::kReplicatedHash, "entropy_subset_repl"},
        OptionCase{core::SplitCriterion::kEntropy, core::CategoricalSplit::kBinarySubset,
                   core::SplittingStrategy::kDistributedHash, "entropy_subset_dist"}),
    [](const ::testing::TestParamInfo<OptionCase>& info) {
      return info.param.name;
    });

TEST_P(OptionMatrix, PInvarianceAndOracleAgreement) {
  const OptionCase& params = GetParam();
  data::GeneratorConfig config;
  config.seed = 67;
  config.function = data::LabelFunction::kF3;  // splits on a categorical
  config.num_attributes = 9;
  config.label_noise = 0.03;
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 350);

  core::InductionControls controls;
  controls.options.max_depth = 8;
  controls.options.criterion = params.criterion;
  controls.options.categorical_split = params.categorical;
  controls.strategy = params.strategy;

  const core::DecisionTree serial =
      sprint::fit_serial_sprint(training, controls.options);
  for (const int p : {1, 3, 6}) {
    const core::DecisionTree tree =
        core::ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(serial.same_structure(tree)) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Damaged checkpoints: truncation, bit flips and parameter mismatches must
// all surface as CheckpointError — never a crash or a silently wrong tree.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string slurp_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void dump_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string tree_text(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

// Shared fixture state: one checkpointed training run, damaged per-test.
class CheckpointDamage : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("scalparc_ckpt_damage_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_id_++)))
                .string();
    data::GeneratorConfig config;
    config.seed = 11;
    training_ = data::QuestGenerator(config).generate(0, 800);
    controls_.options.max_depth = 4;
    controls_.checkpoint.directory = root_;
    expected_ =
        tree_text(core::ScalParC::fit(training_, 2, controls_).tree);
    latest_ = core::checkpoint_level_dir(
        root_, *core::checkpoint_latest_level(root_));
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  core::FitReport resume() {
    return core::ScalParC::resume_from_checkpoint(training_, 2, controls_);
  }

  std::string root_;
  std::string latest_;
  data::Dataset training_{data::Schema({data::Schema::continuous("x")}, 2)};
  core::InductionControls controls_;
  std::string expected_;
  static inline int next_id_ = 0;
};

TEST_F(CheckpointDamage, IntactCheckpointResumesToIdenticalTree) {
  EXPECT_EQ(tree_text(resume().tree), expected_);
}

TEST_F(CheckpointDamage, TruncatedManifestRejected) {
  // A manifest missing its 'end' marker is truncated: the reader must throw
  // and the level scan must stop treating that level as complete. Truncating
  // every level's manifest leaves nothing to resume from.
  const int old_latest = *core::checkpoint_latest_level(root_);
  for (int level = 0; level <= old_latest; ++level) {
    const fs::path manifest =
        fs::path(core::checkpoint_level_dir(root_, level)) / "MANIFEST";
    std::string bytes = slurp_file(manifest);
    ASSERT_NE(bytes.find("end\n"), std::string::npos);
    dump_file(manifest, bytes.substr(0, bytes.rfind("end")));
  }
  EXPECT_THROW(core::checkpoint_read_manifest(latest_), core::CheckpointError);
  EXPECT_FALSE(core::checkpoint_latest_level(root_).has_value());
  EXPECT_THROW(resume(), core::CheckpointError);
}

TEST_F(CheckpointDamage, TruncatedSectionFileRejected) {
  const fs::path section = fs::path(latest_) / "rank0_cont0.bin";
  const std::string bytes = slurp_file(section);
  ASSERT_GT(bytes.size(), 16u);
  dump_file(section, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(resume(), core::CheckpointError);
}

TEST_F(CheckpointDamage, BitFlippedSectionFileRejected) {
  const fs::path section = fs::path(latest_) / "rank1_cont0.bin";
  std::string bytes = slurp_file(section);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 3] ^= 0x10;  // same size, different content
  dump_file(section, bytes);
  EXPECT_THROW(resume(), core::CheckpointError);
}

TEST_F(CheckpointDamage, BitFlippedTreeFileRejected) {
  const fs::path tree_file = fs::path(latest_) / "tree.txt";
  std::string bytes = slurp_file(tree_file);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x04;
  dump_file(tree_file, bytes);
  EXPECT_THROW(resume(), core::CheckpointError);
}

TEST_F(CheckpointDamage, BitFlippedActiveSetRejected) {
  const fs::path active = fs::path(latest_) / "active.bin";
  std::string bytes = slurp_file(active);
  ASSERT_FALSE(bytes.empty());
  bytes[0] ^= 0x01;
  dump_file(active, bytes);
  EXPECT_THROW(resume(), core::CheckpointError);
}

TEST_F(CheckpointDamage, MismatchedOptionsRejected) {
  controls_.options.max_depth = 9;  // changes the fingerprint
  EXPECT_THROW(resume(), core::CheckpointError);
}

TEST_F(CheckpointDamage, MismatchedRankCountRejected) {
  EXPECT_THROW(
      core::ScalParC::resume_from_checkpoint(training_, 4, controls_),
      core::CheckpointError);
}

TEST_F(CheckpointDamage, DamagedLatestLevelFallsBackToEarlierOne) {
  // Destroy the newest level's manifest; the resume scan must skip it and
  // restore the next-newest complete checkpoint, still reproducing the tree.
  const int damaged = *core::checkpoint_latest_level(root_);
  ASSERT_GT(damaged, 0);
  dump_file(fs::path(latest_) / "MANIFEST", "scalparc-ckpt v1\nlevel ");
  ASSERT_EQ(*core::checkpoint_latest_level(root_), damaged - 1);
  EXPECT_EQ(tree_text(resume().tree), expected_);
}

// Segment offsets that pass their CRC but are unsorted are structural
// damage. Every restore path must call it CheckpointCorruptError — the class
// fit_with_recovery answers by discarding the level — rather than a plain
// CheckpointError, which would re-resume the same unusable level until the
// retries run out.
TEST_F(CheckpointDamage, UnsortedSegmentOffsetsAreCorruptInEveryRestorePath) {
  const fs::path section = fs::path(latest_) / "rank0_cont0_off.bin";
  std::string bytes = slurp_file(section);
  std::vector<std::uint64_t> offsets(bytes.size() / sizeof(std::uint64_t));
  ASSERT_GE(offsets.size(), 3u) << "the latest level needs >= 2 active nodes";
  std::memcpy(offsets.data(), bytes.data(), bytes.size());
  offsets[1] = offsets.back() + 1;  // bounds intact, interior unsorted
  std::memcpy(bytes.data(), offsets.data(), bytes.size());
  dump_file(section, bytes);
  std::vector<core::detail::SectionInfo> sections =
      core::detail::read_rank_manifest(latest_, 0);
  for (core::detail::SectionInfo& info : sections) {
    if (info.name == "cont0_off") {
      info.crc = util::crc32(bytes.data(), bytes.size());
    }
  }
  core::detail::write_rank_manifest(latest_, 0, sections);

  EXPECT_THROW(resume(), core::CheckpointCorruptError) << "exact, same world";
  core::InductionControls histogram = controls_;
  histogram.options.split_mode = core::SplitMode::kHistogram;
  EXPECT_THROW(core::ScalParC::resume_from_checkpoint(training_, 2, histogram),
               core::CheckpointCorruptError)
      << "histogram";
  core::InductionControls elastic = controls_;
  elastic.checkpoint.allow_repartition = true;
  EXPECT_THROW(core::ScalParC::resume_from_checkpoint(training_, 3, elastic),
               core::CheckpointCorruptError)
      << "exact, re-tiled across 3 ranks";
}

// Fuzz: flip one random byte anywhere in the newest checkpoint; a resume
// must either reject the damage with CheckpointError or — when the flip
// lands in a file the restore path does not read — still produce the exact
// fault-free tree. A wrong tree or any other escape fails the test.
TEST_F(CheckpointDamage, ByteFlipFuzzNeverSilentlyWrong) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(latest_)) {
    if (entry.is_regular_file() && entry.file_size() > 0) {
      files.push_back(entry.path());
    }
  }
  ASSERT_FALSE(files.empty());
  util::Rng rng(20240806);
  int rejected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const fs::path& target = files[rng.next_below(files.size())];
    const std::string original = slurp_file(target);
    std::string mutated = original;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<char>(1 << rng.next_below(8));
    dump_file(target, mutated);
    try {
      EXPECT_EQ(tree_text(resume().tree), expected_) << target;
    } catch (const core::CheckpointError&) {
      ++rejected;
    }
    dump_file(target, original);
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace scalparc
