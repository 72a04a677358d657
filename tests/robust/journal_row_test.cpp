// Row-granular journaling (DESIGN.md §9): told seeding and EL routing hand
// whole rows of verdicts to the checkpoint hook, and CheckpointManager
// journals each row with one write. The journal must hold byte for byte
// what one append per verdict writes, and a crash drill whose ordinal
// falls inside a row must leave exactly the per-record prefix on disk.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "owl/obo_parser.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injector.hpp"
#include "robust/journal.hpp"
#include "support/test_dir.hpp"

namespace owlcl {
namespace {

namespace fs = std::filesystem;

/// Forwards verdicts and barriers to a CheckpointManager but does not
/// override recordSettledRow, so rows reach the manager through the
/// hook's default one-verdict-at-a-time expansion.
class PerVerdictHook : public CheckpointHook {
 public:
  explicit PerVerdictHook(CheckpointManager& inner) : inner_(inner) {}

  void recordSettled(SettledKind kind, ConceptId x, ConceptId y,
                     std::uint64_t epoch) override {
    inner_.recordSettled(kind, x, y, epoch);
  }
  void epochBarrier(
      const ClassifierProgress& progress,
      const std::function<ClassifierCheckpoint()>& capture) override {
    inner_.epochBarrier(progress, capture);
  }

 private:
  CheckpointManager& inner_;
};

struct JournaledRun {
  std::uint64_t records = 0;
  std::uint64_t writes = 0;
};

void parseAnatomy(TBox& tbox) {
  parseOboFile(std::string(OWLCL_EXAMPLE_DATA_DIR) + "/anatomy.obo", tbox);
}

std::uint64_t anatomyHash() {
  TBox tbox;
  parseAnatomy(tbox);
  return ontologyContentHash(tbox);
}

/// One-worker, told-seeded, routed classification of anatomy.obo,
/// journaled into `dir` — through the manager's row path, or through
/// PerVerdictHook when `perVerdict`.
JournaledRun classifyAnatomy(const std::string& dir, bool perVerdict,
                             CrashInjector* crash = nullptr) {
  TBox tbox;
  parseAnatomy(tbox);
  ClassifierConfig config;
  config.toldSeeding = true;
  config.routeEl = ElRouting::kOn;
  CheckpointConfig cc;
  cc.dir = dir;
  CheckpointManager mgr(cc, ontologyContentHash(tbox), config.seed);
  mgr.setCrashInjector(crash);
  std::string err;
  EXPECT_TRUE(mgr.beginFresh(&err)) << err;
  PerVerdictHook forward(mgr);
  config.checkpoint = perVerdict ? static_cast<CheckpointHook*>(&forward)
                                 : static_cast<CheckpointHook*>(&mgr);
  TableauReasoner reasoner(tbox);
  ParallelClassifier classifier(tbox, reasoner, config);
  ThreadPool pool(1);
  RealExecutor exec(pool);
  EXPECT_TRUE(classifier.classify(exec).complete());
  return {mgr.journalAppends(), mgr.journalWrites()};
}

std::vector<unsigned char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::vector<JournalRecord> replayAll(const std::string& dir) {
  std::vector<JournalRecord> recs;
  std::string err;
  EXPECT_TRUE(ResultJournal::replay(dir + "/journal.wal", anatomyHash(),
                                    ClassifierConfig{}.seed, &recs, &err))
      << err;
  return recs;
}

bool sameRow(const JournalRecord& a, const JournalRecord& b) {
  return a.kind == b.kind && a.x == b.x;
}

class JournalRowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = test::perTestDir();
    reference_ = base_ + "/per-verdict";
    classifyAnatomy(reference_, /*perVerdict=*/true);
    referenceBytes_ = readAll(reference_ + "/journal.wal");
    referenceRecords_ = replayAll(reference_);
  }
  void TearDown() override { fs::remove_all(base_); }

  /// Ordinal of a record strictly inside a routed negative row: the
  /// middle of the first run of >= 3 kNonSubsumption records sharing x.
  /// Routing runs before the division phases, and only its negative
  /// seeding settles non-subsumptions a row at a time.
  std::uint64_t ordinalInsideRoutedRow() const {
    const std::vector<JournalRecord>& r = referenceRecords_;
    for (std::size_t i = 1; i + 1 < r.size(); ++i)
      if (r[i].kind == SettledKind::kNonSubsumption &&
          sameRow(r[i - 1], r[i]) && sameRow(r[i], r[i + 1]))
        return i;
    ADD_FAILURE() << "no routed negative row of length >= 3";
    return 0;
  }

  /// The crashed journal is exactly the first `bytes` bytes of the
  /// uninterrupted per-verdict journal, and replays to its first
  /// `records` records.
  void expectPrefix(const std::string& dir, std::size_t bytes,
                    std::size_t records) const {
    ASSERT_LE(bytes, referenceBytes_.size());
    const std::vector<unsigned char> crashed = readAll(dir + "/journal.wal");
    EXPECT_EQ(crashed,
              std::vector<unsigned char>(referenceBytes_.begin(),
                                         referenceBytes_.begin() +
                                             static_cast<long>(bytes)));
    const std::vector<JournalRecord> replayed = replayAll(dir);
    ASSERT_EQ(replayed.size(), records);
    for (std::size_t i = 0; i < records; ++i) {
      EXPECT_EQ(replayed[i].kind, referenceRecords_[i].kind) << i;
      EXPECT_EQ(replayed[i].x, referenceRecords_[i].x) << i;
      EXPECT_EQ(replayed[i].y, referenceRecords_[i].y) << i;
      EXPECT_EQ(replayed[i].epoch, referenceRecords_[i].epoch) << i;
    }
  }

  std::string base_;
  std::string reference_;
  std::vector<unsigned char> referenceBytes_;
  std::vector<JournalRecord> referenceRecords_;
};

TEST_F(JournalRowTest, RowJournalIsByteIdenticalToPerVerdictJournal) {
  const std::string rows = base_ + "/rows";
  const JournaledRun run = classifyAnatomy(rows, /*perVerdict=*/false);
  ASSERT_GT(referenceBytes_.size(), ResultJournal::kHeaderBytes);
  EXPECT_EQ(readAll(rows + "/journal.wal"), referenceBytes_);
  EXPECT_EQ(run.records, referenceRecords_.size());
  // Seeded and routed rows went out as one write each.
  EXPECT_LT(run.writes, run.records);

  const JournaledRun perVerdict =
      classifyAnatomy(base_ + "/per-verdict-2", /*perVerdict=*/true);
  EXPECT_EQ(perVerdict.writes, perVerdict.records);
}

TEST_F(JournalRowTest, TornWriteInsideRoutedRowLeavesPerRecordPrefix) {
  const std::uint64_t n = ordinalInsideRoutedRow();
  const std::string dir = base_ + "/torn";
  CrashInjector crash(CrashPlan{CrashPoint::kTornWrite, n});
  EXPECT_EXIT(classifyAnatomy(dir, false, &crash),
              ::testing::ExitedWithCode(137), "");
  // N whole records, then half of record N.
  expectPrefix(dir,
               ResultJournal::kHeaderBytes + n * ResultJournal::kRecordBytes +
                   ResultJournal::kRecordBytes / 2,
               n);
}

TEST_F(JournalRowTest, CrashAfterAppendInsideRoutedRowLeavesPerRecordPrefix) {
  const std::uint64_t n = ordinalInsideRoutedRow();
  const std::string dir = base_ + "/after-journal";
  CrashInjector crash(CrashPlan{CrashPoint::kCrashAfterJournal, n});
  EXPECT_EXIT(classifyAnatomy(dir, false, &crash),
              ::testing::ExitedWithCode(137), "");
  expectPrefix(dir,
               ResultJournal::kHeaderBytes +
                   (n + 1) * ResultJournal::kRecordBytes,
               n + 1);
}

}  // namespace
}  // namespace owlcl
