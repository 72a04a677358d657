// Serve-mode drills against the real CLI binary: batch queries answered
// through a live background classification, kill -9-equivalent death
// mid-run (both at a checkpoint crash point and after the Nth served
// query, in batch and socket mode), and `serve --resume` whose answers
// must byte-match an uninterrupted run. stdout carries only response
// lines (diagnostics go to stderr), so the comparison is a straight slurp.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "gen/generator.hpp"
#include "owl/printer.hpp"
#include "support/loopback.hpp"
#include "support/test_dir.hpp"

#ifndef OWLCL_CLI_PATH
#error "OWLCL_CLI_PATH must be defined to the owlcl binary path"
#endif

namespace owlcl {
namespace {

namespace fs = std::filesystem;

int run(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ServeCliTest : public ::testing::Test {
 protected:
  void TearDown() override { fs::remove_all(base_); }

  void SetUp() override {
    base_ = test::perTestDir();

    // Big enough that checkpoint crash points fire mid-classification.
    GenConfig gc;
    gc.name = "serve-drill";
    gc.concepts = 60;
    gc.subClassEdges = 90;
    gc.equivalentAxioms = 3;
    gc.seed = 5;
    const GeneratedOntology onto = generateOntology(gc);
    onto_ = base_ + "/drill.ofn";
    std::ofstream out(onto_);
    writeFunctionalSyntax(*onto.tbox, out);
    out.close();
    ASSERT_TRUE(out.good());

    // Deterministic query file: subs/sat only (no status — its counters
    // vary run to run) with generous deadlines so every answer settles
    // from the store, never the direct-fallback rung.
    queries_ = base_ + "/queries.txt";
    std::ofstream q(queries_);
    std::uint64_t id = 0;
    const std::size_t n = onto.tbox->conceptCount();
    concept_ = onto.tbox->conceptName(0);
    for (std::size_t a = 0; a < n; a += 5)
      for (std::size_t b = 2; b < n; b += 9)
        q << "{\"op\":\"subs\",\"id\":" << id++ << ",\"sub\":\""
          << onto.tbox->conceptName(static_cast<ConceptId>(a))
          << "\",\"sup\":\""
          << onto.tbox->conceptName(static_cast<ConceptId>(b))
          << "\",\"deadline_ms\":60000}\n";
    for (std::size_t c = 0; c < n; c += 4)
      q << "{\"op\":\"sat\",\"id\":" << id++ << ",\"concept\":\""
        << onto.tbox->conceptName(static_cast<ConceptId>(c))
        << "\",\"deadline_ms\":60000}\n";
    q.close();
    ASSERT_TRUE(q.good());

    golden_ = base_ + "/golden.txt";
    ASSERT_EQ(run(serveCmd(base_ + "/ckpt-golden", "") + " > " + golden_ +
                  " 2>/dev/null"),
              0);
    ASSERT_FALSE(slurp(golden_).empty());
  }

  std::string serveCmd(const std::string& dir,
                       const std::string& extra) const {
    return std::string(OWLCL_CLI_PATH) + " serve " + onto_ +
           " --workers=3 --checkpoint-dir=" + dir +
           " --query-file=" + queries_ + " " + extra;
  }

  /// Crash via `crashExtra`, then resume plainly; answers must byte-match
  /// the uninterrupted golden run.
  void drill(const std::string& name, const std::string& crashExtra) {
    const std::string dir = base_ + "/ckpt-" + name;
    const std::string out = base_ + "/" + name + ".txt";
    ASSERT_EQ(run(serveCmd(dir, crashExtra) + " > /dev/null 2>&1"), 137)
        << name << ": crash point never fired";
    ASSERT_EQ(run(serveCmd(dir, "--resume") + " > " + out + " 2>/dev/null"), 0)
        << name << ": resume failed";
    EXPECT_EQ(slurp(golden_), slurp(out))
        << name << ": served answers differ from the uninterrupted run";
  }

  std::string base_;
  std::string onto_;
  std::string queries_;
  std::string golden_;
  std::string concept_;  // a declared concept name, for ad-hoc queries
};

// Classification-layer crash point while the serving path is live.
TEST_F(ServeCliTest, KillAtBarrierAndResumeByteMatches) {
  drill("at-barrier", "--inject-crash=point=at-barrier,after=2");
}

TEST_F(ServeCliTest, KillMidJournalAndResumeByteMatches) {
  drill("after-journal", "--inject-crash=point=after-journal,after=300");
}

// Serving-layer crash point: die right after the 3rd answered query.
TEST_F(ServeCliTest, KillAfterServedQueriesAndResumeByteMatches) {
  drill("after-queries", "--inject-serve-faults=crash-after-queries=3");
}

// The same crash point on the socket front-end, where reads after the
// run are answered inline on the connection thread: those answers must
// count, so the process dies right after the Nth of them.
TEST_F(ServeCliTest, KillAfterServedQueriesCountsInlineSocketAnswers) {
  constexpr int kCrashAfter = 60;
  const std::uint16_t port = test::freeLoopbackPort();
  ASSERT_NE(port, 0);
  const std::string cli = OWLCL_CLI_PATH;
  const std::string portArg = "--port=" + std::to_string(port);
  const std::string faultArg = "--inject-serve-faults=crash-after-queries=" +
                               std::to_string(kCrashAfter);
  struct Child {  // SIGKILLs and reaps the server if the test bails out
    pid_t pid = -1;
    Child() = default;
    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;
    ~Child() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    const int devNull = ::open("/dev/null", O_WRONLY);
    if (devNull >= 0) ::dup2(devNull, STDERR_FILENO);
    ::execl(cli.c_str(), cli.c_str(), "serve", onto_.c_str(), "--workers=3",
            portArg.c_str(), faultArg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  const int fd = test::connectLoopback(port);
  ASSERT_GE(fd, 0) << "server never listened";
  // Status (answered and counted like any query) until the run is done;
  // its snapshot is published with it.
  int answered = 0;
  std::string reply;
  while (reply.find("\"state\":\"done\"") == std::string::npos) {
    ASSERT_LT(answered, kCrashAfter - 1) << "run outlasted the status polls";
    ASSERT_TRUE(test::sendAll(fd, "{\"op\":\"status\"}\n"));
    ASSERT_TRUE(test::readLine(fd, &reply)) << "died while classifying";
    ++answered;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string sat = "{\"op\":\"sat\",\"concept\":\"" + concept_ + "\"}\n";
  while (answered < kCrashAfter) {
    ASSERT_TRUE(test::sendAll(fd, sat));
    ASSERT_TRUE(test::readLine(fd, &reply)) << "died after " << answered;
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    ++answered;
  }
  ::close(fd);

  int status = 0;
  const auto giveUp =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (::waitpid(child.pid, &status, WNOHANG) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), giveUp)
        << "still serving after " << kCrashAfter << " answers";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  child.pid = -1;  // reaped
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);
}

// Injected worker faults produce explicit "internal" errors but never
// kill the server; a fault-free rerun over the same checkpoint dir
// (completed run → resume is an identity op) matches golden.
TEST_F(ServeCliTest, QueryFaultsAreContained) {
  const std::string dir = base_ + "/ckpt-faulty";
  const std::string out = base_ + "/faulty.txt";
  ASSERT_EQ(run(serveCmd(dir, "--inject-serve-faults=query-fault-every=7") +
                " > " + out + " 2>/dev/null"),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("\"error\":\"internal\""), std::string::npos)
      << "fault injection never fired";
  const std::string out2 = base_ + "/faulty-rerun.txt";
  ASSERT_EQ(run(serveCmd(dir, "--resume") + " > " + out2 + " 2>/dev/null"), 0);
  EXPECT_EQ(slurp(golden_), slurp(out2));
}

// Malformed protocol lines answer with parse errors; the process exits 0.
TEST_F(ServeCliTest, MalformedQueryFileNeverCrashesTheServer) {
  const std::string bad = base_ + "/bad-queries.txt";
  {
    std::ofstream q(bad);
    q << "not json\n"
      << "{\"op\":\"subs\"\n"
      << "{}\n"
      << "{\"op\":\"sat\",\"concept\":\"NoSuchConcept\"}\n"
      << std::string(100000, 'x') << "\n"
      << "{\"op\":\"subs\",\"sub\":\"A\",\"sup\":\n";
  }
  const std::string out = base_ + "/bad.txt";
  ASSERT_EQ(run(std::string(OWLCL_CLI_PATH) + " serve " + onto_ +
                " --workers=2 --query-file=" + bad + " > " + out +
                " 2>/dev/null"),
            0);
  const std::string text = slurp(out);
  // One response line per input line, each an explicit error.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("\"error\":\"parse\""), std::string::npos);
  EXPECT_NE(text.find("\"error\":\"unknown-concept\""), std::string::npos);
}

}  // namespace
}  // namespace owlcl
