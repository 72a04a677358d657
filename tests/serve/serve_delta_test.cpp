// Live delta transactions through the Server: protocol verbs, the
// copy-on-write engine view swap on commit, in-order batch execution of
// transaction scripts (a later line must never overtake a delta verb),
// error surfaces (verbs without a reclassifier, commit without begin), and
// inline snapshot reads that match queued answers on every generation.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "owl/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "serve/server.hpp"

namespace owlcl {
namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::string ask(Server& server, const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  auto fut = done->get_future();
  const bool ok = server.submit(
      line, [done](std::string resp) { done->set_value(std::move(resp)); });
  if (!ok) return "<rejected>";
  return fut.get();
}

/// trySubmit round trip; "<queued>" unless answered inline (on this thread).
std::string askInline(Server& server, const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  auto fut = done->get_future();
  const std::thread::id caller = std::this_thread::get_id();
  server.trySubmit(line, [done, caller](std::string resp) {
    done->set_value(std::this_thread::get_id() == caller ? std::move(resp)
                                                         : "<queued>");
  });
  return fut.get();
}

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

class ServeDeltaTest : public ::testing::Test {
 protected:
  ServeDeltaTest() : pool_(2), exec_(pool_) {
    parseFunctionalSyntax(R"(
      Ontology(
        Declaration(Class(Person)) Declaration(Class(Student))
        Declaration(Class(Employee))
        SubClassOf(Student Person)
        SubClassOf(Employee Person)
      ))",
                          tbox_);
    reasoner_ = std::make_unique<TableauReasoner>(tbox_);
    classifier_ = std::make_unique<ParallelClassifier>(tbox_, *reasoner_);
    delta_ = std::make_unique<DeltaReclassifier>(
        exec_,
        [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
          return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
        },
        ClassifierConfig{});
  }

  /// Builds, wires, and starts a server; adopts generation 0.
  std::unique_ptr<Server> startServer() {
    ServerConfig sc;
    sc.queryThreads = 2;
    auto server =
        std::make_unique<Server>(tbox_, *classifier_, *reasoner_, sc);
    delta_->adoptInitial(noOwn<const TBox>(&tbox_),
                         noOwn<ReasonerPlugin>(reasoner_.get()),
                         noOwn<ParallelClassifier>(classifier_.get()),
                         nullptr);
    server->setDeltaReclassifier(delta_.get());
    server->start([this] { return classifier_->classify(exec_); });
    return server;
  }

  ThreadPool pool_;
  RealExecutor exec_;
  TBox tbox_;
  std::unique_ptr<TableauReasoner> reasoner_;
  std::unique_ptr<ParallelClassifier> classifier_;
  std::unique_ptr<DeltaReclassifier> delta_;
};

TEST_F(ServeDeltaTest, TransactionLifecycleAndViewSwap) {
  auto server = startServer();

  // Verb guards: nothing staged/committed outside a transaction.
  EXPECT_TRUE(contains(ask(*server, R"({"op":"commit"})"), "no delta"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"SubClassOf(A B)"})j"),
      "no delta"));

  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"),
                       "\"op\":\"begin-delta\",\"txn\":1"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"),
                       "already open"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"Declaration(Class(Intern))"})j"),
      "\"staged\":1"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"SubClassOf(Intern Employee)"})j"),
      "\"staged\":2"));
  // Malformed axioms are an error but keep the transaction open.
  EXPECT_TRUE(contains(
      ask(*server, R"({"op":"add-axiom","axiom":"SubClassOf(broken"})"),
      "\"error\":\"txn\""));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"status"})"),
                       "\"txn_open\":true"));

  // Unknown until the commit swaps the view...
  EXPECT_TRUE(contains(
      ask(*server, R"({"op":"sat","concept":"Intern","deadline_ms":30000})"),
      "unknown-concept"));
  const std::string commit = ask(*server, R"({"op":"commit"})");
  EXPECT_TRUE(contains(commit, "\"op\":\"commit\",\"txn\":1")) << commit;
  EXPECT_TRUE(contains(commit, "\"epoch\":1")) << commit;
  // ...then answers settle against the new generation.
  EXPECT_TRUE(contains(
      ask(*server,
          R"({"op":"subs","sub":"Intern","sup":"Person","deadline_ms":30000})"),
      "\"result\":true"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"status"})"),
                       "\"delta_epoch\":1"));

  // Abort: staged work vanishes, the generation stays put.
  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"),
                       "\"txn\":2"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"retract-axiom","axiom":"SubClassOf(Intern Employee)"})j"),
      "\"staged\":1"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"abort"})"),
                       "\"op\":\"abort\",\"txn\":2"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"({"op":"subs","sub":"Intern","sup":"Employee","deadline_ms":30000})"),
      "\"result\":true"));
  server->drain();
}

TEST_F(ServeDeltaTest, InlineAnswersAreByteEqualToQueuedAcrossCommit) {
  auto server = startServer();
  const auto settleBy =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (server->engineView()->snapshot == nullptr) {
    ASSERT_LT(std::chrono::steady_clock::now(), settleBy) << "no snapshot";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Every read verb over every concept (and one unknown name), both
  // paths: trySubmit answers from the snapshot on this thread, submit
  // through a query worker.
  const auto compareAll = [&server](const std::vector<std::string>& names) {
    std::vector<std::string> lines;
    std::string batch = R"({"op":"batch","id":99,"queries":[)";
    for (const std::string& a : names) {
      lines.push_back(R"({"op":"sat","id":1,"concept":")" + a + "\"}");
      lines.push_back(R"({"op":"descendants","id":2,"concept":")" + a + "\"}");
      for (const std::string& b : names) {
        lines.push_back(R"({"op":"subs","id":3,"sub":")" + a +
                        R"(","sup":")" + b + "\"}");
        if (batch.back() != '[') batch.push_back(',');
        batch += R"({"op":"subs","sub":")" + a + R"(","sup":")" + b + "\"}";
      }
    }
    lines.push_back(batch + "]}");
    for (const std::string& line : lines) {
      const std::string inlined = askInline(*server, line);
      EXPECT_EQ(inlined, ask(*server, line)) << line;
      EXPECT_TRUE(contains(inlined, "\"ok\":true") ||
                  contains(inlined, "unknown-concept"))
          << inlined;
    }
  };
  compareAll({"Person", "Student", "Employee", "Intern"});  // Intern unknown

  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"), "\"txn\":1"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"Declaration(Class(Intern))"})j"),
      "\"staged\":1"));
  EXPECT_TRUE(contains(
      ask(*server,
          R"j({"op":"add-axiom","axiom":"SubClassOf(Intern Student)"})j"),
      "\"staged\":2"));
  EXPECT_TRUE(contains(ask(*server, R"({"op":"commit"})"), "\"epoch\":1"));
  ASSERT_NE(server->engineView()->snapshot, nullptr);
  EXPECT_EQ(askInline(*server,
                      R"({"op":"subs","sub":"Intern","sup":"Person"})"),
            R"({"ok":true,"op":"subs","result":true,"method":"settled"})");
  compareAll({"Person", "Student", "Employee", "Intern"});
  server->drain();
}

TEST_F(ServeDeltaTest, VerbsWithoutReclassifierAreUnsupported) {
  ServerConfig sc;
  sc.queryThreads = 1;
  Server server(tbox_, *classifier_, *reasoner_, sc);
  server.start([this] { return classifier_->classify(exec_); });
  EXPECT_TRUE(contains(ask(server, R"({"op":"begin-delta"})"),
                       "\"error\":\"unsupported\""));
  server.drain();
}

TEST_F(ServeDeltaTest, BatchExecutesDeltaScriptInInputOrder) {
  auto server = startServer();
  // With two workers a naive batch pump would let "commit" overtake
  // "begin-delta"; the barrier keeps the script transactional.
  std::istringstream in(
      R"j({"op":"begin-delta"}
{"op":"add-axiom","axiom":"Declaration(Class(Contractor))"}
{"op":"add-axiom","axiom":"SubClassOf(Contractor Employee)"}
{"op":"commit"}
{"op":"subs","sub":"Contractor","sup":"Person","deadline_ms":30000}
{"op":"begin-delta"}
{"op":"abort"}
)j");
  std::ostringstream out;
  server->runBatch(in, out);
  server->drain();

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 7u) << out.str();
  EXPECT_TRUE(contains(got[0], "\"op\":\"begin-delta\",\"txn\":1"));
  EXPECT_TRUE(contains(got[1], "\"staged\":1"));
  EXPECT_TRUE(contains(got[2], "\"staged\":2"));
  EXPECT_TRUE(contains(got[3], "\"op\":\"commit\",\"txn\":1"));
  EXPECT_TRUE(contains(got[4], "\"result\":true"));
  EXPECT_TRUE(contains(got[5], "\"op\":\"begin-delta\",\"txn\":2"));
  EXPECT_TRUE(contains(got[6], "\"op\":\"abort\",\"txn\":2"));
}

TEST_F(ServeDeltaTest, OpenTransactionAbortsCleanlyOnShutdown) {
  auto server = startServer();
  EXPECT_TRUE(contains(ask(*server, R"({"op":"begin-delta"})"), "\"txn\":1"));
  server->drain();
  // The CLI aborts an open transaction after drain; mirror that here and
  // confirm the reclassifier is left clean for the next session.
  std::string err;
  EXPECT_TRUE(delta_->txnOpen());
  EXPECT_TRUE(delta_->abortTxn(&err)) << err;
  EXPECT_FALSE(delta_->txnOpen());
  EXPECT_EQ(delta_->deltaEpoch(), 0u);
}

}  // namespace
}  // namespace owlcl
