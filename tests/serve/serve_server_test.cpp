// End-to-end tests for the Server core: batch answers against ground
// truth, in-order batch output, explicit overload shedding, worker-fault
// containment, per-query deadline degradation, graceful drain, and the
// inline read path (snapshot-settled reads answered on the caller's
// thread, over the API and over a socket).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"
#include "support/loopback.hpp"

namespace owlcl {
namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// Blocking request/response round trip.
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

/// Waits until the server's view carries the compiled snapshot.
bool waitForSnapshot(const Server& server) {
  const auto giveUp =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (server.engineView()->snapshot == nullptr) {
    if (std::chrono::steady_clock::now() > giveUp) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Answers ground truth after a fixed wall-clock sleep — a "slow
/// backend" for deadline tests.
class SleepyPlugin : public ReasonerPlugin {
 public:
  SleepyPlugin(const GroundTruth& truth, std::chrono::milliseconds nap)
      : truth_(truth), nap_(nap) {}
  bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
    std::this_thread::sleep_for(nap_);
    if (costNs != nullptr) *costNs = 0;
    return truth_.satisfiable(c);
  }
  bool isSubsumedBy(ConceptId sub, ConceptId sup,
                    std::uint64_t* costNs) override {
    std::this_thread::sleep_for(nap_);
    if (costNs != nullptr) *costNs = 0;
    return truth_.subsumes(sup, sub);
  }
  std::uint64_t testCount() const override { return 0; }

 private:
  const GroundTruth& truth_;
  const std::chrono::milliseconds nap_;
};

class ServeServerTest : public ::testing::Test {
 protected:
  ServeServerTest() {
    GenConfig gc;
    gc.name = "serve-test";
    gc.concepts = 40;
    gc.subClassEdges = 60;
    gc.equivalentAxioms = 2;
    gc.seed = 9;
    onto_ = generateOntology(gc);
  }
  GeneratedOntology onto_;
};

TEST_F(ServeServerTest, BatchAnswersMatchGroundTruthInInputOrder) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });

  const std::size_t n = onto_.tbox->conceptCount();
  std::ostringstream in;
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  std::uint64_t id = 0;
  for (ConceptId a = 0; a < n; a += 3)
    for (ConceptId b = 1; b < n; b += 7) {
      in << "{\"op\":\"subs\",\"id\":" << id++ << ",\"sub\":\""
         << onto_.tbox->conceptName(a) << "\",\"sup\":\""
         << onto_.tbox->conceptName(b) << "\",\"deadline_ms\":30000}\n";
      pairs.emplace_back(a, b);
    }
  in << "{\"op\":\"sat\",\"id\":" << id << ",\"concept\":\""
     << onto_.tbox->conceptName(0) << "\"}\n";
  in << "this is not json\n";
  in << "{\"op\":\"status\",\"id\":7777}\n";

  std::istringstream input(in.str());
  std::ostringstream output;
  server.runBatch(input, output);
  const std::vector<std::string> got = lines(output.str());
  ASSERT_EQ(got.size(), pairs.size() + 3);

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::string& resp = got[i];
    // In-order: each response echoes its input position as its id.
    EXPECT_TRUE(contains(resp, ("\"id\":" + std::to_string(i)).c_str()))
        << resp;
    EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
    const bool want = onto_.truth.subsumes(pairs[i].second, pairs[i].first);
    EXPECT_TRUE(contains(resp, want ? "\"result\":true" : "\"result\":false"))
        << "pair (" << pairs[i].first << "," << pairs[i].second
        << "): " << resp;
  }
  EXPECT_TRUE(contains(got[pairs.size()],
                       onto_.truth.satisfiable(0) ? "\"result\":true"
                                                  : "\"result\":false"));
  EXPECT_TRUE(contains(got[pairs.size() + 1], "\"error\":\"parse\""));
  EXPECT_TRUE(contains(got[pairs.size() + 2], "\"op\":\"status\""));
  EXPECT_TRUE(contains(got[pairs.size() + 2], "\"id\":7777"));

  server.drain();
  ASSERT_NE(server.result(), nullptr);
  EXPECT_FALSE(server.result()->cancelled);
}

TEST_F(ServeServerTest, DescendantsCompleteAfterClassification) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  ASSERT_TRUE(classifier.waitForCompletion(std::chrono::steady_clock::now() +
                                           std::chrono::minutes(1)));

  const std::string resp =
      ask(server, "{\"op\":\"descendants\",\"id\":1,\"concept\":\"" +
                      onto_.tbox->conceptName(0) + "\"}");
  EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
  EXPECT_TRUE(contains(resp, "\"complete\":true")) << resp;
  EXPECT_TRUE(contains(resp, "\"concepts\":[")) << resp;

  const std::string unknown =
      ask(server, R"({"op":"descendants","id":2,"concept":"NoSuch"})");
  EXPECT_TRUE(contains(unknown, "\"error\":\"unknown-concept\"")) << unknown;
  server.drain();
}

TEST_F(ServeServerTest, OverloadShedsWithExplicitResponsesAndNothingHangs) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  ServerConfig sc;
  sc.queryThreads = 1;
  sc.queueCapacity = 2;
  sc.faults.slowClientNs = 5'000'000;  // 5 ms per delivery → queue backs up
  Server server(*onto_.tbox, classifier, backend, sc);
  // Classification waits until every query is in: with no snapshot
  // published, no read can be answered inline, so each one must queue.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  server.start([&, opened] {
    opened.wait();
    return classifier.classify(exec);
  });

  const std::size_t total = 60;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> overloaded{0};
  for (std::size_t i = 0; i < total; ++i) {
    const std::string line = "{\"op\":\"subs\",\"id\":" + std::to_string(i) +
                             ",\"sub\":\"" + onto_.tbox->conceptName(1) +
                             "\",\"sup\":\"" + onto_.tbox->conceptName(2) +
                             "\"}";
    server.trySubmit(line, [&](std::string resp) {
      if (contains(resp, "\"error\":\"overloaded\"")) ++overloaded;
      ++responses;
    });
  }
  gate.set_value();
  server.drain();  // queued queries still answer during drain
  EXPECT_EQ(responses.load(), total) << "a client was left without a response";
  EXPECT_GT(server.shedCount(), 0u) << "admission control never engaged";
  EXPECT_EQ(overloaded.load(), server.shedCount());
}

TEST_F(ServeServerTest, WorkerFaultIsContainedAndServerKeepsServing) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  ServerConfig sc;
  sc.queryThreads = 1;  // deterministic admitted-ordinal sequence
  sc.faults.queryFaultEvery = 2;
  Server server(*onto_.tbox, classifier, backend, sc);
  server.start([&] { return classifier.classify(exec); });

  std::size_t okCount = 0, internalCount = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string resp =
        ask(server, "{\"op\":\"sat\",\"id\":" + std::to_string(i) +
                        ",\"concept\":\"" + onto_.tbox->conceptName(3) +
                        "\",\"deadline_ms\":30000}");
    if (contains(resp, "\"error\":\"internal\""))
      ++internalCount;
    else if (contains(resp, "\"ok\":true"))
      ++okCount;
    else
      ADD_FAILURE() << "unexpected response: " << resp;
  }
  EXPECT_EQ(internalCount, 5u);  // every 2nd admitted query throws
  EXPECT_EQ(okCount, 5u);
  server.drain();
}

TEST_F(ServeServerTest, DeadlineExpiryYieldsExplicitDeadlineError) {
  // Classification never starts (gated), so nothing ever settles; the
  // fallback needs 300 ms per call but the query only affords 50 ms.
  MockReasoner backend(onto_.truth);
  SleepyPlugin slow(onto_.truth, std::chrono::milliseconds(300));
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ServerConfig sc;
  sc.engine.defaultDeadlineMs = 50;
  Server server(*onto_.tbox, classifier, slow, sc);
  server.start([&, opened] {
    opened.wait();
    return classifier.classify(exec);
  });

  const std::string resp =
      ask(server, "{\"op\":\"subs\",\"id\":1,\"sub\":\"" +
                      onto_.tbox->conceptName(1) + "\",\"sup\":\"" +
                      onto_.tbox->conceptName(2) + "\"}");
  EXPECT_TRUE(contains(resp, "\"ok\":false")) << resp;
  EXPECT_TRUE(contains(resp, "\"error\":\"deadline\"")) << resp;

  // The same query with a generous budget succeeds via direct fallback.
  const std::string direct =
      ask(server, "{\"op\":\"subs\",\"id\":2,\"sub\":\"" +
                      onto_.tbox->conceptName(1) + "\",\"sup\":\"" +
                      onto_.tbox->conceptName(2) + "\",\"deadline_ms\":1500}");
  EXPECT_TRUE(contains(direct, "\"ok\":true")) << direct;
  EXPECT_TRUE(contains(direct, "\"method\":\"direct\"")) << direct;
  const bool want = onto_.truth.subsumes(2, 1);
  EXPECT_TRUE(
      contains(direct, want ? "\"result\":true" : "\"result\":false"))
      << direct;

  gate.set_value();
  server.drain();
}

TEST_F(ServeServerTest, DrainIsIdempotentAndRejectsNewWork) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  const std::string before = ask(server, R"({"op":"status","id":1})");
  EXPECT_TRUE(contains(before, "\"ok\":true"));

  server.drain();
  server.drain();  // idempotent
  EXPECT_TRUE(server.draining());
  EXPECT_FALSE(server.submit(R"({"op":"status","id":2})",
                             [](std::string) { FAIL() << "delivered"; }));
}

TEST_F(ServeServerTest, ReadsQueueWithoutSnapshotAndEpochWaitAnswersAfterGate) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&, opened] {
    opened.wait();
    return classifier.classify(exec);
  });

  auto done = std::make_shared<std::promise<std::string>>();
  auto fut = done->get_future();
  const std::thread::id caller = std::this_thread::get_id();
  auto onCaller = std::make_shared<std::atomic<bool>>(true);
  EXPECT_TRUE(server.trySubmit(
      "{\"op\":\"subs\",\"id\":1,\"sub\":\"" + onto_.tbox->conceptName(1) +
          "\",\"sup\":\"" + onto_.tbox->conceptName(2) +
          "\",\"deadline_ms\":60000}",
      [done, caller, onCaller](std::string resp) {
        onCaller->store(std::this_thread::get_id() == caller);
        done->set_value(std::move(resp));
      }));
  // Nothing settles while the gate is shut: the read sits in the epoch-wait
  // rung on a query worker, not on this thread.
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  gate.set_value();
  const std::string resp = fut.get();
  EXPECT_FALSE(onCaller->load());
  EXPECT_TRUE(contains(resp, "\"method\":\"settled\"")) << resp;
  const bool want = onto_.truth.subsumes(2, 1);
  EXPECT_TRUE(contains(resp, want ? "\"result\":true" : "\"result\":false"))
      << resp;
  EXPECT_EQ(server.engineStats().walkAnswers, 1u);
  EXPECT_EQ(server.engineStats().snapshotAnswers, 0u);
  server.drain();
}

TEST_F(ServeServerTest, FaultHookAndServedCountInlineAnswers) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  ServerConfig sc;
  sc.faults.queryFaultEvery = 2;
  Server server(*onto_.tbox, classifier, backend, sc);
  server.start([&] { return classifier.classify(exec); });
  ASSERT_TRUE(waitForSnapshot(server));

  std::size_t okCount = 0, internalCount = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string resp = askInline(
        server, "{\"op\":\"sat\",\"id\":" + std::to_string(i) +
                    ",\"concept\":\"" + onto_.tbox->conceptName(3) + "\"}");
    if (contains(resp, "\"error\":\"internal\""))
      ++internalCount;
    else if (contains(resp, "\"ok\":true"))
      ++okCount;
    else
      ADD_FAILURE() << "unexpected response: " << resp;
  }
  EXPECT_EQ(internalCount, 5u);  // every 2nd answered read throws
  EXPECT_EQ(okCount, 5u);
  EXPECT_EQ(server.served(), 10u);
  server.drain();
}

TEST_F(ServeServerTest, DrainedServerRefusesInsteadOfAnsweringInline) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  ASSERT_TRUE(waitForSnapshot(server));
  server.drain();

  for (const std::string& line :
       {"{\"op\":\"sat\",\"id\":3,\"concept\":\"" +
            onto_.tbox->conceptName(0) + "\"}",
        std::string(R"({"op":"status","id":3})")}) {
    std::string resp;
    EXPECT_FALSE(server.trySubmit(line, [&](std::string r) { resp = r; }));
    EXPECT_EQ(resp, R"({"id":3,"ok":false,"error":"shutdown"})");
  }
  EXPECT_EQ(server.served(), 0u);
  EXPECT_EQ(server.engineStats().snapshotAnswers, 0u);
}

/// runSocket on its own thread over a wake pipe; the destructor wakes and
/// joins it.
class SocketFront {
 public:
  explicit SocketFront(Server& server) : port_(test::freeLoopbackPort()) {
    if (::pipe(wake_) != 0) throw std::runtime_error("cannot create pipe");
    thread_ = std::thread([this, &server] {
      std::string err;
      server.runSocket(port_, wake_[0], &err);
    });
  }
  SocketFront(const SocketFront&) = delete;
  SocketFront& operator=(const SocketFront&) = delete;
  ~SocketFront() {
    const char b = 1;
    (void)!::write(wake_[1], &b, 1);
    thread_.join();
    ::close(wake_[0]);
    ::close(wake_[1]);
  }
  std::uint16_t port() const { return port_; }

 private:
  std::uint16_t port_;
  int wake_[2] = {-1, -1};
  std::thread thread_;
};

TEST_F(ServeServerTest, PipelinedSocketReadsReplyInInputOrder) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  ASSERT_TRUE(waitForSnapshot(server));

  std::vector<std::string> requests;
  const auto id = [&requests] { return std::to_string(requests.size()); };
  const std::size_t n = onto_.tbox->conceptCount();
  for (ConceptId c = 0; c + 1 < n; c += 4) {
    const std::string a = onto_.tbox->conceptName(c);
    const std::string b = onto_.tbox->conceptName(c + 1);
    requests.push_back(R"({"op":"subs","id":)" + id() + R"(,"sub":")" + a +
                       R"(","sup":")" + b + "\"}");
    requests.push_back(R"({"op":"sat","id":)" + id() + R"(,"concept":")" + a +
                       "\"}");
    requests.push_back(R"({"op":"descendants","id":)" + id() +
                       R"(,"concept":")" + b + "\"}");
    requests.push_back(R"({"op":"batch","id":)" + id() +
                       R"(,"queries":[{"op":"sat","concept":")" + b +
                       R"("},{"op":"subs","sub":")" + b + R"(","sup":")" + a +
                       "\"}]}");
  }
  std::string pipelined;
  for (const std::string& r : requests) pipelined += r + "\n";

  SocketFront front(server);
  const int fd = test::connectLoopback(front.port());
  ASSERT_GE(fd, 0) << "server never listened";
  ASSERT_TRUE(test::sendAll(fd, pipelined));  // one burst, replies read after
  std::string received;
  char chunk[4096];
  while (static_cast<std::size_t>(std::count(received.begin(), received.end(),
                                             '\n')) < requests.size()) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    ASSERT_GT(got, 0) << "connection closed early";
    received.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);

  const std::vector<std::string> replies = lines(received);
  ASSERT_EQ(replies.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(replies[i], ask(server, requests[i])) << requests[i];
  server.drain();
}

TEST_F(ServeServerTest, ClientHangingUpBeforeItsRepliesLeavesServerUp) {
  MockReasoner backend(onto_.truth);
  ClassifierConfig config;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto_.tbox, backend, config);
  Server server(*onto_.tbox, classifier, backend, ServerConfig{});
  server.start([&] { return classifier.classify(exec); });
  ASSERT_TRUE(waitForSnapshot(server));

  SocketFront front(server);
  std::string burst;
  for (int i = 0; i < 300; ++i)
    burst += R"({"op":"sat","concept":")" + onto_.tbox->conceptName(0) +
             "\"}\n";
  const int rude = test::connectLoopback(front.port());
  ASSERT_GE(rude, 0);
  ASSERT_TRUE(test::sendAll(rude, burst));
  ::close(rude);  // unread replies: the server's next writes hit a reset

  // Still serving (a SIGPIPE would have ended this process).
  const int fd = test::connectLoopback(front.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(test::sendAll(fd, "{\"op\":\"status\",\"id\":1}\n"));
  std::string reply;
  EXPECT_TRUE(test::readLine(fd, &reply));
  ::close(fd);
  EXPECT_TRUE(contains(reply, "\"op\":\"status\"")) << reply;
  server.drain();
}

}  // namespace
}  // namespace owlcl
