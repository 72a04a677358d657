// serve-read and serve-delta: a Server per generated ontology, driven over
// loopback TCP by closed-loop readers (and, on serve-delta, an open-loop
// delta writer), every answer checked against the generator's truth.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/incremental.hpp"
#include "core/real_executor.hpp"
#include "harness/common.hpp"
#include "owl/parser.hpp"
#include "owl/printer.hpp"
#include "owl/tbox.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "robust/checkpoint.hpp"
#include "robust/delta_journal.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "taxonomy/snapshot.hpp"
#include "util/strings.hpp"

namespace perfbench::detail {
namespace {

using owlcl::ConceptId;

constexpr std::size_t kServeConcepts = 1000;
// Ontologies per run, each served for an equal share of the time, so the
// figures describe the shape rather than one draw of it.
constexpr std::size_t kServeOntologies = 5;
// Set-ups per ontology (each classifies it from scratch). serve-delta
// journals every settled verdict, which makes its set-up about 25 times
// slower, so it repeats fewer.
constexpr std::size_t kReadSetups = 3;
constexpr std::size_t kDeltaSetups = 1;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kBatch = 256;
constexpr double kCommitsPerSecond = 0.5;
constexpr const char* kLeaf = "perfbench_Leaf";
constexpr std::uint64_t kProbeEvery = 4;  // traced runs probe every 4th query

/// Expected answers, from the generator's GroundTruth only.
struct ServeOracle {
  const owlcl::GeneratedOntology* gen = nullptr;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> desc;  // sorted strict descendants
  std::vector<std::string> descJson;           // the same, as a JSON array
  std::vector<ConceptId> satisfiable;

  explicit ServeOracle(const owlcl::GeneratedOntology& g) : gen(&g) {
    const std::size_t n = g.tbox->conceptCount();
    const owlcl::GroundTruth& t = g.truth;
    for (ConceptId c = 0; c < n; ++c) names.push_back(g.tbox->conceptName(c));
    desc.resize(n);
    for (ConceptId x = 0; x < n; ++x) {
      if (t.satisfiable(x)) satisfiable.push_back(x);
      for (ConceptId d = 0; d < n; ++d)
        if (d != x && t.subsumes(x, d) && !t.subsumes(d, x))
          desc[x].push_back(names[d]);
      std::sort(desc[x].begin(), desc[x].end());
      descJson.push_back(toJson(desc[x]));
    }
  }

  static std::string toJson(const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s.push_back(',');
      s += '"' + owlcl::jsonEscape(v[i]) + '"';
    }
    return s + "]";
  }

  /// descJson[x] with the delta leaf inserted in sorted position.
  std::string withLeaf(ConceptId x) const {
    std::vector<std::string> v = desc[x];
    v.insert(std::upper_bound(v.begin(), v.end(), std::string(kLeaf)), kLeaf);
    return toJson(v);
  }
};

/// One read query of the seeded mix.
struct Query {
  owlcl::RequestOp op;
  ConceptId a = 0, b = 0;  // subs: sub=a, sup=b; sat/descendants: a
};

Query drawQuery(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<ConceptId> pick(0, static_cast<ConceptId>(n - 1));
  const double r = std::uniform_real_distribution<double>(0, 1)(rng);
  Query q;
  q.op = r < 0.5   ? owlcl::RequestOp::kSubs
         : r < 0.7 ? owlcl::RequestOp::kSat
                   : owlcl::RequestOp::kDescendants;
  q.a = pick(rng);
  q.b = pick(rng);
  return q;
}

std::string queryJson(const Query& q, const ServeOracle& o) {
  switch (q.op) {
    case owlcl::RequestOp::kSubs:
      return "{\"op\":\"subs\",\"sub\":\"" + o.names[q.a] + "\",\"sup\":\"" +
             o.names[q.b] + "\"}";
    case owlcl::RequestOp::kSat:
      return "{\"op\":\"sat\",\"concept\":\"" + o.names[q.a] + "\"}";
    default:
      return "{\"op\":\"descendants\",\"concept\":\"" + o.names[q.a] + "\"}";
  }
}

/// Value of `"key":` in a flat response object (up to the next , or }).
std::string_view field(std::string_view obj, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = obj.find(pat);
  if (at == std::string_view::npos) return {};
  const std::size_t b = at + pat.size();
  if (b < obj.size() && obj[b] == '[') {
    const std::size_t e = obj.find(']', b);
    return e == std::string_view::npos ? std::string_view{} : obj.substr(b, e - b + 1);
  }
  std::size_t e = b;
  while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
  return obj.substr(b, e - b);
}

/// What a descendants answer said about the delta leaf.
enum class LeafSeen : std::uint8_t { kNotApplicable, kAbsent, kPresent };

/// Checks one answer object; false = wrong answer or error reply.
bool checkAnswer(std::string_view obj, const Query& q, const ServeOracle& o,
                 bool allowLeaf, LeafSeen* leaf) {
  *leaf = LeafSeen::kNotApplicable;
  if (field(obj, "ok") != "true") return false;
  const owlcl::GroundTruth& t = o.gen->truth;
  switch (q.op) {
    case owlcl::RequestOp::kSubs:
      return field(obj, "result") == (t.subsumes(q.b, q.a) ? "true" : "false");
    case owlcl::RequestOp::kSat:
      return field(obj, "result") == (t.satisfiable(q.a) ? "true" : "false");
    default: {
      const std::string_view got = field(obj, "concepts");
      if (got == o.descJson[q.a]) {
        *leaf = LeafSeen::kAbsent;
        return true;
      }
      if (allowLeaf && got == o.withLeaf(q.a)) {
        *leaf = LeafSeen::kPresent;
        return true;
      }
      return false;
    }
  }
}

/// Splits the "results" array of a batch response into element objects.
std::vector<std::string_view> batchElements(std::string_view resp) {
  std::vector<std::string_view> out;
  const std::size_t at = resp.find("\"results\":[");
  if (at == std::string_view::npos) return out;
  std::size_t i = at + 11;
  int depth = 0;
  bool inString = false;
  std::size_t start = 0;
  for (; i < resp.size(); ++i) {
    const char c = resp[i];
    if (inString) {
      if (c == '\\') ++i;
      else if (c == '"') inString = false;
      continue;
    }
    if (c == '"') inString = true;
    else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) out.push_back(resp.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

// --- loopback TCP client ------------------------------------------------------

std::uint16_t freeLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = 0;
  socklen_t len = sizeof a;
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot find a free loopback port");
  }
  ::close(fd);
  return ntohs(a.sin_port);
}

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    const auto giveUp = Clock::now() + std::chrono::seconds(10);
    while (true) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      a.sin_port = htons(port);
      if (fd_ >= 0 &&
          ::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0)
        break;
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      if (Clock::now() > giveUp)
        throw std::runtime_error("cannot connect to the server");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `line` + '\n' and reads one reply line into *reply.
  bool roundTrip(const std::string& line, std::string* reply) {
    out_ = line;
    out_.push_back('\n');
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t k = ::send(fd_, out_.data() + sent, out_.size() - sent,
                               MSG_NOSIGNAL);
      if (k <= 0) return false;
      sent += static_cast<std::size_t>(k);
    }
    while (true) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        reply->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      char chunk[65536];
      const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
      if (k <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_ = -1;
  std::string out_, buf_;
  std::size_t scan_ = 0;
};

// --- the server stack ---------------------------------------------------------

/// Everything `owlcl serve --port [--checkpoint-dir]` builds, wired the
/// same way, with the decorators inserted when a tracer is given.
struct ServeStack {
  ServeStack(const Input& in, std::size_t workers, Tracer* tracer,
             const std::string& checkpointDir, std::uint64_t req)
      : pool(workers), exec(pool) {
    {
      ScopedSpan s(tracer, "owl.parse", req);
      owlcl::parseFunctionalSyntax(in.text, tbox);
    }
    {
      ScopedSpan s(tracer, "reasoner.preprocess", req);
      reasoner = std::make_unique<owlcl::TableauReasoner>(tbox);
    }
    owlcl::ReasonerPlugin* plugin = reasoner.get();
    executor = &exec;
    if (tracer != nullptr) {
      tplugin = std::make_unique<TracedPlugin>(*reasoner, *tracer, req);
      texec = std::make_unique<TracedExecutor>(exec, *tracer, req);
      plugin = tplugin.get();
      executor = texec.get();
    }
    config.routeEl = owlcl::ElRouting::kAuto;

    std::unique_ptr<owlcl::CheckpointManager> manager;
    owlcl::CheckpointConfig cc;
    if (!checkpointDir.empty()) {
      std::filesystem::remove_all(checkpointDir);
      std::filesystem::create_directories(checkpointDir);
      cc.dir = checkpointDir;
      manager = std::make_unique<owlcl::CheckpointManager>(
          cc, owlcl::ontologyContentHash(tbox), config.seed);
      std::string err;
      if (!manager->beginFresh(&err))
        throw std::runtime_error("checkpointing unavailable: " + err);
      config.checkpoint = manager.get();
      if (tracer != nullptr) {
        mainHook = std::make_unique<TracedCheckpointHook>(*manager, *tracer, req);
        config.checkpoint = mainHook.get();
      }
    }
    classifier = std::make_unique<owlcl::ParallelClassifier>(tbox, *plugin, config);
    server = std::make_unique<owlcl::Server>(tbox, *classifier, *reasoner,
                                             owlcl::ServerConfig{});
    delta = std::make_unique<owlcl::DeltaReclassifier>(
        *executor, pluginFactory(tracer), config);
    delta->adoptInitial(
        std::shared_ptr<const owlcl::TBox>(&tbox, [](const owlcl::TBox*) {}),
        std::shared_ptr<owlcl::ReasonerPlugin>(plugin, [](owlcl::ReasonerPlugin*) {}),
        std::shared_ptr<owlcl::ParallelClassifier>(
            classifier.get(), [](owlcl::ParallelClassifier*) {}),
        nullptr);
    if (manager != nullptr) {
      sink = std::make_unique<owlcl::DeltaJournalSink>(cc, config.seed);
      std::string err;
      if (!sink->open(owlcl::ontologyContentHash(tbox), std::move(manager),
                      /*truncateWal=*/true, &err))
        throw std::runtime_error("delta journal: " + err);
      owlcl::DeltaTxnSink* s = sink.get();
      if (tracer != nullptr) {
        tsink = std::make_unique<TracedDeltaSink>(*sink, *tracer);
        s = tsink.get();
      }
      delta->setSink(s);
    }
    server->setDeltaReclassifier(delta.get());
  }
  ~ServeStack() {
    if (server != nullptr) server->drain();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Starts the server and returns the seconds until the classification
  /// result and its compiled snapshot are published.
  double startAndWait(Tracer* tracer, std::uint64_t req) {
    const auto t0 = Clock::now();
    server->start([this, tracer, req] {
      ScopedSpan s(tracer, "core.classify", req);
      rootSpan = s.id();
      return classifier->classify(*executor);
    });
    while (true) {
      const auto view = server->engineView();
      if (view->snapshot != nullptr && server->result() != nullptr) break;
      if (server->result() != nullptr && !server->result()->complete())
        throw std::runtime_error("setup classification incomplete");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return secondsSince(t0);
  }

  owlcl::PluginFactory pluginFactory(Tracer* tracer) {
    return [tracer](const owlcl::TBox& t) -> std::shared_ptr<owlcl::ReasonerPlugin> {
      struct Chain {
        std::unique_ptr<owlcl::TableauReasoner> reasoner;
        std::unique_ptr<TracedPlugin> traced;
      };
      auto c = std::make_shared<Chain>();
      // The commit path froze the TBox before calling the factory, so
      // the reasoner's own freeze is a no-op (same as the CLI's factory).
      c->reasoner =
          std::make_unique<owlcl::TableauReasoner>(const_cast<owlcl::TBox&>(t));
      if (tracer == nullptr)
        return std::shared_ptr<owlcl::ReasonerPlugin>(c, c->reasoner.get());
      c->traced = std::make_unique<TracedPlugin>(*c->reasoner, *tracer);
      return std::shared_ptr<owlcl::ReasonerPlugin>(c, c->traced.get());
    };
  }

  owlcl::TBox tbox;
  std::unique_ptr<owlcl::TableauReasoner> reasoner;
  owlcl::ThreadPool pool;
  owlcl::RealExecutor exec;
  std::unique_ptr<TracedPlugin> tplugin;
  std::unique_ptr<TracedExecutor> texec;
  owlcl::Executor* executor = nullptr;
  owlcl::ClassifierConfig config;
  std::unique_ptr<TracedCheckpointHook> mainHook;
  std::unique_ptr<owlcl::ParallelClassifier> classifier;
  std::unique_ptr<owlcl::DeltaJournalSink> sink;
  std::unique_ptr<TracedDeltaSink> tsink;
  std::unique_ptr<owlcl::DeltaReclassifier> delta;
  std::unique_ptr<owlcl::Server> server;
  std::atomic<std::uint32_t> rootSpan{0};
};

/// runSocket on its own thread; stop() wakes and joins it.
class SocketFront {
 public:
  explicit SocketFront(owlcl::Server& server) : port_(freeLoopbackPort()) {
    if (::pipe(wake_) != 0) throw std::runtime_error("cannot create pipe");
    thread_ = std::thread([this, &server] {
      std::string err;
      if (!server.runSocket(port_, wake_[0], &err)) failed_ = true;
    });
  }
  ~SocketFront() { stop(); }
  SocketFront(const SocketFront&) = delete;
  SocketFront& operator=(const SocketFront&) = delete;

  std::uint16_t port() const { return port_; }
  bool failed() const { return failed_.load(); }
  void stop() {
    if (!thread_.joinable()) return;
    const char b = 1;
    (void)!::write(wake_[1], &b, 1);
    thread_.join();
    ::close(wake_[0]);
    ::close(wake_[1]);
  }

 private:
  std::uint16_t port_;
  int wake_[2] = {-1, -1};
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

// --- closed-loop readers ------------------------------------------------------

struct ReaderTally {
  std::vector<double> rttS;  // one per request line
  std::vector<double> doneS;  // its completion, seconds into the phase
  std::vector<std::uint32_t> sizes;  // queries in the line
  std::uint64_t queries = 0, failed = 0;
  /// serve-delta descendants answers: (concept, send, receive, leaf seen).
  struct LeafEvent {
    ConceptId x;
    std::uint64_t sent, received;
    bool present;
  };
  std::vector<LeafEvent> leafEvents;
};

/// Checks every answer of one reply line against the oracle. On
/// serve-delta, descendants answers are also queued for the post-run
/// check against the leaf's lifetimes.
void checkReply(const std::string& reply, const std::vector<Query>& qs,
                const ServeOracle& oracle, bool delta, std::uint64_t sent,
                std::uint64_t received, ReaderTally& tally) {
  const std::vector<std::string_view> elems =
      qs.size() > 1 ? batchElements(reply)
                    : std::vector<std::string_view>{std::string_view(reply)};
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ++tally.queries;
    LeafSeen leaf = LeafSeen::kNotApplicable;
    if (i >= elems.size() || !checkAnswer(elems[i], qs[i], oracle, delta, &leaf)) {
      ++tally.failed;
      continue;
    }
    if (delta && leaf != LeafSeen::kNotApplicable)
      tally.leafEvents.push_back(
          {qs[i].a, sent, received, leaf == LeafSeen::kPresent});
  }
}

/// Bench-side copies of the server's read path, timed directly.
struct Probes {
  owlcl::Server* server;
  Tracer* tracer;
  std::unique_ptr<owlcl::QueryEngine> engine;
  owlcl::RequestParser parser;
  owlcl::Request req;
};

void probe(Probes& p, const std::string& line, std::uint64_t id,
           const ServeOracle& oracle, const std::vector<Query>& qs, bool delta,
           ReaderTally& tally) {
  std::shared_ptr<const owlcl::EngineView> view;
  {
    ScopedSpan s(p.tracer, "serve.view_pin", id);
    view = p.server->engineView();
  }
  std::string error;
  bool parsed;
  {
    ScopedSpan s(p.tracer, "serve.parse", id);
    parsed = p.parser.parse(line, &p.req, &error);
  }
  if (parsed) {
    p.engine->publishView(*view);
    ScopedSpan s(p.tracer, qs.size() > 1 ? "serve.answer_batch" : "serve.answer",
                 id);
    (void)p.engine->answer(p.req);
  }
  // In-process round trip: admission → query worker → delivery, no socket.
  std::mutex mu;
  std::condition_variable cv;
  std::string reply;
  bool done = false;
  const std::uint64_t sent = p.tracer->now();
  {
    ScopedSpan s(p.tracer, "serve.inproc_rtt", id);
    p.server->trySubmit(line, [&](std::string r) {
      std::lock_guard<std::mutex> lock(mu);
      reply = std::move(r);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  // The in-process answer is checked like any other.
  checkReply(reply, qs, oracle, delta, sent, p.tracer->now(), tally);
}

struct LoadConfig {
  std::size_t batch = 1;
  bool delta = false;    // descendants may list the live delta leaf
  bool probes = false;   // traced half: time the read path bench-side
  std::uint64_t rngSeed = 0;
};

void readerLoop(std::uint16_t port, const ServeOracle& oracle,
                const LoadConfig& cfg, Clock::time_point start,
                Clock::time_point end, Tracer& clock,
                Probes* probes, ReaderTally& tally) {
  Connection conn(port);
  std::mt19937_64 rng(cfg.rngSeed);
  std::vector<Query> qs(cfg.batch);
  std::string line, reply;
  std::uint64_t id = 0;
  while (Clock::now() < end) {
    for (Query& q : qs) q = drawQuery(rng, oracle.names.size());
    if (cfg.batch == 1) {
      line = queryJson(qs[0], oracle);
    } else {
      line = "{\"op\":\"batch\",\"queries\":[";
      for (std::size_t i = 0; i < qs.size(); ++i) {
        if (i > 0) line.push_back(',');
        line += queryJson(qs[i], oracle);
      }
      line += "]}";
    }
    ++id;
    const std::uint64_t sent = clock.now();
    const auto t0 = Clock::now();
    if (!conn.roundTrip(line, &reply)) {
      tally.queries += qs.size();
      tally.failed += qs.size();
      break;
    }
    tally.rttS.push_back(secondsSince(t0));
    tally.doneS.push_back(secondsSince(start));
    tally.sizes.push_back(static_cast<std::uint32_t>(qs.size()));
    checkReply(reply, qs, oracle, cfg.delta, sent, clock.now(), tally);
    if (probes != nullptr && id % kProbeEvery == 0)
      probe(*probes, line, id, oracle, qs, cfg.delta, tally);
  }
}

// --- open-loop delta writer ---------------------------------------------------

struct LeafLife {
  ConceptId parent;
  std::uint64_t addSent, addDone;        // add commit sent / replied
  std::uint64_t retractSent = ~0ull;     // retract commit sent
  std::uint64_t retractDone = ~0ull;     // retract commit replied
};

struct WriterTally {
  std::vector<double> commitS;    // due time → commit reply
  std::vector<double> latenessS;  // due time → first request sent
  std::vector<LeafLife> leaves;
  /// Per transaction: [begin sent, commit replied] and the reply's cone.
  struct Window {
    std::uint64_t from, to;
    double cone;
    std::uint64_t txid;
  };
  std::vector<Window> windows;
  std::uint64_t commits = 0, failed = 0;
};

/// One add-leaf or retract-leaf transaction; false if any step failed.
bool leafTxn(Connection& conn, bool add, const std::string& parentName,
             Tracer& clock, std::uint64_t* commitSent, std::string* reply) {
  const std::string axiom = "SubClassOf(" + owlcl::fsEntityName(kLeaf) + " " +
                            owlcl::fsEntityName(parentName) + ")";
  bool ok = conn.roundTrip("{\"op\":\"begin-delta\"}", reply) &&
            field(*reply, "ok") == "true";
  ok = ok &&
       conn.roundTrip(std::string("{\"op\":\"") +
                          (add ? "add-axiom" : "retract-axiom") +
                          "\",\"axiom\":\"" + owlcl::jsonEscape(axiom) + "\"}",
                      reply) &&
       field(*reply, "ok") == "true";
  *commitSent = clock.now();
  return ok && conn.roundTrip("{\"op\":\"commit\"}", reply) &&
         field(*reply, "ok") == "true";
}

/// Alternates add-leaf / retract-leaf transactions, open loop: the k-th
/// (k ≥ 1) is due at start + (k − ½) / kCommitsPerSecond whatever the
/// server's speed, i.e. in the middle of the k-th commit period.
/// Ends with the leaf detached, so the next load phase starts clean.
void writerLoop(std::uint16_t port, const ServeOracle& oracle,
                std::uint64_t rngSeed, Clock::time_point start,
                Clock::time_point end, Tracer& clock, WriterTally& tally) {
  Connection conn(port);
  std::mt19937_64 rng(rngSeed);
  std::uniform_int_distribution<std::size_t> pick(0, oracle.satisfiable.size() - 1);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kCommitsPerSecond));
  std::string reply;
  bool attached = false;
  ConceptId parent = 0;
  // A phase shorter than one period still gets one commit, mid-phase.
  const Clock::duration firstDue = std::min<Clock::duration>(period, end - start) / 2;
  for (std::uint64_t k = 1;; ++k) {
    const Clock::time_point due =
        start + firstDue + period * static_cast<long>(k - 1);
    // The final transaction detaches the leaf; it is not a timed sample.
    const bool last = due >= end;
    if (last && !attached) break;
    if (!last) {
      std::this_thread::sleep_until(due);
      tally.latenessS.push_back(
          std::chrono::duration<double>(Clock::now() - due).count());
    }
    const bool add = !attached;
    if (add) parent = oracle.satisfiable[pick(rng)];
    const std::uint64_t from = clock.now();
    std::uint64_t commitSent = 0;
    const bool ok =
        leafTxn(conn, add, oracle.names[parent], clock, &commitSent, &reply);
    const std::uint64_t commitDone = clock.now();
    ++tally.commits;
    if (!last)
      tally.commitS.push_back(
          std::chrono::duration<double>(Clock::now() - due).count());
    if (!ok) {
      // A failed transaction is rolled back by the server; the leaf keeps
      // its previous state.
      ++tally.failed;
      conn.roundTrip("{\"op\":\"abort\"}", &reply);
      if (last) break;
      continue;
    }
    const std::string_view cone = field(reply, "cone"), txn = field(reply, "txn");
    tally.windows.push_back({from, commitDone,
                             cone.empty() ? 0.0 : std::stod(std::string(cone)),
                             txn.empty() ? 0 : std::stoull(std::string(txn))});
    if (add) {
      tally.leaves.push_back({parent, commitSent, commitDone});
    } else {
      tally.leaves.back().retractSent = commitSent;
      tally.leaves.back().retractDone = commitDone;
    }
    attached = add;
    if (last) break;
  }
}

/// Post-run check of every serve-delta descendants answer against the
/// leaf's lifetimes: the leaf may appear only if some attachment whose
/// parent lies under the concept overlapped the request, and must appear
/// if such an attachment was committed before the request was sent and
/// not retracted until after its reply.
std::uint64_t leafViolations(const std::vector<ReaderTally::LeafEvent>& events,
                             const std::vector<LeafLife>& leaves,
                             const owlcl::GroundTruth& truth) {
  std::uint64_t bad = 0;
  for (const auto& e : events) {
    bool may = false, must = false;
    if (truth.satisfiable(e.x))
      for (const LeafLife& l : leaves) {
        if (!truth.subsumes(e.x, l.parent)) continue;
        if (l.addSent <= e.received && l.retractDone >= e.sent) may = true;
        if (l.addDone <= e.sent && l.retractSent >= e.received) must = true;
      }
    if (e.present ? !may : must) ++bad;
  }
  return bad;
}

/// A load phase is cut into equal time slices, and its latency and rate
/// figures are medians over the slices (of all served ontologies), so a
/// burst of interference moves one slice only. A read-only phase has
/// kRounds slices; a serve-delta phase has one slice per commit period,
/// each holding exactly one commit (see writerLoop), so every slice sees
/// the same mix of plain and commit-stalled reads.
constexpr std::size_t kRounds = 5;

struct LoadResult {
  std::vector<double> rttS, doneS;
  std::vector<std::uint32_t> sizes;
  double seconds = 0;
  std::uint64_t queries = 0, lines = 0, failed = 0;
  WriterTally writer;
};

LoadResult runLoad(ServeStack& stack, const ServeOracle& oracle,
                   const LoadConfig& cfg, double seconds, bool writer,
                   Tracer& tracer) {
  SocketFront front(*stack.server);
  std::vector<ReaderTally> tallies(kReaders);
  std::vector<std::unique_ptr<Probes>> probes(kReaders);
  LoadResult out;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  // A load thread that cannot reach the server (or throws otherwise)
  // records why; the run then fails as a set-up error after all joined.
  std::mutex errorMu;
  std::string error;
  auto guarded = [&](const std::function<void()>& body) {
    return [&, body] {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errorMu);
        error = e.what();
      }
    };
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kReaders; ++i) {
      if (cfg.probes) {
        probes[i] = std::make_unique<Probes>();
        probes[i]->server = stack.server.get();
        probes[i]->tracer = &tracer;
        probes[i]->engine = std::make_unique<owlcl::QueryEngine>(
            stack.tbox, *stack.classifier, *stack.reasoner,
            owlcl::QueryEngineConfig{});
      }
      LoadConfig c = cfg;
      c.rngSeed = cfg.rngSeed * 16 + i;
      threads.emplace_back(guarded([&, i, c] {
        readerLoop(front.port(), oracle, c, start, end, tracer,
                   probes[i].get(), tallies[i]);
      }));
    }
    if (writer)
      threads.emplace_back(guarded([&] {
        writerLoop(front.port(), oracle, cfg.rngSeed * 16 + 15, start, end,
                   tracer, out.writer);
      }));
    for (std::thread& t : threads) t.join();
  }
  out.seconds = secondsSince(start);
  front.stop();
  if (front.failed()) throw std::runtime_error("the server's socket front failed");
  if (!error.empty()) throw std::runtime_error(error);
  std::vector<ReaderTally::LeafEvent> events;
  for (ReaderTally& t : tallies) {
    out.rttS.insert(out.rttS.end(), t.rttS.begin(), t.rttS.end());
    out.doneS.insert(out.doneS.end(), t.doneS.begin(), t.doneS.end());
    out.sizes.insert(out.sizes.end(), t.sizes.begin(), t.sizes.end());
    out.queries += t.queries;
    out.lines += t.rttS.size();
    out.failed += t.failed;
    events.insert(events.end(), t.leafEvents.begin(), t.leafEvents.end());
  }
  if (writer) out.failed += leafViolations(events, out.writer.leaves,
                                           oracle.gen->truth);
  return out;
}

/// Per-slice p50 / p90 / p99 of the round trips and queries per second.
struct Rounds {
  std::vector<double> p50, p90, p99, qps;
  void add(const LoadResult& r, std::size_t slices) {
    const double slice = r.seconds / static_cast<double>(slices);
    for (std::size_t k = 0; k < slices; ++k) {
      std::vector<double> rtt;
      double queries = 0;
      for (std::size_t i = 0; i < r.rttS.size(); ++i)
        if (r.doneS[i] >= slice * static_cast<double>(k) &&
            r.doneS[i] < slice * static_cast<double>(k + 1)) {
          rtt.push_back(r.rttS[i]);
          queries += r.sizes[i];
        }
      if (rtt.empty()) continue;
      p50.push_back(quantile(rtt, 0.5));
      p90.push_back(quantile(rtt, 0.9));
      p99.push_back(quantile(rtt, 0.99));
      qps.push_back(queries / slice);
    }
  }
};

}  // namespace

Report runServe(const Options& o, bool deltaWorkload) {
  Report rep;
  InputSequence inputs(
      o.seed, [](std::uint64_t s) { return elShape(kServeConcepts, s); });
  const std::size_t workers = classifierWorkers();
  const std::string ckDir =
      deltaWorkload ? o.workDir + "/checkpoint-" + std::to_string(::getpid()) : "";
  Tracer tracer;
  tracer.setEnabled(false);
  // Outlives every stack, so the journal directory is removed after the
  // servers that write it have shut down.
  struct DirCleanup {
    std::string dir;
    ~DirCleanup() {
      std::error_code ec;
      if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    }
  } cleanup{ckDir};

  struct Phase {
    std::size_t batch;
    double share;
  };
  const std::vector<Phase> phases = deltaWorkload
                                        ? std::vector<Phase>{{1, 1.0}}
                                        : std::vector<Phase>{{1, 0.6}, {kBatch, 0.4}};
  std::vector<double> setup, setupTraced, commitS, latenessS;
  std::vector<LayerMap> setupLayers;
  Rounds one, batch, oneTraced;
  std::uint64_t oneQueries = 0, oneLines = 0, batchQueries = 0, batchLines = 0;
  std::uint64_t snapshotAnswers = 0, answers = 0, shed = 0;
  std::map<std::string, std::vector<double>> probeNs;
  std::vector<double> cone, tests, journal, records, barrier;

  // Several ontologies per run, each set up several times and then served
  // for an equal share of the time: the figures then describe the shape,
  // not one draw of it. In a traced run set-ups alternate between
  // recording and not, and each load phase is split likewise.
  for (std::size_t ont = 0; ont < kServeOntologies; ++ont) {
    const Input input = inputs.next();
    const ServeOracle oracle(input.gen);
    std::unique_ptr<ServeStack> stack;
    const std::size_t setups =
        (deltaWorkload ? kDeltaSetups : kReadSetups) * (o.trace ? 2 : 1);
    for (std::size_t i = 0; i < setups; ++i) {
      const bool record = o.trace && i % 2 == 1;
      const std::uint64_t req = ont * 1000 + i + 1;
      stack.reset();
      tracer.setEnabled(record);
      stack = std::make_unique<ServeStack>(
          input, workers, o.trace ? &tracer : nullptr, ckDir, req);
      const double s = stack->startAndWait(o.trace ? &tracer : nullptr, req);
      (record ? setupTraced : setup).push_back(s);
      const owlcl::ClassificationResult* r = stack->server->result();
      ++rep.attempted;
      if (taxonomyMismatches(r->taxonomy, stack->tbox, input.gen) != 0)
        ++rep.failed;
      if (record) {
        {
          ScopedSpan sp(&tracer, "taxonomy.snapshot_build", req);
          owlcl::TaxonomySnapshot::build(r->taxonomy, stack->tbox, true, 0);
        }
        const std::vector<Span> spans = spansOf(tracer, req);
        LayerMap lm = classifyLayers(spans, stack->rootSpan.load(), *r,
                                     stack->texec->clockReads(), tracer,
                                     workers, stack->pool.stealCount());
        lm["taxonomy.snapshot_build_s"] =
            sumDur(spans, "taxonomy.snapshot_build");
        setupLayers.push_back(lm);
      }
      tracer.clear();
      tracer.setEnabled(false);
    }

    const double ontSeconds = o.seconds / static_cast<double>(kServeOntologies);
    std::vector<WriterTally::Window> tracedWindows;
    for (const Phase& ph : phases)
      for (int traced = 0; traced <= (o.trace ? 1 : 0); ++traced) {
        LoadConfig cfg;
        cfg.batch = ph.batch;
        cfg.delta = deltaWorkload;
        cfg.probes = traced == 1;
        cfg.rngSeed = (o.seed * kServeOntologies + ont) * 4 +
                      (ph.batch > 1 ? 2 : 0) + static_cast<std::uint64_t>(traced);
        tracer.setEnabled(traced == 1);
        const double secs = ontSeconds * ph.share / (o.trace ? 2 : 1);
        const std::size_t slices =
            deltaWorkload
                ? std::max<std::size_t>(
                      1, static_cast<std::size_t>(std::lround(secs * kCommitsPerSecond)))
                : kRounds;
        const LoadResult lr =
            runLoad(*stack, oracle, cfg, secs, deltaWorkload, tracer);
        tracer.setEnabled(false);
        rep.attempted += lr.queries + lr.writer.commits;
        rep.failed += lr.failed + lr.writer.failed;
        if (traced == 1) {
          if (ph.batch == 1) oneTraced.add(lr, slices);
          tracedWindows.insert(tracedWindows.end(), lr.writer.windows.begin(),
                               lr.writer.windows.end());
          continue;
        }
        (ph.batch == 1 ? one : batch).add(lr, slices);
        (ph.batch == 1 ? oneQueries : batchQueries) += lr.queries;
        (ph.batch == 1 ? oneLines : batchLines) += lr.lines;
        commitS.insert(commitS.end(), lr.writer.commitS.begin(),
                       lr.writer.commitS.end());
        latenessS.insert(latenessS.end(), lr.writer.latenessS.begin(),
                         lr.writer.latenessS.end());
      }
    const owlcl::QueryEngineStats qs = stack->server->engineStats();
    snapshotAnswers += qs.snapshotAnswers;
    answers += qs.snapshotAnswers + qs.walkAnswers;
    shed += stack->server->shedCount();
    if (o.trace) {
      const std::vector<Span> spans = tracer.spans();
      for (const Span& sp : spans)
        if (std::string_view(sp.name).substr(0, 6) == "serve.")
          probeNs[sp.name].push_back(static_cast<double>(sp.durationNs()));
      for (const auto& w : tracedWindows) {
        // Reasoner calls of a rerun carry no transaction id: attribute
        // them by time to the transaction's [begin sent, commit replied].
        double t = 0, j = 0, rc = 0, b = 0;
        for (const Span& sp : spans) {
          const std::string_view n = sp.name;
          if ((n == "reasoner.sat" || n == "reasoner.subs") &&
              sp.startNs >= w.from && sp.startNs <= w.to)
            ++t;
          else if (n == "robust.journal" && sp.req == w.txid)
            j += static_cast<double>(sp.durationNs()) / 1e9;
          else if (n == "robust.barrier" && sp.req == w.txid)
            b += static_cast<double>(sp.durationNs()) / 1e9;
        }
        for (const auto& h : stack->tsink->rerunHooks())
          if (h->req() == w.txid) {
            rc += static_cast<double>(h->records());
            j += static_cast<double>(h->recordNs()) / 1e9;
          }
        cone.push_back(w.cone);
        tests.push_back(t);
        journal.push_back(j);
        records.push_back(rc);
        barrier.push_back(b);
      }
    }
    tracer.clear();
  }

  rep.notes.push_back(
      std::to_string(kServeOntologies) + " ontologies of ~" +
      std::to_string(kServeConcepts) + " concepts, " + std::to_string(kReaders) +
      " closed-loop readers" +
      (deltaWorkload ? " + 1 writer at " + std::to_string(kCommitsPerSecond) +
                           " commits/s"
                     : "") +
      ", " + std::to_string(workers) + " workers, " +
      std::to_string(one.p50.size()) + " batch=1 slices, shed " + std::to_string(shed) + ", " +
      std::to_string(inputs.skipped()) + " seeds passed over (generator hang)");
  const double p50 = median(one.p50), p90 = median(one.p90),
               p99 = median(one.p99), qps = median(one.qps);
  if (!o.trace) {
    const double alt = deltaWorkload ? median(commitS) : median(batch.p50);
    const std::size_t altN = deltaWorkload ? commitS.size() : batchLines;
    rep.endToEnd = {
        {"setup_s", median(setup), "s", setup.size()},
        {"op_p50_ms", p50 * 1e3, "ms", oneLines},
        {"alt_p50_ms", alt * 1e3, "ms", altN},
    };
    rep.display = {{"setup_s", median(setup), "s", setup.size()},
                   {"qps", qps, "1/s", oneQueries},
                   {"latency_p50_us", p50 * 1e6, "us", oneLines},
                   {"latency_p90_us", p90 * 1e6, "us", oneLines},
                   {"latency_p99_us", p99 * 1e6, "us", oneLines}};
    if (deltaWorkload) {
      rep.display.push_back({"commit_s", alt, "s", altN});
      rep.display.push_back({"commit_p90_s", quantile(commitS, 0.9), "s", altN});
      rep.display.push_back({"writer_lateness_p50_s", median(latenessS), "s",
                             latenessS.size()});
      rep.display.push_back({"writer_lateness_max_s", quantile(latenessS, 1.0),
                             "s", latenessS.size()});
    } else {
      rep.display.push_back({"batch_qps", median(batch.qps), "1/s", batchQueries});
      rep.display.push_back({"batch_rtt_p50_us", alt * 1e6, "us", altN});
    }
    rep.display.push_back({"peak_rss_mb", peakRssMb(), "MB", 1});
    return rep;
  }

  // Traced run: classify layers from the recorded set-ups, serve layers
  // from the probes, delta layers per committed transaction.
  LayerMap lm = medianLayers(setupLayers);
  auto med = [&](const char* name, double scale) {
    auto it = probeNs.find(name);
    return it == probeNs.end() ? 0.0 : median(it->second) / scale;
  };
  lm["serve.parse_us"] = med("serve.parse", 1e3);
  lm["serve.answer_us"] = med("serve.answer", 1e3);
  lm["serve.answer_batch_us"] = med("serve.answer_batch", 1e3);
  lm["serve.view_pin_ns"] = med("serve.view_pin", 1);
  lm["serve.inproc_rtt_us"] = med("serve.inproc_rtt", 1e3);
  lm["serve.snapshot_answer_ratio"] =
      answers == 0 ? 0.0
                   : static_cast<double>(snapshotAnswers) /
                         static_cast<double>(answers);
  if (deltaWorkload) {
    lm["core.delta_cone"] = median(cone);
    lm["core.delta_tests"] = median(tests);
    lm["robust.journal_s"] = median(journal);
    lm["robust.records"] = median(records);
    lm["robust.barrier_s"] = median(barrier);
  }
  const double p50t = median(oneTraced.p50);
  lm["trace.overhead_pct"] = (p50t / p50 - 1) * 100;
  reportLayers(lm, setupLayers.size(), &rep);
  rep.display = {
      {"setup_s (untraced)", median(setup), "s", setup.size()},
      {"setup_s (traced)", median(setupTraced), "s", setupTraced.size()},
      {"latency_p50_us (untraced)", p50 * 1e6, "us", oneLines},
      {"latency_p50_us (traced)", p50t * 1e6, "us", oneTraced.p50.size()},
      {"trace.overhead_pct", lm["trace.overhead_pct"], "%", oneTraced.p50.size()},
      {"core.unattributed_ratio (setup)", lm["core.unattributed_ratio"], "ratio",
       setupLayers.size()},
  };
  return rep;
}

}  // namespace perfbench::detail
