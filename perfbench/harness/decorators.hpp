// Span-recording decorators over the four owlcl extension interfaces the
// classifier and the delta path call through: ReasonerPlugin, Executor,
// CheckpointHook and DeltaTxnSink. Each forwards every call unchanged to
// the wrapped object and records one span around it, so a traced run
// computes the same taxonomy and answers as an untraced one (the
// benchmark's own tests check that byte for byte).
//
// Transparency limit: Executor::cancellation() is a non-virtual member,
// so the classifier sees the decorator's own token. The benchmark never
// arms a watchdog, so neither token ever fires.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "core/executor.hpp"
#include "core/incremental.hpp"
#include "core/plugin.hpp"
#include "harness/trace.hpp"

namespace perfbench {

/// Span value of a reasoner call: the verdict (0/1), or -1 on kFailed.
inline std::int64_t verdictValue(owlcl::TestVerdict v) {
  return v.ok() ? static_cast<std::int64_t>(v.value()) : -1;
}

/// "reasoner.sat" / "reasoner.subs" around every plug-in call.
class TracedPlugin : public owlcl::ReasonerPlugin {
 public:
  TracedPlugin(owlcl::ReasonerPlugin& inner, Tracer& tracer,
               std::uint64_t req = 0)
      : inner_(inner), tracer_(tracer), req_(req) {}

  bool isSatisfiable(owlcl::ConceptId c, std::uint64_t* costNs) override {
    ScopedSpan s(&tracer_, "reasoner.sat", req_);
    const bool v = inner_.isSatisfiable(c, costNs);
    s.setValue(v);
    return v;
  }
  bool isSubsumedBy(owlcl::ConceptId sub, owlcl::ConceptId sup,
                    std::uint64_t* costNs) override {
    ScopedSpan s(&tracer_, "reasoner.subs", req_);
    const bool v = inner_.isSubsumedBy(sub, sup, costNs);
    s.setValue(v);
    return v;
  }
  owlcl::TestVerdict trySatisfiable(owlcl::ConceptId c,
                                    std::uint64_t* costNs) override {
    ScopedSpan s(&tracer_, "reasoner.sat", req_);
    const owlcl::TestVerdict v = inner_.trySatisfiable(c, costNs);
    s.setValue(verdictValue(v));
    return v;
  }
  owlcl::TestVerdict trySubsumedBy(owlcl::ConceptId sub, owlcl::ConceptId sup,
                                   std::uint64_t* costNs) override {
    ScopedSpan s(&tracer_, "reasoner.subs", req_);
    const owlcl::TestVerdict v = inner_.trySubsumedBy(sub, sup, costNs);
    s.setValue(verdictValue(v));
    return v;
  }
  std::uint64_t testCount() const override { return inner_.testCount(); }
  owlcl::ReasonerStats reasonerStats() const override {
    return inner_.reasonerStats();
  }
  std::vector<owlcl::ReasonerStats> perWorkerReasonerStats() const override {
    return inner_.perWorkerReasonerStats();
  }

 private:
  owlcl::ReasonerPlugin& inner_;
  Tracer& tracer_;
  std::uint64_t req_;
};

/// Coordinator spans "parallel.dispatch" (time inside dispatch()) and
/// "parallel.barrier"; worker spans "parallel.task" whose parent is the
/// span open on the coordinator when the task was dispatched and whose
/// value is a small per-thread worker number. Every elapsedNs() reading
/// is logged with its wall timestamp so CycleStats phase durations (which
/// the classifier computes as differences of those readings) can be
/// placed on the timeline afterwards.
class TracedExecutor : public owlcl::Executor {
 public:
  struct ClockRead {
    std::uint64_t value;  // what elapsedNs() returned
    std::uint64_t at;     // tracer time of the call
  };

  TracedExecutor(owlcl::Executor& inner, Tracer& tracer, std::uint64_t req = 0)
      : inner_(inner), tracer_(tracer), req_(req) {}

  std::size_t workers() const override { return inner_.workers(); }
  std::size_t pickWorker(owlcl::SchedulingPolicy policy) override {
    return inner_.pickWorker(policy);
  }
  void dispatch(std::size_t worker, Task task) override {
    const std::uint32_t parent = Tracer::current();
    ScopedSpan s(&tracer_, "parallel.dispatch", req_);
    inner_.dispatch(worker, [this, parent, task = std::move(task)] {
      ScopedSpan t(&tracer_, "parallel.task", req_, parent);
      t.setValue(workerNumber());
      return task();
    });
  }
  void barrier() override {
    ScopedSpan s(&tracer_, "parallel.barrier", req_);
    inner_.barrier();
  }
  std::uint64_t elapsedNs() const override {
    const std::uint64_t v = inner_.elapsedNs();
    std::lock_guard<std::mutex> lock(mu_);
    reads_.push_back({v, tracer_.now()});
    return v;
  }
  std::uint64_t busyNs() const override { return inner_.busyNs(); }
  void armWatchdog(std::uint64_t budgetNs) override {
    inner_.armWatchdog(budgetNs);
  }

  std::vector<ClockRead> clockReads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

  /// Small dense number of the calling thread (stable for its lifetime).
  static std::int64_t workerNumber() {
    static std::atomic<std::int64_t> next{0};
    thread_local const std::int64_t mine = next.fetch_add(1);
    return mine;
  }

 private:
  owlcl::Executor& inner_;
  Tracer& tracer_;
  std::uint64_t req_;
  mutable std::mutex mu_;  // guards reads_
  mutable std::vector<ClockRead> reads_;
};

/// "robust.barrier" span around epochBarrier. recordSettled runs once per
/// settled verdict (about a million times in one routed 1,000-concept
/// run), so it is counted and timed in place rather than kept as spans.
class TracedCheckpointHook : public owlcl::CheckpointHook {
 public:
  TracedCheckpointHook(owlcl::CheckpointHook& inner, Tracer& tracer,
                       std::uint64_t req = 0)
      : inner_(inner), tracer_(tracer), req_(req) {}

  void recordSettled(owlcl::SettledKind kind, owlcl::ConceptId x,
                     owlcl::ConceptId y, std::uint64_t epoch) override {
    if (!tracer_.enabled()) {
      inner_.recordSettled(kind, x, y, epoch);
      return;
    }
    const std::uint64_t t0 = tracer_.now();
    inner_.recordSettled(kind, x, y, epoch);
    recordNs_.fetch_add(tracer_.now() - t0, std::memory_order_relaxed);
    records_.fetch_add(1, std::memory_order_relaxed);
  }
  void epochBarrier(const owlcl::ClassifierProgress& progress,
                    const std::function<owlcl::ClassifierCheckpoint()>& capture)
      override {
    ScopedSpan s(&tracer_, "robust.barrier", req_);
    inner_.epochBarrier(progress, capture);
  }

  std::uint64_t req() const { return req_; }
  std::uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  std::uint64_t recordNs() const {
    return recordNs_.load(std::memory_order_relaxed);
  }

 private:
  owlcl::CheckpointHook& inner_;
  Tracer& tracer_;
  std::uint64_t req_;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> recordNs_{0};
};

/// "robust.journal" around every transaction-log operation (value: 0
/// begin, 1 stage, 2 commit, 3 abort), "robust.begin_rerun" around
/// beginRerun, whose hook is returned wrapped in a TracedCheckpointHook
/// the sink keeps. Span req = the transaction id.
class TracedDeltaSink : public owlcl::DeltaTxnSink {
 public:
  TracedDeltaSink(owlcl::DeltaTxnSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool opBegin(std::uint32_t txid, std::string* error) override {
    txid_ = txid;
    return journal(0, [&] { return inner_.opBegin(txid, error); });
  }
  bool opStage(std::uint32_t txid, bool isAdd, const std::string& stmt,
               std::string* error) override {
    return journal(1,
                   [&] { return inner_.opStage(txid, isAdd, stmt, error); });
  }
  owlcl::CheckpointHook* beginRerun(const owlcl::TBox& newTbox,
                                    std::uint64_t seed,
                                    std::string* error) override {
    ScopedSpan s(&tracer_, "robust.begin_rerun", txid_);
    owlcl::CheckpointHook* hook = inner_.beginRerun(newTbox, seed, error);
    if (hook == nullptr) return nullptr;
    hooks_.push_back(std::make_unique<TracedCheckpointHook>(*hook, tracer_, txid_));
    return hooks_.back().get();
  }
  bool opCommit(std::uint32_t txid, const owlcl::TBox& newTbox,
                const owlcl::ClassifierCheckpoint& post,
                std::string* error) override {
    return journal(2,
                   [&] { return inner_.opCommit(txid, newTbox, post, error); });
  }
  bool opAbort(std::uint32_t txid, std::string* error) override {
    return journal(3, [&] { return inner_.opAbort(txid, error); });
  }

  /// The rerun hooks handed out so far (their req is the transaction id).
  /// Quiescent reads only.
  const std::vector<std::unique_ptr<TracedCheckpointHook>>& rerunHooks() const {
    return hooks_;
  }

 private:
  template <typename F>
  bool journal(std::int64_t op, F&& f) {
    ScopedSpan s(&tracer_, "robust.journal", txid_);
    s.setValue(op);
    return f();
  }

  owlcl::DeltaTxnSink& inner_;
  Tracer& tracer_;
  std::uint32_t txid_ = 0;  // DeltaReclassifier serializes transactions
  std::vector<std::unique_ptr<TracedCheckpointHook>> hooks_;  // one per rerun
};

}  // namespace perfbench
