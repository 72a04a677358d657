#include "robust/fault_injector.hpp"

#include <unistd.h>

#include <chrono>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace owlcl {

void CrashInjector::crash() {
  // _exit, not abort/exit: no atexit handlers, no stream flushes, no
  // coverage/sanitizer finalization — indistinguishable from SIGKILL as
  // far as the checkpoint files are concerned.
  _exit(137);
}

const char* crashPointName(CrashPoint p) {
  switch (p) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kTornWrite:
      return "torn-write";
    case CrashPoint::kCrashAfterJournal:
      return "after-journal";
    case CrashPoint::kCrashBeforeSnapshotRename:
      return "before-rename";
    case CrashPoint::kCrashAtBarrier:
      return "at-barrier";
    case CrashPoint::kDeltaTornWrite:
      return "delta-journal";
    case CrashPoint::kCrashMidRerun:
      return "mid-rerun";
    case CrashPoint::kCrashPreCommit:
      return "pre-commit";
    case CrashPoint::kCrashPostCommit:
      return "post-commit";
    case CrashPoint::kCrashMidRollback:
      return "mid-rollback";
  }
  return "none";
}

CrashPoint parseCrashPoint(const std::string& name) {
  for (const CrashPoint p :
       {CrashPoint::kTornWrite, CrashPoint::kCrashAfterJournal,
        CrashPoint::kCrashBeforeSnapshotRename, CrashPoint::kCrashAtBarrier,
        CrashPoint::kDeltaTornWrite, CrashPoint::kCrashMidRerun,
        CrashPoint::kCrashPreCommit, CrashPoint::kCrashPostCommit,
        CrashPoint::kCrashMidRollback})
    if (name == crashPointName(p)) return p;
  return CrashPoint::kNone;
}

namespace {

std::uint64_t pairKey(ConceptId x, ConceptId y) {
  return (static_cast<std::uint64_t>(x) << 32) | y;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

double uniform01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultInjector::targeted(ConceptId x, ConceptId y) const {
  if (plan_.targetPairRate <= 0 || plan_.failFirstAttempts == 0) return false;
  return uniform01(mix(plan_.seed * 0x51ed2701, pairKey(x, y))) <
         plan_.targetPairRate;
}

FaultInjector::Fault FaultInjector::decide(std::uint64_t key,
                                           std::uint32_t attempt) const {
  const std::uint64_t h = mix(plan_.seed, mix(key, attempt + 1));
  const bool delayPossible = plan_.delayNs != 0 || plan_.sleepNs != 0;

  // Scheduled faults: bad keys fail every attempt below the threshold.
  if (plan_.targetPairRate > 0 && attempt < plan_.failFirstAttempts &&
      uniform01(mix(plan_.seed * 0x51ed2701, key)) < plan_.targetPairRate) {
    if (delayPossible && (h & 1) != 0) return Fault::kDelay;
    if (plan_.resourceRate > 0 && (h & 2) != 0) return Fault::kResource;
    return Fault::kError;
  }

  // Transient faults: an independent roll per attempt.
  const double u = uniform01(h);
  if (u < plan_.errorRate) return Fault::kError;
  if (u < plan_.errorRate + plan_.resourceRate) return Fault::kResource;
  if (delayPossible && u < plan_.errorRate + plan_.resourceRate + plan_.timeoutRate)
    return Fault::kDelay;
  return Fault::kNone;
}

std::uint32_t FaultInjector::nextAttempt(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_[key]++;
}

std::uint32_t FaultInjector::attempts(ConceptId x, ConceptId y) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = attempts_.find(pairKey(x, y));
  return it == attempts_.end() ? 0 : it->second;
}

bool FaultInjector::call(std::uint64_t key, ConceptId a, ConceptId b,
                         bool isSat, std::uint64_t* costNs) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  const Fault fault =
      plan_.enabled() ? decide(key, nextAttempt(key)) : Fault::kNone;

  switch (fault) {
    case Fault::kError:
      injectedErrors_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("injected reasoner fault");
    case Fault::kResource:
      injectedResource_.fetch_add(1, std::memory_order_relaxed);
      throw std::bad_alloc();
    case Fault::kDelay: {
      injectedDelays_.fetch_add(1, std::memory_order_relaxed);
      if (plan_.sleepNs != 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(plan_.sleepNs));
      std::uint64_t inner = 0;
      const bool v = isSat ? inner_.isSatisfiable(a, &inner)
                           : inner_.isSubsumedBy(a, b, &inner);
      if (costNs != nullptr) *costNs = inner + plan_.delayNs;
      return v;
    }
    case Fault::kNone:
      break;
  }
  return isSat ? inner_.isSatisfiable(a, costNs)
               : inner_.isSubsumedBy(a, b, costNs);
}

bool FaultInjector::isSatisfiable(ConceptId c, std::uint64_t* costNs) {
  return call(pairKey(c, c), c, c, /*isSat=*/true, costNs);
}

bool FaultInjector::isSubsumedBy(ConceptId sub, ConceptId sup,
                                 std::uint64_t* costNs) {
  // Key by the ordered test identity the classifier claims: subs?(sup, sub).
  return call(pairKey(sup, sub), sub, sup, /*isSat=*/false, costNs);
}

FaultInjectorStats FaultInjector::stats() const {
  FaultInjectorStats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.injectedErrors = injectedErrors_.load(std::memory_order_relaxed);
  s.injectedResourceFaults = injectedResource_.load(std::memory_order_relaxed);
  s.injectedDelays = injectedDelays_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace owlcl
