#include "harness/trace.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> gNextInstance{1};

struct LocalSlot {
  std::uint64_t instance = 0;
  std::vector<Span>* buffer = nullptr;
};
thread_local LocalSlot tLocal;
thread_local std::uint32_t tCurrent = 0;

}  // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      instance_(gNextInstance.fetch_add(1)) {}

std::vector<Span>& Tracer::local() {
  // Keyed by instance number, not address: a later tracer allocated at a
  // dead one's address must not inherit its (freed) buffer.
  const std::uint64_t instance = instance_.load(std::memory_order_relaxed);
  if (tLocal.instance != instance) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(4096);
    tLocal.instance = instance;
    tLocal.buffer = buffers_.back().get();
  }
  return *tLocal.buffer;
}

void Tracer::record(const Span& span) { local().push_back(span); }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  instance_.store(gNextInstance.fetch_add(1), std::memory_order_relaxed);
}

std::uint32_t Tracer::current() { return tCurrent; }

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t req,
                       std::uint32_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.req = req;
  span_.id = tracer_->newId();
  span_.parent = parent == kImplicitParent ? tCurrent : parent;
  savedCurrent_ = tCurrent;
  tCurrent = span_.id;
  span_.startNs = tracer_->now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.endNs = tracer_->now();
  tCurrent = savedCurrent_;
  tracer_->record(span_);
}

std::map<std::uint32_t, std::uint64_t> selfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::uint32_t, std::uint64_t> out;
  for (const Span& s : spans) {
    std::uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        const std::uint64_t b = std::max(c->startNs, s.startNs);
        const std::uint64_t e = std::min(c->endNs, s.endNs);
        if (b < e) iv.emplace_back(b, e);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t runEnd = 0;
      for (const auto& [b, e] : iv) {
        const std::uint64_t from = std::max(b, runEnd);
        if (e > from) covered += e - from;
        runEnd = std::max(runEnd, e);
      }
    }
    out[s.id] = s.durationNs() - covered;
  }
  return out;
}

}  // namespace perfbench
