#include "harness/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <string_view>
#include <thread>

#include "owl/printer.hpp"

namespace perfbench::detail {

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t classifierWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(4, hw == 0 ? 1 : hw));
}

namespace {

Input makeInput(const owlcl::GenConfig& cfg) {
  Input in;
  in.gen = owlcl::generateOntology(cfg);
  in.text = owlcl::toFunctionalSyntaxDocument(*in.gen.tbox);
  return in;
}

/// generateOntology never returns when every backbone concept ends up
/// unsatisfiable (its unsat injection picked the root): the scan for a
/// satisfiable ∃ filler then loops forever. That is a generator defect,
/// not a classifier one (perfbench/README.md records it). The generator
/// fixes the unsat set before it draws any decoration, so a decoration-
/// free generation with the same seed makes the same draws up to that
/// point and reveals the hang without running into it.
bool generatorHangs(owlcl::GenConfig cfg) {
  cfg.existentialAxioms = cfg.universalAxioms = cfg.qcrAxioms = 0;
  cfg.annotationAxioms = 0;
  const owlcl::GeneratedOntology probe = owlcl::generateOntology(cfg);
  for (std::size_t c = 0; c < cfg.concepts; ++c)
    if (!probe.truth.unsat[c]) return false;
  return cfg.concepts > 0;
}

struct LayerMetric {
  const char* name;
  const char* unit;
  /// Measured on every workload in BENCHMARK.json. The others belong to
  /// layers only the serve workloads run; they would read 0 elsewhere,
  /// so they are printed but kept out of the JSON line.
  bool everyWorkload;
};

/// Every per-layer metric, in BENCHMARK.json order.
const std::vector<LayerMetric>& layerCatalog() {
  static const std::vector<LayerMetric> k = {
      {"owl.parse_s", "s", true},
      {"reasoner.preprocess_s", "s", true},
      {"reasoner.calls", "count", true},
      {"reasoner.busy_s", "s", true},
      {"reasoner.call_max_s", "s", true},
      {"reasoner.subs_positive_ratio", "ratio", true},
      {"reasoner.cache_hit_ratio", "ratio", true},
      {"elcore.routing_s", "s", true},
      {"core.routed_concepts", "count", true},
      {"core.tests_avoided_by_routing", "count", true},
      {"core.random_division_s", "s", true},
      {"core.group_division_s", "s", true},
      {"core.hierarchy_s", "s", true},
      {"core.own_s", "s", true},
      {"core.tests_performed", "count", true},
      {"core.avoided_ratio", "ratio", true},
      {"core.unattributed_ratio", "ratio", true},
      {"parallel.tasks", "count", true},
      {"parallel.dispatch_s", "s", true},
      {"parallel.barrier_wait_s", "s", true},
      {"parallel.task_max_s", "s", true},
      {"parallel.utilization", "ratio", true},
      {"parallel.steals", "count", true},
      {"taxonomy.snapshot_build_s", "s", true},
      {"serve.parse_us", "us", false},
      {"serve.answer_us", "us", false},
      {"serve.answer_batch_us", "us", false},
      {"serve.view_pin_ns", "ns", false},
      {"serve.inproc_rtt_us", "us", false},
      {"serve.snapshot_answer_ratio", "ratio", false},
      {"core.delta_cone", "count", false},
      {"core.delta_tests", "count", false},
      {"robust.journal_s", "s", false},
      {"robust.records", "count", false},
      {"robust.barrier_s", "s", false},
      {"trace.overhead_pct", "%", true},
  };
  return k;
}

}  // namespace

LayerMap medianLayers(const std::vector<LayerMap>& items) {
  std::map<std::string, std::vector<double>> cols;
  for (const LayerMap& m : items)
    for (const auto& [k, v] : m) cols[k].push_back(v);
  LayerMap out;
  for (const auto& [k, v] : cols) out[k] = median(v);
  return out;
}

void reportLayers(const LayerMap& values, std::size_t samples, Report* rep) {
  for (const LayerMetric& m : layerCatalog()) {
    auto it = values.find(m.name);
    (m.everyWorkload ? rep->perLayer : rep->perLayerLocal)
        .push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit,
                    it == values.end() ? 0 : samples});
  }
}

double sumDur(const std::vector<Span>& spans, const char* name) {
  std::uint64_t ns = 0;
  for (const Span& s : spans)
    if (std::string_view(s.name) == name) ns += s.durationNs();
  return static_cast<double>(ns) / 1e9;
}

// --- per-classification layer analysis ---------------------------------------

namespace {

const char* phaseSpanName(owlcl::CycleStats::Phase p) {
  switch (p) {
    case owlcl::CycleStats::Phase::kRouting: return "elcore.routing";
    case owlcl::CycleStats::Phase::kRandomDivision: return "core.random_division";
    case owlcl::CycleStats::Phase::kGroupDivision: return "core.group_division";
    case owlcl::CycleStats::Phase::kHierarchy: return "core.hierarchy";
  }
  return "core.phase";
}

/// Places each CycleStats phase on the timeline. The classifier computes
/// a phase's elapsedNs as the difference of two Executor::elapsedNs()
/// readings, so the pair of logged readings whose values differ by
/// exactly that amount marks the phase's start and end.
std::vector<Span> phaseSpans(const owlcl::ClassificationResult& r,
                             const std::vector<TracedExecutor::ClockRead>& reads,
                             Tracer& tracer, std::uint32_t parent,
                             std::uint64_t req) {
  std::vector<Span> out;
  std::size_t from = 0;
  for (const owlcl::CycleStats& c : r.cycles) {
    bool found = false;
    for (std::size_t j = from + 1; j < reads.size() && !found; ++j)
      for (std::size_t i = j; i-- > from;) {
        if (reads[j].value - reads[i].value != c.elapsedNs) continue;
        Span s;
        s.name = phaseSpanName(c.phase);
        s.startNs = reads[i].at;
        s.endNs = reads[j].at;
        s.id = tracer.newId();
        s.parent = parent;
        s.req = req;
        out.push_back(s);
        from = j + 1;
        found = true;
        break;
      }
  }
  return out;
}

}  // namespace

LayerMap classifyLayers(std::vector<Span> spans, std::uint32_t root,
                        const owlcl::ClassificationResult& r,
                        const std::vector<TracedExecutor::ClockRead>& reads,
                        Tracer& tracer, std::size_t workers,
                        std::uint64_t steals) {
  LayerMap m;
  const Span* rootSpan = nullptr;
  for (const Span& s : spans)
    if (s.id == root) rootSpan = &s;
  if (rootSpan == nullptr) return m;
  const Span rootCopy = *rootSpan;

  // Phase spans become the parents of the coordinator spans (dispatch,
  // barrier) and tasks that started inside them.
  const std::vector<Span> phases =
      phaseSpans(r, reads, tracer, root, rootCopy.req);
  for (Span& s : spans) {
    if (s.parent != root) continue;
    for (const Span& p : phases)
      if (s.startNs >= p.startNs && s.startNs < p.endNs) {
        s.parent = p.id;
        break;
      }
  }
  spans.insert(spans.end(), phases.begin(), phases.end());
  const auto self = selfTimes(spans);
  std::uint32_t routingPhase = ~std::uint32_t{0};
  for (const Span& p : phases)
    if (std::string_view(p.name) == "elcore.routing") routingPhase = p.id;
  const double wall = static_cast<double>(rootCopy.durationNs()) / 1e9;

  std::uint64_t calls = 0, subs = 0, subsTrue = 0, busy = 0, callMax = 0;
  std::uint64_t tasks = 0, taskNs = 0, taskMax = 0, taskSelf = 0;
  std::vector<const Span*> barriers, taskSpans;
  for (const Span& s : spans) {
    const std::string_view n = s.name;
    if (n == "reasoner.sat" || n == "reasoner.subs") {
      ++calls;
      busy += s.durationNs();
      callMax = std::max(callMax, s.durationNs());
      if (n == "reasoner.subs") {
        ++subs;
        subsTrue += s.value == 1;
      }
    } else if (n == "parallel.task") {
      ++tasks;
      taskNs += s.durationNs();
      taskMax = std::max(taskMax, s.durationNs());
      // Routing-phase tasks are EL saturation workers, not classifier
      // bookkeeping; their time is elcore.routing_s.
      if (s.parent != routingPhase) taskSelf += self.at(s.id);
      taskSpans.push_back(&s);
    } else if (n == "parallel.barrier") {
      barriers.push_back(&s);
    }
  }

  // Barrier wait: per epoch (between barrier releases), each worker's idle
  // time from its last task end to the release; a worker that ran nothing
  // in the epoch waited the whole epoch.
  std::sort(barriers.begin(), barriers.end(),
            [](const Span* a, const Span* b) { return a->startNs < b->startNs; });
  double barrierWait = 0;
  std::uint64_t epochStart = rootCopy.startNs;
  for (const Span* b : barriers) {
    std::map<std::int64_t, std::uint64_t> lastEnd;
    for (const Span* t : taskSpans)
      if (t->startNs >= epochStart && t->endNs <= b->endNs)
        lastEnd[t->value] = std::max(lastEnd[t->value], t->endNs);
    std::uint64_t wait = 0;
    for (const auto& [w, end] : lastEnd) wait += b->endNs - end;
    const std::size_t idle =
        workers > lastEnd.size() ? workers - lastEnd.size() : 0;
    wait += idle * (b->endNs - epochStart);
    barrierWait += static_cast<double>(wait) / 1e9;
    epochStart = b->endNs;
  }

  double phaseNs[4] = {0, 0, 0, 0};
  for (const owlcl::CycleStats& c : r.cycles)
    phaseNs[static_cast<int>(c.phase)] += static_cast<double>(c.elapsedNs);

  m["owl.parse_s"] = sumDur(spans, "owl.parse");
  m["reasoner.preprocess_s"] = sumDur(spans, "reasoner.preprocess");
  m["reasoner.calls"] = static_cast<double>(calls);
  m["reasoner.busy_s"] = static_cast<double>(busy) / 1e9;
  m["reasoner.call_max_s"] = static_cast<double>(callMax) / 1e9;
  m["reasoner.subs_positive_ratio"] =
      subs == 0 ? 0.0 : static_cast<double>(subsTrue) / static_cast<double>(subs);
  const double satCalls = static_cast<double>(r.reasonerSatCalls);
  m["reasoner.cache_hit_ratio"] =
      satCalls == 0
          ? 0.0
          : static_cast<double>(r.reasonerCacheHits + r.crossCacheHits) / satCalls;
  m["elcore.routing_s"] =
      phaseNs[static_cast<int>(owlcl::CycleStats::Phase::kRouting)] / 1e9;
  m["core.random_division_s"] =
      phaseNs[static_cast<int>(owlcl::CycleStats::Phase::kRandomDivision)] / 1e9;
  m["core.group_division_s"] =
      phaseNs[static_cast<int>(owlcl::CycleStats::Phase::kGroupDivision)] / 1e9;
  m["core.hierarchy_s"] =
      phaseNs[static_cast<int>(owlcl::CycleStats::Phase::kHierarchy)] / 1e9;
  m["core.routed_concepts"] = static_cast<double>(r.routedConcepts);
  m["core.tests_avoided_by_routing"] =
      static_cast<double>(r.testsAvoidedByRouting);
  m["core.own_s"] = static_cast<double>(taskSelf) / 1e9;
  m["core.tests_performed"] = static_cast<double>(r.testsPerformed());
  const double avoided = static_cast<double>(r.testsAvoided());
  const double performed = static_cast<double>(r.testsPerformed());
  m["core.avoided_ratio"] =
      avoided + performed == 0 ? 0.0 : avoided / (avoided + performed);
  m["core.unattributed_ratio"] =
      rootCopy.durationNs() == 0
          ? 0.0
          : static_cast<double>(self.at(root)) /
                static_cast<double>(rootCopy.durationNs());
  m["parallel.tasks"] = static_cast<double>(tasks);
  m["parallel.dispatch_s"] = sumDur(spans, "parallel.dispatch");
  m["parallel.barrier_wait_s"] = barrierWait;
  m["parallel.task_max_s"] = static_cast<double>(taskMax) / 1e9;
  m["parallel.utilization"] =
      wall == 0 ? 0.0
                : static_cast<double>(taskNs) / 1e9 /
                      (static_cast<double>(workers) * wall);
  m["parallel.steals"] = static_cast<double>(steals);
  return m;
}

std::vector<Span> spansOf(const Tracer& tracer, std::uint64_t req) {
  std::vector<Span> out;
  for (const Span& s : tracer.spans())
    if (s.req == req) out.push_back(s);
  return out;
}

Input InputSequence::next() {
  while (true) {
    const owlcl::GenConfig cfg = shape_(next_++);
    if (!generatorHangs(cfg)) return makeInput(cfg);
    ++skipped_;
  }
}

}  // namespace perfbench::detail
