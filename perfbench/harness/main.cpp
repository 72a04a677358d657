// owlcl_perfbench — runs one benchmark workload and prints its metrics.
//
//   owlcl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>]
//
// stdout: a human-readable table (every metric with its unit and sample
// count), then as the LAST line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit 2 on bad arguments, 1 on a set-up failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness/workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "owlcl_perfbench: %s\nusage: owlcl_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

double finiteOr0(double v) { return std::isfinite(v) ? v : 0.0; }

void printTable(const char* title, const std::vector<perfbench::Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const perfbench::Metric& m : ms)
    std::printf("  %-34s %16.6f %-6s (n=%zu)\n", m.name.c_str(), finiteOr0(m.value),
                m.unit.c_str(), m.samples);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      o.trace = v[0] == '1';
    } else if (a == "--work-dir") {
      o.workDir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workloadNames()) known |= w == o.workload;
  if (!known) usage(("unknown workload " + o.workload).c_str());

  perfbench::Report r;
  try {
    r = perfbench::runWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "owlcl_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %s run\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  printTable("metrics:", r.display);
  printTable("end-to-end (gated):", r.endToEnd);
  printTable("per-layer:", r.perLayer);
  printTable("per-layer, layers only some workloads run:", r.perLayerLocal);
  std::printf("  failed_ratio %.6g (%llu failed of %llu attempted)\n",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  const std::vector<perfbench::Metric>& out = o.trace ? r.perLayer : r.endToEnd;
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", finiteOr0(out[i].value));
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
