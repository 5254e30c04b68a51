// perfbench: the fused-vs-serial training benchmark binary. One workload
// per process, so no workload's pool cache or peak memory leaks into
// another's numbers.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: the metrics (end-to-end with --trace 0, per-layer with --trace 1),
// the audit outcome, host provenance and sample counts. perfbench/run.py
// builds this binary, runs it, and checks the result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_result(const perfbench::Options& o, const Result& r,
                  bool correct) {
  std::string j = "{\"workload\": " + json_string(o.workload) +
                  ", \"seed\": " + std::to_string(o.seed) +
                  ", \"trace\": " + (o.trace ? "1" : "0") +
                  ", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i)
    j += (i ? ", " : "") + json_string(r.failures[i]);
  j += "], \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", r.metrics[i].value);
    j += (i ? ", " : "") + json_string(r.metrics[i].name) +
         ": {\"value\": " + v + ", \"unit\": " +
         json_string(r.metrics[i].unit) + "}";
  }
  j += "}, \"info\": {";
  for (size_t i = 0; i < r.info.size(); ++i)
    j += (i ? ", " : "") + json_string(r.info[i].first) + ": " +
         json_string(r.info[i].second);
  j += "}, \"provenance\": {";
  const auto prov = perfbench::provenance();
  for (size_t i = 0; i < prov.size(); ++i)
    j += (i ? ", " : "") + json_string(prov[i].first) + ": " +
         json_string(prov[i].second);
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mlp_b8_replay|pointnet_b8_amp|"
               "hfht_pointnet_hb --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out") {
      o.out_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) return usage(argv[0]);

  Result r;
  try {
    if (o.workload == "mlp_b8_replay") {
      r = perfbench::run_mlp_b8_replay(o);
    } else if (o.workload == "pointnet_b8_amp") {
      r = perfbench::run_pointnet_b8_amp(o);
    } else if (o.workload == "hfht_pointnet_hb") {
      r = perfbench::run_hfht_pointnet_hb(o);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    r.attempted = std::max<int64_t>(r.attempted, 1);
    r.fail(std::string("exception: ") + e.what());
  }
  const bool correct = r.failed == 0;
  print_result(o, r, correct);
  return correct ? 0 : 1;
}
