// ncbench: runs one of ncast's benchmark workloads for a fixed wall budget
// and prints its metrics as one JSON object on the last line of stdout.
//
//   ncbench --workload stream|wave|lossy --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): repeats the workload's fixed work until S seconds
// have passed (at least three times) and reports the medians of the
// end-to-end metrics. Traced (--trace 1): one untraced repetition, a check
// against the library's own scenario runner where there is one, then traced
// and untraced repetitions in turn for the rest of the budget; reports the
// per-layer split of the median traced repetition. Every repetition checks
// its outputs; any failure prints "correct": false and exits 1.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "gf/dispatch.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

#ifndef NCBENCH_BUILD_TYPE
#define NCBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using ncbench::Rep;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinUntracedReps = 3;
constexpr std::size_t kSetupOnlySamples = 6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "ncbench: %s\nusage: ncbench --workload stream|wave|lossy "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  return 2;
}

bool parse_number(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

Rep run(const std::string& workload, std::uint64_t seed, ncbench::Mode mode) {
  if (workload == "stream") return ncbench::run_stream(seed, mode);
  if (workload == "lossy") return ncbench::run_lossy(seed, mode);
  return ncbench::run_wave(seed, mode);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_provenance(const Options& opt) {
  const ncbench::Shape shape = opt.workload == "wave"
                                   ? ncbench::wave_shape()
                                   : ncbench::protocol_shape(opt.workload);
  std::printf(
      "provenance: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"sizes\": %s, \"shards\": %u, \"workers\": %u, \"gf_tier\": %s, "
      "\"ncast_obs\": %s, \"build_type\": %s, \"nproc\": %ld}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      json_string(shape.summary).c_str(), shape.shards, shape.workers,
      json_string(ncast::gf::tier_name(ncast::gf::active_tier())).c_str(),
      NCAST_OBS_ENABLED ? "true" : "false",
      json_string(NCBENCH_BUILD_TYPE).c_str(), sysconf(_SC_NPROCESSORS_ONLN));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* layer_unit(const std::string& name) {
  const auto ends_with = [&name](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_MBps")) return "MB/s";
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_s")) return "s";
  if (ends_with("_ns") || ends_with("_ns_p50") || ends_with("_ns_p99") ||
      ends_with("ns_per_event")) {
    return "ns";
  }
  if (ends_with("ticks_p50") || ends_with("ticks_p99")) return "ticks";
  if (ends_with("_frac") || ends_with("_per_delivery") || ends_with("_per_crash") ||
      ends_with("_per_content_byte")) {
    return "ratio";
  }
  if (ends_with("_per_data_msg")) return "bytes";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    double num = 0.0;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed" && parse_number(val, &num) && num >= 0.0) {
      opt.seed = static_cast<std::uint64_t>(num);
    } else if (arg == "--seconds" && parse_number(val, &num) && num > 0.0) {
      opt.seconds = num;
    } else if (arg == "--trace" && (std::string(val) == "0" || std::string(val) == "1")) {
      opt.trace = std::string(val) == "1";
    } else {
      return usage(("bad argument " + arg + " " + val).c_str());
    }
  }
  if (!have_workload ||
      (opt.workload != "stream" && opt.workload != "wave" && opt.workload != "lossy")) {
    return usage("--workload must be stream, wave or lossy");
  }
  print_provenance(opt);

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Rep& r, const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(std::string(what) + ": " + e);
  };
  const auto same_counts = [&](const Rep& a, const Rep& b, const char* what) {
    for (const auto& [key, value] : a.counts) {
      const auto it = b.counts.find(key);
      if (it == b.counts.end() || it->second != value) {
        errors.push_back(std::string(what) + " disagrees on " + key);
      }
    }
  };
  const auto t0 = Clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Set-up is short next to a run, so it is sampled more often.
    std::vector<double> setup, wall;
    for (std::size_t i = 0; i < kSetupOnlySamples; ++i) {
      setup.push_back(run(opt.workload, opt.seed, ncbench::Mode::kSetupOnly).setup_s);
    }
    std::vector<Rep> reps;
    while (reps.size() < kMinUntracedReps || elapsed() < opt.seconds) {
      reps.push_back(run(opt.workload, opt.seed, ncbench::Mode::kUntraced));
      account(reps.back(), "untraced repetition");
      same_counts(reps.front(), reps.back(), "repeated untraced repetition");
      std::fprintf(stderr, "rep %zu: setup %.4f s, run %.4f s\n", reps.size(),
                   reps.back().setup_s, reps.back().run_s);
      setup.push_back(reps.back().setup_s);
      wall.push_back(reps.back().run_s);
    }
    metrics.push_back({"setup_s", median(setup), "s"});
    metrics.push_back({"wall_s", median(wall), "s"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  } else {
    // Untraced and traced repetitions alternate, so the overhead compares
    // medians taken over the same stretch of machine time.
    std::vector<Rep> untraced, traced;
    untraced.push_back(run(opt.workload, opt.seed, ncbench::Mode::kUntraced));
    account(untraced.back(), "untraced repetition");
    if (opt.workload != "wave") {
      for (const std::string& e : ncbench::check_protocol_reference(
               opt.workload, opt.seed, untraced.front())) {
        errors.push_back(e);
      }
    }
    while (traced.empty() || elapsed() < opt.seconds) {
      traced.push_back(run(opt.workload, opt.seed, ncbench::Mode::kTraced));
      account(traced.back(), "traced repetition");
      same_counts(untraced.front(), traced.back(), "traced repetition");
      std::fprintf(stderr, "traced rep %zu: run %.4f s\n", traced.size(),
                   traced.back().run_s);
      if (elapsed() >= opt.seconds) break;
      untraced.push_back(run(opt.workload, opt.seed, ncbench::Mode::kUntraced));
      account(untraced.back(), "untraced repetition");
      same_counts(untraced.front(), untraced.back(), "untraced repetition");
      std::fprintf(stderr, "untraced rep %zu: run %.4f s\n", untraced.size(),
                   untraced.back().run_s);
    }
    const auto by_run_s = [](const Rep& a, const Rep& b) { return a.run_s < b.run_s; };
    std::sort(untraced.begin(), untraced.end(), by_run_s);
    std::sort(traced.begin(), traced.end(), by_run_s);
    const Rep& mid_untraced = untraced[untraced.size() / 2];
    const Rep& mid = traced[traced.size() / 2];
    for (const auto& [name, value] : mid.layer) {
      // Outcomes per wall-second are the untraced program's.
      const bool outcome = name.rfind("outcome.", 0) == 0;
      const double v = outcome ? mid_untraced.layer.at(name) : value;
      metrics.push_back({name, v, layer_unit(name)});
    }
    metrics.push_back({"outcome.fail_frac",
                       attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 0.0,
                       "ratio"});
    metrics.push_back({"bench.trace_overhead_frac",
                       (mid.run_s - mid_untraced.run_s) / mid_untraced.run_s, "ratio"});
  }

  for (const std::string& e : errors) std::fprintf(stderr, "ncbench: FAILED %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": " +
            json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return errors.empty() ? 0 : 1;
}
