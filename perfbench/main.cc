// Single-process benchmark for the qo reproduction.
//
//   qo_perfbench --workload <daily_loop|serve_compile|serve_rank>
//                --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.py builds and runs this binary. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Any failed
// output check exits 1 without a result; a non-Release or sanitizer build
// exits 3 without a result.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/kernels/kernels.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifndef QO_BENCH_BUILD_TYPE
#define QO_BENCH_BUILD_TYPE "unknown"
#endif

const char* const kEndToEnd[] = {"setup_s", "cpu_s", "peak_rss_mb",
                                 "jobs_per_s"};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <daily_loop|serve_compile|serve_rank> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(v);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// nproc, compiler, build type, kernel table and every QO_* variable set.
std::string RunContext() {
  std::string qo_env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QO_", 3) != 0) continue;
    if (!qo_env.empty()) qo_env += ", ";
    qo_env += '"';
    qo_env += JsonEscape(*e);
    qo_env += '"';
  }
  // Appends only: GCC 12 warns (-Wrestrict) on "literal" + std::string.
  std::string out = "context: {\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"";
  out += JsonEscape(__VERSION__);
  out += "\", \"build_type\": \"";
  out += JsonEscape(QO_BENCH_BUILD_TYPE);
  out += "\", \"sanitizer\": ";
  out += kSanitized ? "true" : "false";
  out += ", \"kernels\": \"";
  out += JsonEscape(qo::kernels::Active().name);
  out += "\", \"qo_env\": [";
  out += qo_env;
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start_ns = perfbench::NowNs();
  // Keep freed memory in the heap: each segment rebuilds its state, and
  // returning that memory to the kernel would charge the next segment's
  // requests with page faults instead of the program's own work.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);

  std::printf("%s\n", RunContext().c_str());
  if (kSanitized || std::strcmp(QO_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to report numbers from a %s%s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 QO_BENCH_BUILD_TYPE, kSanitized ? " sanitizer" : "");
    return 3;
  }

  Report report;
  if (options.workload == "daily_loop") {
    perfbench::RunDailyLoop(options, &report);
  } else if (options.workload == "serve_compile") {
    perfbench::RunServeCompile(options, &report);
  } else if (options.workload == "serve_rank") {
    perfbench::RunServeRank(options, &report);
  } else {
    return Usage(argv[0]);
  }

  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  if (!report.missing.empty()) {
    std::string missing;
    for (const std::string& name : report.missing) missing += " " + name;
    std::printf("missing registry series (reported as 0):%s\n",
                missing.c_str());
  }
  std::string counters;
  for (const auto& [name, value] : report.counters) {
    if (!counters.empty()) counters += ", ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", name.c_str(), value);
    counters += buf;
  }
  std::printf("counters: {%s}\n", counters.c_str());
  std::printf("digest: %s\n", report.digest.c_str());

  if (!report.violations.empty()) {
    for (const std::string& v : report.violations) {
      std::printf("CHECK FAILED: %s\n", v.c_str());
    }
    std::fflush(stdout);
    return 1;
  }
  if (options.trace) {
    perfbench::FillPerLayerDefaults(&report);
  } else {
    perfbench::MetricTable end_to_end;
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const auto& row : report.metrics.rows()) {
        if (row.first != name) continue;
        end_to_end.Set(row.first, row.second.first, row.second.second);
        found = true;
      }
      if (!found) {
        std::printf("internal error: metric %s not measured\n", name);
        return 1;
      }
    }
    report.metrics = end_to_end;
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      report.metrics.ToJson().c_str());
  return 0;
}
