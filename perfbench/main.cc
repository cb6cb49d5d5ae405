// radd_bench — runs one workload of the RADD benchmark and prints its full
// report. perfbench/run.py builds this program and turns the report into
// the benchmark's result line; see perfbench/README.md.
//
//   radd_bench --workload write_record --seed 7 --seconds 10 --trace 0
//              [--out-dir DIR] [--known-failures g1:67,g3:23,...]
//              [--git-sha SHA]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef RADD_BENCH_BUILD_TYPE
#define RADD_BENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define RADD_BENCH_COMPILER __VERSION__
#else
#define RADD_BENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(',', start);
    const std::string part =
        s.substr(start, end == std::string::npos ? end : end - start);
    if (!part.empty()) out.push_back(part);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload write_record|hot_read|fail_rebuild|"
               "chaos_autopilot --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--known-failures LIST] [--git-sha SHA]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = val;
    } else if (arg == "--known-failures") {
      opt.known_failures = SplitComma(val);
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0)) return Usage(argv[0]);

  bool optimized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
  opt.stamp = "{\"git_sha\": " + perfbench::Quote(git_sha) +
              ", \"nproc\": " +
              std::to_string(std::thread::hardware_concurrency()) +
              ", \"compiler\": " + perfbench::Quote(RADD_BENCH_COMPILER) +
              ", \"build_type\": " +
              perfbench::Quote(RADD_BENCH_BUILD_TYPE) +
              ", \"optimized\": " + (optimized ? "true" : "false") + "}";
  std::printf("stamp %s\n", opt.stamp.c_str());
  if (!optimized) {
    std::fprintf(stderr, "radd_bench: refusing to record from a build "
                         "without optimisation\n");
    return 3;
  }

  perfbench::Report report;
  if (perfbench::IsVolumeWorkload(opt.workload)) {
    report = perfbench::RunVolume(opt);
  } else if (opt.workload == "chaos_autopilot") {
    report = perfbench::RunChaos(opt);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& v : report.expected_violations) {
    std::printf("KNOWN FAIL %s\n", v.c_str());
  }
  for (const std::string& v : report.violations) {
    std::printf("FAIL %s\n", v.c_str());
  }
  std::printf("report %s\n", report.ToJson().c_str());
  return 0;
}
