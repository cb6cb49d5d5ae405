// The benchmark's workloads. Each runs rounds of a fixed, seed-determined
// amount of simulated work until the time budget is spent: wall metrics
// are medians over rounds, sim-time metrics and counts come from the
// first round and every later round must reproduce them exactly.

#ifndef RADD_PERFBENCH_WORKLOADS_H_
#define RADD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/block.h"
#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for span logs of traced runs.
  std::string out_dir = ".bench_out";
  /// Known-failing chaos schedules, "g<groups>:<seed>" each.
  std::vector<std::string> known_failures;
  /// The build stamp, copied into every file the run writes.
  std::string stamp;
};

bool IsVolumeWorkload(const std::string& name);
/// write_record, hot_read, fail_rebuild.
Report RunVolume(const Options& options);
/// chaos_autopilot.
Report RunChaos(const Options& options);

/// Times the public block, checksum, mask and disk kernels on `samples`
/// ((old, new) contents of real writes) and adds the common.* and disk.*
/// per-layer metrics to `report`.
using Samples = std::vector<std::pair<radd::Block, radd::Block>>;
void ProbeKernels(const Samples& samples, int group_size, Report* report);

}  // namespace perfbench

#endif  // RADD_PERFBENCH_WORKLOADS_H_
