// chaos_autopilot: ChaosHarness autopilot schedules at --ops 400 on the
// default (legacy serial-clock) disk, run by the ParallelRunner farm at
// two threads. The schedule set is fixed — seeds 1..200 of the
// single-group volume and seeds 1..200 of the 3-group volume, the sweeps
// `chaos_main --seeds 200 --ops 400 --autopilot [--groups 3]` run — and
// does not depend on --seed, so its verdicts form a fixed correctness
// gate. The harness ledger judges each schedule; schedules listed as
// known failures are reported (oracle_failures, reproduce commands) but
// only a failure outside that list makes the run incorrect.

#include <set>

#include "fault/chaos.h"
#include "gen.h"
#include "sim/parallel_runner.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace radd;

constexpr int kOps = 400;
constexpr uint64_t kSeedsPerShape = 200;
constexpr int kFarmThreads = 2;
constexpr int kShapes[] = {1, 3};  // volume groups
/// Schedules of the 1-thread vs 2-thread farm comparison (traced runs).
constexpr int kSpeedupJobs = 100;
/// The repository's chaos driver, as built by the top-level CMake project.
constexpr const char* kChaosMain = "build/tools/chaos_main";

volatile uint64_t g_sink = 0;

struct Job {
  int groups;
  uint64_t seed;
};

ChaosConfig ConfigFor(int groups) {
  ChaosConfig cfg;
  cfg.ops_per_episode = kOps;
  cfg.autopilot = true;
  cfg.groups = groups;
  return cfg;
}

std::vector<Job> Jobs() {
  std::vector<Job> jobs;
  for (int g : kShapes) {
    for (uint64_t s = 1; s <= kSeedsPerShape; ++s) jobs.push_back({g, s});
  }
  return jobs;
}

struct FarmOut {
  std::vector<ChaosReport> reports;
  std::vector<uint64_t> start_ns, wall_ns;  // per job, tracer clock
  double wall_s = 0;
};

FarmOut RunFarm(const std::vector<Job>& jobs, size_t count, int threads,
                const Tracer& clock) {
  FarmOut out;
  out.reports.resize(count);
  out.start_ns.resize(count);
  out.wall_ns.resize(count);
  const Clock::time_point t0 = Clock::now();
  ParallelRunner::Map(threads, static_cast<int>(count), [&](int i) {
    const size_t k = static_cast<size_t>(i);
    out.start_ns[k] = clock.Now();
    out.reports[k] = ChaosHarness(ConfigFor(jobs[k].groups)).Run(jobs[k].seed);
    out.wall_ns[k] = clock.Now() - out.start_ns[k];
  });
  out.wall_s = SecondsSince(t0);
  return out;
}

/// The stack a schedule of the `groups`-group volume builds inside
/// ChaosHarness::Run: cluster, volume and control plane.
std::unique_ptr<Stack> BuildChaosStack(int groups, Report* rep) {
  const ChaosConfig cfg = ConfigFor(groups);
  StackShape shape;
  shape.groups = groups;
  shape.group_size = cfg.group_size;
  shape.rows = cfg.rows;
  shape.block_size = cfg.block_size;
  shape.node = cfg.node;
  shape.control_plane = true;
  shape.heartbeat = cfg.heartbeat;
  shape.sweeper = cfg.sweeper;
  std::string error;
  std::unique_ptr<Stack> st = BuildStack(shape, &error);
  if (!st) {
    rep->violations.push_back("chaos-shaped volume: " + error);
    ++rep->failed;
  }
  return st;
}

/// Builds the stack of each chaos shape and preloads every block; median
/// of 100 builds.
double SetupSeconds(uint64_t seed, Report* rep) {
  std::vector<double> times;
  for (int i = 0; i < 100; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (int g : kShapes) {
      std::unique_ptr<Stack> st = BuildChaosStack(g, rep);
      if (!st) return 0;
      g_sink = g_sink + Preload(*st, seed).size();
    }
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

/// RaddVolume::Resolve over every address of the 3-group volume.
void ProbeResolve(Report* rep) {
  std::unique_ptr<Stack> st = BuildChaosStack(3, rep);
  if (!st) return;
  uint64_t n = 0;
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < 50; ++pass) {
    for (int s = 0; s < st->num_sites; ++s) {
      const SiteId site = static_cast<SiteId>(s);
      for (BlockNum lba = 0; lba < st->vol->DataBlocksAtSite(site); ++lba) {
        g_sink = g_sink + st->vol->Resolve(site, lba)->index;
        ++n;
      }
    }
  }
  rep->Layer("layout.resolve_ns", SecondsSince(t0) * 1e9 / double(n), "ns",
             Kind::kWall);
}

std::string Key(const Job& j) {
  return "g" + std::to_string(j.groups) + ":" + std::to_string(j.seed);
}

}  // namespace

Report RunChaos(const Options& opt) {
  Report rep;
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  rep.traced = opt.trace;
  const std::set<std::string> known(opt.known_failures.begin(),
                                    opt.known_failures.end());
  const std::vector<Job> jobs = Jobs();
  const Tracer clock;

  const double setup_s = SetupSeconds(opt.seed, &rep);
  uint64_t other_failures = rep.failed;  // setup and nondeterminism
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<FarmOut> rounds;
  const Clock::time_point t0 = Clock::now();
  double peak_rss = 0;  // of one round: later rounds repeat it for timing
  do {
    rounds.push_back(RunFarm(jobs, jobs.size(), kFarmThreads, clock));
    if (rounds.size() == 1) peak_rss = PeakRssMiB();
  } while (SecondsSince(t0) < budget);

  // Verdicts of the first round; every later round must repeat them.
  const FarmOut& first = rounds.front();
  uint64_t ops = 0, ops_failed = 0, schedules_failed = 0;
  SimTime sim_total = 0;
  std::vector<double> convergence;
  for (size_t k = 0; k < jobs.size(); ++k) {
    const ChaosReport& r = first.reports[k];
    ops += r.ops_issued;
    ops_failed += r.ops_failed;
    sim_total += r.end_time;
    convergence.push_back(ToMillis(r.convergence_max));
    if (r.ok) continue;
    ++schedules_failed;
    const std::string line =
        "chaos " + Key(jobs[k]) + ": " + r.failure + "\n    reproduce: " +
        kChaosMain + " --seed " + std::to_string(jobs[k].seed) +
        " --ops " + std::to_string(kOps) + " --autopilot --groups " +
        std::to_string(jobs[k].groups) + " --threads " +
        std::to_string(kFarmThreads);
    if (known.count(Key(jobs[k]))) {
      rep.expected_violations.push_back(line);
    } else {
      rep.violations.push_back(line);
      ++rep.failed;
    }
  }
  for (size_t k = 0; k < jobs.size(); ++k) {
    if (!first.reports[k].ok || !known.count(Key(jobs[k]))) continue;
    rep.notes.push_back("known failure " + Key(jobs[k]) + " now passes");
  }
  auto same_as_first = [&](const FarmOut& r) {
    for (size_t k = 0; k < jobs.size(); ++k) {
      if (r.reports[k].Summary() != first.reports[k].Summary()) return false;
    }
    return true;
  };
  for (const FarmOut& r : rounds) {
    if (!same_as_first(r)) {
      rep.violations.push_back("nondeterminism: a repeated farm round gave "
                               "different schedule summaries");
      ++rep.failed;
      ++other_failures;
      break;
    }
  }

  std::vector<double> rate, sched_rate;
  for (const FarmOut& r : rounds) {
    rate.push_back(double(ops) / r.wall_s);
    sched_rate.push_back(double(jobs.size()) / r.wall_s);
  }
  rep.E2e("setup_s", setup_s, "s", Kind::kWall);
  rep.E2e("ops_per_wall_s", Median(rate), "ops/s", Kind::kWall);
  rep.E2e("peak_rss_mb", peak_rss, "MiB", Kind::kMemory);
  rep.E2e("schedules_per_wall_s", Median(sched_rate), "1/s", Kind::kWall);
  rep.E2e("ops_per_sim_s", double(ops) / ToSeconds(sim_total), "ops/s",
          Kind::kSim);
  rep.E2e("ops_failed_frac", double(ops_failed) / double(ops), "ratio",
          Kind::kCount);
  rep.E2e("oracle_failures", double(schedules_failed + other_failures),
          "count", Kind::kCount);
  rep.E2e("convergence_p99_ms", Percentile(convergence, 99), "ms",
          Kind::kSim);
  rep.attempted = jobs.size();
  rep.notes.push_back("rounds=" + std::to_string(rounds.size()) +
                      " schedules=" + std::to_string(jobs.size()) +
                      " ops=" + std::to_string(ops) +
                      " failed_schedules=" + std::to_string(schedules_failed));
  if (!opt.trace) return rep;

  // --- traced rounds: one span per schedule --------------------------------
  Tracer tracer;
  const uint16_t n_sched = tracer.Name("chaos.schedule");
  std::vector<double> traced_rate;
  const Clock::time_point t1 = Clock::now();
  do {
    FarmOut r = RunFarm(jobs, jobs.size(), kFarmThreads, tracer);
    traced_rate.push_back(double(ops) / r.wall_s);
    if (!same_as_first(r)) {
      rep.violations.push_back("tracing changed a schedule's outcome");
      ++rep.failed;
    }
    if (tracer.size() == 0) {
      for (size_t k = 0; k < jobs.size(); ++k) {
        tracer.Add(n_sched, static_cast<uint32_t>(jobs[k].groups),
                   jobs[k].seed, r.start_ns[k], r.wall_ns[k]);
      }
    }
  } while (SecondsSince(t1) < opt.seconds / 2);
  std::vector<double> per_schedule;
  for (uint64_t ns : first.wall_ns) per_schedule.push_back(double(ns) / 1e6);
  uint64_t false_susp = 0, rows = 0, stale = 0;
  for (const ChaosReport& r : first.reports) {
    false_susp += r.false_suspicions;
    rows += r.sweep_rows;
    stale += r.stale_epoch_rejections;
  }
  rep.Layer("chaos.wall_ms_per_schedule_p50", Percentile(per_schedule, 50),
            "ms", Kind::kWall);
  rep.Layer("chaos.wall_ms_per_schedule_p99", Percentile(per_schedule, 99),
            "ms", Kind::kWall);
  rep.Layer("cluster.false_suspicions", double(false_susp), "count",
            Kind::kCount);
  rep.Layer("recovery.rows_swept", double(rows), "rows", Kind::kCount);
  rep.Layer("core.stale_epoch_per_op", double(stale) / double(ops),
            "msgs/op", Kind::kCount);
  rep.Layer("trace.overhead_ratio", Median(rate) / Median(traced_rate),
            "ratio", Kind::kWall);
  // The farm on the first kSpeedupJobs schedules, 1 against 2 threads.
  const double t_one = RunFarm(jobs, kSpeedupJobs, 1, clock).wall_s;
  const double t_two = RunFarm(jobs, kSpeedupJobs, kFarmThreads, clock).wall_s;
  rep.Layer("chaos.farm_speedup", t_one / t_two, "ratio", Kind::kWall);

  // Kernel probes on chaos-shaped payloads: whole-block random rewrites
  // of 256-byte blocks, as the harness's traffic issues them.
  const size_t bs = ConfigFor(1).block_size;
  Samples samples;
  Rng rng(SubSeed(opt.seed, 0x4b45524e));
  for (int i = 0; i < 256; ++i) {
    Block a(bs), b(bs);
    FillRecord(a.data(), bs, rng.Next());
    FillRecord(b.data(), bs, rng.Next());
    samples.emplace_back(std::move(a), std::move(b));
  }
  ProbeKernels(samples, ConfigFor(1).group_size + 2, &rep);
  ProbeResolve(&rep);

  // One span file per workload: the latest traced run's.
  const std::string path = opt.out_dir + "/" + opt.workload + ".spans.tsv";
  if (tracer.WriteTsv(path, opt.stamp + " seed=" + std::to_string(opt.seed))) {
    rep.notes.push_back("spans=" + std::to_string(tracer.size()) + " -> " +
                        path);
  } else {
    rep.notes.push_back("could not write spans to " + path);
  }
  return rep;
}

}  // namespace perfbench
