// Builds the system under test through its public APIs: Simulator,
// Network, Cluster, RaddVolume (over RaddNodeSystem) and, for the
// recovery workloads, the SiteStatusService + HeartbeatDetector +
// RecoverySweeper control plane wired the way chaos autopilot wires it.

#ifndef RADD_PERFBENCH_STACK_H_
#define RADD_PERFBENCH_STACK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/heartbeat.h"
#include "cluster/status_service.h"
#include "core/sweeper.h"
#include "core/volume.h"

namespace perfbench {

/// Shape of one §4 volume: `groups` groups of G+2 drives spread
/// round-robin over G+1+groups sites (one site per member when
/// groups == 1), as in bench_throughput --groups and chaos_main --groups.
struct StackShape {
  int groups = 8;
  int group_size = 8;
  radd::BlockNum rows = 60;
  size_t block_size = 4096;
  radd::NodeConfig node;
  /// Status service + heartbeat detector + disk-paced recovery sweeper.
  bool control_plane = false;
  radd::HeartbeatConfig heartbeat;
  radd::SweeperConfig sweeper;
  /// The sharded engine, one shard per site (fault-free runs only).
  bool sharded = false;
};

struct Stack {
  radd::Simulator sim;
  std::unique_ptr<radd::Network> net;
  std::unique_ptr<radd::Cluster> cluster;
  std::unique_ptr<radd::RaddVolume> vol;
  std::unique_ptr<radd::SiteStatusService> service;
  std::unique_ptr<radd::HeartbeatDetector> detector;
  std::unique_ptr<radd::RecoverySweeper> sweeper;
  int num_sites = 0;
  /// Observation hooks the control-plane wiring calls when set: every
  /// perceived-state decision, and every disk charge the sweeper makes
  /// (the recovering site's writes and its reconstruction-source reads).
  std::function<void(radd::SiteId observer, radd::SiteId target,
                     radd::SiteState state)>
      on_perceive;
  std::function<void(radd::SiteId site, uint32_t units)> on_disk_charge;
};

/// Builds a stack; nullptr (and `error` set) if the volume is rejected.
std::unique_ptr<Stack> BuildStack(const StackShape& shape,
                                  std::string* error);

/// Writes every data block of the volume once, through the synchronous
/// reference model, with seeded content; returns the contents per
/// (site, lba) — the benchmark's shadow copy.
std::vector<std::vector<radd::Block>> Preload(Stack& stack, uint64_t seed);

}  // namespace perfbench

#endif  // RADD_PERFBENCH_STACK_H_
