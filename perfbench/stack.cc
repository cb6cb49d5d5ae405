#include "stack.h"

#include "gen.h"

namespace perfbench {

using namespace radd;

std::unique_ptr<Stack> BuildStack(const StackShape& shape,
                                  std::string* error) {
  auto st = std::make_unique<Stack>();
  const int members = shape.group_size + 2;
  const int num_sites =
      shape.groups == 1 ? members : members - 1 + shape.groups;
  st->num_sites = num_sites;
  std::vector<int> drives(static_cast<size_t>(num_sites), 0);
  for (int d = 0; d < shape.groups * members; ++d) {
    ++drives[static_cast<size_t>(d % num_sites)];
  }
  if (shape.sharded) {
    st->sim.ConfigureShards(num_sites, NetworkModel{}.one_way_latency);
  }
  st->net = std::make_unique<Network>(&st->sim, NetworkModel{}, 0xbeef);
  std::vector<SiteConfig> sites;
  for (int s = 0; s < num_sites; ++s) {
    if (shape.sharded) st->net->MapSiteToShard(s, s);
    SiteConfig sc;
    sc.num_disks = 1;
    sc.blocks_per_disk =
        static_cast<BlockNum>(drives[static_cast<size_t>(s)]) * shape.rows;
    sc.block_size = shape.block_size;
    sites.push_back(sc);
  }
  st->cluster = std::make_unique<Cluster>(sites);
  VolumeConfig vc;
  vc.group.group_size = shape.group_size;
  vc.group.rows = shape.rows;
  vc.group.block_size = shape.block_size;
  vc.drives_per_site = drives;
  vc.node = shape.node;
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&st->sim, st->net.get(), st->cluster.get(), vc);
  if (!made.ok()) {
    *error = made.status().ToString();
    return nullptr;
  }
  st->vol = std::move(made).value();
  if (!shape.control_plane) return st;

  // Chaos autopilot's wiring: the detector is built after the protocol
  // stack so it chains in front of its handlers; suspicions feed the
  // status service, which owns every state transition; a kDown resets the
  // node like a real crash; the sweeper follows kRecovering transitions.
  RaddNodeSystem* sys = st->vol->system();
  Stack* raw = st.get();
  st->service = std::make_unique<SiteStatusService>(&st->sim,
                                                    st->cluster.get());
  std::vector<SiteId> ids;
  for (int s = 0; s < num_sites; ++s) ids.push_back(static_cast<SiteId>(s));
  st->detector = std::make_unique<HeartbeatDetector>(
      &st->sim, st->net.get(), st->cluster.get(), ids, shape.heartbeat);
  st->detector->SetStatusService(st->service.get());
  sys->SetStatusService(st->service.get());
  sys->SetPerceiver([raw](SiteId observer, SiteId target) {
    const SiteState state = raw->detector->Perceived(observer, target);
    if (raw->on_perceive) raw->on_perceive(observer, target, state);
    return state;
  });
  st->service->AddListener([sys](SiteId site, SiteState state, uint64_t) {
    if (state == SiteState::kDown) sys->ResetNodeVolatileState(site);
  });
  SweeperConfig sw = shape.sweeper;
  sw.load_probe = [sys]() { return sys->InFlightOps(); };
  if (shape.node.disk_sched.modeled()) {
    sw.disk_charge = [raw, sys](SiteId site, uint32_t units,
                                std::function<void()> done) {
      if (raw->on_disk_charge) raw->on_disk_charge(site, units);
      sys->ChargeBackgroundIo(site, units, std::move(done));
    };
  }
  std::vector<RaddGroup*> groups;
  for (int g = 0; g < st->vol->num_groups(); ++g) {
    groups.push_back(st->vol->group(g));
  }
  st->sweeper = std::make_unique<RecoverySweeper>(
      &st->sim, std::move(groups), st->service.get(), sw);
  st->sweeper->Start();
  st->detector->Start();
  return st;
}

std::vector<std::vector<Block>> Preload(Stack& stack, uint64_t seed) {
  RaddVolume& vol = *stack.vol;
  const size_t bs = vol.group(0)->config().block_size;
  std::vector<std::vector<Block>> shadow(
      static_cast<size_t>(stack.num_sites));
  for (int s = 0; s < stack.num_sites; ++s) {
    const SiteId site = static_cast<SiteId>(s);
    const BlockNum lbas = vol.DataBlocksAtSite(site);
    std::vector<Block>& blocks = shadow[static_cast<size_t>(s)];
    blocks.reserve(lbas);
    for (BlockNum lba = 0; lba < lbas; ++lba) {
      Block b(bs);
      FillRecord(b.data(), bs, SubSeed(seed, 0x50524531ull + lba, site));
      const RaddVolume::Target t = vol.Resolve(site, lba).value();
      (void)vol.group(t.group)->Write(site, t.member, t.index, b);
      blocks.push_back(std::move(b));
    }
  }
  return shadow;
}

}  // namespace perfbench
