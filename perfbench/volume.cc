// The closed-loop volume workloads: write_record, hot_read, fail_rebuild.
//
// Shape: the 8-group §4 volume of bench_throughput --groups 8 (G = 8,
// 60 rows per drive, 4 KiB blocks, rotated layout, single parity) on the
// modeled disk of BENCH_disk.json (4 spindles, deadline policy, 64-block
// cache per site). Every site runs §6 DBMS slaves — a fixed number of
// clients per hosted drive, each waiting for its op's callback before
// taking the next op of the site's seeded stream — against the site's own
// LBAs. Ops on one block are serialized (a client whose block is busy
// waits for it), so the benchmark's shadow copy knows every block's value
// at all times and checks each read, the final contents and the volume
// invariants.

#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <variant>

#include "gen.h"
#include "net/transport.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace radd;

constexpr int kClientsPerDrive = 4;
constexpr int kMaxTries = 40;
constexpr SimTime kRetryDelay = Millis(50);
/// fail_rebuild: the victim crashes at kCrashAt and its process restarts
/// kOutage later (NotifyRestart); detection, the sweep and mark-up are
/// the control plane's job.
constexpr SimTime kCrashAt = Seconds(4);
constexpr SimTime kOutage = Seconds(3);
constexpr size_t kKernelSamples = 256;
constexpr size_t kMaxListedViolations = 20;

/// Keeps timed loops from being optimized away.
volatile uint64_t g_sink = 0;

struct VolumeWorkload {
  std::string name;
  MixSpec mix;
  size_t ops_per_drive = 0;
  bool crash = false;
};

VolumeWorkload Lookup(const std::string& name) {
  VolumeWorkload w;
  w.name = name;
  if (name == "hot_read") {
    w.mix.read_fraction = 0.9;
    w.mix.hot_blocks = 48;  // fits the 64-block site cache
    w.ops_per_drive = 300;
  } else {
    w.mix.read_fraction = 1.0 / 3.0;
    w.crash = name == "fail_rebuild";
    // fail_rebuild runs longer so the load outlasts the rebuild.
    w.ops_per_drive = w.crash ? 300 : 200;
  }
  return w;
}

StackShape Shape(const VolumeWorkload& w, bool sharded) {
  StackShape shape;
  shape.node.disk_sched.spindles = 4;
  shape.node.disk_sched.policy = IoPolicy::kDeadline;
  shape.node.disk_sched.cache_blocks = 64;
  shape.control_plane = w.crash;
  // Chaos autopilot's detector settings: suspicion after ~0.8 s, well
  // before a write's retries give up.
  shape.heartbeat.interval = Millis(200);
  shape.heartbeat.suspect_after = 3;
  shape.sweeper.charge_source_reads = true;
  shape.sharded = sharded;
  return shape;
}

uint64_t OpOf(const Message& m) {
  return std::visit(
      [](const auto& p) -> uint64_t {
        if constexpr (requires { p.op; }) {
          return static_cast<uint64_t>(p.op);
        } else {
          return 0;
        }
      },
      m.payload);
}

/// Pass-through transport: forwards each protocol send to Network::Send
/// and records a span around it.
class TimedTransport : public Transport {
 public:
  TimedTransport(Network* net, Tracer* tracer, uint16_t name)
      : net_(net), tracer_(tracer), name_(name) {}
  void Send(Message msg) override {
    Scope span(tracer_, name_, msg.from, OpOf(msg));
    net_->Send(std::move(msg));
  }
  const FrameCounters& frame_counters() const override { return counters_; }

 private:
  Network* net_;
  Tracer* tracer_;
  uint16_t name_;
  FrameCounters counters_;
};

/// An oracle violation; `known` names the failure class when it is one
/// of fail_rebuild's recorded defect classes (see known_failures.json).
struct Violation {
  std::string known;
  std::string what;
};

struct RoundOut {
  double setup_s = 0;
  double run_s = 0;
  uint64_t ops = 0, reads = 0, writes = 0, attempts = 0, nonok = 0;
  std::vector<double> read_ms, write_ms;
  SimTime last_done = 0;
  uint64_t events = 0;
  uint64_t digest = 0;
  uint64_t violation_count = 0;
  std::map<std::string, uint64_t> by_class;  // violations per known class
  std::vector<Violation> violations;         // the first few of each site
  void Add(Violation v) {
    ++violation_count;
    ++by_class[v.known];
    violations.push_back(std::move(v));
  }
  /// fail_rebuild milestones of the victim (sim time).
  SimTime crash_at = 0, detect_at = 0, restart_at = 0, up_at = 0;
  std::vector<Metric> layers;  // traced rounds only
  Samples samples;             // traced rounds only
};

/// One site's closed loop.
struct SiteLoop {
  std::vector<Op> stream;
  uint32_t next = 0;
  std::vector<Block> shadow;
  std::vector<uint8_t> busy;
  std::vector<std::deque<uint32_t>> parked;  // per lba: waiting clients
  uint64_t ops = 0, reads = 0, writes = 0, attempts = 0, nonok = 0;
  uint64_t failed = 0;
  std::vector<SimTime> read_lat, write_lat;
  SimTime last_done = 0;
  uint64_t violations = 0;
  std::map<std::string, uint64_t> by_class;
  std::vector<Violation> listed;
  /// Per lba: the op in flight was issued while the site was recovering.
  std::vector<uint8_t> issued_recovering;
};

class Driver {
 public:
  /// `victim` is fail_rebuild's crashed site (-1 for none).
  Driver(Stack* st, std::vector<std::vector<Block>> shadow,
         const VolumeWorkload& w, uint64_t seed, int victim, Tracer* tracer)
      : st_(st), tracer_(tracer), victim_(victim) {
    const size_t bs = st->vol->group(0)->config().block_size;
    loops_.resize(static_cast<size_t>(st->num_sites));
    for (int s = 0; s < st->num_sites; ++s) {
      SiteLoop& l = loops_[static_cast<size_t>(s)];
      l.shadow = std::move(shadow[static_cast<size_t>(s)]);
      const size_t drives = st->vol->slices_of(static_cast<SiteId>(s)).size();
      l.stream = MakeStream(seed, s, l.shadow.size(), bs,
                            w.ops_per_drive * drives, w.mix);
      l.busy.assign(l.shadow.size(), 0);
      l.issued_recovering.assign(l.shadow.size(), 0);
      l.parked.resize(l.shadow.size());
      remaining_ += static_cast<int64_t>(l.stream.size());
    }
    if (tracer_) n_issue_ = tracer_->Name("core.issue");
  }

  /// Starts every site's clients (on the site's own shard when sharded).
  void Start() {
    for (int s = 0; s < st_->num_sites; ++s) {
      const size_t clients =
          kClientsPerDrive *
          st_->vol->slices_of(static_cast<SiteId>(s)).size();
      auto kick = [this, s, clients]() {
        for (size_t k = 0; k < clients; ++k) Pull(s);
      };
      if (st_->sim.num_shards() > 1) {
        st_->sim.AtShard(s, 0, kick);
      } else {
        kick();
      }
    }
  }

  bool Done() const { return remaining_.load() == 0; }

  /// Reads every block back through the reference model and checks the
  /// volume's invariants.
  void Verify() {
    RaddVolume& vol = *st_->vol;
    for (int s = 0; s < st_->num_sites; ++s) {
      SiteLoop& l = loops_[static_cast<size_t>(s)];
      const SiteId site = static_cast<SiteId>(s);
      for (BlockNum lba = 0; lba < l.shadow.size(); ++lba) {
        const RaddVolume::Target t = vol.Resolve(site, lba).value();
        OpResult r = vol.group(t.group)->Read(site, t.member, t.index);
        if (!r.ok()) {
          Flag(s, "", "readback s" + std::to_string(s) + "/lba" +
                          std::to_string(lba) + ": " + r.status.ToString());
        } else if (r.data != l.shadow[lba]) {
          Flag(s, "", "readback s" + std::to_string(s) + "/lba" +
                          std::to_string(lba) + ": content mismatch");
        }
      }
    }
    for (int g = 0; g < vol.num_groups(); ++g) {
      const Status inv = vol.group(g)->VerifyInvariants();
      if (inv.ok()) continue;
      Flag(0, ParityClass(g, inv.message()),
           "invariants: group " + std::to_string(g) + ": " + inv.ToString());
    }
  }

  void Collect(RoundOut* out) const {
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    for (const SiteLoop& l : loops_) {
      out->ops += l.ops;
      out->reads += l.reads;
      out->writes += l.writes;
      out->attempts += l.attempts;
      out->nonok += l.nonok;
      out->last_done = std::max(out->last_done, l.last_done);
      out->violation_count += l.violations;
      for (const auto& [cls, n] : l.by_class) out->by_class[cls] += n;
      out->violations.insert(out->violations.end(), l.listed.begin(),
                             l.listed.end());
      uint64_t rsum = 0, wsum = 0;
      for (SimTime t : l.read_lat) {
        out->read_ms.push_back(ToMillis(t));
        rsum += t;
      }
      for (SimTime t : l.write_lat) {
        out->write_ms.push_back(ToMillis(t));
        wsum += t;
      }
      for (uint64_t v : {l.ops, l.reads, l.writes, l.attempts, l.nonok,
                         l.failed, l.last_done, rsum, wsum, l.violations}) {
        mix(v);
      }
    }
    out->digest = h;
  }

  Samples TakeSamples() { return std::move(samples_); }
  uint16_t issue_name() const { return n_issue_; }

 private:
  /// "victim_row_parity" when `message` reports a parity/XOR mismatch in
  /// a row where the crashed site holds the data or the parity block; ""
  /// otherwise.
  std::string ParityClass(int g, const std::string& message) const {
    const RaddGroup* grp = st_->vol->group(g);
    const int member =
        victim_ < 0 ? -1 : grp->MemberAtSite(static_cast<SiteId>(victim_));
    const size_t at = message.find("row ");
    if (member < 0 || at == std::string::npos ||
        message.find("parity does not equal XOR") == std::string::npos) {
      return "";
    }
    const BlockNum row = std::strtoull(message.c_str() + at + 4, nullptr, 10);
    const BlockRole role =
        grp->layout().RoleOf(static_cast<SiteId>(member), row);
    return role == BlockRole::kData || role == BlockRole::kParity
               ? "victim_row_parity"
               : "";
  }

  SiteId ClientFor(SiteId site) const {
    // A crashed site's DBMS slave is restarted on the next site, which
    // keeps issuing the crashed site's stream until it comes back.
    if (st_->service && st_->service->StateOf(site) == SiteState::kDown) {
      return static_cast<SiteId>((site + 1) % st_->num_sites);
    }
    return site;
  }

  void Pull(int s) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    if (l.next >= l.stream.size()) return;
    const uint32_t i = l.next++;
    const uint32_t lba = l.stream[i].lba;
    if (l.busy[lba]) {
      l.parked[lba].push_back(i);
      return;
    }
    l.busy[lba] = 1;
    Issue(s, i, 0);
  }

  void Issue(int s, uint32_t i, int tries) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    const Op& op = l.stream[i];
    ++l.attempts;
    const SiteId site = static_cast<SiteId>(s);
    const SiteId client = ClientFor(site);
    l.issued_recovering[op.lba] =
        st_->service &&
        st_->service->StateOf(site) == SiteState::kRecovering;
    const uint64_t id = (static_cast<uint64_t>(s) << 32) | i;
    if (op.write) {
      Block data = l.shadow[op.lba];
      FillRecord(data.data() + op.record * kRecordBytes, kRecordBytes,
                 op.fill);
      if (tracer_ && samples_.size() < kKernelSamples) {
        samples_.emplace_back(l.shadow[op.lba], data);
      }
      Scope span(tracer_, n_issue_, site, id);
      st_->vol->AsyncWrite(client, site, op.lba, std::move(data),
                           [this, s, i, tries](Status st, SimTime lat) {
                             OnWrite(s, i, tries, st, lat);
                           });
    } else {
      Scope span(tracer_, n_issue_, site, id);
      st_->vol->AsyncRead(
          client, site, op.lba,
          [this, s, i, tries](Status st, const Block& data, SimTime lat) {
            OnRead(s, i, tries, st, data, lat);
          });
    }
  }

  void OnWrite(int s, uint32_t i, int tries, const Status& st,
               SimTime lat) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    const Op& op = l.stream[i];
    if (!st.ok()) return Retry(s, i, tries, st);
    FillRecord(l.shadow[op.lba].data() + op.record * kRecordBytes,
               kRecordBytes, op.fill);
    ++l.writes;
    l.write_lat.push_back(lat);
    Complete(s, i);
  }

  void OnRead(int s, uint32_t i, int tries, const Status& st,
              const Block& data, SimTime lat) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    const Op& op = l.stream[i];
    if (!st.ok()) return Retry(s, i, tries, st);
    if (data != l.shadow[op.lba]) {
      const bool known = s == victim_ && l.issued_recovering[op.lba];
      Flag(s, known ? "victim_recovering_stale_read" : "",
           "read s" + std::to_string(s) + "/lba" + std::to_string(op.lba) +
               " op " + std::to_string(i) +
               ": content differs from the last acknowledged write");
    }
    ++l.reads;
    l.read_lat.push_back(lat);
    Complete(s, i);
  }

  /// A DBMS slave retries an op that completed non-OK (e.g. its client
  /// site crashed) with the same contents, after a short backoff.
  void Retry(int s, uint32_t i, int tries, const Status& st) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    ++l.nonok;
    if (tries + 1 >= kMaxTries) {
      ++l.failed;
      Flag(s, "", "op s" + std::to_string(s) + "/" + std::to_string(i) +
                      " failed " + std::to_string(kMaxTries) +
                      " times: " + st.ToString());
      Complete(s, i);
      return;
    }
    st_->sim.Schedule(kRetryDelay,
                      [this, s, i, tries]() { Issue(s, i, tries + 1); });
  }

  void Complete(int s, uint32_t i) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    const uint32_t lba = l.stream[i].lba;
    ++l.ops;
    l.last_done = std::max(l.last_done, st_->sim.Now());
    remaining_.fetch_sub(1);
    std::deque<uint32_t>& waiting = l.parked[lba];
    if (waiting.empty()) {
      l.busy[lba] = 0;
    } else {
      const uint32_t j = waiting.front();
      waiting.pop_front();
      Issue(s, j, 0);
    }
    Pull(s);
  }

  void Flag(int s, std::string known, std::string what) {
    SiteLoop& l = loops_[static_cast<size_t>(s)];
    ++l.violations;
    ++l.by_class[known];
    if (l.listed.size() < kMaxListedViolations) {
      l.listed.push_back({std::move(known), std::move(what)});
    }
  }

  Stack* st_;
  Tracer* tracer_;
  int victim_;
  uint16_t n_issue_ = 0;
  std::vector<SiteLoop> loops_;
  std::atomic<int64_t> remaining_{0};
  Samples samples_;
};

double PerOp(double v, uint64_t n) {
  return n == 0 ? 0 : v / static_cast<double>(n);
}

/// One round: set up a fresh stack, run the whole seeded stream, verify.
/// `tracer` non-null makes it the traced round; `threads` > 0 runs the
/// sharded engine at that many threads.
RoundOut RunRound(const VolumeWorkload& w, uint64_t seed, Tracer* tracer,
                  int threads = 0) {
  RoundOut out;
  const Clock::time_point t_setup = Clock::now();
  std::string error;
  std::unique_ptr<Stack> st = BuildStack(Shape(w, threads > 0), &error);
  if (!st) {
    out.Add({"", "volume: " + error});
    return out;
  }
  std::vector<std::vector<Block>> shadow = Preload(*st, seed);
  out.setup_s = SecondsSince(t_setup);

  // fail_rebuild: the victim, its milestones and where its
  // reconstruction reads land.
  const SiteId victim = static_cast<SiteId>(
      SubSeed(seed, 0x56494354) % static_cast<uint64_t>(st->num_sites));
  Driver driver(st.get(), std::move(shadow), w, seed,
                w.crash ? static_cast<int>(victim) : -1, tracer);
  RaddNodeSystem* sys = st->vol->system();
  std::set<SiteId> recon_sources;
  if (w.crash) {
    st->service->AddListener([&](SiteId site, SiteState state, uint64_t) {
      if (site != victim) return;
      if (state == SiteState::kDown && out.crash_at == 0) {
        out.crash_at = st->sim.Now();
      } else if (state == SiteState::kRecovering) {
        out.restart_at = st->sim.Now();
      } else if (state == SiteState::kUp) {
        out.up_at = st->sim.Now();
      }
    });
    st->on_perceive = [&](SiteId observer, SiteId target, SiteState state) {
      if (target == victim && observer != victim && out.crash_at != 0 &&
          out.detect_at == 0 && state == SiteState::kDown) {
        out.detect_at = st->sim.Now();
      }
    };
    st->on_disk_charge = [&](SiteId site, uint32_t) {
      if (site != victim) recon_sources.insert(site);
    };
    st->sim.At(kCrashAt,
               [&]() { (void)st->service->InjectCrash(victim); });
    st->sim.At(kCrashAt + kOutage,
               [&]() { (void)st->service->NotifyRestart(victim); });
  }

  // Traced round: spans around every handler invocation and every send.
  std::map<MessageType, uint64_t> delivered;
  std::unique_ptr<TimedTransport> transport;
  uint16_t n_handler = 0, n_send = 0;
  if (tracer) {
    n_handler = tracer->Name("core.handler");
    n_send = tracer->Name("net.send");
    for (int s = 0; s < st->num_sites; ++s) {
      const SiteId site = static_cast<SiteId>(s);
      Network::Handler inner = st->net->GetHandler(site);
      st->net->RegisterHandler(site, [&, inner, site](Message& m) {
        ++delivered[m.type];
        if (m.type == MessageType::kReconReq && w.crash) {
          recon_sources.insert(site);
        }
        Scope span(tracer, n_handler, site, OpOf(m));
        inner(m);
      });
    }
    transport = std::make_unique<TimedTransport>(st->net.get(), tracer,
                                                 n_send);
    sys->SetTransport(transport.get());
  }

  const Clock::time_point t_run = Clock::now();
  driver.Start();
  if (threads > 0) {
    st->sim.RunParallel(threads);
  } else if (w.crash) {
    // Heartbeats never stop on their own: run until the stream is done
    // and the victim is back up with all traffic drained.
    st->sim.RunUntilPredicate([&]() {
      return driver.Done() && out.up_at != 0 && st->service->Converged() &&
             sys->Quiescent();
    });
  } else {
    st->sim.Run();
  }
  out.run_s = SecondsSince(t_run);
  out.events = st->sim.events_executed();
  if (st->detector) {
    st->detector->Stop();
    st->sim.Run();
  }
  if (!driver.Done()) {
    out.Add({"", "stream did not finish (hung operations)"});
  }
  driver.Verify();
  driver.Collect(&out);
  if (w.crash && (out.crash_at == 0 || out.up_at == 0)) {
    out.Add({"", "victim s" + std::to_string(victim) +
                     " did not crash and recover within the run"});
  }
  if (!tracer) return out;

  // --- per-layer counters of the traced round ------------------------------
  const Stats& ns = sys->stats();
  const Stats& net = st->net->stats();
  auto layer = [&](const char* name, double v, const char* unit, Kind k) {
    out.layers.push_back({name, v, unit, k});
  };
  uint64_t hb_msgs = 0, hb_bytes = 0;
  for (MessageType t : {MessageType::kHeartbeat, MessageType::kHbProbe,
                        MessageType::kHbProbeAck}) {
    hb_msgs += net.Get("net.messages." + MessageTypeName(t));
    hb_bytes += net.Get("net.bytes." + MessageTypeName(t));
  }
  const uint64_t retries =
      ns.Get("node.write_retry") + ns.Get("node.read_retry") +
      ns.Get("node.parity_retransmit") + ns.Get("node.recon_round_retry") +
      ns.Get("node.uid_retry") + ns.Get("node.stale_epoch_retry") +
      ns.Get("node.parity_nack_retry") + out.nonok;
  const RaddNodeSystem::CacheCounters cache = sys->CacheStats();
  layer("sim.events_per_op", PerOp(double(out.events), out.ops), "events/op",
        Kind::kCount);
  layer("core.lock_waits_per_op", PerOp(double(ns.Get("node.lock_waits")),
                                        out.ops),
        "waits/op", Kind::kCount);
  layer("core.reconstructions_per_read",
        PerOp(double(ns.Get("node.reconstructions")), out.reads),
        "recon/read", Kind::kCount);
  layer("core.spare_writes_per_write",
        PerOp(double(delivered[MessageType::kSpareWriteReq]), out.writes),
        "writes/write", Kind::kCount);
  layer("core.retries_per_op", PerOp(double(retries), out.ops), "retries/op",
        Kind::kCount);
  layer("net.msgs_per_op",
        PerOp(double(net.Get("net.messages") - hb_msgs), out.ops), "msgs/op",
        Kind::kCount);
  layer("net.wire_bytes_per_op",
        PerOp(double(net.Get("net.bytes") - hb_bytes), out.ops), "B/op",
        Kind::kCount);
  layer("net.parity_bytes_per_write",
        PerOp(double(net.Get("net.bytes.parity_update") +
                     net.Get("net.bytes.parity_batch")),
              out.writes),
        "B/write", Kind::kCount);
  layer("disk.cache_hit_ratio",
        PerOp(double(cache.hits), cache.hits + cache.misses), "ratio",
        Kind::kCount);
  layer("disk.cache_stale_per_read",
        PerOp(double(cache.stale_rejected), out.reads), "stale/read",
        Kind::kCount);
  layer("recovery.rows_swept",
        st->sweeper ? double(st->sweeper->stats().Get("sweeper.rows_swept"))
                    : 0.0,
        "rows", Kind::kCount);
  layer("cluster.false_suspicions",
        st->detector ? double(st->detector->false_suspicions()) : 0.0,
        "count", Kind::kCount);
  if (w.crash) {
    layer("recovery.backpressure_ticks",
          double(st->sweeper->stats().Get("sweeper.backpressure_ticks")),
          "ticks", Kind::kCount);
    layer("recovery.detect_ms",
          out.detect_at ? ToMillis(out.detect_at - out.crash_at) : 0.0, "ms",
          Kind::kSim);
    layer("recovery.sweep_ms",
          out.up_at ? ToMillis(out.up_at - out.restart_at) : 0.0, "ms",
          Kind::kSim);
    layer("layout.recon_source_sites", double(recon_sources.size()), "sites",
          Kind::kCount);
  }

  // Host time per call, from the spans (wall).
  const std::vector<Tracer::Summary> sums = tracer->Summarize();
  const Tracer::Summary& issue = sums[driver.issue_name()];
  const Tracer::Summary& handler = sums[n_handler];
  const Tracer::Summary& send = sums[n_send];
  layer("core.issue_ns_per_op", PerOp(double(issue.total_ns), issue.count),
        "ns", Kind::kWall);
  layer("core.handler_ns_per_msg",
        PerOp(double(handler.total_ns), handler.count), "ns", Kind::kWall);
  layer("core.handler_self_ns_per_msg",
        PerOp(double(handler.self_ns), handler.count), "ns", Kind::kWall);
  layer("net.send_ns_per_msg", PerOp(double(send.total_ns), send.count), "ns",
        Kind::kWall);

  // layout: RaddVolume::Resolve over every address, best of 5 passes.
  double best = 0;
  uint64_t resolved = 0;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t sink = 0;
    resolved = 0;
    const Clock::time_point t0 = Clock::now();
    for (int s = 0; s < st->num_sites; ++s) {
      const SiteId site = static_cast<SiteId>(s);
      const BlockNum lbas = st->vol->DataBlocksAtSite(site);
      for (BlockNum lba = 0; lba < lbas; ++lba) {
        sink += st->vol->Resolve(site, lba)->index;
        ++resolved;
      }
    }
    const double ns = SecondsSince(t0) * 1e9;
    if (pass == 0 || ns < best) best = ns;
    g_sink = sink;
  }
  layer("layout.resolve_ns", PerOp(best, resolved), "ns", Kind::kWall);
  out.samples = driver.TakeSamples();
  return out;
}

}  // namespace

bool IsVolumeWorkload(const std::string& name) {
  return name == "write_record" || name == "hot_read" ||
         name == "fail_rebuild";
}

Report RunVolume(const Options& opt) {
  const VolumeWorkload w = Lookup(opt.workload);
  Report rep;
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  rep.traced = opt.trace;

  // Untraced rounds for the end-to-end metrics (half the budget in a
  // traced run, whose other half runs traced rounds).
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<RoundOut> rounds;
  const Clock::time_point t0 = Clock::now();
  double peak_rss = 0;  // of one round: later rounds repeat it for timing
  do {
    rounds.push_back(RunRound(w, opt.seed, nullptr));
    if (rounds.size() == 1) peak_rss = PeakRssMiB();
  } while (SecondsSince(t0) < budget);

  const RoundOut& first = rounds.front();
  uint64_t violations = first.violation_count;
  const std::set<std::string> known(opt.known_failures.begin(),
                                    opt.known_failures.end());
  auto is_known = [&](const std::string& cls) {
    return !cls.empty() && known.count(cls) > 0;
  };
  uint64_t unexpected = 0;
  for (const auto& [cls, n] : first.by_class) {
    if (!is_known(cls)) unexpected += n;
  }
  for (const Violation& v : first.violations) {
    if (is_known(v.known)) {
      rep.expected_violations.push_back(v.known + ": " + v.what);
    } else {
      rep.violations.push_back(v.what);
    }
  }
  for (const RoundOut& r : rounds) {
    if (r.digest != first.digest || r.events != first.events) {
      ++violations;
      ++unexpected;
      rep.violations.push_back("nondeterminism: a repeated round of the "
                               "same seed gave different sim results");
      break;
    }
  }
  std::vector<double> setup, rate, ns_per_event;
  for (const RoundOut& r : rounds) {
    setup.push_back(r.setup_s);
    rate.push_back(double(r.ops) / r.run_s);
    ns_per_event.push_back(1e9 * r.run_s / double(r.events));
  }
  std::vector<double> read_ms = first.read_ms, write_ms = first.write_ms;
  const double sim_s = ToSeconds(first.last_done);
  rep.E2e("setup_s", Median(setup), "s", Kind::kWall);
  rep.E2e("ops_per_wall_s", Median(rate), "ops/s", Kind::kWall);
  rep.E2e("peak_rss_mb", peak_rss, "MiB", Kind::kMemory);
  rep.E2e("read_p50_ms", Percentile(read_ms, 50), "ms", Kind::kSim);
  rep.E2e("read_p99_ms", Percentile(read_ms, 99), "ms", Kind::kSim);
  rep.E2e("write_p50_ms", Percentile(write_ms, 50), "ms", Kind::kSim);
  rep.E2e("write_p99_ms", Percentile(write_ms, 99), "ms", Kind::kSim);
  rep.E2e("ops_per_sim_s", sim_s > 0 ? double(first.ops) / sim_s : 0,
          "ops/s", Kind::kSim);
  rep.E2e("ops_failed_frac", PerOp(double(first.nonok), first.attempts),
          "ratio", Kind::kCount);
  rep.E2e("oracle_failures", double(violations), "count", Kind::kCount);
  if (w.crash) {
    rep.E2e("recovery_makespan_ms", ToMillis(first.up_at - first.crash_at),
            "ms", Kind::kSim);
  }
  rep.attempted = std::max<uint64_t>(first.ops, 1);  // 0 if setup failed
  rep.failed = unexpected;
  rep.notes.push_back("rounds=" + std::to_string(rounds.size()) +
                      " ops_per_round=" + std::to_string(first.ops) +
                      " reads=" + std::to_string(first.reads) +
                      " writes=" + std::to_string(first.writes) +
                      " read_samples=" + std::to_string(first.read_ms.size()) +
                      " write_samples=" +
                      std::to_string(first.write_ms.size()));
  if (!opt.trace) return rep;

  // --- traced rounds -------------------------------------------------------
  std::vector<RoundOut> traced;
  std::unique_ptr<Tracer> kept;
  const Clock::time_point t1 = Clock::now();
  do {
    auto tracer = std::make_unique<Tracer>();
    traced.push_back(RunRound(w, opt.seed, tracer.get()));
    if (!kept) kept = std::move(tracer);
  } while (SecondsSince(t1) < opt.seconds / 2);
  const RoundOut& tr = traced.front();
  if (tr.digest != first.digest || tr.events != first.events) {
    ++rep.failed;
    rep.violations.push_back("tracing changed the simulated outcome");
  }
  rep.layers = tr.layers;
  std::vector<double> traced_rate;
  for (const RoundOut& r : traced) {
    traced_rate.push_back(double(r.ops) / r.run_s);
  }
  rep.Layer("sim.wall_ns_per_event", Median(ns_per_event), "ns",
            Kind::kWall);
  rep.Layer("trace.overhead_ratio", Median(rate) / Median(traced_rate),
            "ratio", Kind::kWall);
  ProbeKernels(tr.samples, Shape(w, false).group_size + 2, &rep);
  if (!w.crash) {
    // The same stream on the sharded engine (one shard per site), 1
    // against 4 worker threads, alternating; medians of three each. Its
    // outcome is checked like any other round's.
    std::vector<double> one, four;
    for (int i = 0; i < 3; ++i) {
      for (int threads : {1, 4}) {
        const RoundOut r = RunRound(w, opt.seed, nullptr, threads);
        (threads == 1 ? one : four).push_back(r.run_s);
        if (r.violation_count > 0 && i == 0) {
          ++rep.failed;
          rep.violations.push_back(
              "sharded engine at " + std::to_string(threads) +
              " threads: " + std::to_string(r.violation_count) +
              " violations, first: " + r.violations.front().what);
        }
      }
    }
    rep.Layer("sim.sharded_speedup_t4", Median(one) / Median(four), "ratio",
              Kind::kWall);
  }
  // One span file per workload: the latest traced run's.
  const std::string path = opt.out_dir + "/" + opt.workload + ".spans.tsv";
  if (kept->WriteTsv(path, opt.stamp + " seed=" + std::to_string(opt.seed))) {
    rep.notes.push_back("spans=" + std::to_string(kept->size()) + " -> " +
                        path);
  } else {
    rep.notes.push_back("could not write spans to " + path);
  }
  return rep;
}

}  // namespace perfbench
