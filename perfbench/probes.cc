// Per-layer kernel timings: the public common/ and disk/ kernels, run on
// the (old, new) contents of the workload's own writes.

#include <string>

#include "common/crc32c.h"
#include "disk/disk.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace radd;

volatile uint64_t g_sink = 0;

/// Host ns per sample of `body`, median of 7 passes over `samples`.
template <typename Body>
double NsPerSample(size_t samples, Body&& body) {
  std::vector<double> passes;
  for (int p = 0; p < 7; ++p) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < samples; ++i) body(i);
    passes.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(samples));
  }
  return Median(passes);
}

}  // namespace

void ProbeKernels(const Samples& samples, int group_size, Report* rep) {
  if (samples.empty()) {
    rep->notes.push_back("no write samples: kernel probes skipped");
    return;
  }
  const size_t bs = samples.front().first.size();
  const double per4k = 4096.0 / static_cast<double>(bs);
  const size_t n = samples.size();
  std::vector<ChangeMask> masks;
  for (const auto& [old_block, new_block] : samples) {
    masks.push_back(ChangeMask::Diff(old_block, new_block).value());
  }
  auto layer = [&](const char* name, double ns, const char* unit) {
    rep->Layer(name, ns, unit, Kind::kWall);
  };

  layer("common.checksum_ns_per_4k",
        per4k * NsPerSample(n, [&](size_t i) {
          g_sink = g_sink + samples[i].second.Checksum();
        }),
        "ns");
  layer("common.crc32c_ns_per_4k",
        per4k * NsPerSample(n, [&](size_t i) {
          const Block& b = samples[i].second;
          g_sink = g_sink + Crc32c(b.data(), b.size());
        }),
        "ns");
  layer("common.mask_diff_ns_per_4k",
        per4k * NsPerSample(n, [&](size_t i) {
          Result<ChangeMask> m =
              ChangeMask::Diff(samples[i].first, samples[i].second);
          g_sink = g_sink + m->block_size();
        }),
        "ns");
  layer("common.mask_encoded_size_ns", NsPerSample(n, [&](size_t i) {
          g_sink = g_sink + masks[i].EncodedSize();
        }),
        "ns");
  Block dst(bs);
  layer("common.xor_ns_per_4k",
        per4k * NsPerSample(n, [&](size_t i) {
          (void)XorInto(&dst, samples[i].first, samples[i].second);
          g_sink = g_sink + dst[0];
        }),
        "ns");

  // Scratch disk holding one block per sample.
  SimDisk disk(n, bs);
  uint64_t seq = 1;
  layer("disk.write_ns_per_4k",
        per4k * NsPerSample(n, [&](size_t i) {
          (void)disk.Write(i, samples[i].second, Uid::Make(1, seq++));
        }),
        "ns");
  layer("disk.read_ns_per_4k",
        per4k * NsPerSample(n, [&](size_t i) {
          Result<BlockRecord> r = disk.Read(i);
          g_sink = g_sink + r->checksum;
        }),
        "ns");
  layer("disk.apply_mask_ns", NsPerSample(n, [&](size_t i) {
          (void)disk.ApplyMask(i, masks[i], Uid::Make(2, seq++), 0,
                               static_cast<size_t>(group_size));
        }),
        "ns");
}

}  // namespace perfbench
