// Input generation for the RADD benchmark.
//
// The op streams come from the benchmark's own generators, not from
// src/workload, so a change to the program under test can never shift the
// inputs a seed produces. Every stream is a pure function of (seed, site).

#ifndef RADD_PERFBENCH_GEN_H_
#define RADD_PERFBENCH_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast and fully specified, so streams are stable
/// across compilers and standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform on [0, n), n > 0 (multiply-shift; bias is below 2^-32 here).
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform on [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

 private:
  uint64_t state_;
};

/// Mixes a seed with up to two stream coordinates into an independent seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full));
  return r.Next();
}

/// Zipf(theta) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One client op of a site's stream. Writes rewrite the 128-byte record
/// `record` of the block's current contents with bytes derived from
/// `fill` (the paper's §7.4 sparse change).
struct Op {
  bool write = false;
  uint32_t lba = 0;
  uint32_t record = 0;
  uint64_t fill = 0;
};

constexpr size_t kRecordBytes = 128;

/// How a site picks its ops.
struct MixSpec {
  double read_fraction = 1.0 / 3.0;
  /// 0 = uniform over the whole LBA span; otherwise Zipf(kZipfTheta) over
  /// a per-site hot set of this many blocks.
  size_t hot_blocks = 0;
};

constexpr double kZipfTheta = 0.99;

/// The fixed op stream of one site: `count` ops over `lbas` addresses.
inline std::vector<Op> MakeStream(uint64_t seed, int site, size_t lbas,
                                  size_t block_size, size_t count,
                                  const MixSpec& mix) {
  Rng rng(SubSeed(seed, 0x5354524d, static_cast<uint64_t>(site)));
  std::vector<uint32_t> hot;
  if (mix.hot_blocks > 0) {
    // The hot set is a seeded sample of the site's span (partial shuffle).
    std::vector<uint32_t> all(lbas);
    std::iota(all.begin(), all.end(), 0u);
    const size_t h = std::min(mix.hot_blocks, lbas);
    for (size_t i = 0; i < h; ++i) {
      std::swap(all[i], all[i + rng.Uniform(lbas - i)]);
    }
    hot.assign(all.begin(), all.begin() + static_cast<long>(h));
  }
  const Zipf zipf(hot.empty() ? 1 : hot.size(), kZipfTheta);
  const uint32_t records = static_cast<uint32_t>(block_size / kRecordBytes);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.write = rng.NextDouble() >= mix.read_fraction;
    op.lba = hot.empty() ? static_cast<uint32_t>(rng.Uniform(lbas))
                         : hot[zipf.Draw(rng)];
    op.record = static_cast<uint32_t>(rng.Uniform(records));
    op.fill = rng.Next();
  }
  return ops;
}

/// Fills `n` bytes at `dst` from `fill` (deterministic record contents).
inline void FillRecord(uint8_t* dst, size_t n, uint64_t fill) {
  Rng r(fill);
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t w = r.Next();
    for (size_t k = 0; k < 8 && i + k < n; ++k) {
      dst[i + k] = static_cast<uint8_t>(w >> (8 * k));
    }
  }
}

}  // namespace perfbench

#endif  // RADD_PERFBENCH_GEN_H_
