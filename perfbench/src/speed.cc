#include "speed.h"

#include <chrono>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace wvm::perfbench {

namespace {

constexpr size_t kRingBytes = 64 << 20;
constexpr int kChaseLoads = 40000;
constexpr size_t kScanBytes = 1 << 20;
constexpr int kScanPasses = 32;
constexpr int kChurnKeys = 30000;

// Nominal times on a quiet machine (4-core Xeon VM, Release build).
constexpr double kNominalChaseNs = 200;
constexpr double kNominalScanNs = 0.6;
constexpr double kNominalChurnMs = 4.0;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

}  // namespace

SpeedProbe::SpeedProbe()
    : ring_(kRingBytes / sizeof(uint32_t)),
      scan_(kScanBytes / sizeof(int64_t)) {
  // Sattolo's shuffle: one cycle through every slot, in random order.
  for (size_t i = 0; i < ring_.size(); ++i) {
    ring_[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = ring_.size() - 1; i > 0; --i) {
    std::swap(ring_[i], ring_[Next(&state_) % i]);
  }
  for (size_t i = 0; i < scan_.size(); ++i) {
    scan_[i] = static_cast<int64_t>(Next(&state_) % 1000);
  }
}

int64_t SpeedProbe::resident_bytes() const {
  return static_cast<int64_t>(ring_.size() * sizeof(uint32_t) +
                              scan_.size() * sizeof(int64_t));
}

double SpeedProbe::ChaseNsPerLoad() {
  uint32_t at = static_cast<uint32_t>(Next(&state_) % ring_.size());
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kChaseLoads; ++i) {
    at = ring_[at];
  }
  const double ns = Seconds(start) * 1e9 / kChaseLoads;
  sink_ += at;
  return ns;
}

double SpeedProbe::ScanNsPerElement() {
  int64_t hits = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kScanPasses; ++pass) {
    const int64_t key = static_cast<int64_t>((sink_ + pass) % 1000);
    for (int64_t x : scan_) {
      hits += x == key;
    }
  }
  const double ns =
      Seconds(start) * 1e9 / (static_cast<double>(kScanPasses) * scan_.size());
  sink_ += static_cast<uint64_t>(hits);
  return ns;
}

double SpeedProbe::ChurnMs() {
  const Clock::time_point start = Clock::now();
  std::unordered_map<uint64_t, std::vector<int64_t>> map;
  for (int i = 0; i < kChurnKeys; ++i) {
    map[Next(&state_) % (2 * kChurnKeys)].assign(4, i);
  }
  int64_t sum = 0;
  for (int i = 0; i < kChurnKeys; ++i) {
    auto it = map.find(Next(&state_) % (2 * kChurnKeys));
    if (it != map.end()) {
      sum += it->second[1];
      if (i % 2 == 1) {
        map.erase(it);
      }
    }
  }
  map.clear();
  const double ms = Seconds(start) * 1e3;
  sink_ += static_cast<uint64_t>(sum);
  return ms;
}

double SpeedProbe::Slowdown() {
  const double chase = ChaseNsPerLoad() / kNominalChaseNs;
  const double scan = ScanNsPerElement() / kNominalScanNs;
  const double churn = ChurnMs() / kNominalChurnMs;
  return std::cbrt(chase * scan * churn);
}

}  // namespace wvm::perfbench
