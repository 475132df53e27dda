#ifndef WVM_PERFBENCH_SPEED_H_
#define WVM_PERFBENCH_SPEED_H_

#include <cstdint>
#include <vector>

namespace wvm::perfbench {

/// Measures how fast the machine runs memory-bound code right now, with a
/// fixed job that lives in the benchmark alone, so no change to the library
/// moves it. On a shared host the speed of such code drifts by up to 2x
/// over seconds to minutes as other tenants load the shared caches and
/// memory; every timed metric of a round is divided by the slowdown
/// measured around that round.
///
/// The job is three kernels, each timed on its own: a dependent-load chase
/// through a 64 MiB random ring (memory latency), a compare-and-count scan
/// of a 1 MiB array (cache bandwidth), and a churn of a hash map of small
/// heap vectors (allocation and hashing, like the library's tuple stores).
/// The slowdown is the geometric mean of measured ÷ nominal time over the
/// three, about 1 on a quiet 4-core Xeon VM.
class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the job once and returns the slowdown: > 1 when the machine is
  /// slower than nominal.
  double Slowdown();

  /// Resident bytes the probe holds between calls.
  int64_t resident_bytes() const;

 private:
  double ChaseNsPerLoad();
  double ScanNsPerElement();
  double ChurnMs();

  std::vector<uint32_t> ring_;
  std::vector<int64_t> scan_;
  uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  /// Folds every kernel's result in, so no kernel is optimized away: the
  /// kernels live in their own translation unit and store into *this.
  uint64_t sink_ = 0;
};

}  // namespace wvm::perfbench

#endif  // WVM_PERFBENCH_SPEED_H_
