#include "consistency/staleness.h"

#include <algorithm>

#include "common/strings.h"

namespace wvm {

StalenessReport MeasureStaleness(const StateLog& log) {
  StalenessReport report;
  const size_t n = log.source_view_states.size();
  report.lags.assign(n, -1);

  // A source state ss_i is "visible" at the first warehouse state recorded
  // at or after ss_i's clock whose contents equal V[ss_i] — PROVIDED a
  // later source state has not already replaced it by then (once the
  // source has moved on, showing the old value is staleness of a later
  // state's delivery, not visibility of ss_i... we still count it: the
  // paper's consistency definitions are about values, and so are we).
  //
  // States are compared by class id (StateClasses). Per source class, the
  // warehouse states showing it are listed in log order with the running
  // maximum of their clocks: the first listed state recorded at or after
  // `born` is the first whose running maximum reaches `born`, one binary
  // search away.
  StateClasses classes;
  std::vector<int> source_class(n);
  for (size_t i = 0; i < n; ++i) {
    source_class[i] = classes.Classify(log.source_view_states[i]);
  }
  struct Shown {
    std::vector<uint64_t> max_seq;
    std::vector<uint64_t> seq;
  };
  std::vector<Shown> shown(classes.size());
  for (size_t j = 0; j < log.warehouse_view_states.size(); ++j) {
    const size_t c =
        static_cast<size_t>(classes.Classify(log.warehouse_view_states[j]));
    if (c >= shown.size()) {
      continue;  // equals no source state
    }
    const uint64_t seq = log.warehouse_state_seq[j];
    Shown& s = shown[c];
    s.max_seq.push_back(s.max_seq.empty() ? seq
                                          : std::max(s.max_seq.back(), seq));
    s.seq.push_back(seq);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t born = log.source_state_seq[i];
    const Shown& s = shown[static_cast<size_t>(source_class[i])];
    auto first = std::lower_bound(s.max_seq.begin(), s.max_seq.end(), born);
    if (first != s.max_seq.end()) {
      report.lags[i] = static_cast<int64_t>(
          s.seq[static_cast<size_t>(first - s.max_seq.begin())] - born);
    }
  }

  int64_t visible = 0;
  int64_t total_lag = 0;
  for (int64_t lag : report.lags) {
    if (lag >= 0) {
      ++visible;
      total_lag += lag;
      report.max_lag = std::max(report.max_lag, lag);
    }
  }
  report.coverage = n == 0 ? 0.0
                           : static_cast<double>(visible) /
                                 static_cast<double>(n);
  report.mean_lag =
      visible == 0 ? 0.0
                   : static_cast<double>(total_lag) /
                         static_cast<double>(visible);
  return report;
}

std::string StalenessReport::ToString() const {
  return StrCat("coverage=", coverage, " mean_lag=", mean_lag,
                " max_lag=", max_lag, " events");
}

}  // namespace wvm
