#include "consistency/checker.h"

#include <algorithm>

#include "common/strings.h"

namespace wvm {

namespace {

// Greedy order-preserving match of `needles` into `haystack`, both given
// as state class ids: each needle must equal some haystack element at an
// index no smaller than the previous match (indices may repeat only by
// moving forward, never backward). Returns the index of the first
// unmatched needle, or -1 if all match. Greedy earliest-match is optimal
// for this subsequence-with-equality test; listing each class's haystack
// positions makes every next match one binary search.
int FirstUnmatched(const std::vector<int>& needles,
                   const std::vector<int>& haystack, bool allow_same_index,
                   size_t num_classes) {
  std::vector<std::vector<size_t>> positions(num_classes);
  for (size_t i = 0; i < haystack.size(); ++i) {
    positions[static_cast<size_t>(haystack[i])].push_back(i);
  }
  size_t start = 0;
  for (size_t n = 0; n < needles.size(); ++n) {
    const std::vector<size_t>& at = positions[static_cast<size_t>(needles[n])];
    auto match = std::lower_bound(at.begin(), at.end(), start);
    if (match == at.end()) {
      return static_cast<int>(n);
    }
    start = allow_same_index ? *match : *match + 1;
  }
  return -1;
}

std::vector<int> ClassIds(const std::vector<Relation>& states,
                          StateClasses* classes) {
  std::vector<int> ids(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    ids[i] = classes->Classify(states[i]);
  }
  return ids;
}

// StateLog::Dedup over class ids: the first id of each run of equal ones.
// `kept`, if given, receives the position in `ids` of each id kept.
std::vector<int> Dedup(const std::vector<int>& ids,
                       std::vector<size_t>* kept = nullptr) {
  std::vector<int> out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (out.empty() || out.back() != ids[i]) {
      out.push_back(ids[i]);
      if (kept != nullptr) {
        kept->push_back(i);
      }
    }
  }
  return out;
}

}  // namespace

ConsistencyReport CheckConsistency(const StateLog& log) {
  ConsistencyReport report;
  const std::vector<Relation>& src = log.source_view_states;
  const std::vector<Relation>& wh_log = log.warehouse_view_states;

  if (src.empty() || wh_log.empty()) {
    report.violation = "empty execution";
    return report;
  }

  // Every level compares states only for equality, so the checks run over
  // class ids. Source states are classified first: a class id below
  // `source_classes` is exactly "equals some source state".
  StateClasses classes;
  const std::vector<int> src_ids = ClassIds(src, &classes);
  const size_t source_classes = classes.size();
  // The deduplicated warehouse sequence; wh[k] is the class of
  // wh_log[wh_at[k]].
  std::vector<size_t> wh_at;
  const std::vector<int> wh = Dedup(ClassIds(wh_log, &classes), &wh_at);
  const auto wh_state = [&](size_t k) -> const Relation& {
    return wh_log[wh_at[k]];
  };

  // Convergence.
  report.convergent = src_ids.back() == wh.back();
  if (!report.convergent) {
    report.violation = StrCat("not convergent: final warehouse state ",
                              wh_state(wh.size() - 1).ToString(),
                              " != final source state ", src.back().ToString());
  }

  // Weak consistency: every warehouse state is some source state.
  report.weakly_consistent = true;
  for (size_t i = 0; i < wh.size(); ++i) {
    if (static_cast<size_t>(wh[i]) >= source_classes) {
      report.weakly_consistent = false;
      if (report.violation.empty()) {
        report.violation = StrCat("not weakly consistent: warehouse state ",
                                  wh_state(i).ToString(),
                                  " matches no source state");
      }
      break;
    }
  }

  // Consistency: order-preserving mapping into the source sequence.
  if (report.weakly_consistent) {
    int miss = FirstUnmatched(wh, src_ids, /*allow_same_index=*/true,
                              classes.size());
    report.consistent = miss < 0;
    if (!report.consistent && report.violation.empty()) {
      report.violation =
          StrCat("not consistent: warehouse state #", miss, " (",
                 wh_state(static_cast<size_t>(miss)).ToString(),
                 ") breaks source-state order");
    }
  }

  report.strongly_consistent = report.consistent && report.convergent;

  // Completeness: additionally, every (deduplicated) source state shows up
  // at the warehouse, in order.
  if (report.strongly_consistent) {
    const std::vector<int> src_d = Dedup(src_ids);
    int miss = FirstUnmatched(src_d, wh, /*allow_same_index=*/false,
                              classes.size());
    report.complete = miss < 0;
    if (!report.complete && report.violation.empty()) {
      report.violation = StrCat("not complete: source state #", miss,
                                " never observed at the warehouse");
    }
  }

  return report;
}

ReplicaConvergenceReport CheckReplicaConvergence(
    uint64_t head_lsn, const Relation& lead_view,
    const std::vector<ReplicaProbe>& replicas) {
  ReplicaConvergenceReport report;
  report.all_at_head = true;
  report.views_identical_at_lsn = true;
  report.match_lead = true;

  for (const ReplicaProbe& r : replicas) {
    if (r.in_group && r.applied_lsn != head_lsn) {
      report.all_at_head = false;
      if (report.violation.empty()) {
        report.violation =
            StrCat(r.name, " applied ", r.applied_lsn, " of ", head_lsn,
                   " sequenced messages");
      }
    }
  }
  // Same applied prefix must mean the same view — replica against replica
  // (deterministic replay), and replica against the lead at the head.
  for (size_t i = 0; i < replicas.size(); ++i) {
    for (size_t j = i + 1; j < replicas.size(); ++j) {
      if (replicas[i].applied_lsn == replicas[j].applied_lsn &&
          !(*replicas[i].view == *replicas[j].view)) {
        report.views_identical_at_lsn = false;
        if (report.violation.empty()) {
          report.violation = StrCat(
              replicas[i].name, " and ", replicas[j].name, " diverge at LSN ",
              replicas[i].applied_lsn, ": ", replicas[i].view->ToString(),
              " vs ", replicas[j].view->ToString());
        }
      }
    }
    if (replicas[i].in_group && replicas[i].applied_lsn == head_lsn &&
        !(*replicas[i].view == lead_view)) {
      report.match_lead = false;
      if (report.violation.empty()) {
        report.violation =
            StrCat(replicas[i].name, " at head LSN ", head_lsn,
                   " differs from the lead view: ",
                   replicas[i].view->ToString(), " vs ",
                   lead_view.ToString());
      }
    }
  }
  report.converged = report.all_at_head && report.views_identical_at_lsn &&
                     report.match_lead;
  return report;
}

std::string ReplicaConvergenceReport::ToString() const {
  return StrCat("at_head=", all_at_head ? "yes" : "no",
                " identical=", views_identical_at_lsn ? "yes" : "no",
                " match_lead=", match_lead ? "yes" : "no",
                " converged=", converged ? "yes" : "no",
                violation.empty() ? "" : StrCat(" [", violation, "]"));
}

std::string ConsistencyReport::ToString() const {
  return StrCat("convergent=", convergent ? "yes" : "no",
                " weak=", weakly_consistent ? "yes" : "no",
                " consistent=", consistent ? "yes" : "no",
                " strong=", strongly_consistent ? "yes" : "no",
                " complete=", complete ? "yes" : "no",
                violation.empty() ? "" : StrCat(" [", violation, "]"));
}

}  // namespace wvm
