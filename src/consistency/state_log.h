#ifndef WVM_CONSISTENCY_STATE_LOG_H_
#define WVM_CONSISTENCY_STATE_LOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/relation.h"

namespace wvm {

/// Order-independent, multiplicity-weighted 64-bit fingerprint of a
/// relation's contents: the wrapping sum, over its tuples, of a mixed tuple
/// hash times the multiplicity. Equal relations (Relation::operator==) have
/// equal fingerprints; the converse fails only on a hash collision, so
/// every user confirms a fingerprint match with ==.
uint64_t StateFingerprint(const Relation& r);

/// Dense class ids for the distinct contents among a set of states: two
/// classified relations get the same id iff they are equal. Ids are handed
/// out in first-classified order from 0. Relations are bucketed by
/// fingerprint and matched with exact ==, so ids never depend on a
/// collision; a relation sharing storage with one already classified
/// resolves without hashing. Holds pointers to the classified relations,
/// which must outlive it.
class StateClasses {
 public:
  int Classify(const Relation& r);
  size_t size() const { return representatives_.size(); }

 private:
  std::unordered_map<const void*, int> by_storage_;
  std::unordered_map<uint64_t, std::vector<int>> by_fingerprint_;
  std::vector<const Relation*> representatives_;
};

/// Chronological record of an execution, in the vocabulary of Section 3.1:
///
///   * source_view_states[i] = V[ss_i] — the view expression evaluated at
///     the source immediately after the i-th update event (index 0 is the
///     initial state ss_0);
///   * warehouse_view_states[j] = V[ws_j] — the materialized view after the
///     j-th warehouse event (index 0 is the initial state ws_0).
///
/// The consistency checker decides the paper's correctness levels from
/// these two sequences alone.
///
/// Recording shares storage between equal states: a warehouse state equal
/// to the previous warehouse state or to some source state is stored as a
/// copy of that state (Relation copies share their tuple map), not of the
/// view it was recorded from. The log then holds no reference to the live
/// view's storage, so the view's next mutation runs in place instead of
/// cloning it.
class StateLog {
 public:
  std::vector<Relation> source_view_states;
  std::vector<Relation> warehouse_view_states;
  /// Global event sequence number at which each state was recorded (both
  /// sites share one logical clock inside the simulator), enabling the
  /// staleness analysis: how long after ss_i does the warehouse first show
  /// V[ss_i]?
  std::vector<uint64_t> source_state_seq;
  std::vector<uint64_t> warehouse_state_seq;

  void RecordSourceState(Relation v, uint64_t seq = 0) {
    source_view_states.push_back(std::move(v));
    source_state_seq.push_back(seq);
  }
  void RecordWarehouseState(const Relation& v, uint64_t seq = 0);

  /// Consecutive duplicates removed (a warehouse event that does not change
  /// the view does not create a new observable state).
  static std::vector<Relation> Dedup(const std::vector<Relation>& states);

  std::string ToString() const;

 private:
  /// `v`, or an equal recorded state whose storage it can share.
  Relation SharedCopyOf(const Relation& v);

  // Fingerprint -> position of the first source state recorded with it,
  // covering source_view_states[0, indexed_). Filled only when a lookup
  // needs it, so runs whose warehouse always matches a fast path never hash
  // a source state. Positions, not relations: an entry made stale by a
  // direct edit of the public vectors is bounds-checked and confirmed with
  // ==, so it can only cost a missed share.
  std::unordered_map<uint64_t, size_t> source_index_;
  size_t indexed_ = 0;
};

}  // namespace wvm

#endif  // WVM_CONSISTENCY_STATE_LOG_H_
