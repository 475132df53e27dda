#include "consistency/state_log.h"

#include "common/strings.h"

namespace wvm {

namespace {

// splitmix64's finalizer: spreads the memoized tuple hash over all 64 bits
// before the multiplicity-weighted sum, so tuples whose hashes differ in
// few bits do not cancel or collide in the sum.
uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t StateFingerprint(const Relation& r) {
  uint64_t sum = 0;
  for (const auto& [t, c] : r.entries()) {
    // Unsigned arithmetic wraps: a negative multiplicity is its
    // two's-complement residue, so the sum stays linear in the counts.
    sum += Mix(t.Hash()) * static_cast<uint64_t>(c);
  }
  return sum;
}

int StateClasses::Classify(const Relation& r) {
  const void* storage = r.shared_entries().get();
  auto known = by_storage_.find(storage);
  if (known != by_storage_.end()) {
    return known->second;
  }
  std::vector<int>& bucket = by_fingerprint_[StateFingerprint(r)];
  int id = -1;
  for (int c : bucket) {
    if (*representatives_[static_cast<size_t>(c)] == r) {
      id = c;
      break;
    }
  }
  if (id < 0) {
    id = static_cast<int>(representatives_.size());
    representatives_.push_back(&r);
    bucket.push_back(id);
  }
  by_storage_.emplace(storage, id);
  return id;
}

void StateLog::RecordWarehouseState(const Relation& v, uint64_t seq) {
  warehouse_view_states.push_back(SharedCopyOf(v));
  warehouse_state_seq.push_back(seq);
}

Relation StateLog::SharedCopyOf(const Relation& v) {
  // Most warehouse events leave the view as it was, and a consistent
  // warehouse mostly catches up to the newest source state: try both before
  // hashing.
  if (!warehouse_view_states.empty() && warehouse_view_states.back() == v) {
    return warehouse_view_states.back();
  }
  if (!source_view_states.empty() && source_view_states.back() == v) {
    return source_view_states.back();
  }
  for (; indexed_ < source_view_states.size(); ++indexed_) {
    // A state sharing its predecessor's storage is that state, already
    // indexed (source events that leave the view unchanged).
    if (indexed_ == 0 || source_view_states[indexed_].shared_entries() !=
                             source_view_states[indexed_ - 1].shared_entries()) {
      source_index_.emplace(StateFingerprint(source_view_states[indexed_]),
                            indexed_);
    }
  }
  auto it = source_index_.find(StateFingerprint(v));
  if (it != source_index_.end() && it->second < source_view_states.size() &&
      source_view_states[it->second] == v) {
    return source_view_states[it->second];
  }
  return v;
}

std::vector<Relation> StateLog::Dedup(const std::vector<Relation>& states) {
  std::vector<Relation> out;
  for (const Relation& r : states) {
    if (out.empty() || !(out.back() == r)) {
      out.push_back(r);
    }
  }
  return out;
}

std::string StateLog::ToString() const {
  std::string out = "source states:\n";
  for (size_t i = 0; i < source_view_states.size(); ++i) {
    out += StrCat("  V[ss", i, "] = ", source_view_states[i].ToString(), "\n");
  }
  out += "warehouse states:\n";
  for (size_t i = 0; i < warehouse_view_states.size(); ++i) {
    out +=
        StrCat("  V[ws", i, "] = ", warehouse_view_states[i].ToString(), "\n");
  }
  return out;
}

}  // namespace wvm
