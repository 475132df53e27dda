#include "source/term_cache.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/strings.h"
#include "query/compiled_plan.h"

namespace wvm {

std::optional<Relation> TermCache::Lookup(const std::string& signature,
                                          const void* consumer, IOStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    ++io->term_cache_misses;
    return std::nullopt;
  }
  Entry& e = it->second;
  ++io->term_cache_hits;
  ++e.hits;
  if (consumer != nullptr) {
    e.consumers.insert(consumer);
  }
  // A hit closes the entry's amortization window: the maintenance I/O
  // spent since the previous hit has just been paid for by one avoided
  // recompute, so the next patch-vs-evict decision starts fresh.
  e.patch_reads_since_hit = 0;
  e.updates_since_hit = 0;
  if (e.promoted) {
    ++io->term_cache_aux_hits;
  } else {
    lru_.splice(lru_.begin(), lru_, e.lru_pos);
    if (config_.promote && e.hits >= config_.promote_min_hits &&
        static_cast<int64_t>(e.consumers.size()) >=
            config_.promote_min_views &&
        e.hits * e.fill_reads > e.lifetime_patch_reads) {
      // Materialize-vs-recompute verdict: the hits this entry served have
      // bought back more reads than its patches cost. Make it a view.
      Promote(signature, &e, io);
    }
  }
  return e.core;
}

void TermCache::Fill(const std::string& signature, Term normalized,
                     Relation core, int64_t fill_reads, IOStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(signature) > 0) {
    return;  // racing fill of the same shape: both computed the same answer
  }
  // Promoted entries are pinned: only LRU residents compete for capacity.
  while (config_.capacity > 0 && !lru_.empty() &&
         entries_.size() - promoted_unlocked() >= config_.capacity) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++io->term_cache_evictions;
  }
  lru_.push_front(signature);
  Entry e(std::move(normalized), std::move(core), fill_reads);
  e.lru_pos = lru_.begin();
  entries_.emplace(signature, std::move(e));
}

double TermCache::EstimateEvalReads(const Term& term,
                                    const StorageMap& storage) {
  double cost = 0;
  const ViewDefinition& view = *term.view();
  for (size_t i = 0; i < view.num_relations(); ++i) {
    if (term.operands()[i].is_bound) {
      continue;
    }
    auto it = storage.find(view.relations()[i].name);
    if (it == storage.end()) {
      continue;
    }
    const StoredRelation& sr = it->second;
    double best = static_cast<double>(sr.NumBlocks());
    for (const IndexDef& idx : sr.indexes()) {
      // An indexed expansion reads about one block run (clustered) or one
      // tuple (non-clustered) per expected match of the probed value.
      const double matches = sr.EstimatedMatchesPerKey(idx.attribute);
      const double probe =
          idx.clustered
              ? std::max(1.0, std::ceil(matches / sr.tuples_per_block()))
              : std::max(1.0, matches);
      best = std::min(best, probe);
    }
    cost += best;
  }
  return cost;
}

void TermCache::Promote(const std::string& signature, Entry* entry,
                        IOStats* io) {
  (void)signature;
  std::string name = StrCat("aux", next_aux_id_++);
  if (!aux_catalog_.DefineWithData({name, entry->core.schema()}, entry->core)
           .ok()) {
    return;  // unique names make this unreachable; stay a plain entry
  }
  entry->aux_name = std::move(name);
  lru_.erase(entry->lru_pos);
  entry->promoted = true;
  ++io->term_cache_promotions;
}

void TermCache::Demote(const std::string& signature, Entry* entry,
                       IOStats* io) {
  (void)aux_catalog_.Erase(entry->aux_name);
  entry->aux_name.clear();
  entry->promoted = false;
  lru_.push_front(signature);
  entry->lru_pos = lru_.begin();
  // Back to plain-entry economics with a fresh amortization window.
  entry->patch_reads_since_hit = 0;
  entry->updates_since_hit = 0;
  ++io->term_cache_demotions;
}

Status TermCache::ApplyUpdate(const Update& u, const StorageMap& storage,
                              const Catalog* catalog,
                              const PhysicalConfig& config, IOStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> doomed;
  for (auto& [signature, entry] : entries_) {
    Result<size_t> pos = entry.normalized.view()->RelationIndex(u.relation);
    if (!pos.ok()) {
      continue;  // the view never reads u's relation: entry unaffected
    }
    if (entry.normalized.operands()[*pos].is_bound) {
      // The term substituted a concrete tuple for u's relation, so its
      // answer does not depend on that relation's stored contents.
      continue;
    }
    std::optional<Term> delta = entry.normalized.Substitute(u);
    if (!delta.has_value()) {
      continue;  // unreachable given the checks above; keep entry intact
    }
    const double patch_estimate = EstimateEvalReads(*delta, storage);

    if (entry.promoted) {
      if (entry.updates_since_hit >= config_.demote_after_updates) {
        // Cold auxiliary view: all maintenance, no reuse. Demote and let
        // the plain patch-vs-evict policy below decide its fate.
        Demote(signature, &entry, io);
      } else {
        // Pinned view: always maintained, via its compiled delta plan when
        // the logical catalog is at hand. The compiled executor reads that
        // catalog (and its cached key indexes), not the blocked store, so
        // the planner estimate stands in as its charged maintenance I/O.
        bool patched = false;
        if (catalog != nullptr) {
          WVM_ASSIGN_OR_RETURN(
              std::shared_ptr<const CompiledDeltaPlan> plan,
              delta->view()->CompiledPlanFor(TermBoundMask(*delta)));
          Result<Relation> d = ExecuteCompiledPlan(*plan, *delta, *catalog);
          if (d.ok()) {
            entry.core.Add(*d);
            const int64_t charged =
                static_cast<int64_t>(std::ceil(patch_estimate));
            ++io->term_cache_patches;
            io->term_cache_patch_reads += charged;
            entry.lifetime_patch_reads += charged;
            patched = true;
          }
        }
        if (!patched) {
          IOStats patch_io;
          WVM_ASSIGN_OR_RETURN(
              Relation d, EvaluateTermPhysical(*delta, storage, config,
                                               &patch_io, /*cache=*/nullptr));
          entry.core.Add(d);
          ++io->term_cache_patches;
          io->term_cache_patch_reads += patch_io.page_reads;
          entry.lifetime_patch_reads += patch_io.page_reads;
        }
        ++entry.updates_since_hit;
        // The aux catalog's relation mirrors the entry's current answer.
        Result<Relation*> aux = aux_catalog_.GetMutable(entry.aux_name);
        if (aux.ok()) {
          **aux = entry.core;
        }
        continue;
      }
    }

    // Patch-vs-evict for plain entries. The charge is this patch's
    // estimated cost (scaled by the policy bias) PLUS the patch I/O already
    // spent on this entry since its last hit: maintenance is only worth
    // paying while it stays below the one recompute a future hit avoids.
    // Charging per entry (rather than letting every entry amortize against
    // the aggregate) is what lets the selector drop entries that are pure
    // maintenance load.
    const double charge =
        patch_estimate * config_.patch_cost_factor +
        static_cast<double>(entry.patch_reads_since_hit);
    if (charge > static_cast<double>(entry.fill_reads)) {
      doomed.push_back(signature);
      continue;
    }
    // T<U> carries u's sign through the substituted operand, so adding its
    // answer patches inserts and deletes symmetrically. The other operand
    // positions read the post-update storage, which equals the pre-update
    // storage for every relation but u's — and u's position is now bound.
    IOStats patch_io;
    WVM_ASSIGN_OR_RETURN(
        Relation d, EvaluateTermPhysical(*delta, storage, config, &patch_io,
                                         /*cache=*/nullptr));
    entry.core.Add(d);
    ++io->term_cache_patches;
    io->term_cache_patch_reads += patch_io.page_reads;
    entry.patch_reads_since_hit += patch_io.page_reads;
    entry.lifetime_patch_reads += patch_io.page_reads;
    ++entry.updates_since_hit;
  }
  for (const std::string& signature : doomed) {
    auto it = entries_.find(signature);
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    ++io->term_cache_evictions;
  }
  return Status::OK();
}

bool TermCache::IsPromoted(const std::string& signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(signature);
  return it != entries_.end() && it->second.promoted;
}

size_t TermCache::promoted_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return promoted_unlocked();
}

size_t TermCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void TermCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  aux_catalog_ = Catalog();
}

}  // namespace wvm
