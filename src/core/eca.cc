#include "core/eca.h"

namespace wvm {

std::string Eca::name() const {
  std::string n = "eca";
  if (!options_.compensate) {
    n += "-nocomp";
  }
  if (options_.apply_immediately) {
    n += "-nocollect";
  }
  return n;
}

Status Eca::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(ViewMaintainer::Initialize(initial_source_state));
  collect_ = Relation(view_->output_schema());
  return Status::OK();
}

Query Eca::BuildCompensatedQuery(const Update& u, uint64_t query_id) const {
  std::optional<Term> term = ViewSubstituted(u);
  if (!term.has_value()) {
    return Query();  // irrelevant update: empty query
  }
  Query q(query_id, u.id, {std::move(*term)});
  if (options_.compensate) {
    for (const auto& [id, pending] : uqs_) {
      // Compensate the effect of u on every pending query: - Q_j<u>.
      // Substituted terms keep their original delta tags, so the
      // compensation is attributed to the update whose delta it fixes.
      q.SubtractTerms(pending.Substitute(u));
    }
  }
  return q;
}

void Eca::MaybeInstall() {
  if (uqs_.empty()) {
    mv_.Add(collect_);
    collect_.Clear();
  }
}

Status Eca::SendAndTrack(Query q, WarehouseContext* ctx) {
  if (q.empty()) {
    return Status::OK();
  }
  // Fully-bound terms are a pure function of their bound tuples, so the
  // warehouse evaluates them itself, gathering straight into COLLECT (MV
  // under the apply-immediately ablation); only the state-dependent
  // remainder travels to the source.
  Relation* target = options_.apply_immediately ? &mv_ : &collect_;
  FullyBoundFolder folder;
  for (const Term& t : q.terms()) {
    if (t.IsFullyBound()) {
      WVM_RETURN_IF_ERROR(folder.Fold(t, target));
    }
  }
  // UQS keeps the same remainder: the folded terms vanish under every later
  // substitution, and the remainder's NumTerms() still counts them.
  Query remote = std::move(q).Remainder();
  if (!remote.empty()) {
    ctx->SendQuery(Query(remote.id(), remote.update_id(), remote.terms()));
    uqs_.emplace(remote.id(), std::move(remote));
  } else if (!options_.apply_immediately) {
    MaybeInstall();
  }
  return Status::OK();
}

Status Eca::OnUpdate(const Update& u, WarehouseContext* ctx) {
  Query q = BuildCompensatedQuery(u, ctx->NextQueryId());
  return SendAndTrack(std::move(q), ctx);
}

Status Eca::FoldAnswer(const AnswerMessage& a) {
  if (uqs_.erase(a.query_id) == 0) {
    return Status::Internal("answer for unknown query id");
  }
  if (options_.apply_immediately) {
    mv_.Add(a.Sum());
    return Status::OK();
  }
  collect_.Add(a.Sum());
  MaybeInstall();
  return Status::OK();
}

Status Eca::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)ctx;
  return FoldAnswer(a);
}

std::shared_ptr<const MaintainerSnapshot> Eca::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = mv_;
  snap->uqs = uqs_;
  snap->collect = collect_;
  return snap;
}

Status Eca::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from ECA");
  }
  mv_ = snap->mv;
  uqs_ = snap->uqs;
  collect_ = snap->collect;
  return Status::OK();
}

void Eca::LoseVolatileState() {
  // MV persists on warehouse disk; UQS and COLLECT were in memory. Pending
  // answers will now hit "answer for unknown query id" or, worse, silently
  // never install — the lost-state anomaly the recovery journal exists for.
  uqs_.clear();
  collect_.Clear();
}

}  // namespace wvm
