#include "relational/algebra.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "relational/key_index.h"

namespace wvm {

Result<Relation> Select(const Relation& r, const Predicate& cond) {
  WVM_ASSIGN_OR_RETURN(BoundPredicate bound, cond.Bind(r.schema()));
  return SelectBound(r, bound);
}

Relation SelectBound(const Relation& r, const BoundPredicate& cond) {
  if (cond.IsTrue()) {
    return r;  // identity selection: share storage, no copy
  }
  Relation out(r.schema());
  if (r.IsEmpty()) {
    return out;
  }
  // Reserve for the input size: selections in the data plane (residual
  // conditions, the W>Z filter of Example 6) typically keep a large
  // fraction of rows, and over-sizing is cheaper than rehashing mid-scan.
  out.Reserve(r.NumDistinct());
  Relation::CountsMap& m = out.MutableEntries();
  for (const auto& [t, c] : r.entries()) {
    if (cond.Eval(t)) {
      m.AddCount(t, c);
    }
  }
  return out;
}

Result<Relation> Project(const Relation& r,
                         const std::vector<std::string>& attrs) {
  WVM_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                       r.schema().IndicesOf(attrs));
  return ProjectIndices(r, indices);
}

Relation ProjectIndices(const Relation& r,
                        const std::vector<size_t>& indices) {
  // Identity projection keeps every column in place: relabel-free share.
  if (indices.size() == r.schema().size()) {
    bool identity = true;
    for (size_t i = 0; i < indices.size(); ++i) {
      if (indices[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) {
      return r;
    }
  }
  Relation out(r.schema().Project(indices));
  if (r.IsEmpty()) {
    return out;
  }
  out.Reserve(r.NumDistinct());
  Relation::CountsMap& m = out.MutableEntries();
  for (const auto& [t, c] : r.entries()) {
    m.AddCount(t.Project(indices), c);
  }
  return out;
}

Result<Relation> CrossProduct(const Relation& a, const Relation& b) {
  WVM_ASSIGN_OR_RETURN(Schema schema, a.schema().Concat(b.schema()));
  Relation out(std::move(schema));
  const size_t an = a.NumDistinct();
  const size_t bn = b.NumDistinct();
  if (an != 0 && bn != 0) {
    // Cap the pre-size: huge cross products should grow as they go rather
    // than reserve quadratic memory up front.
    constexpr size_t kMaxReserve = size_t{1} << 20;
    out.Reserve(an < kMaxReserve / bn ? an * bn : kMaxReserve);
  }
  Relation::CountsMap& m = out.MutableEntries();
  for (const auto& [ta, ca] : a.entries()) {
    for (const auto& [tb, cb] : b.entries()) {
      m.AddCount(ta.Concat(tb), ca * cb);
    }
  }
  return out;
}

Result<Relation> NaturalJoin(const Relation& a, const Relation& b) {
  // Shared attributes, in a's order; b's columns for them; b's non-shared
  // columns, in b's order.
  std::vector<size_t> a_shared;
  std::vector<size_t> b_shared;
  std::vector<size_t> b_rest;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    std::optional<size_t> i = a.schema().IndexOf(b.schema().attribute(j).name);
    if (i.has_value()) {
      if (a.schema().attribute(*i).type != b.schema().attribute(j).type) {
        return Status::InvalidArgument(
            StrCat("natural join type mismatch on attribute '",
                   b.schema().attribute(j).name, "'"));
      }
      a_shared.push_back(*i);
      b_shared.push_back(j);
    } else {
      b_rest.push_back(j);
    }
  }

  std::vector<Attribute> out_attrs = a.schema().attributes();
  for (size_t j : b_rest) {
    out_attrs.push_back(b.schema().attribute(j));
  }
  Relation out(Schema(std::move(out_attrs)));

  // Hash the smaller input on its shared columns; probe the larger straight
  // from its tuples. Output rows are a-then-b-rest either way.
  const bool build_a = a.NumDistinct() <= b.NumDistinct();
  const Relation& build = build_a ? a : b;
  const Relation& probe = build_a ? b : a;
  const std::vector<size_t>& probe_keys = build_a ? b_shared : a_shared;
  const RelationKeyIndex index(build.shared_entries(),
                               build_a ? a_shared : b_shared);

  // Pre-size the output for the expected match count: probe rows times the
  // build side's mean rows per key (rounded down; the map's load factor
  // leaves headroom).
  if (!index.empty()) {
    constexpr size_t kMaxReserve = size_t{1} << 20;
    const size_t per_key =
        std::max<size_t>(1, index.num_rows() / index.num_keys());
    const size_t probe_n = probe.NumDistinct();
    out.Reserve(probe_n < kMaxReserve / per_key ? probe_n * per_key
                                                : kMaxReserve);
  }
  Relation::CountsMap& m = out.MutableEntries();
  for (const auto& [t, c] : probe.entries()) {
    const auto value_at = [&](size_t k) -> const Value& {
      return t.value(probe_keys[k]);
    };
    const size_t h = RelationKeyIndex::ProbeHash(probe_keys.size(), value_at);
    index.ForEachMatch(h, value_at, [&](const Tuple& bt, int64_t bc) {
      const Tuple& ta = build_a ? bt : t;
      const Tuple& tb = build_a ? t : bt;
      m.AddCount(ta.ConcatProjected(tb, b_rest), c * bc);
    });
  }
  return out;
}

}  // namespace wvm
