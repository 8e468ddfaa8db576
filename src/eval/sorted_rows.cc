#include "src/eval/sorted_rows.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace sqod {

namespace {

// Sorts row indices by their key rows. A key is an int, or a symbol whose
// id has been replaced by its name rank, so every comparison is inline.
template <bool kIntsOnly>
void SortIndices(const Value* keys, int arity, std::vector<int64_t>* order) {
  std::sort(order->begin(), order->end(), [keys, arity](int64_t a, int64_t b) {
    const Value* x = keys + a * arity;
    const Value* y = keys + b * arity;
    for (int c = 0; c < arity; ++c) {
      if constexpr (!kIntsOnly) {
        if (x[c].is_int() != y[c].is_int()) return x[c].is_int();
        if (!x[c].is_int()) {
          if (x[c].symbol_id() != y[c].symbol_id()) {
            return x[c].symbol_id() < y[c].symbol_id();
          }
          continue;
        }
      }
      if (x[c].as_int() != y[c].as_int()) return x[c].as_int() < y[c].as_int();
    }
    return false;
  });
}

// `values` with every symbol replaced by the rank of its name among the
// distinct symbols present.
std::vector<Value> RankSymbols(const std::vector<Value>& values) {
  std::vector<SymbolId> ids;
  for (const Value& v : values) {
    if (v.is_symbol()) ids.push_back(v.symbol_id());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<const std::string*> names(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    names[i] = &GlobalStrings().Name(ids[i]);
  }
  std::vector<int32_t> by_name(ids.size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::sort(by_name.begin(), by_name.end(),
            [&names](int32_t a, int32_t b) { return *names[a] < *names[b]; });
  std::vector<SymbolId> rank(ids.size());
  for (size_t r = 0; r < by_name.size(); ++r) {
    rank[by_name[r]] = static_cast<SymbolId>(r);
  }
  std::vector<Value> keys = values;
  for (Value& v : keys) {
    if (!v.is_symbol()) continue;
    const size_t at =
        std::lower_bound(ids.begin(), ids.end(), v.symbol_id()) - ids.begin();
    v = Value::SymbolFromId(rank[at]);
  }
  return keys;
}

}  // namespace

FlatRows CopyLiveRows(const Relation& rel) {
  FlatRows out;
  out.arity = rel.arity();
  out.rows = rel.live_size();
  if (out.arity == 0 || out.rows == 0) return out;
  if (!rel.has_tombstones()) {
    const Value* data = rel.row(0).data();
    out.values.assign(data, data + rel.size() * out.arity);
    return out;
  }
  out.values.reserve(static_cast<size_t>(out.rows * out.arity));
  for (TupleRef row : rel.rows()) {
    out.values.insert(out.values.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<Tuple> SortRows(const FlatRows& rows) {
  std::vector<Tuple> out;
  if (rows.arity == 0) {
    out.resize(static_cast<size_t>(rows.rows));
    return out;
  }
  std::vector<int64_t> order(static_cast<size_t>(rows.rows));
  std::iota(order.begin(), order.end(), 0);
  const bool ints_only =
      std::all_of(rows.values.begin(), rows.values.end(),
                  [](const Value& v) { return v.is_int(); });
  if (ints_only) {
    SortIndices<true>(rows.values.data(), rows.arity, &order);
  } else {
    const std::vector<Value> keys = RankSymbols(rows.values);
    SortIndices<false>(keys.data(), rows.arity, &order);
  }
  out.reserve(order.size());
  for (int64_t i : order) {
    const Value* row = rows.values.data() + i * rows.arity;
    out.emplace_back(row, row + rows.arity);
  }
  return out;
}

std::vector<Tuple> SortedRows(const Relation& rel) {
  return SortRows(CopyLiveRows(rel));
}

}  // namespace sqod
