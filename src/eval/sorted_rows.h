#ifndef SQOD_EVAL_SORTED_ROWS_H_
#define SQOD_EVAL_SORTED_ROWS_H_

#include <cstdint>
#include <vector>

#include "src/eval/relation.h"
#include "src/eval/tuple.h"

namespace sqod {

// Answer extraction: a relation's live rows as Tuples in Value::Compare
// order (column by column; ints before symbols, ints numerically, symbols
// by name). The one place answers are sorted: EvaluateQuery, the
// materialized view's Answers and Database::ToString all go through it.
//
// It works in two steps so a caller can hold a lock for the first only:
// CopyLiveRows copies the live rows into one flat Value buffer (no per-row
// allocation), and SortRows sorts row indices — ints compared inline, each
// distinct symbol's name resolved once per sort and replaced by its rank —
// and then materializes each Tuple once, in order.

// A relation's live rows, row-major with stride `arity`.
struct FlatRows {
  int arity = 0;
  int64_t rows = 0;
  std::vector<Value> values;
};

FlatRows CopyLiveRows(const Relation& rel);

std::vector<Tuple> SortRows(const FlatRows& rows);

// CopyLiveRows + SortRows.
std::vector<Tuple> SortedRows(const Relation& rel);

}  // namespace sqod

#endif  // SQOD_EVAL_SORTED_ROWS_H_
