// Lookup into the repo's own flat JSON bench output (one cell object per
// line, e.g. BENCH_hotpath.json), used by hotpath_index to read its
// checked-in baseline.
//
// The search for the metric key is BOUNDED to the matched cell object.
// An unbounded search once let a cell missing the key silently read the
// NEXT cell's value, and gated a regression verdict against the wrong
// number.
#pragma once

#include <cstdlib>
#include <string>

namespace venn::bench {

// Finds the first occurrence of `cell_needle` (the cell's identifying
// prefix, e.g. "\"devices\": 1000, \"jobs\": 4, \"mode\": \"index\""),
// then reads the number after `"<metric_key>": ` — but only within that
// cell's object (up to the first '}' after the needle). Returns false
// when the cell or the key is absent FROM THAT CELL, or when the value
// after the key is not a number.
inline bool find_cell_metric(const std::string& text,
                             const std::string& cell_needle,
                             const std::string& metric_key, double* out) {
  const auto cell_pos = text.find(cell_needle);
  if (cell_pos == std::string::npos) return false;
  // The bench output has no nested braces inside a cell, so the first '}'
  // after the needle closes this cell.
  const auto cell_end = text.find('}', cell_pos);
  const std::string key = "\"" + metric_key + "\": ";
  const auto key_pos = text.find(key, cell_pos);
  if (key_pos == std::string::npos) return false;
  if (cell_end != std::string::npos && key_pos > cell_end) return false;
  const char* start = text.c_str() + key_pos + key.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

}  // namespace venn::bench
