// The bounded-cell baseline lookup behind bench/hotpath_index's regression
// gate (bench/cell_metric.h).
#include <gtest/gtest.h>

#include <string>

#include "cell_metric.h"

namespace {

using venn::bench::find_cell_metric;

// The doctored-baseline regression: the first cell LACKS the metric key,
// the next cell has it. The unbounded search this lookup replaced
// returned the next cell's 99999.0 here — a silently corrupted regression
// verdict.
TEST(OrchestratorMetrics, CellMetricLookupIsBoundedToTheCell) {
  const std::string doctored =
      "  \"cells\": [\n"
      "    {\"devices\": 1000, \"jobs\": 4, \"mode\": \"index\", "
      "\"wall_s\": 0.5},\n"
      "    {\"devices\": 1000, \"jobs\": 16, \"mode\": \"index\", "
      "\"wall_s\": 0.7, \"events_per_sec\": 99999.0}\n"
      "  ]\n";
  double v = -1.0;
  // Key missing from the matched cell: must report absence, not borrow
  // the 99999.0 from the next cell.
  EXPECT_FALSE(find_cell_metric(
      doctored, "\"devices\": 1000, \"jobs\": 4, \"mode\": \"index\"",
      "events_per_sec", &v));
  // The cell that has the key still resolves.
  ASSERT_TRUE(find_cell_metric(
      doctored, "\"devices\": 1000, \"jobs\": 16, \"mode\": \"index\"",
      "events_per_sec", &v));
  EXPECT_DOUBLE_EQ(v, 99999.0);
  // Absent cell.
  EXPECT_FALSE(find_cell_metric(
      doctored, "\"devices\": 9, \"jobs\": 9, \"mode\": \"index\"",
      "events_per_sec", &v));
  // Key present but value is garbage: absence, not 0.0.
  const std::string garbage =
      "{\"devices\": 1, \"jobs\": 1, \"mode\": \"m\", "
      "\"events_per_sec\": oops}";
  EXPECT_FALSE(find_cell_metric(garbage,
                                "\"devices\": 1, \"jobs\": 1, \"mode\": "
                                "\"m\"",
                                "events_per_sec", &v));
}

}  // namespace
