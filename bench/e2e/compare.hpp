// `pleroma_bench compare BASE.json NEW.json`: per (workload, end-to-end
// metric), both medians, both interquartile ranges, the change, and a
// verdict — better, same, worse, or unresolved when the spread across
// repetitions is wider than the metric's bound.
#pragma once

#include <string>

namespace pleroma::e2e {

/// Prints the comparison; returns 1 when any verdict is "worse" or a file
/// cannot be read, else 0.
int compareResults(const std::string& basePath, const std::string& newPath);

}  // namespace pleroma::e2e
