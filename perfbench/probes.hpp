#ifndef SNETSAC_PERFBENCH_PROBES_HPP
#define SNETSAC_PERFBENCH_PROBES_HPP

/// \file probes.hpp
/// Standalone probes of the traced run: single public functions of each
/// layer, called on inputs taken from the workloads.

#include <string>
#include <vector>

#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Appends the runtime.*, sacpp.* and sudoku.* metrics. \p puzzles feed the
/// sudoku probes, \p grid the stencil probes. Returns an empty string, or
/// what went wrong when a probe's own result is wrong.
std::string run_probes(const std::vector<Puzzle>& puzzles, const Grid& grid,
                       Metrics& out);

/// Median (linear interpolation between closest ranks) of \p v; 0 if empty.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif
