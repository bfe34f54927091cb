#ifndef SNETSAC_PERFBENCH_ORACLE_HPP
#define SNETSAC_PERFBENCH_ORACLE_HPP

/// \file oracle.hpp
/// Reference computations the benchmark checks the program against. None
/// of this code calls into the repository's libraries: the sudoku oracle is
/// a bitmask backtracking solver of its own, and the Jacobi reference is a
/// plain loop over a flat vector.

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// A 9x9 board, row-major; 0 is an empty cell.
using Cells = std::array<std::uint8_t, 81>;

/// Counts the solutions of \p puzzle, stopping at \p limit. When exactly
/// one is found and \p solution is non-null, it receives it.
int oracle_count(const Cells& puzzle, int limit, Cells* solution = nullptr);

/// True when \p board is completed, obeys every row, column and box rule,
/// and keeps every given of \p puzzle.
bool oracle_solves(const Cells& puzzle, const Cells& board);

struct Puzzle {
  Cells cells{};
  Cells solution{};
  int clues = 0;
  /// Nodes of the search tree a breadth-unfolding solver explores when it
  /// branches on the first free cell with fewest candidates (the paper's
  /// findMinTrues): the root plus every incomplete child. Used only to
  /// describe the inputs; it is not checked against the program.
  std::int64_t tree_nodes = 0;
};

/// Seeded puzzles with a unique solution. Clue counts cycle evenly over
/// [min_clues, max_clues], and a candidate is kept only when its tree_nodes
/// lies in [min_nodes, max_nodes] (others are redrawn from the same stream).
/// Fixing the clue mix fixes the sets' search depth (one level per empty
/// cell), and the narrow tree-size band their work, so a set's total work
/// stays nearly the same from seed to seed while the puzzles differ.
std::vector<Puzzle> make_puzzles(std::uint64_t seed, int count, int min_clues,
                                 int max_clues, std::int64_t min_nodes,
                                 std::int64_t max_nodes);

std::string cells_to_line(const Cells& c);

/// One Jacobi step over a row-major n x n grid: interior cells move by
/// \p alpha toward the mean of their four neighbours, the boundary is kept.
void jacobi_reference_step(const std::vector<double>& in, std::vector<double>& out,
                           std::int64_t n, double alpha);

}  // namespace perfbench

#endif
