#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace perfbench {

namespace {

constexpr int kBoxOf[81] = {
    0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 1, 1, 2, 2, 2,
    3, 3, 3, 4, 4, 4, 5, 5, 5, 3, 3, 3, 4, 4, 4, 5, 5, 5, 3, 3, 3, 4, 4, 4, 5, 5, 5,
    6, 6, 6, 7, 7, 7, 8, 8, 8, 6, 6, 6, 7, 7, 7, 8, 8, 8, 6, 6, 6, 7, 7, 7, 8, 8, 8};
constexpr std::uint16_t kAll = 0x1FF;

/// Row/column/box digit masks over a board (bit d-1 set = digit d used).
struct Board {
  Cells c{};
  std::uint16_t row[9] = {};
  std::uint16_t col[9] = {};
  std::uint16_t box[9] = {};
  int filled = 0;

  /// False when the givens already break a rule.
  bool load(const Cells& cells) {
    for (int i = 0; i < 81; ++i) {
      if (cells[i] > 9) {
        return false;
      }
      if (cells[i] != 0) {
        const auto bit = static_cast<std::uint16_t>(1u << (cells[i] - 1));
        if (((row[i / 9] | col[i % 9] | box[kBoxOf[i]]) & bit) != 0) {
          return false;
        }
        place(i, cells[i]);
      }
    }
    return true;
  }
  std::uint16_t candidates(int i) const {
    return static_cast<std::uint16_t>(kAll & ~(row[i / 9] | col[i % 9] | box[kBoxOf[i]]));
  }
  void place(int i, int d) {
    const auto bit = static_cast<std::uint16_t>(1u << (d - 1));
    c[i] = static_cast<std::uint8_t>(d);
    row[i / 9] |= bit;
    col[i % 9] |= bit;
    box[kBoxOf[i]] |= bit;
    ++filled;
  }
  void clear(int i) {
    const auto bit = static_cast<std::uint16_t>(~(1u << (c[i] - 1)));
    c[i] = 0;
    row[i / 9] &= bit;
    col[i % 9] &= bit;
    box[kBoxOf[i]] &= bit;
    --filled;
  }
  /// The first free cell with fewest candidates (-1 when full). Scanning in
  /// row-major order and keeping the first strict minimum is the
  /// findMinTrues tie-break.
  int pick(int& count) const {
    int best = -1;
    count = 10;
    for (int i = 0; i < 81; ++i) {
      if (c[i] == 0) {
        const int n = std::popcount(candidates(i));
        if (n < count) {
          count = n;
          best = i;
        }
      }
    }
    return best;
  }
};

struct Counter {
  Board b;
  int limit = 2;
  int found = 0;
  Cells last{};
  void run() {
    int n = 0;
    const int i = b.pick(n);
    if (i < 0) {
      if (++found == 1) {
        last = b.c;
      }
      return;
    }
    for (std::uint16_t m = b.candidates(i); m != 0 && found < limit; m &= m - 1) {
      b.place(i, std::countr_zero(m) + 1);
      run();
      b.clear(i);
    }
  }
};

bool fill_random(Board& b, std::mt19937_64& rng) {
  int n = 0;
  const int i = b.pick(n);
  if (i < 0) {
    return true;
  }
  int digits[9];
  int k = 0;
  for (std::uint16_t m = b.candidates(i); m != 0; m &= m - 1) {
    digits[k++] = std::countr_zero(m) + 1;
  }
  std::shuffle(digits, digits + k, rng);
  for (int t = 0; t < k; ++t) {
    b.place(i, digits[t]);
    if (fill_random(b, rng)) {
      return true;
    }
    b.clear(i);
  }
  return false;
}

/// Search-tree nodes of the breadth unfolding (see Puzzle::tree_nodes);
/// stops counting once \p budget is exceeded.
std::int64_t tree_nodes(Board& b, std::int64_t budget) {
  std::int64_t nodes = 1;
  int n = 0;
  const int i = b.pick(n);
  if (i < 0 || n == 0) {
    return nodes;  // completed, or stuck: the branch dies here
  }
  for (std::uint16_t m = b.candidates(i); m != 0 && nodes <= budget; m &= m - 1) {
    b.place(i, std::countr_zero(m) + 1);
    const bool completed = b.filled == 81;
    if (!completed) {
      nodes += tree_nodes(b, budget - nodes);
    }
    b.clear(i);
    if (completed) {
      break;
    }
  }
  return nodes;
}

}  // namespace

int oracle_count(const Cells& puzzle, int limit, Cells* solution) {
  Counter s;
  if (!s.b.load(puzzle)) {
    return 0;
  }
  s.limit = limit;
  s.run();
  if (s.found == 1 && solution != nullptr) {
    *solution = s.last;
  }
  return s.found;
}

bool oracle_solves(const Cells& puzzle, const Cells& board) {
  Board b;
  if (!b.load(board) || b.filled != 81) {
    return false;
  }
  for (int i = 0; i < 81; ++i) {
    if (puzzle[i] != 0 && puzzle[i] != board[i]) {
      return false;
    }
  }
  return true;
}

std::vector<Puzzle> make_puzzles(std::uint64_t seed, int count, int min_clues,
                                 int max_clues, std::int64_t min_nodes,
                                 std::int64_t max_nodes) {
  std::mt19937_64 rng(seed);
  std::vector<Puzzle> out;
  out.reserve(static_cast<std::size_t>(count));
  const int band = max_clues - min_clues + 1;
  while (static_cast<int>(out.size()) < count) {
    const int target = min_clues + static_cast<int>(out.size()) % band;
    Board full;
    fill_random(full, rng);
    std::array<int, 81> order{};
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    Puzzle p;
    p.cells = full.c;
    int clues = 81;
    for (const int i : order) {
      if (clues == target) {
        break;
      }
      const auto keep = p.cells[static_cast<std::size_t>(i)];
      p.cells[static_cast<std::size_t>(i)] = 0;
      if (oracle_count(p.cells, 2) == 1) {
        --clues;
      } else {
        p.cells[static_cast<std::size_t>(i)] = keep;
      }
    }
    if (clues != target) {
      continue;  // this grid admits no unique puzzle this sparse: redraw
    }
    Board b;
    b.load(p.cells);
    p.tree_nodes = tree_nodes(b, max_nodes);
    if (p.tree_nodes < min_nodes || p.tree_nodes > max_nodes) {
      continue;
    }
    p.clues = clues;
    p.solution = full.c;
    out.push_back(p);
  }
  return out;
}

std::string cells_to_line(const Cells& c) {
  std::string s(81, '.');
  for (int i = 0; i < 81; ++i) {
    if (c[static_cast<std::size_t>(i)] != 0) {
      s[static_cast<std::size_t>(i)] = static_cast<char>('0' + c[static_cast<std::size_t>(i)]);
    }
  }
  return s;
}

void jacobi_reference_step(const std::vector<double>& in, std::vector<double>& out,
                           std::int64_t n, double alpha) {
  out = in;
  for (std::int64_t i = 1; i + 1 < n; ++i) {
    for (std::int64_t j = 1; j + 1 < n; ++j) {
      const double centre = in[static_cast<std::size_t>(i * n + j)];
      const double around = in[static_cast<std::size_t>((i - 1) * n + j)] +
                            in[static_cast<std::size_t>((i + 1) * n + j)] +
                            in[static_cast<std::size_t>(i * n + j - 1)] +
                            in[static_cast<std::size_t>(i * n + j + 1)];
      out[static_cast<std::size_t>(i * n + j)] = centre + alpha * (around / 4.0 - centre);
    }
  }
}

}  // namespace perfbench
