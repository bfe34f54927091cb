#ifndef SNETSAC_SACPP_SHAPE_HPP
#define SNETSAC_SACPP_SHAPE_HPP

/// \file shape.hpp
/// Shapes and index vectors for the SaC-style array layer.
///
/// SaC arrays are n-dimensional and rank-generic: scalars are rank-0 arrays
/// with an empty shape vector (paper, Section 2). `Shape` mirrors the result
/// of SaC's built-in `shape()`, `Index` mirrors the index vectors (`iv`)
/// used in with-loop generators and selections.

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace sac {

using Index = std::vector<std::int64_t>;

/// Error for rank/shape/bounds violations; SaC would abort at runtime with
/// a similar diagnostic.
class ShapeError : public std::runtime_error {
 public:
  explicit ShapeError(const std::string& what) : std::runtime_error(what) {}
};

/// Row-major rectangular shape. Rank 0 (empty dims) denotes a scalar.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) { validate(); }

  int rank() const { return static_cast<int>(dims_.size()); }
  bool is_scalar() const { return dims_.empty(); }

  std::int64_t extent(int axis) const { return dims_.at(static_cast<std::size_t>(axis)); }
  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Total number of elements (1 for scalars, 0 if any extent is 0).
  std::int64_t element_count() const;

  /// Row-major strides; stride[rank-1] == 1 for non-empty shapes.
  std::vector<std::int64_t> strides() const;

  /// Row-major linearisation of a full index vector. Throws ShapeError on
  /// rank mismatch or out-of-bounds component. The pointer form lets hot
  /// call sites (single-cell set/get in inner loops) pass a braced index
  /// without materialising a heap-allocated Index. Inline, so a with-loop
  /// body's selections compile into its row loop; only the error path is
  /// out of line.
  std::int64_t linearize(const Index& iv) const { return linearize(iv.data(), iv.size()); }
  std::int64_t linearize(const std::int64_t* iv, std::size_t n) const {
    if (n != dims_.size()) {
      throw_linearize_error(iv, n);
    }
    std::int64_t off = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (iv[a] < 0 || iv[a] >= dims_[a]) {
        throw_linearize_error(iv, n);
      }
      off = off * dims_[a] + iv[a];
    }
    return off;
  }

  /// True when \p iv has matching rank and every component is in bounds.
  bool contains(const Index& iv) const;

  /// Inverse of linearize.
  Index delinearize(std::int64_t offset) const;

  /// Shape of the subarray selected by an index prefix (SaC's `array[iv]`
  /// with a short iv): the trailing `rank() - prefix_len` axes.
  Shape suffix(int prefix_len) const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return dims_ != other.dims_; }

  std::string to_string() const;

 private:
  void validate() const;
  /// Throws linearize's ShapeError for \p iv: the rank mismatch, or else
  /// the out-of-bounds component.
  [[noreturn]] void throw_linearize_error(const std::int64_t* iv, std::size_t n) const;
  std::vector<std::int64_t> dims_;
};

/// Concatenation of two shape vectors (used for nested selections).
Shape concat_shapes(const Shape& a, const Shape& b);

std::string index_to_string(const Index& iv);

}  // namespace sac

#endif
