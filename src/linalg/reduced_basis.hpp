#pragma once
// Arena-backed reduced row basis — the elimination core beneath the RLNC
// decoder.
//
// Rows live in one contiguous allocation made at construction; absorbing a
// row after that allocates nothing. Rows are stored in arrival order and
// addressed by stride — pivot bookkeeping is an index vector, so there are no
// row swaps and no per-row vectors. The basis is kept fully reduced (each
// stored row is zero in every other row's pivot column), which makes
// innovation detection a forward elimination and keeps decode read-off
// trivial.
//
// Layout is tuned for the vector kernels: the arena base and the row stride
// are both rounded to 64-byte boundaries, and every region operation starts
// at the cache-line boundary at or below the pivot column rather than at the
// pivot itself. That start-down is free — a stored row is zero left of its
// pivot (its first nonzero IS its pivot, and back-substitution only ever adds
// rows whose pivots lie strictly to the right), so the extra leading symbols
// contribute nothing — and it keeps every 64-byte load/store in the hot loop
// split-free. Candidate rows are built directly in the arena's next free row
// (scratch_row()), so an innovative row is kept by bumping the rank: no
// row copy, no swap.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ncast::linalg {

/// Reduced basis of rows of `width` symbols whose pivots are confined to the
/// leading `pivot_cols` columns (the decoder reduces augmented rows
/// [coeffs | payload] but pivots only on coefficients). Holds at most
/// `pivot_cols` rows, since pivots are distinct columns.
template <typename Field>
class ReducedBasis {
 public:
  using value_type = typename Field::value_type;
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  ReducedBasis(std::size_t width, std::size_t pivot_cols)
      : width_(width),
        pivot_cols_(pivot_cols),
        stride_((width + kAlign - 1) / kAlign * kAlign),
        arena_((pivot_cols + 1) * stride_ + kAlign, value_type{0}) {
    pivots_.reserve(pivot_cols);
    const auto addr = reinterpret_cast<std::uintptr_t>(arena_.data());
    const std::uintptr_t misfit = addr % kAlignBytes;
    base_ = arena_.data() +
            (misfit ? (kAlignBytes - misfit) / sizeof(value_type) : 0);
  }

  ReducedBasis(const ReducedBasis& other)
      : ReducedBasis(other.width_, other.pivot_cols_) {
    pivots_ = other.pivots_;
    for (std::size_t i = 0; i < pivots_.size(); ++i) {
      value_type* dst = base_ + i * stride_;
      const value_type* src = other.row(i);
      for (std::size_t j = 0; j < width_; ++j) dst[j] = src[j];
    }
  }
  ReducedBasis& operator=(const ReducedBasis& other) {
    if (this != &other) {
      ReducedBasis tmp(other);
      swap(tmp);
    }
    return *this;
  }
  ReducedBasis(ReducedBasis&&) = default;
  ReducedBasis& operator=(ReducedBasis&&) = default;

  std::size_t width() const { return width_; }
  std::size_t pivot_cols() const { return pivot_cols_; }
  std::size_t rank() const { return pivots_.size(); }

  /// Row `i` of the basis (length width()), in arrival order. 64-byte
  /// aligned.
  const value_type* row(std::size_t i) const { return base_ + i * stride_; }
  /// Pivot column of row `i`; always < pivot_cols().
  std::size_t pivot(std::size_t i) const { return pivots_[i]; }

  /// Row whose pivot is `col`, or npos if that column has no pivot yet.
  std::size_t row_of_pivot(std::size_t col) const {
    for (std::size_t i = 0; i < pivots_.size(); ++i) {
      if (pivots_[i] == col) return i;
    }
    return npos;
  }

  /// The arena's next free row (length width(), 64-byte aligned): build the
  /// candidate row here, then call absorb(). Contents are unspecified until
  /// the caller fills them (they hold the residue of a previously rejected
  /// candidate).
  value_type* scratch_row() { return base_ + pivots_.size() * stride_; }

  // ncast:hot-begin — per-packet elimination core; allocation-free by
  // contract (PR 2), enforced statically by ncast_lint and at runtime by
  // tests/test_codec_alloc.cpp.

  /// Eliminates the stored rows from `r` (length width()) in place. After the
  /// call, r[pivot(i)] == 0 for every stored row i.
  void reduce(value_type* r) const {
    for (std::size_t i = 0; i < pivots_.size(); ++i) {
      const std::size_t p = pivots_[i];
      const value_type f = r[p];
      if (f != value_type{0}) {
        const std::size_t a = aligned_start(p);
        Field::region_madd(r + a, row(i) + a, f, width_ - a);
      }
    }
  }

  /// Reduces the scratch row against the basis; if a remainder survives in
  /// the pivot columns, normalizes it, back-substitutes into the stored rows,
  /// and adopts it as basis row rank() (in place — the scratch row IS the
  /// arena slot). Returns whether the row was innovative. Performs no heap
  /// allocation.
  bool absorb() {
    value_type* r = scratch_row();
    reduce(r);
    std::size_t p = 0;
    while (p < pivot_cols_ && r[p] == value_type{0}) ++p;
    if (p == pivot_cols_) return false;  // dependent

    // r is zero left of p, so the aligned start-down below is a no-op on the
    // extra leading symbols for the mul and the madds alike.
    const std::size_t a = aligned_start(p);
    const value_type lead = r[p];
    if (lead != value_type{1}) {
      Field::region_mul(r + a, Field::inv(lead), width_ - a);
    }
    for (std::size_t i = 0; i < pivots_.size(); ++i) {
      value_type* ri = base_ + i * stride_;
      const value_type f = ri[p];
      if (f != value_type{0}) {
        Field::region_madd(ri + a, r + a, f, width_ - a);
      }
    }
    pivots_.push_back(p);  // ncast:allow(hot_path.alloc): capacity reserved at construction (pivot_cols_ entries)
    return true;
  }

  // ncast:hot-end

 private:
  static constexpr std::size_t kAlignBytes = 64;
  static constexpr std::size_t kAlign = kAlignBytes / sizeof(value_type);

  static std::size_t aligned_start(std::size_t p) { return p & ~(kAlign - 1); }

  void swap(ReducedBasis& other) {
    std::swap(width_, other.width_);
    std::swap(pivot_cols_, other.pivot_cols_);
    std::swap(stride_, other.stride_);
    arena_.swap(other.arena_);
    std::swap(base_, other.base_);
    pivots_.swap(other.pivots_);
  }

  std::size_t width_;
  std::size_t pivot_cols_;
  std::size_t stride_;               // row stride, width_ rounded up to 64B
  std::vector<value_type> arena_;    // pivot_cols_ + 1 rows (last = scratch)
  value_type* base_;                 // 64B-aligned first row, into arena_
  std::vector<std::size_t> pivots_;  // pivots_[i] = pivot column of row i
};

}  // namespace ncast::linalg
