// The event space Omega (Sec 2): a multi-dimensional space with one
// dimension per attribute; events are points, subscriptions and
// advertisements are axis-aligned rectangles (one range per attribute).
// EventSpace performs the spatial indexing: dimension-interleaved recursive
// bisection mapping points to dz-expressions and rectangles to DZ sets.
// Indexing can be restricted to a subset of dimensions Omega_P (Sec 5,
// dimension selection); constraints on unindexed dimensions then surface as
// false positives, exactly as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dz/dz_set.hpp"

namespace pleroma::dz {

using AttributeValue = std::uint32_t;

/// An event: one value per attribute of the schema.
using Event = std::vector<AttributeValue>;

/// Inclusive range of one attribute.
struct Range {
  AttributeValue lo = 0;
  AttributeValue hi = 0;

  bool contains(AttributeValue v) const noexcept { return lo <= v && v <= hi; }
  bool intersects(const Range& o) const noexcept { return lo <= o.hi && o.lo <= hi; }
  bool containsRange(const Range& o) const noexcept { return lo <= o.lo && o.hi <= hi; }
  friend bool operator==(const Range&, const Range&) = default;
};

/// Axis-aligned rectangle over the full schema: one inclusive range per
/// attribute. This is the *exact* semantics of a subscription or
/// advertisement, against which false positives are measured.
struct Rectangle {
  std::vector<Range> ranges;

  bool contains(const Event& e) const noexcept;
  bool intersects(const Rectangle& o) const noexcept;
  friend bool operator==(const Rectangle&, const Rectangle&) = default;
};

/// Parameters and operations of the spatial index.
class EventSpace {
 public:
  /// `numAttributes` dimensions, each with domain [0, 2^bitsPerDim - 1]
  /// (the paper uses up to 10 attributes with domain [0, 1023], i.e. 10
  /// bits). Initially all dimensions are indexed.
  EventSpace(int numAttributes, int bitsPerDim = 10);

  int numAttributes() const noexcept { return numAttributes_; }
  int bitsPerDim() const noexcept { return bitsPerDim_; }
  AttributeValue domainMax() const noexcept {
    return (AttributeValue{1} << bitsPerDim_) - 1;
  }

  /// Restricts indexing to the given dimensions (Omega_P), in the given
  /// interleaving order. Must be a non-empty subset of [0, numAttributes).
  void setIndexedDimensions(std::vector<int> dims);
  const std::vector<int>& indexedDimensions() const noexcept { return indexed_; }

  /// Longest meaningful dz: every indexed dimension fully resolved, capped
  /// at kMaxDzLength.
  int maxDzLength() const noexcept;

  /// Maps a point to the dz of length `length` containing it.
  DzExpression eventToDz(const Event& e, int length) const;

  /// Maps a point to the dz of maximal length (what a publisher stamps into
  /// the packet header, Sec 2).
  DzExpression eventToDz(const Event& e) const { return eventToDz(e, maxDzLength()); }

  /// The cell (sub-rectangle of Omega) identified by a dz. Unindexed
  /// dimensions span their whole domain.
  Rectangle dzToCell(const DzExpression& d) const;

  /// Decomposes a rectangle into an enclosing DZ set with members of length
  /// <= maxLength and at most maxCells members. The result always covers the
  /// rectangle (no false negatives); coarser members introduce false
  /// positives. maxCells < 1 is treated as 1.
  DzSet rectangleToDz(const Rectangle& rect, int maxLength,
                      std::size_t maxCells = 16) const;

  /// Convenience: decomposition at the space's maximum dz length.
  DzSet rectangleToDz(const Rectangle& rect) const {
    return rectangleToDz(rect, maxDzLength());
  }

  /// A rectangle spanning the entire space.
  Rectangle wholeSpace() const;

 private:
  int numAttributes_;
  int bitsPerDim_;
  std::vector<int> indexed_;
};

}  // namespace pleroma::dz
