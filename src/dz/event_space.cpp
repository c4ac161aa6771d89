#include "dz/event_space.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <numeric>

namespace pleroma::dz {

bool Rectangle::contains(const Event& e) const noexcept {
  if (e.size() != ranges.size()) return false;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (!ranges[i].contains(e[i])) return false;
  }
  return true;
}

bool Rectangle::intersects(const Rectangle& o) const noexcept {
  if (o.ranges.size() != ranges.size()) return false;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (!ranges[i].intersects(o.ranges[i])) return false;
  }
  return true;
}

EventSpace::EventSpace(int numAttributes, int bitsPerDim)
    : numAttributes_(numAttributes), bitsPerDim_(bitsPerDim) {
  assert(numAttributes >= 1);
  assert(bitsPerDim >= 1 && bitsPerDim <= 20);
  indexed_.resize(static_cast<std::size_t>(numAttributes));
  std::iota(indexed_.begin(), indexed_.end(), 0);
}

void EventSpace::setIndexedDimensions(std::vector<int> dims) {
  assert(!dims.empty());
  for ([[maybe_unused]] int d : dims) assert(d >= 0 && d < numAttributes_);
  indexed_ = std::move(dims);
}

int EventSpace::maxDzLength() const noexcept {
  const int full = static_cast<int>(indexed_.size()) * bitsPerDim_;
  return std::min(full, kMaxDzLength);
}

DzExpression EventSpace::eventToDz(const Event& e, int length) const {
  assert(e.size() == static_cast<std::size_t>(numAttributes_));
  assert(length >= 0 && length <= maxDzLength());
  const int m = static_cast<int>(indexed_.size());
  U128 bits{};
  for (int i = 0; i < length; ++i) {
    const int dim = indexed_[static_cast<std::size_t>(i % m)];
    const int level = i / m;
    const bool bit =
        ((e[static_cast<std::size_t>(dim)] >> (bitsPerDim_ - 1 - level)) & 1U) != 0;
    bits.setBitFromMsb(i, bit);
  }
  return DzExpression(bits, length);
}

Rectangle EventSpace::dzToCell(const DzExpression& d) const {
  Rectangle cell = wholeSpace();
  const int m = static_cast<int>(indexed_.size());
  for (int i = 0; i < d.length(); ++i) {
    const int dim = indexed_[static_cast<std::size_t>(i % m)];
    Range& r = cell.ranges[static_cast<std::size_t>(dim)];
    const AttributeValue mid = r.lo + (r.hi - r.lo) / 2;
    if (d.bit(i)) {
      r.lo = mid + 1;
    } else {
      r.hi = mid;
    }
  }
  return cell;
}

namespace {

/// Ranges of the current trie cell over the *indexed* dimensions only.
struct IndexedCell {
  std::vector<Range> ranges;  // parallel to EventSpace::indexedDimensions()
};

enum class CellFit { kInside, kDisjoint, kPartial };

CellFit classify(const IndexedCell& cell, const std::vector<Range>& target) {
  bool inside = true;
  for (std::size_t i = 0; i < cell.ranges.size(); ++i) {
    if (!cell.ranges[i].intersects(target[i])) return CellFit::kDisjoint;
    if (!target[i].containsRange(cell.ranges[i])) inside = false;
  }
  return inside ? CellFit::kInside : CellFit::kPartial;
}

}  // namespace

DzSet EventSpace::rectangleToDz(const Rectangle& rect, int maxLength,
                                std::size_t maxCells) const {
  assert(rect.ranges.size() == static_cast<std::size_t>(numAttributes_));
  assert(maxLength >= 0 && maxLength <= maxDzLength());
  if (maxCells < 1) maxCells = 1;

  // Project the target rectangle onto the indexed dimensions; constraints on
  // unindexed dimensions cannot be expressed in the dz and are dropped
  // (over-approximation -> false positives only).
  std::vector<Range> target;
  target.reserve(indexed_.size());
  for (int dim : indexed_) target.push_back(rect.ranges[static_cast<std::size_t>(dim)]);

  const int m = static_cast<int>(indexed_.size());

  // Level-order (BFS) refinement: partially covered cells are refined
  // coarsest-first, so the cell budget is spent evenly along the whole
  // rectangle boundary instead of drilling into one corner. Refining one
  // cell grows the eventual output by at most one, so stopping once
  // |emitted| + |frontier| reaches the budget keeps the result within
  // maxCells while remaining an enclosing approximation (coarse partial
  // cells are emitted as-is — false positives only, never negatives).
  std::vector<DzExpression> emitted;
  struct Pending {
    DzExpression d;
    IndexedCell cell;
  };
  std::deque<Pending> frontier;

  IndexedCell whole;
  whole.ranges.assign(indexed_.size(), Range{0, domainMax()});
  switch (classify(whole, target)) {
    case CellFit::kDisjoint:
      return {};
    case CellFit::kInside:
      return DzSet{DzExpression{}};
    case CellFit::kPartial:
      frontier.push_back(Pending{DzExpression{}, std::move(whole)});
      break;
  }

  while (!frontier.empty()) {
    if (emitted.size() + frontier.size() >= maxCells ||
        frontier.front().d.length() >= maxLength) {
      emitted.push_back(frontier.front().d);
      frontier.pop_front();
      continue;
    }
    Pending cur = std::move(frontier.front());
    frontier.pop_front();
    const int axis = cur.d.length() % m;
    const Range parent = cur.cell.ranges[static_cast<std::size_t>(axis)];
    const AttributeValue mid = parent.lo + (parent.hi - parent.lo) / 2;
    for (const bool bit : {false, true}) {
      Pending child{cur.d.child(bit), cur.cell};
      child.cell.ranges[static_cast<std::size_t>(axis)] =
          bit ? Range{mid + 1, parent.hi} : Range{parent.lo, mid};
      switch (classify(child.cell, target)) {
        case CellFit::kDisjoint:
          break;
        case CellFit::kInside:
          emitted.push_back(child.d);
          break;
        case CellFit::kPartial:
          frontier.push_back(std::move(child));
          break;
      }
    }
  }

  DzSet out;
  for (const DzExpression& d : emitted) out.insert(d);
  return out;
}

Rectangle EventSpace::wholeSpace() const {
  Rectangle r;
  r.ranges.assign(static_cast<std::size_t>(numAttributes_), Range{0, domainMax()});
  return r;
}

}  // namespace pleroma::dz
