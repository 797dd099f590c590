#pragma once
/// \file tile.hpp
/// \brief The shape a tile entry runs over.
///
/// Every kernel has one entry point that takes base pointers and a Tile:
/// `nj` rows of `ni` elements, row j of each operand starting `j·stride`
/// elements after that operand's base pointer (one simulated rank's
/// species tile, ghosts included in the stride).  A row call is a tile
/// with nj = 1.

#include <cstddef>

namespace v2d::linalg {

struct Tile {
  std::size_t ni = 0;
  std::size_t nj = 1;
  std::ptrdiff_t stride = 0;

  /// One row of `n` elements.
  static constexpr Tile row(std::size_t n) { return {n, 1, 0}; }

  /// Element offset of row j from an operand's base pointer.
  constexpr std::ptrdiff_t offset(std::size_t j) const {
    return static_cast<std::ptrdiff_t>(j) * stride;
  }
};

}  // namespace v2d::linalg
