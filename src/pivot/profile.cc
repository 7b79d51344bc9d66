#include "pivot/profile.h"

#include <algorithm>

#include "util/binomial.h"

namespace pivotscale {

void CliqueProfile::Grow(std::uint32_t rows) {
  rows_ = rows;
  cells_.resize(Cell(0, rows), 0);
}

void CliqueProfile::Merge(const CliqueProfile& other) {
  if (other.rows_ > rows_) Grow(other.rows_);
  for (std::size_t i = 0; i < other.cells_.size(); ++i)
    cells_[i] += other.cells_[i];
}

std::uint64_t CliqueProfile::Leaves(std::uint32_t r, std::uint32_t np) const {
  const std::uint32_t s = r + np;
  return s < rows_ ? cells_[Cell(r, s)] : 0;
}

BigCount CliqueProfile::CountK(std::uint32_t k) const {
  if (k == 0 || k >= rows_) return BigCount{};
  const BinomialTable binom(rows_);
  BigCount total{};
  for (std::uint32_t s = k; s < rows_; ++s)
    for (std::uint32_t r = 1; r <= k; ++r)
      if (const std::uint64_t leaves = cells_[Cell(r, s)])
        total += BigCount{SatMul(binom.Choose(s - r, k - r), leaves)};
  return total;
}

std::vector<BigCount> CliqueProfile::PerSize(std::uint32_t max_size) const {
  std::vector<BigCount> sizes(std::size_t{max_size} + 1, BigCount{});
  const BinomialTable binom(rows_);
  for (std::uint32_t s = 0; s < rows_; ++s)
    for (std::uint32_t r = 0; r <= std::min(s, max_size); ++r)
      if (const std::uint64_t leaves = cells_[Cell(r, s)])
        for (std::uint32_t size = r; size <= std::min(s, max_size); ++size)
          sizes[size] +=
              BigCount{SatMul(binom.Choose(s - r, size - r), leaves)};
  return sizes;
}

std::uint64_t CliqueProfile::TotalLeaves() const {
  std::uint64_t total = 0;
  for (const std::uint64_t leaves : cells_) total += leaves;
  return total;
}

}  // namespace pivotscale
