// Per-node duplicate filter of the reliable transport: the set of message
// ids a node has accepted at or above its dedup watermark.
//
// Message ids come densely from one cluster-wide counter and the watermark
// only rises, so the set is a bitmap over [base, base + 64 * words) with a
// 64-aligned base at or below the last floor. insert() is one bit test and
// set, drop_below() discards whole words from the front and masks the
// partial one, and size() is a running popcount. No operation scans the set.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace p3::ps {

class DedupWindow {
 public:
  /// Add `id`, which must be at or above the last drop_below() floor.
  /// Returns false if it was already present.
  bool insert(std::int64_t id) {
    if (id < base_) {
      throw std::invalid_argument("DedupWindow: id below the dropped floor");
    }
    const auto off = static_cast<std::uint64_t>(id - base_);
    const std::size_t w = head_ + static_cast<std::size_t>(off >> 6);
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (off & 63);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    ++size_;
    return true;
  }

  bool contains(std::int64_t id) const {
    if (id < base_) return false;
    const auto off = static_cast<std::uint64_t>(id - base_);
    const std::size_t w = head_ + static_cast<std::size_t>(off >> 6);
    return w < words_.size() && ((words_[w] >> (off & 63)) & 1) != 0;
  }

  /// Number of ids present.
  std::size_t size() const { return size_; }

  /// Remove every id below `floor`. A floor at or below an earlier one is a
  /// no-op.
  void drop_below(std::int64_t floor) {
    if (floor <= base_) return;
    const std::int64_t new_base = floor & ~std::int64_t{63};
    const auto whole = static_cast<std::size_t>((new_base - base_) >> 6);
    base_ = new_base;
    if (whole >= words_.size() - head_) {
      clear();
      return;
    }
    for (std::size_t i = head_; i < head_ + whole; ++i) {
      size_ -= static_cast<std::size_t>(std::popcount(words_[i]));
    }
    head_ += whole;
    const auto partial = static_cast<unsigned>(floor - new_base);
    if (partial > 0) {
      const std::uint64_t below = (std::uint64_t{1} << partial) - 1;
      size_ -= static_cast<std::size_t>(std::popcount(words_[head_] & below));
      words_[head_] &= ~below;
    }
    // Reclaim the dead front once it is most of the buffer: amortized O(1)
    // per dropped word.
    if (head_ >= 64 && 2 * head_ >= words_.size()) {
      words_.erase(words_.begin(),
                   words_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Forget every id. The floor stays: ids below it remain invalid inserts.
  void clear() {
    words_.clear();
    head_ = 0;
    size_ = 0;
  }

 private:
  std::int64_t base_ = 0;            ///< id of bit 0 of words_[head_]
  std::vector<std::uint64_t> words_;
  std::size_t head_ = 0;             ///< first live word
  std::size_t size_ = 0;
};

}  // namespace p3::ps
