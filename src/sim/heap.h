// 4-ary min-heap shared by the simulator's event and timer queues and
// PriorityQueue.
//
// Half the depth of a binary heap, and the four children of a node sit next
// to each other in memory. Sifts move a "hole" instead of swapping, so each
// level costs one element move, and pop() moves the top element out rather
// than copying it (move-only payloads work).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace p3::sim::detail {

/// Default `Placed` hook: the heap does not report element positions.
struct Untracked {
  template <typename T>
  void operator()(const T&, std::size_t) const noexcept {}
};

/// `Before(a, b)` is true when `a` must pop before `b`. When it is a strict
/// total order on the stored elements, the pop sequence is fully determined
/// by it (the same as any other correct priority queue's).
///
/// `Placed(elem, index)` is called whenever an element comes to rest at a
/// new index. An indexed heap records that index so erase() can remove the
/// element later in O(log n); the default hook compiles away.
template <typename T, typename Before, typename Placed = Untracked>
class QuadHeap {
 public:
  QuadHeap() = default;
  explicit QuadHeap(Placed placed) : placed_(std::move(placed)) {}

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const T& top() const { return v_.front(); }

  void push(T value) {
    const std::size_t i = v_.size();
    v_.push_back(std::move(value));
    sift_up(i, std::move(v_[i]));
  }

  T pop() { return erase(0); }

  /// Remove and return the element at `index` (as last reported to
  /// `Placed`).
  T erase(std::size_t index) {
    T out = std::move(v_[index]);
    T last = std::move(v_.back());
    v_.pop_back();
    if (index == v_.size()) return out;  // `last` was the removed element
    if (index > 0 && before_(last, v_[(index - 1) / 4])) {
      sift_up(index, std::move(last));
    } else {
      sift_down(index, std::move(last));
    }
    return out;
  }

 private:
  void place(std::size_t i, T&& x) {
    v_[i] = std::move(x);
    placed_(v_[i], i);
  }

  /// Seat `x` in the hole at `i`, moving ancestors down past it.
  void sift_up(std::size_t i, T x) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before_(x, v_[parent])) break;
      place(i, std::move(v_[parent]));
      i = parent;
    }
    place(i, std::move(x));
  }

  /// Seat `x` in the hole at `i`, moving the earliest child up past it.
  void sift_down(std::size_t i, T x) {
    const std::size_t n = v_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before_(v_[c], v_[best])) best = c;
      }
      if (!before_(v_[best], x)) break;
      place(i, std::move(v_[best]));
      i = best;
    }
    place(i, std::move(x));
  }

  std::vector<T> v_;
  [[no_unique_address]] Before before_;
  [[no_unique_address]] Placed placed_;
};

}  // namespace p3::sim::detail
