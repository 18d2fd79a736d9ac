// 4-ary min-heap shared by the simulator's event queue and PriorityQueue.
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

/// `Before(a, b)` is true when `a` must pop before `b`. When it is a strict
/// total order on the stored elements, the pop sequence is fully determined
/// by it (the same as any other correct priority queue's).
template <typename T, typename Before>
class QuadHeap {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const T& top() const { return v_.front(); }

  void push(T value) {
    std::size_t i = v_.size();
    v_.push_back(std::move(value));
    if (i == 0) return;
    T x = std::move(v_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before_(x, v_[parent])) break;
      v_[i] = std::move(v_[parent]);
      i = parent;
    }
    v_[i] = std::move(x);
  }

  T pop() {
    T top = std::move(v_.front());
    T last = std::move(v_.back());
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before_(v_[c], v_[best])) best = c;
      }
      if (!before_(v_[best], last)) break;
      v_[i] = std::move(v_[best]);
      i = best;
    }
    v_[i] = std::move(last);
    return top;
  }

 private:
  std::vector<T> v_;
  [[no_unique_address]] Before before_;
};

}  // namespace p3::sim::detail
