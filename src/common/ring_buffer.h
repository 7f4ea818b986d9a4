// Fixed-capacity ring buffer used for sliding-window computations
// (IOB history, LBGI/HBGI windows, LSTM input windows).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace aps {

/// FIFO with bounded capacity; pushing beyond capacity drops the oldest
/// element. Index 0 is the oldest retained element.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity_ > 0);
    data_.reserve(capacity_);
  }

  void push(const T& value) {
    if (data_.size() < capacity_) {
      data_.push_back(value);
    } else {
      data_[head_] = value;
      head_ = (head_ + 1) % capacity_;
    }
  }

  /// push() for callers that overwrite the element in place: returns a
  /// default-constructed new element while filling, then the oldest
  /// element itself (now the newest), so an element that owns storage is
  /// reused instead of copied.
  [[nodiscard]] T& push_slot() {
    if (data_.size() < capacity_) return data_.emplace_back();
    T& slot = data_[head_];
    head_ = (head_ + 1) % capacity_;
    return slot;
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] bool full() const { return data_.size() == capacity_; }

  /// i = 0 is the oldest element, i = size()-1 the newest.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[(head_ + i) % data_.size()];
  }

  [[nodiscard]] const T& back() const { return (*this)[size() - 1]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }

  void clear() {
    data_.clear();
    head_ = 0;
  }

  /// Copy out in oldest-to-newest order.
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<T> data_;
};

}  // namespace aps
