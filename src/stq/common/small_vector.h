// SmallVector<T, N>: a contiguous dynamic array with inline storage for
// the first N elements. The hot tick path is full of tiny vectors — a
// grid cell's id lists, an object's QList, an entity's shard list —
// whose common case is "a handful of elements"; keeping those inline
// removes one heap allocation (and one pointer chase) per container.
//
// Deliberately a subset of std::vector: push/emplace/pop at the back,
// positional insert/erase, clear/reserve/resize, iteration. Spills to the
// heap past N and never shrinks back inline (capacity is monotone until
// destruction), so pointers into the heap buffer stay valid across
// clear()/pop_back() — the scratch-reuse pattern the tick relies on.
//
// Thread-compatible: const member functions are pure reads.

#ifndef STQ_COMMON_SMALL_VECTOR_H_
#define STQ_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "stq/common/check.h"

namespace stq {

template <typename T, size_t N>
class SmallVector {
  static_assert(N >= 1, "inline capacity must be at least 1");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() : data_(inline_data()), size_(0), capacity_(N) {}

  SmallVector(std::initializer_list<T> init) : SmallVector() {
    reserve(init.size());
    for (const T& v : init) emplace_back(v);
  }

  SmallVector(const SmallVector& other) : SmallVector() {
    reserve(other.size_);
    for (size_t i = 0; i < other.size_; ++i) emplace_back(other.data_[i]);
  }

  SmallVector(SmallVector&& other) noexcept : SmallVector() {
    TakeFrom(std::move(other));
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (size_t i = 0; i < other.size_; ++i) emplace_back(other.data_[i]);
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    DestroyAll();
    TakeFrom(std::move(other));
    return *this;
  }

  ~SmallVector() { DestroyAll(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }

  T& operator[](size_t i) {
    STQ_DCHECK_LT(i, size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    STQ_DCHECK_LT(i, size_);
    return data_[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow(size_ + 1);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    STQ_DCHECK_GT(size_, 0u);
    --size_;
    data_[size_].~T();
  }

  // Inserts before `pos`; returns an iterator to the inserted element.
  iterator insert(const_iterator pos, const T& v) {
    const size_t idx = static_cast<size_t>(pos - data_);
    STQ_DCHECK_LE(idx, size_);
    if (size_ == capacity_) Grow(size_ + 1);
    // Shift [idx, size_) right by one (back-to-front).
    if (size_ > idx) {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (size_t i = size_ - 1; i > idx; --i) data_[i] = std::move(data_[i - 1]);
      data_[idx] = v;
    } else {
      ::new (static_cast<void*>(data_ + idx)) T(v);
    }
    ++size_;
    return data_ + idx;
  }

  // Erases the element at `pos`; returns an iterator to the next element.
  iterator erase(const_iterator pos) {
    const size_t idx = static_cast<size_t>(pos - data_);
    STQ_DCHECK_LT(idx, size_);
    for (size_t i = idx + 1; i < size_; ++i) data_[i - 1] = std::move(data_[i]);
    pop_back();
    return data_ + idx;
  }

  void clear() {
    for (size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void resize(size_t n) {
    if (n < size_) {
      while (size_ > n) pop_back();
    } else {
      reserve(n);
      while (size_ < n) emplace_back();
    }
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }
  bool is_inline() const {
    return data_ == reinterpret_cast<const T*>(inline_storage_);
  }

  void Grow(size_t min_capacity) {
    size_t next = capacity_ * 2;
    if (next < min_capacity) next = min_capacity;
    T* fresh = static_cast<T*>(::operator new(
        next * sizeof(T), std::align_val_t(alignof(T))));
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!is_inline()) {
      ::operator delete(static_cast<void*>(data_),
                        std::align_val_t(alignof(T)));
    }
    data_ = fresh;
    capacity_ = next;
  }

  void DestroyAll() {
    clear();
    if (!is_inline()) {
      ::operator delete(static_cast<void*>(data_),
                        std::align_val_t(alignof(T)));
      data_ = inline_data();
      capacity_ = N;
    }
  }

  // Steals `other`'s heap buffer when it has one; element-moves out of its
  // inline buffer otherwise. Leaves `other` empty and inline either way.
  // Precondition: *this holds no live elements and no heap buffer.
  void TakeFrom(SmallVector&& other) noexcept {
    if (other.is_inline()) {
      data_ = inline_data();
      capacity_ = N;
      size_ = 0;
      for (size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  T* data_;
  size_t size_;
  size_t capacity_;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace stq

#endif  // STQ_COMMON_SMALL_VECTOR_H_
