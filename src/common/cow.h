#ifndef QATK_COMMON_COW_H_
#define QATK_COMMON_COW_H_

#include <atomic>
#include <memory>
#include <utility>

namespace qatk {

/// \brief Copy-on-write handle: copies of a CowPtr share one T, and write
/// access clones it first unless this handle is its only holder.
///
/// A snapshot copy is therefore one reference-count bump per handle, and
/// a writer pays for the pieces it changes, not for the whole structure.
/// A handle that is the sole holder mutates in place, so building a value
/// from scratch (a training pass) costs no clones at all.
///
/// Thread-safety: like a value. Concurrent reads through different
/// handles that share a T are fine; Mutable() needs exclusive access to
/// *this* handle. Other handles may be copied or destroyed concurrently:
/// a destroyed one can only lower the count, and the acquire fence orders
/// its holder's last reads before the in-place write.
template <typename T>
class CowPtr {
 public:
  CowPtr() : ptr_(std::make_shared<T>()) {}
  explicit CowPtr(T value) : ptr_(std::make_shared<T>(std::move(value))) {}

  const T& operator*() const { return *ptr_; }
  const T* operator->() const { return ptr_.get(); }
  const T* get() const { return ptr_.get(); }

  /// Write access, cloning the shared T first when another handle holds
  /// it.
  T& Mutable() {
    if (ptr_.use_count() == 1) {
#if !defined(__SANITIZE_THREAD__)  // TSan does not model fences.
      std::atomic_thread_fence(std::memory_order_acquire);
#endif
    } else {
      ptr_ = std::make_shared<T>(*ptr_);
    }
    return *ptr_;
  }

 private:
  std::shared_ptr<T> ptr_;
};

}  // namespace qatk

#endif  // QATK_COMMON_COW_H_
