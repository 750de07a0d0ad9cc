// FingerprintLru: a bounded, recency-ordered map keyed by channel
// fingerprint, with O(1) lookup, touch and eviction.
//
// Both ends of a connection track channels by fingerprint: the server caches
// the channels a client shipped inline (IngressServer::Connection), the
// client remembers which channels it shipped (NetClient's elision key). Both
// sets are bounded by a capacity and forget the least recently used entry
// first, so an interleaved A,B,A,B stream keeps both channels while a stream
// of fresh channels cycles through a fixed amount of memory. Once full, an
// insert reuses the evicted entry's list node and hash node, so a steady
// stream of new fingerprints allocates nothing.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sd::net {

template <typename Value>
class FingerprintLru {
  using List = std::list<std::pair<std::uint64_t, Value>>;

 public:
  explicit FingerprintLru(usize capacity) : capacity_(capacity) {
    SD_CHECK(capacity >= 1, "a fingerprint cache needs room for one entry");
  }

  [[nodiscard]] usize size() const noexcept { return order_.size(); }
  [[nodiscard]] usize capacity() const noexcept { return capacity_; }

  /// The value cached under `fp`, marked most recently used; nullptr if
  /// absent.
  [[nodiscard]] Value* find(std::uint64_t fp) {
    const auto it = index_.find(fp);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.end(), order_, it->second);
    return &it->second->second;
  }

  /// Caches `value` under `fp` as the most recently used entry, replacing a
  /// cached value or, when full, evicting the least recently used entry.
  void put(std::uint64_t fp, Value value) {
    if (Value* cached = find(fp)) {
      *cached = std::move(value);
      return;
    }
    if (order_.size() < capacity_) {
      order_.emplace_back(fp, std::move(value));
      index_.emplace(fp, std::prev(order_.end()));
      return;
    }
    // Full: the coldest entry's nodes carry the new one.
    order_.splice(order_.end(), order_, order_.begin());
    auto& slot = order_.back();
    auto node = index_.extract(slot.first);
    slot = {fp, std::move(value)};
    node.key() = fp;
    index_.insert(std::move(node));
  }

 private:
  usize capacity_;
  List order_;  ///< front = least recently used
  std::unordered_map<std::uint64_t, typename List::iterator> index_;
};

}  // namespace sd::net
