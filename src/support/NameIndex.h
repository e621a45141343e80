// Hash index from names to the dense ids of a table that owns them
// (DESIGN.md §1): dsl::Sema resolves declarations through one, and
// ir::Program its tensors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

namespace cfd {

/// Open-addressed hash index (linear probing, at most half full) from
/// names to the ids 0..n-1 of a table the caller owns. The caller's
/// table also holds the names, so the index stores ids alone: it copies
/// as one vector and stays valid when the table's storage moves. Every
/// call takes `nameOf`, which maps an indexed id to its name.
class NameIndex {
public:
  /// The id named `name`, or -1.
  template <typename NameOf>
  int find(std::string_view name, const NameOf& nameOf) const {
    return slots_.empty() ? -1 : slots_[slotOf(name, nameOf)];
  }

  /// Indexes `id` under `name`, unless some id already has that name:
  /// then returns false and changes nothing.
  template <typename NameOf>
  bool insert(std::string_view name, int id, const NameOf& nameOf) {
    if (2 * (count_ + 1) > slots_.size())
      rehash(std::max<std::size_t>(16, 2 * slots_.size()), nameOf);
    int& slot = slots_[slotOf(name, nameOf)];
    if (slot != -1)
      return false;
    slot = id;
    ++count_;
    return true;
  }

  /// Indexes ids 0..count-1 afresh, for a table that dropped ids.
  template <typename NameOf>
  void reset(std::size_t count, const NameOf& nameOf) {
    slots_.clear();
    count_ = 0;
    for (std::size_t id = 0; id < count; ++id)
      insert(nameOf(static_cast<int>(id)), static_cast<int>(id), nameOf);
  }

private:
  /// The slot holding the id named `name`, or the empty slot where it
  /// would go.
  template <typename NameOf>
  std::size_t slotOf(std::string_view name, const NameOf& nameOf) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = std::hash<std::string_view>{}(name) & mask;
    while (slots_[slot] != -1 && nameOf(slots_[slot]) != name)
      slot = (slot + 1) & mask;
    return slot;
  }

  template <typename NameOf>
  void rehash(std::size_t size, const NameOf& nameOf) {
    std::vector<int> old(size, -1);
    old.swap(slots_);
    for (int id : old)
      if (id != -1)
        slots_[slotOf(nameOf(id), nameOf)] = id;
  }

  std::vector<int> slots_;
  std::size_t count_ = 0;
};

} // namespace cfd
