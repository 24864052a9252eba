#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace ezflow::phy {

/// Flat open-addressing hash table keyed by a directed link (tx, rx).
///
/// The per-signal hot path of the Channel consults per-link state (loss
/// probabilities, rate tables) once per reachable
/// receiver per transmission. A std::map there costs an ordered-tree
/// walk with a pair comparator per lookup; this table packs the link
/// into one 64-bit key, hashes it with a SplitMix64 finalizer and probes
/// linearly through a power-of-two slot array — no allocation on lookup,
/// one cache line for the common hit/miss. Slots are never erased
/// (entries are set, then live for the run), which keeps probing
/// tombstone-free. bench/micro_phy.cpp measures the lookup rate of a
/// populated table.
template <typename T>
class LinkTable {
public:
    LinkTable() = default;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /// Pointer to the value for tx -> rx, or nullptr when absent.
    T* find(net::NodeId tx, net::NodeId rx)
    {
        if (size_ == 0) return nullptr;
        const std::uint64_t key = link_key(tx, rx);
        for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
            Slot& slot = slots_[i];
            if (!slot.used) return nullptr;
            if (slot.key == key) return &slot.value;
        }
    }
    const T* find(net::NodeId tx, net::NodeId rx) const
    {
        return const_cast<LinkTable*>(this)->find(tx, rx);
    }

    /// Insert or overwrite the value for tx -> rx; returns a reference to
    /// the stored value.
    T& insert_or_assign(net::NodeId tx, net::NodeId rx, T value)
    {
        if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
        const std::uint64_t key = link_key(tx, rx);
        for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
            Slot& slot = slots_[i];
            if (!slot.used) {
                slot.used = true;
                slot.key = key;
                slot.value = std::move(value);
                ++size_;
                return slot.value;
            }
            if (slot.key == key) {
                slot.value = std::move(value);
                return slot.value;
            }
        }
    }

    /// Visit every (key, value) pair, in unspecified order.
    template <typename Fn>
    void for_each(Fn&& fn)
    {
        for (Slot& slot : slots_)
            if (slot.used) fn(tx_of(slot.key), rx_of(slot.key), slot.value);
    }

    static std::uint64_t link_key(net::NodeId tx, net::NodeId rx)
    {
        if (tx < 0 || rx < 0) throw std::invalid_argument("LinkTable: negative node id");
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx)) << 32) |
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(rx));
    }
    static net::NodeId tx_of(std::uint64_t key) { return static_cast<net::NodeId>(key >> 32); }
    static net::NodeId rx_of(std::uint64_t key)
    {
        return static_cast<net::NodeId>(key & 0xFFFFFFFFULL);
    }

private:
    struct Slot {
        std::uint64_t key = 0;
        T value{};
        bool used = false;
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t index_of(std::uint64_t key) const
    {
        // SplitMix64 finalizer: full-avalanche, so linear probing sees a
        // uniform spread even for dense sequential node ids.
        std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        h ^= h >> 31;
        return static_cast<std::size_t>(h) & mask();
    }

    void grow()
    {
        std::vector<Slot> old = std::move(slots_);
        std::vector<Slot> fresh(old.empty() ? 16 : old.size() * 2);
        slots_.swap(fresh);
        size_ = 0;
        for (Slot& slot : old) {
            if (!slot.used) continue;
            const std::uint64_t key = slot.key;
            for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
                if (slots_[i].used) continue;
                slots_[i].used = true;
                slots_[i].key = key;
                slots_[i].value = std::move(slot.value);
                ++size_;
                break;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

}  // namespace ezflow::phy
