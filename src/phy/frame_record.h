#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "phy/frame.h"

namespace ezflow::phy {

class FramePool;
class NodePhy;

/// One transmission's immutable on-air frame plus the receivers whose
/// signal ends it owes. Allocated once per Channel::transmit and shared —
/// via FrameRef handles small enough for the scheduler's inline event
/// buffer — by the transmission's end events:
/// usually one, which runs every receiver's signal end in reach order and
/// then the sender's tx-end, so the fan-out copies pointers instead of
/// Frame+Packet payloads and schedules one event instead of one per
/// receiver. Records are recycled through the owning FramePool when the
/// last handle releases; the receiver list keeps its capacity, so steady
/// state allocates nothing. A data frame's MPDU list lives inside the
/// pooled Frame, so a whole A-MPDU batch still costs one record per
/// transmission — the single-copy pipeline is per PPDU, not per MSDU.
class FrameRecord {
public:
    const Frame& frame() const { return frame_; }

private:
    friend class FramePool;
    friend class FrameRef;

    Frame frame_{};
    /// Receivers in reach order, the end events' batches separated by
    /// nullptr. Owned here rather than pointing into the channel's reach
    /// sets, which a detach clears while signal ends are in flight.
    std::vector<NodePhy*> receivers_;
    std::uint32_t refs_ = 0;
    /// Owning pool, or nullptr when the pool was destroyed first (the
    /// scheduler can outlive the channel with signal-end events still
    /// pending); an orphaned record self-deletes at the last release.
    FramePool* pool_ = nullptr;
};

/// Shared-ownership handle to a FrameRecord. Pointer-sized, non-atomic
/// (each Network is single-threaded; sweeps give every seed its own
/// channel and pool).
class FrameRef {
public:
    FrameRef() = default;
    FrameRef(const FrameRef& other) noexcept : record_(other.record_) { acquire(); }
    FrameRef(FrameRef&& other) noexcept : record_(other.record_) { other.record_ = nullptr; }
    FrameRef& operator=(const FrameRef& other) noexcept
    {
        if (this != &other) {
            release();
            record_ = other.record_;
            acquire();
        }
        return *this;
    }
    FrameRef& operator=(FrameRef&& other) noexcept
    {
        if (this != &other) {
            release();
            record_ = other.record_;
            other.record_ = nullptr;
        }
        return *this;
    }
    ~FrameRef() noexcept { release(); }

    explicit operator bool() const { return record_ != nullptr; }
    const Frame& operator*() const { return record_->frame_; }
    const Frame* operator->() const { return &record_->frame_; }
    /// The record's receiver list: the channel appends to it while the
    /// transmission's signal starts run; the end events only read it.
    std::vector<NodePhy*>& receivers() const { return record_->receivers_; }

private:
    friend class FramePool;
    explicit FrameRef(FrameRecord* record) : record_(record) { acquire(); }

    void acquire()
    {
        if (record_ != nullptr) ++record_->refs_;
    }
    inline void release();

    FrameRecord* record_ = nullptr;
};

/// Free-list pool of FrameRecords. Steady state performs no heap
/// allocation per transmission: the pool grows to the peak number of
/// concurrently in-flight signals (a handful) and recycles from there.
class FramePool {
public:
    FramePool() = default;
    FramePool(const FramePool&) = delete;
    FramePool& operator=(const FramePool&) = delete;

    ~FramePool()
    {
        for (FrameRecord* record : all_) {
            if (record->refs_ == 0) {
                delete record;
            } else {
                // Still referenced by pending scheduler events (mid-flight
                // signal ends): orphan it; the last FrameRef deletes it.
                record->pool_ = nullptr;
            }
        }
    }

    /// Acquire a record holding `frame`. Recycles a free record when one
    /// exists; allocates (and registers) a new one otherwise.
    FrameRef make(Frame&& frame)
    {
        FrameRecord* record;
        if (!free_.empty()) {
            record = free_.back();
            free_.pop_back();
            ++reused_;
        } else {
            record = new FrameRecord();
            record->pool_ = this;
            all_.push_back(record);
            ++created_;
        }
        record->frame_ = std::move(frame);
        record->receivers_.clear();
        return FrameRef(record);
    }

    // --- statistics (tests and benchmarks) ---
    /// Records ever heap-allocated (== peak concurrent transmissions).
    std::uint64_t created() const { return created_; }
    /// make() calls served from the free list.
    std::uint64_t reused() const { return reused_; }
    /// Records currently referenced by at least one handle.
    std::size_t live() const { return all_.size() - free_.size(); }

private:
    friend class FrameRef;

    void recycle(FrameRecord* record) { free_.push_back(record); }

    std::vector<FrameRecord*> all_;   ///< every record this pool created
    std::vector<FrameRecord*> free_;  ///< refs_ == 0, ready for reuse
    std::uint64_t created_ = 0;
    std::uint64_t reused_ = 0;
};

inline void FrameRef::release()
{
    if (record_ == nullptr) return;
    if (--record_->refs_ == 0) {
        if (record_->pool_ != nullptr)
            record_->pool_->recycle(record_);
        else
            delete record_;
    }
    record_ = nullptr;
}

}  // namespace ezflow::phy
