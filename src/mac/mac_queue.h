#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mac/mac_params.h"
#include "net/packet.h"

namespace ezflow::mac {

/// Identifies one MAC interface queue. The paper requires a node to keep
/// one queue per successor, and nodes that are both source and relay to
/// keep the locally generated traffic separate from forwarded traffic so
/// that forwarded packets are never starved (Section 3.1).
struct QueueKey {
    net::NodeId next_hop = -1;
    bool own_traffic = false;

    bool operator==(const QueueKey& o) const
    {
        return next_hop == o.next_hop && own_traffic == o.own_traffic;
    }
    bool operator!=(const QueueKey& o) const { return !(*this == o); }
    bool operator<(const QueueKey& o) const
    {
        if (next_hop != o.next_hop) return next_hop < o.next_hop;
        return own_traffic < o.own_traffic;
    }
};

/// A party waiting for space in a full MacQueue. Backpressure-gated
/// traffic sources implement this instead of burning one scheduler event
/// per generated-and-dropped packet: the queue calls back at the first
/// pop after registration. Notification is two-phase so that several
/// waiters resuming at the same instant can be ordered exactly the way
/// their independent per-packet event chains would have interleaved.
class VacancyWaiter {
public:
    virtual ~VacancyWaiter() = default;

    /// Phase 1 — a slot just freed. Settle internal accounting and
    /// return the absolute time of the next pending emission, plus the
    /// time of the virtual event that would have scheduled it (the FIFO
    /// tie-break key of the per-packet reference). Return
    /// `resume_at < 0` to drop out (e.g. the source's active period
    /// ended).
    struct Resume {
        util::SimTime resume_at = -1;
        util::SimTime scheduled_from = -1;
    };
    virtual Resume vacancy_prepare() = 0;

    /// Phase 2 — schedule the resume event. Called in deterministic
    /// order: ascending (resume_at, scheduled_from, registration order).
    virtual void vacancy_commit() = 0;
};

/// One DropTail FIFO interface queue with its own CWmin — the single
/// IEEE 802.11 parameter EZ-Flow manipulates. Its packets sit in a ring
/// that grows by doubling up to the capacity, so a queue that never holds
/// a packet allocates nothing. front() is invalidated by a push.
class MacQueue {
public:
    MacQueue(QueueKey key, int capacity, int cw_min);

    const QueueKey& key() const { return key_; }

    /// Returns false (and counts a drop) when the queue is full.
    bool push(net::Packet packet);
    const net::Packet& front() const;
    void pop();

    /// Dequeue up to `max_count` packets (stopping before the packet that
    /// would push the cumulative payload past `max_bytes`; 0 = unlimited,
    /// and the first packet is always taken) into `out`. Counts each as
    /// dequeued but wakes vacancy waiters once, after the whole batch —
    /// the A-MPDU TXOP fill. Returns the number of packets taken.
    int pop_batch(int max_count, std::int64_t max_bytes, std::vector<net::Packet>& out);

    /// Register `waiter` for a one-shot callback at the next pop. A
    /// waiter may re-register from within its own commit. Registration
    /// order is preserved (it is the tie-break of last resort when two
    /// waiters resume at the same instant from the same virtual slot).
    void add_vacancy_waiter(VacancyWaiter* waiter);
    /// Drop a registration (waiter teardown). No-op when absent.
    void remove_vacancy_waiter(VacancyWaiter* waiter);
    std::size_t vacancy_waiters() const { return waiters_.size(); }

    /// Account `count` generations a gated source skipped in closed form
    /// while this queue was full: the per-packet reference would have
    /// pushed (and drop-counted) each of them individually.
    void count_gated_drops(std::uint64_t count) { dropped_full_ += count; }

    /// Node-death teardown: discard every queued packet into the
    /// `dropped_node_down` accounting bucket (NOT `dequeued` — these
    /// packets never reached the air) and wake any gated sources so they
    /// settle and move to the retry-with-backoff path instead of parking
    /// forever on a queue that will never pop again. Returns the number
    /// of packets flushed.
    std::uint64_t flush_node_down();

    int size() const { return size_; }
    bool empty() const { return size_ == 0; }
    int capacity() const { return capacity_; }

    int cw_min() const { return cw_min_; }
    void set_cw_min(int cw);

    // Statistics. Conservation: enqueued == dequeued + dropped_node_down
    // + size at all times (dropped_full counts packets never accepted).
    std::uint64_t enqueued() const { return enqueued_; }
    std::uint64_t dropped_full() const { return dropped_full_; }
    std::uint64_t dequeued() const { return dequeued_; }
    std::uint64_t dropped_node_down() const { return dropped_node_down_; }

private:
    /// Ring index of the slot `i` places behind the front (i <= slots).
    int slot(int i) const
    {
        const int at = head_ + i;
        const int slots = static_cast<int>(ring_.size());
        return at < slots ? at : at - slots;
    }
    /// Take the front packet off the ring.
    void drop_front();
    /// Double the ring (up to capacity_), unrolling it to start at slot 0.
    void grow();
    void notify_vacancy();

    struct PendingResume {
        VacancyWaiter* waiter;
        VacancyWaiter::Resume resume;
        std::size_t order;
    };

    QueueKey key_;
    int capacity_;
    int cw_min_;
    /// The FIFO: a ring of ring_.size() slots, size_ of them occupied from
    /// head_ on. A queue that never held a packet owns no slots.
    std::vector<net::Packet> ring_;
    int head_ = 0;
    int size_ = 0;
    std::vector<VacancyWaiter*> waiters_;    ///< one-shot, registration order
    std::vector<VacancyWaiter*> notifying_;  ///< scratch for notify_vacancy
    std::vector<PendingResume> pending_;     ///< scratch for notify_vacancy
    std::uint64_t enqueued_ = 0;
    std::uint64_t dropped_full_ = 0;
    std::uint64_t dequeued_ = 0;
    std::uint64_t dropped_node_down_ = 0;
};

/// The set of interface queues at one node, served round-robin so no
/// successor (and no traffic class) is starved by the MAC itself.
class MacQueueSet {
public:
    /// Get or create the queue for `key`; a new queue takes its capacity
    /// and initial CWmin from `params`.
    MacQueue& ensure(const QueueKey& key, const MacParams& params);
    /// Lookup; nullptr when absent.
    MacQueue* find(const QueueKey& key);
    const MacQueue* find(const QueueKey& key) const;

    /// Next non-empty queue in round-robin order, advancing the cursor.
    /// nullptr when all queues are empty.
    MacQueue* next_nonempty();

    int total_packets() const;
    /// True when no queue holds a packet; stops at the first that does.
    bool all_empty() const
    {
        return std::all_of(queues_.begin(), queues_.end(),
                           [](const std::unique_ptr<MacQueue>& queue) { return queue->empty(); });
    }

    /// Flush every queue into its `dropped_node_down` bucket (node
    /// teardown). Returns the total packets flushed.
    std::uint64_t flush_all_node_down();

    const std::vector<std::unique_ptr<MacQueue>>& queues() const { return queues_; }

private:
    std::vector<std::unique_ptr<MacQueue>> queues_;
    std::size_t rr_cursor_ = 0;
};

}  // namespace ezflow::mac
