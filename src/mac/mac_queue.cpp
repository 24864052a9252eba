#include "mac/mac_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ezflow::mac {

MacQueue::MacQueue(QueueKey key, int capacity, int cw_min)
    : key_(key), capacity_(capacity), cw_min_(cw_min)
{
    if (capacity <= 0) throw std::invalid_argument("MacQueue: capacity must be > 0");
    if (cw_min <= 0) throw std::invalid_argument("MacQueue: cw_min must be > 0");
}

bool MacQueue::push(net::Packet packet)
{
    if (size_ >= capacity_) {
        ++dropped_full_;
        return false;
    }
    ++enqueued_;
    if (size_ == static_cast<int>(ring_.size())) grow();
    ring_[slot(size_)] = packet;
    ++size_;
    return true;
}

void MacQueue::grow()
{
    const int slots = std::min(capacity_, std::max(4, 2 * static_cast<int>(ring_.size())));
    std::vector<net::Packet> grown(slots);
    for (int i = 0; i < size_; ++i) grown[i] = ring_[slot(i)];
    ring_.swap(grown);
    head_ = 0;
}

const net::Packet& MacQueue::front() const
{
    if (size_ == 0) throw std::logic_error("MacQueue::front: empty");
    return ring_[head_];
}

void MacQueue::drop_front()
{
    head_ = slot(1);
    --size_;
    ++dequeued_;
}

void MacQueue::pop()
{
    if (size_ == 0) throw std::logic_error("MacQueue::pop: empty");
    drop_front();
    if (!waiters_.empty()) notify_vacancy();
}

int MacQueue::pop_batch(int max_count, std::int64_t max_bytes, std::vector<net::Packet>& out)
{
    int taken = 0;
    std::int64_t bytes = 0;
    while (taken < max_count && size_ > 0) {
        const std::int64_t next_bytes = bytes + ring_[head_].bytes;
        if (taken > 0 && max_bytes > 0 && next_bytes > max_bytes) break;
        bytes = next_bytes;
        out.push_back(ring_[head_]);
        drop_front();
        ++taken;
    }
    if (taken > 0 && !waiters_.empty()) notify_vacancy();
    return taken;
}

std::uint64_t MacQueue::flush_node_down()
{
    const auto count = static_cast<std::uint64_t>(size_);
    head_ = 0;
    size_ = 0;
    dropped_node_down_ += count;
    // Waiters only exist while the queue is full, so a non-empty flush is
    // the vacancy they were parked for. They settle their closed-form
    // accounting exactly as a pop-notification would, then re-emit into
    // the down node and land on the source's retry-with-backoff path.
    if (count > 0 && !waiters_.empty()) notify_vacancy();
    return count;
}

void MacQueue::add_vacancy_waiter(VacancyWaiter* waiter)
{
    if (waiter == nullptr) throw std::invalid_argument("MacQueue::add_vacancy_waiter: null");
    if (std::find(waiters_.begin(), waiters_.end(), waiter) != waiters_.end())
        throw std::logic_error("MacQueue::add_vacancy_waiter: already registered");
    waiters_.push_back(waiter);
}

void MacQueue::remove_vacancy_waiter(VacancyWaiter* waiter)
{
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), waiter), waiters_.end());
}

void MacQueue::notify_vacancy()
{
    // One-shot: detach the current registrations first so a waiter that
    // re-gates from within its commit registers for the NEXT pop. Both
    // scratch buffers are members so steady-state pops on a gated queue
    // stay allocation-free (this is the hot path the gate exists for).
    notifying_.clear();
    notifying_.swap(waiters_);  // waiters_ inherits the retained capacity

    // Phase 1: every waiter settles its closed-form accounting and
    // reports when (and from which virtual event) it would resume.
    pending_.clear();
    for (std::size_t i = 0; i < notifying_.size(); ++i) {
        const VacancyWaiter::Resume resume = notifying_[i]->vacancy_prepare();
        if (resume.resume_at >= 0) pending_.push_back(PendingResume{notifying_[i], resume, i});
    }

    // Phase 2: commit in the order the per-packet reference chains would
    // have fired — earlier resume instant first; at the same instant the
    // chain whose previous event ran earlier was scheduled earlier
    // (scheduler FIFO); equal on both means the chains last fired at the
    // same instant, where registration order IS their relative order.
    std::sort(pending_.begin(), pending_.end(), [](const PendingResume& a, const PendingResume& b) {
        if (a.resume.resume_at != b.resume.resume_at)
            return a.resume.resume_at < b.resume.resume_at;
        if (a.resume.scheduled_from != b.resume.scheduled_from)
            return a.resume.scheduled_from < b.resume.scheduled_from;
        return a.order < b.order;
    });
    for (const PendingResume& p : pending_) p.waiter->vacancy_commit();
}

void MacQueue::set_cw_min(int cw)
{
    if (cw <= 0) throw std::invalid_argument("MacQueue::set_cw_min: cw must be > 0");
    cw_min_ = cw;
}

MacQueue& MacQueueSet::ensure(const QueueKey& key, const MacParams& params)
{
    if (MacQueue* q = find(key)) return *q;
    queues_.push_back(std::make_unique<MacQueue>(key, params.queue_capacity, params.cw_min));
    return *queues_.back();
}

MacQueue* MacQueueSet::find(const QueueKey& key)
{
    for (auto& q : queues_)
        if (q->key() == key) return q.get();
    return nullptr;
}

const MacQueue* MacQueueSet::find(const QueueKey& key) const
{
    for (const auto& q : queues_)
        if (q->key() == key) return q.get();
    return nullptr;
}

MacQueue* MacQueueSet::next_nonempty()
{
    if (queues_.empty()) return nullptr;
    const std::size_t n = queues_.size();
    for (std::size_t i = 0; i < n; ++i) {
        MacQueue* q = queues_[(rr_cursor_ + i) % n].get();
        if (!q->empty()) {
            rr_cursor_ = (rr_cursor_ + i + 1) % n;
            return q;
        }
    }
    return nullptr;
}

int MacQueueSet::total_packets() const
{
    int total = 0;
    for (const auto& q : queues_) total += q->size();
    return total;
}

std::uint64_t MacQueueSet::flush_all_node_down()
{
    std::uint64_t total = 0;
    for (auto& q : queues_) total += q->flush_node_down();
    return total;
}

}  // namespace ezflow::mac
