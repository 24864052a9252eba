#include "net/routing.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace ezflow::net {

void RoutingTable::validate(const std::vector<NodeId>& path)
{
    if (path.size() < 2) throw std::invalid_argument("RoutingTable: path too short");
    for (NodeId n : path)
        if (n < 0) throw std::invalid_argument("RoutingTable: negative node id");
    std::set<NodeId> seen(path.begin(), path.end());
    if (seen.size() != path.size())
        throw std::invalid_argument("RoutingTable: path revisits a node");
}

RoutingTable::Flow& RoutingTable::flow(int flow_id)
{
    const auto it = flows_.find(flow_id);
    if (it == flows_.end()) throw std::invalid_argument("RoutingTable: unknown flow");
    return it->second;
}

void RoutingTable::write_row(Flow& flow)
{
    const NodeId top = *std::max_element(flow.path.begin(), flow.path.end());
    if (flow.next.size() <= static_cast<std::size_t>(top))
        flow.next.resize(static_cast<std::size_t>(top) + 1, kNoNextHop);
    for (std::size_t i = 0; i + 1 < flow.path.size(); ++i)
        flow.next[static_cast<std::size_t>(flow.path[i])] = flow.path[i + 1];
}

void RoutingTable::clear_row(Flow& flow)
{
    // Only path nodes ever hold a next hop, so this resets the whole row
    // (write_row sized it to cover the path).
    for (NodeId n : flow.path) flow.next[static_cast<std::size_t>(n)] = kNoNextHop;
}

void RoutingTable::add_flow(int flow_id, std::vector<NodeId> path)
{
    validate(path);
    const auto [it, inserted] = flows_.try_emplace(flow_id);
    if (!inserted) throw std::invalid_argument("RoutingTable::add_flow: duplicate flow id");
    it->second.path = std::move(path);
    write_row(it->second);
}

void RoutingTable::update_flow(int flow_id, std::vector<NodeId> path)
{
    validate(path);
    Flow& f = flow(flow_id);
    clear_row(f);
    f.path = std::move(path);
    f.suspended = false;
    write_row(f);
}

void RoutingTable::suspend_flow(int flow_id)
{
    Flow& f = flow(flow_id);
    if (f.suspended) return;
    f.suspended = true;
    clear_row(f);
}

void RoutingTable::resume_flow(int flow_id)
{
    Flow& f = flow(flow_id);
    if (!f.suspended) return;
    f.suspended = false;
    write_row(f);
}

bool RoutingTable::is_suspended(int flow_id) const
{
    const auto it = flows_.find(flow_id);
    return it != flows_.end() && it->second.suspended;
}

const std::vector<NodeId>& RoutingTable::path(int flow_id) const
{
    const auto it = flows_.find(flow_id);
    if (it == flows_.end()) throw std::invalid_argument("RoutingTable: unknown flow");
    return it->second.path;
}

std::vector<int> RoutingTable::flow_ids() const
{
    std::vector<int> ids;
    ids.reserve(flows_.size());
    for (const auto& [id, _] : flows_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

}  // namespace ezflow::net
