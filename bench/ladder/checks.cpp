#include "checks.h"

#include <cstdio>
#include <stdexcept>

#include "analysis/drop_audit.h"

namespace ezflow::ladder {

std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        digest ^= (value >> (8 * byte)) & 0xffU;
        digest *= 0x100000001b3ULL;
    }
    return digest;
}

std::string digest_hex(std::uint64_t digest)
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
    return text;
}

std::uint64_t check_experiment(analysis::Experiment& experiment, std::vector<std::string>& failures)
{
    analysis::DropLedger ledger;
    try {
        ledger = analysis::audit_drop_accounting(experiment);
        if (ledger.skipped())
            failures.push_back("drop audit skipped (forward interceptor installed)");
    } catch (const std::logic_error& error) {
        failures.push_back(error.what());
    }

    std::uint64_t digest = kDigestSeed;
    const traffic::Sink& sink = experiment.sink();
    for (const net::FlowPlan& plan : experiment.scenario().flows) {
        const traffic::Sink::FlowRecord& record = sink.flow(plan.flow_id);
        if (record.packets == 0)
            failures.push_back("flow " + std::to_string(plan.flow_id) + " delivered no packet");
        digest = fold_digest(digest, static_cast<std::uint64_t>(plan.flow_id));
        digest = fold_digest(digest, record.packets);
        digest = fold_digest(digest, record.bytes);
    }

    net::Network& network = experiment.network();
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
        const mac::DcfMac& mac = network.node(id).mac();
        digest = fold_digest(digest, mac.data_attempts());
        digest = fold_digest(digest, mac.successes());
        digest = fold_digest(digest, mac.retransmissions());
        digest = fold_digest(digest, mac.retry_drops());
    }
    digest = fold_digest(digest, network.total_transmissions());
    digest = fold_digest(digest, network.total_data_transmissions());

    for (const std::uint64_t bucket :
         {ledger.generated, ledger.dropped_at_source, ledger.delivered, ledger.forward_queue_drops,
          ledger.retry_drops, ledger.drops_node_down, ledger.drops_unroutable, ledger.backlog})
        digest = fold_digest(digest, bucket);
    return digest;
}

}  // namespace ezflow::ladder
