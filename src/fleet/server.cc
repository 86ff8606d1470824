#include "fleet/server.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace powerdial::fleet {

Server::Server(const core::App &app, const core::KnobTable &table,
               const core::ResponseModel &model, ServerOptions options)
    : app_(&app), table_(&table), model_(&model),
      options_(std::move(options))
{
    if (options_.catalog.empty()) {
        if (options_.machines == 0)
            throw std::invalid_argument(
                "Server: need at least one machine");
        if (!options_.class_mix.empty())
            throw std::invalid_argument(
                "Server: class_mix needs a machine catalog");
    } else {
        if (options_.class_mix.size() != options_.catalog.size())
            throw std::invalid_argument(
                "Server: class_mix must be parallel to the catalog");
        std::size_t provisioned = 0;
        for (const std::size_t count : options_.class_mix)
            provisioned += count;
        if (provisioned == 0)
            throw std::invalid_argument(
                "Server: class_mix provisions no machines");
    }
    if (options_.tenants.empty())
        options_.tenants = app.productionInputs();
    if (options_.tenants.empty())
        throw std::invalid_argument("Server: no tenant inputs");
    for (const std::size_t input : options_.tenants)
        if (input >= app.inputCount())
            throw std::invalid_argument(
                "Server: tenant " + std::to_string(input) +
                " is not an input of the app");
    // serve() builds the arbiter and, without a catalog, every machine
    // from these options; build one of each now, so a bad term throws
    // here rather than mid-serve.
    try {
        const PowerArbiter arbiter(options_.arbiter);
        if (options_.catalog.empty()) {
            const sim::Machine machine(options_.machine);
        }
    } catch (const std::invalid_argument &error) {
        throw std::invalid_argument(std::string("Server: ") +
                                    error.what());
    }
    if (options_.event.sample_stride == 0)
        throw std::invalid_argument(
            "Server: event sample_stride must be >= 1");
    if (!std::isfinite(options_.epoch_seconds))
        throw std::invalid_argument(
            "Server: epoch_seconds must be finite");
}

FleetReport
Server::serve(const std::vector<std::size_t> &arrivals)
{
    // The legacy count-based schedule: every offered job is
    // metadata-free (round-robin tenant, class 0, no deadline), so
    // the serve below reproduces the historical behaviour exactly.
    std::vector<std::vector<workload::OfferedJob>> offers(
        arrivals.size());
    std::size_t next_offer = 0;
    for (std::size_t e = 0; e < arrivals.size(); ++e) {
        offers[e].assign(arrivals[e],
                         workload::OfferedJob{kRoundRobinTenant, 0, 0.0});
        for (workload::OfferedJob &job : offers[e])
            job.offer = next_offer++;
    }
    return serve(offers);
}

// The offers overload, the serve itself, is defined in event_engine.cc
// next to the per-serve state it runs.

} // namespace powerdial::fleet
