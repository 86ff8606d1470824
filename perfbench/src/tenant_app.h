/**
 * @file
 * The fleet workloads' tenant: a synthetic PowerDial application with
 * an exactly known response and tiny per-beat host cost, so the fleet
 * workloads measure the serving stack (admission, placement,
 * arbitration, tenant stepping) rather than an application kernel.
 *
 * One knob k in {1, 2, 3, 4}: a beat costs kBaseCycles / k virtual
 * cycles (speedup exactly k) and loses 1% output quality per unit of
 * k - 1. Unlike a fixed-size job, every input has its own length in
 * beats, drawn by the benchmark from its seed, so job sizes vary the
 * way tenant requests do.
 */
#ifndef POWERDIAL_PERFBENCH_TENANT_APP_H
#define POWERDIAL_PERFBENCH_TENANT_APP_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/app.h"
#include "sim/machine.h"

namespace perfbench {

class TenantApp final : public powerdial::core::App
{
  public:
    /** @param units Beats per input; inputs 0 and 1 are training. */
    explicit TenantApp(std::vector<std::size_t> units)
        : space_({{"k", {1.0, 2.0, 3.0, 4.0}}}), units_(std::move(units))
    {
    }

    std::string name() const override { return "tenant"; }

    std::unique_ptr<powerdial::core::App>
    clone() const override
    {
        return std::make_unique<TenantApp>(*this);
    }

    const powerdial::core::KnobSpace &
    knobSpace() const override
    {
        return space_;
    }

    std::size_t defaultCombination() const override { return 0; }

    void
    configure(const std::vector<double> &params) override
    {
        k_ = params.at(0);
    }

    void
    traceRun(powerdial::influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        using powerdial::influence::Value;
        Value<double> k(params.at(0), powerdial::influence::paramBit(0));
        trace.store("k", k * Value<double>(1.0), "tenant:init");
        trace.firstHeartbeat();
        trace.read("k", "tenant:loop");
    }

    void
    bindControlVariables(powerdial::core::KnobTable &table) override
    {
        table.bind({"k", [this](const std::vector<double> &v) {
                        k_ = v.at(0);
                    }});
    }

    std::size_t inputCount() const override { return units_.size(); }

    std::vector<std::size_t>
    trainingInputs() const override
    {
        return {0, 1};
    }

    std::vector<std::size_t>
    productionInputs() const override
    {
        std::vector<std::size_t> inputs;
        for (std::size_t i = 2; i < units_.size(); ++i)
            inputs.push_back(i);
        return inputs;
    }

    void
    loadInput(std::size_t index) override
    {
        input_ = index;
        produced_ = 0.0;
        done_ = 0;
    }

    std::size_t unitCount() const override { return units_.at(input_); }

    void
    processUnit(std::size_t unit, powerdial::sim::Machine &machine) override
    {
        (void)unit;
        machine.execute(kBaseCycles / k_);
        produced_ += 100.0 * (1.0 - 0.01 * (k_ - 1.0));
        ++done_;
    }

    powerdial::qos::OutputAbstraction
    output() const override
    {
        const double mean =
            done_ > 0 ? produced_ / static_cast<double>(done_) : 0.0;
        return {{mean}, {}};
    }

    static constexpr double kBaseCycles = 6.0e5;

  private:
    powerdial::core::KnobSpace space_;
    std::vector<std::size_t> units_;
    std::size_t input_ = 0;
    double k_ = 1.0;
    double produced_ = 0.0;
    std::size_t done_ = 0;
};

} // namespace perfbench

#endif // POWERDIAL_PERFBENCH_TENANT_APP_H
