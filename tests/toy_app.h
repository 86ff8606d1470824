/**
 * @file
 * A synthetic PowerDial application with an exactly known response
 * model, shared by the core-library tests.
 *
 * One knob "k" with values {1, 2, 4, 8}: processing one unit costs
 * base_cycles / k cycles (speedup is exactly k) and the output
 * abstraction is the single component 100 * (1 - loss_rate * (k - 1)),
 * so the QoS loss of setting k is exactly loss_rate * (k - 1).
 */
#ifndef POWERDIAL_TESTS_TOY_APP_H
#define POWERDIAL_TESTS_TOY_APP_H

#include <numeric>

#include "core/app.h"

namespace powerdial::tests {

class ToyApp : public core::App
{
  public:
    struct Config
    {
        std::vector<double> k_values{1.0, 2.0, 4.0, 8.0};
        double base_cycles = 1.2e6;
        double loss_rate = 0.01; //!< QoS loss per unit of (k - 1).
        std::size_t units = 200;
        std::size_t inputs = 4;
    };

    ToyApp() : ToyApp(Config{}) {}

    explicit ToyApp(const Config &config)
        : config_(config), space_({{"k", config.k_values}})
    {
    }

    std::string name() const override { return "toy"; }

    std::unique_ptr<core::App>
    clone() const override
    {
        return std::make_unique<ToyApp>(*this);
    }

    const core::KnobSpace &knobSpace() const override { return space_; }

    std::size_t defaultCombination() const override { return 0; }

    void
    configure(const std::vector<double> &params) override
    {
        k_ = params.at(0);
    }

    void
    traceRun(influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        influence::Value<double> k(params.at(0), influence::paramBit(0));
        trace.store("k", k * influence::Value<double>(1.0), "toy:init");
        trace.firstHeartbeat();
        trace.read("k", "toy:loop");
    }

    void
    bindControlVariables(core::KnobTable &table) override
    {
        table.bind({"k", [this](const std::vector<double> &v) {
                        k_ = v.at(0);
                    }});
    }

    std::size_t inputCount() const override { return config_.inputs; }

    std::vector<std::size_t>
    trainingInputs() const override
    {
        std::vector<std::size_t> idx(config_.inputs / 2);
        std::iota(idx.begin(), idx.end(), 0);
        return idx;
    }

    std::vector<std::size_t>
    productionInputs() const override
    {
        std::vector<std::size_t> idx(config_.inputs -
                                     config_.inputs / 2);
        std::iota(idx.begin(), idx.end(), config_.inputs / 2);
        return idx;
    }

    void
    loadInput(std::size_t index) override
    {
        (void)index;
        produced_ = 0.0;
        units_done_ = 0;
    }

    std::size_t unitCount() const override { return config_.units; }

    void
    processUnit(std::size_t unit, sim::Machine &machine) override
    {
        (void)unit;
        machine.execute(config_.base_cycles / k_);
        produced_ += 100.0 * (1.0 - config_.loss_rate * (k_ - 1.0));
        ++units_done_;
    }

    qos::OutputAbstraction
    output() const override
    {
        const double mean = units_done_ > 0
            ? produced_ / static_cast<double>(units_done_)
            : 0.0;
        return {{mean}, {}};
    }

    /** The current knob value (control variable), for assertions. */
    double k() const { return k_; }

  private:
    Config config_;
    core::KnobSpace space_;
    double k_ = 1.0;
    double produced_ = 0.0;
    std::size_t units_done_ = 0;
};

} // namespace powerdial::tests

#endif // POWERDIAL_TESTS_TOY_APP_H
