/**
 * @file
 * Calibration determinism across thread counts: calibrate(threads = N)
 * must be bit-identical to calibrate(threads = 1) for every
 * application. There is one sweep; the thread count only decides how
 * many workers (the caller on its own app, the rest on private clones)
 * claim the independent (combination, input) runs, each run is
 * deterministic, and the merge is fixed serial arithmetic in
 * combination-then-input order.
 *
 * The thread count under test comes from POWERDIAL_TEST_THREADS
 * (default 4); CI runs the suite with both =1 and =4, so =1 exercises
 * the unfanned dispatch (every job runs on the caller) and =4 the
 * fanned one.
 */
#include <cstdlib>
#include <stdexcept>

#include <gtest/gtest.h>

#include "apps/bodytrack/bodytrack_app.h"
#include "apps/searchx/searchx_app.h"
#include "apps/swaptions/swaptions_app.h"
#include "apps/videnc/videnc_app.h"
#include "core/calibration.h"
#include "sample_apps.h"
#include "toy_app.h"

namespace powerdial {
namespace {

/** Thread count for the parallel side (POWERDIAL_TEST_THREADS). */
std::size_t
testThreads()
{
    const char *env = std::getenv("POWERDIAL_TEST_THREADS");
    if (env != nullptr) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return 4;
}

core::CalibrationResult
calibrateWith(core::App &app, const std::vector<std::size_t> &inputs,
              std::size_t threads)
{
    core::CalibrationOptions options;
    options.threads = threads;
    return core::calibrate(app, inputs, options);
}

/**
 * Assert every number in @p parallel equals the one in @p serial.
 * EXPECT_EQ on doubles is exact equality — the bit-identity contract.
 */
void
expectIdentical(const core::CalibrationResult &serial,
                const core::CalibrationResult &parallel)
{
    EXPECT_EQ(serial.data.speedups, parallel.data.speedups);
    EXPECT_EQ(serial.data.qos_losses, parallel.data.qos_losses);

    const auto &sp = serial.model.allPoints();
    const auto &pp = parallel.model.allPoints();
    ASSERT_EQ(sp.size(), pp.size());
    for (std::size_t c = 0; c < sp.size(); ++c) {
        EXPECT_EQ(sp[c].combination, pp[c].combination);
        EXPECT_EQ(sp[c].speedup, pp[c].speedup);
        EXPECT_EQ(sp[c].qos_loss, pp[c].qos_loss);
    }
    ASSERT_EQ(serial.model.pareto().size(),
              parallel.model.pareto().size());
    EXPECT_EQ(serial.model.baselineCombination(),
              parallel.model.baselineCombination());
    EXPECT_EQ(serial.model.baselineSeconds(),
              parallel.model.baselineSeconds());
    EXPECT_EQ(serial.model.baselineRate(),
              parallel.model.baselineRate());
}

/** Parameterised over the four benchmark applications. */
class ParallelCalibration : public ::testing::TestWithParam<int>
{
};

TEST_P(ParallelCalibration, BitIdenticalToSerial)
{
    auto app = tests::makeSampleApp(GetParam());
    const auto inputs = app->trainingInputs();
    const auto serial = calibrateWith(*app, inputs, 1);
    const auto parallel = calibrateWith(*app, inputs, testThreads());
    expectIdentical(serial, parallel);
}

TEST_P(ParallelCalibration, HardwareConcurrencyMatchesSerial)
{
    // threads = 0 resolves to hardware concurrency.
    auto app = tests::makeSampleApp(GetParam());
    const auto inputs = app->trainingInputs();
    const auto serial = calibrateWith(*app, inputs, 1);
    const auto parallel = calibrateWith(*app, inputs, 0);
    expectIdentical(serial, parallel);
}

TEST_P(ParallelCalibration, SingleTrainingInput)
{
    auto app = tests::makeSampleApp(GetParam());
    const std::vector<std::size_t> one = {0};
    const auto serial = calibrateWith(*app, one, 1);
    const auto parallel = calibrateWith(*app, one, testThreads());
    expectIdentical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ParallelCalibration,
                         ::testing::Values(0, 1, 2, 3));

TEST(ParallelCalibrationEdge, MoreThreadsThanCombinations)
{
    // ToyApp has 4 combinations; 32 workers mostly idle, result is
    // still bit-identical.
    tests::ToyApp serial_app, parallel_app;
    const auto inputs = serial_app.trainingInputs();
    const auto serial = calibrateWith(serial_app, inputs, 1);
    const auto parallel = calibrateWith(parallel_app, inputs, 32);
    expectIdentical(serial, parallel);
}

TEST(ParallelCalibrationEdge, EmptyInputsThrowRegardlessOfThreads)
{
    tests::ToyApp app;
    core::CalibrationOptions options;
    options.threads = testThreads();
    EXPECT_THROW(core::calibrate(app, {}, options),
                 std::invalid_argument);
}

/** An app whose processUnit throws on one specific combination. */
class ThrowingApp final : public core::App
{
  public:
    explicit ThrowingApp(std::size_t bad_combination)
        : bad_(bad_combination)
    {
    }

    std::string name() const override { return "throwing"; }

    std::unique_ptr<core::App>
    clone() const override
    {
        return std::make_unique<ThrowingApp>(*this);
    }

    const core::KnobSpace &knobSpace() const override
    {
        return inner_.knobSpace();
    }
    std::size_t defaultCombination() const override { return 0; }

    void
    configure(const std::vector<double> &params) override
    {
        current_combination_ =
            inner_.knobSpace().findCombination(params);
        inner_.configure(params);
    }

    void
    traceRun(influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        inner_.traceRun(trace, params);
    }

    void
    bindControlVariables(core::KnobTable &table) override
    {
        inner_.bindControlVariables(table);
    }

    std::size_t inputCount() const override
    {
        return inner_.inputCount();
    }
    std::vector<std::size_t> trainingInputs() const override
    {
        return inner_.trainingInputs();
    }
    std::vector<std::size_t> productionInputs() const override
    {
        return inner_.productionInputs();
    }
    void loadInput(std::size_t index) override
    {
        inner_.loadInput(index);
    }
    std::size_t unitCount() const override
    {
        return inner_.unitCount();
    }

    void
    processUnit(std::size_t unit, sim::Machine &machine) override
    {
        if (current_combination_ == bad_)
            throw std::runtime_error("injected processUnit failure");
        inner_.processUnit(unit, machine);
    }

    qos::OutputAbstraction output() const override
    {
        return inner_.output();
    }

  private:
    tests::ToyApp inner_;
    std::size_t bad_;
    std::size_t current_combination_ = 0;
};

TEST(ParallelCalibrationEdge, ExceptionPropagatesAndPoolDrains)
{
    // A failure in any worker's processUnit must surface from
    // calibrate() (not deadlock, not terminate). The test finishing
    // at all is the no-hang assertion.
    ThrowingApp app(2);
    core::CalibrationOptions options;
    options.threads = testThreads();
    EXPECT_THROW(core::calibrate(app, app.trainingInputs(), options),
                 std::runtime_error);
    // The unfanned dispatch surfaces the same failure.
    options.threads = 1;
    EXPECT_THROW(core::calibrate(app, app.trainingInputs(), options),
                 std::runtime_error);
}

TEST(ParallelCalibrationEdge, BaselineFailurePropagates)
{
    // The baseline pass (combination 0 here) also fans out; a failure
    // there must surface too.
    ThrowingApp app(0);
    core::CalibrationOptions options;
    options.threads = testThreads();
    EXPECT_THROW(core::calibrate(app, app.trainingInputs(), options),
                 std::runtime_error);
}

} // namespace
} // namespace powerdial
