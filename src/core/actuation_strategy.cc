#include "core/actuation_strategy.h"

#include <algorithm>
#include <stdexcept>

namespace powerdial::core {

double
ActuationPlan::averageSpeedup() const
{
    double avg = 0.0;
    for (const auto &s : slices)
        avg += s.speedup * s.fraction;
    return avg;
}

double
ActuationPlan::averageQosLoss() const
{
    // QoS loss accrues per unit of *output*: a slice at speedup s
    // produces s * fraction units of work, so weight by work share.
    double work = 0.0;
    double weighted = 0.0;
    for (const auto &s : slices) {
        work += s.fraction * s.speedup;
        weighted += s.fraction * s.speedup * s.qos_loss;
    }
    return work > 0.0 ? weighted / work : 0.0;
}

double
ActuationPlan::idlePerBusySecond() const
{
    const double busy = 1.0 - idle_fraction;
    if (busy <= 0.0)
        return 0.0;
    return idle_fraction / busy;
}

namespace {

/**
 * The first beat of a quantum of @p quantum_beats beats whose position
 * (b + 0.5) / quantum_beats is not <= @p bound, or quantum_beats when
 * every beat's is: the end of a slice whose cumulative bound (with its
 * 1e-12 tolerance) is @p bound. Positions never decrease with b, so
 * the beats inside the bound are a prefix; the estimate from the bound
 * only picks where the two exact walks start.
 */
std::size_t
endBeat(double bound, std::size_t quantum_beats)
{
    const double q = static_cast<double>(quantum_beats);
    const auto inside = [&](std::size_t b) {
        return (static_cast<double>(b) + 0.5) / q <= bound;
    };
    const double guess = bound * q - 0.5;
    std::size_t b = !(guess > 0.0) ? 0
        : guess < q                ? static_cast<std::size_t>(guess)
                                   : quantum_beats;
    while (b > 0 && !inside(b - 1))
        --b;
    while (b < quantum_beats && inside(b))
        ++b;
    return b;
}

/** Empty @p out, keeping its slice storage. */
void
clearPlan(ActuationPlan &out)
{
    out.slices.clear();
    out.idle_fraction = 0.0;
}

/**
 * The minimal-speedup solution (t_max = 0) of Equations 9-11, shared
 * by MinimalSpeedupStrategy and QosBudgetStrategy. Arithmetic is
 * identical to the pre-Session Actuator::plan (equivalence-tested).
 */
void
minimalSpeedupPlan(const ResponseModel &model, double speedup,
                   ActuationPlan &out)
{
    clearPlan(out);
    const auto &base = model.baselinePoint();
    const double s_cmd = std::max(speedup, base.speedup);

    // Find the slowest Pareto point with speedup >= command (s_min of
    // the paper), mix with the default setting so the quantum average
    // equals the command.
    const auto &hi = model.atLeast(s_cmd);
    if (hi.speedup <= s_cmd || hi.combination == base.combination) {
        // Command at or above s_max (run flat out), or command within
        // rounding of the baseline.
        out.slices.push_back(
            {hi.combination, 1.0, hi.speedup, hi.qos_loss});
        return;
    }
    if (s_cmd <= base.speedup) {
        out.slices.push_back(
            {base.combination, 1.0, base.speedup, base.qos_loss});
        return;
    }
    const double t_min =
        (s_cmd - base.speedup) / (hi.speedup - base.speedup);
    const double t_default = 1.0 - t_min;
    if (t_min > 0.0)
        out.slices.push_back(
            {hi.combination, t_min, hi.speedup, hi.qos_loss});
    if (t_default > 0.0)
        out.slices.push_back(
            {base.combination, t_default, base.speedup, base.qos_loss});
}

} // namespace

void
KnobSchedule::compile(const ActuationPlan &plan, std::size_t quantum_beats)
{
    if (plan.slices.empty())
        throw std::logic_error("ActuationPlan: empty plan");
    if (quantum_beats == 0)
        throw std::invalid_argument("ActuationPlan: quantum must be >= 1");
    // Beats are laid out over the busy portion of the quantum.
    const double busy = 1.0 - plan.idle_fraction;
    double acc = 0.0;
    slices_.clear();
    slices_.reserve(plan.slices.size());
    for (const auto &s : plan.slices) {
        acc += s.fraction / (busy > 0.0 ? busy : 1.0);
        slices_.push_back(
            {endBeat(acc + 1e-12, quantum_beats), s.combination});
    }
    idle_ratio_ = plan.idlePerBusySecond();
    quantum_beats_ = quantum_beats;
    restart();
}

// ---------------------------------------------------------------------------
// MinimalSpeedupStrategy
// ---------------------------------------------------------------------------

std::string
MinimalSpeedupStrategy::name() const
{
    return "minimal-speedup";
}

void
MinimalSpeedupStrategy::begin(const ResponseModel &model,
                              std::size_t quantum_beats)
{
    if (quantum_beats == 0)
        throw std::invalid_argument(
            "MinimalSpeedupStrategy: quantum must be >= 1 beat");
    model_ = &model;
}

void
MinimalSpeedupStrategy::plan(double speedup, ActuationPlan &out)
{
    if (model_ == nullptr)
        throw std::logic_error("MinimalSpeedupStrategy: plan before begin");
    minimalSpeedupPlan(*model_, speedup, out);
}

// ---------------------------------------------------------------------------
// RaceToIdleStrategy
// ---------------------------------------------------------------------------

std::string
RaceToIdleStrategy::name() const
{
    return "race-to-idle";
}

void
RaceToIdleStrategy::begin(const ResponseModel &model,
                          std::size_t quantum_beats)
{
    if (quantum_beats == 0)
        throw std::invalid_argument(
            "RaceToIdleStrategy: quantum must be >= 1 beat");
    model_ = &model;
}

void
RaceToIdleStrategy::plan(double speedup, ActuationPlan &out)
{
    if (model_ == nullptr)
        throw std::logic_error("RaceToIdleStrategy: plan before begin");
    clearPlan(out);
    const auto &base = model_->baselinePoint();
    const double s_cmd = std::max(speedup, base.speedup);

    // t_min = t_default = 0: sprint at s_max, idle the rest.
    const auto &fast = model_->fastest();
    const double frac = std::min(1.0, s_cmd / fast.speedup);
    out.slices.push_back(
        {fast.combination, frac, fast.speedup, fast.qos_loss});
    out.idle_fraction = 1.0 - frac;
}

// ---------------------------------------------------------------------------
// QosBudgetStrategy
// ---------------------------------------------------------------------------

QosBudgetStrategy::QosBudgetStrategy(double mean_qos_budget)
    : budget_(mean_qos_budget)
{
    if (budget_ < 0.0)
        throw std::invalid_argument(
            "QosBudgetStrategy: budget must be >= 0");
}

std::string
QosBudgetStrategy::name() const
{
    return "qos-budget";
}

void
QosBudgetStrategy::begin(const ResponseModel &model,
                         std::size_t quantum_beats)
{
    if (quantum_beats == 0)
        throw std::invalid_argument(
            "QosBudgetStrategy: quantum must be >= 1 beat");
    model_ = &model;
    spent_ = 0.0;
    quanta_ = 0;
}

double
QosBudgetStrategy::meanSpent() const
{
    return quanta_ > 0 ? spent_ / static_cast<double>(quanta_) : 0.0;
}

void
QosBudgetStrategy::plan(double speedup, ActuationPlan &out)
{
    if (model_ == nullptr)
        throw std::logic_error("QosBudgetStrategy: plan before begin");
    // Allowance banks at budget rate: after this quantum the running
    // mean must still satisfy (spent + loss) / (quanta + 1) <= budget.
    const double allowed = std::max(
        0.0,
        budget_ * static_cast<double>(quanta_ + 1) - spent_);

    minimalSpeedupPlan(*model_, speedup, out);
    if (out.averageQosLoss() > allowed) {
        // Overspend: fall back to the fastest affordable mix of the
        // default setting (loss 0 by construction) with one frontier
        // point. For a mix running the frontier point for time
        // fraction t, work-weighted loss is
        //     t s_hi q_hi / (t s_hi + (1-t) s_b) <= allowed
        //  =>  t <= allowed s_b / (s_hi (q_hi - allowed) + allowed s_b)
        // and delivered speedup is t s_hi + (1-t) s_b. Pick the
        // frontier point maximising delivered speedup (capped at the
        // command).
        const auto &base = model_->baselinePoint();
        const double s_cmd = std::max(speedup, base.speedup);
        clearPlan(out);
        out.slices.push_back(
            {base.combination, 1.0, base.speedup, base.qos_loss});
        double best_speedup = base.speedup;
        for (const auto &p : model_->pareto()) {
            if (p.combination == base.combination)
                continue;
            double t;
            if (p.qos_loss <= allowed) {
                t = 1.0; // The whole quantum is affordable.
            } else {
                const double denom =
                    p.speedup * (p.qos_loss - allowed) +
                    allowed * base.speedup;
                t = denom > 0.0
                    ? allowed * base.speedup / denom
                    : 0.0;
            }
            // Never deliver more than commanded.
            const double t_cmd =
                p.speedup > base.speedup
                    ? (s_cmd - base.speedup) /
                          (p.speedup - base.speedup)
                    : 0.0;
            t = std::clamp(std::min(t, t_cmd), 0.0, 1.0);
            const double delivered =
                t * p.speedup + (1.0 - t) * base.speedup;
            if (delivered > best_speedup + 1e-12) {
                best_speedup = delivered;
                out.slices.clear();
                if (t > 0.0)
                    out.slices.push_back(
                        {p.combination, t, p.speedup, p.qos_loss});
                if (t < 1.0)
                    out.slices.push_back({base.combination, 1.0 - t,
                                          base.speedup, base.qos_loss});
            }
        }
    }
    spent_ += out.averageQosLoss();
    ++quanta_;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

StrategyFactory
makeMinimalSpeedupStrategy()
{
    return [] { return std::make_unique<MinimalSpeedupStrategy>(); };
}

StrategyFactory
makeRaceToIdleStrategy()
{
    return [] { return std::make_unique<RaceToIdleStrategy>(); };
}

StrategyFactory
makeQosBudgetStrategy(double mean_qos_budget)
{
    return [mean_qos_budget] {
        return std::make_unique<QosBudgetStrategy>(mean_qos_budget);
    };
}

} // namespace powerdial::core
