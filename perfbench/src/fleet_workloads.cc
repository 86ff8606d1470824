/**
 * @file
 * fleet-scale and fleet-slo: the serving stack under two traffic
 * shapes, with a synthetic tenant so the host time is the fleet's own.
 *
 * fleet-scale is the event engine at size: a hundred 8-core machines,
 * an open-loop Poisson stream over a spiky utilisation trace (~7500
 * jobs per serve), least-loaded placement, unbounded queues, and a
 * QoS-feedback arbiter under a cluster cap. It stresses the engine,
 * arbitration, and tenant stepping; admission is the blind default and
 * never sheds.
 *
 * fleet-slo is overload on a small fleet of single-core machines:
 * Zipf-popular tenants in three priority classes with deadlines,
 * diurnal and flash-crowd traffic past the provisioned peak, bounded
 * queues, and predictive admission pricing every arrival against its
 * deadline. It stresses admission and placement per arrival.
 */
#include <numeric>
#include <stdexcept>

#include "core/calibration.h"
#include "core/identify.h"
#include "tenant_app.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/rng.h"
#include "workload/traffic_mix.h"
#include "workloads.h"

namespace perfbench {

using namespace powerdial;

namespace {

/** Shape of one fleet workload. */
struct FleetShape
{
    bool slo = false;             //!< fleet-slo (else fleet-scale).
    std::size_t scenarios = 8;    //!< Serves per pass.
    std::size_t machines = 100;
    std::size_t cores = 8;
    std::size_t steps = 48;       //!< Epochs of offered traffic.
    double peak_per_machine = 4;  //!< Arrivals per machine per epoch.
    double epoch_jobs = 1.0;      //!< Epoch length, in mean jobs.
    std::size_t queue_depth = 0;
    double cap_share = 0.6;       //!< Cluster cap, share of peak power.
    std::size_t tenants = 16;     //!< Production tenant inputs.
};

FleetShape
scaleShape()
{
    return {};
}

FleetShape
sloShape()
{
    FleetShape shape;
    shape.slo = true;
    shape.scenarios = 8;
    shape.machines = 64;
    shape.cores = 1;
    shape.steps = 192;
    shape.peak_per_machine = 1.0;
    shape.epoch_jobs = 0.5;
    shape.queue_depth = 12;
    shape.cap_share = 0.7;
    shape.tenants = 6;
    return shape;
}

class FleetWorkload final : public Workload
{
  public:
    explicit FleetWorkload(FleetShape shape) : shape_(shape) {}

    void setUp(std::uint64_t seed, const RunContext &context) override;

    std::size_t operations() const override { return specs_.size(); }

    OpResult
    run(std::size_t index, const RunContext &context) override
    {
        OpResult out;
        serveAndScore(specs_[index], context, out);
        return out;
    }

  private:
    fleet::ServerOptions serverOptions(double mean_nominal_s) const;
    std::vector<std::size_t> scaleArrivals(std::uint64_t seed,
                                           std::size_t scenario) const;
    std::vector<std::vector<workload::OfferedJob>>
    sloTraffic(std::uint64_t seed, std::size_t scenario) const;

    FleetShape shape_;
    std::unique_ptr<TenantApp> app_;
    core::IdentificationResult ident_;
    core::CalibrationResult cal_;
    std::vector<double> nominal_s_;
    std::vector<std::size_t> units_;
    std::vector<ServeSpec> specs_;
};

void
FleetWorkload::setUp(std::uint64_t seed, const RunContext &context)
{
    {
        ScopedSpan span(context.tracer, "workload", context.parent,
                        context.op);
        // Two 40-beat training inputs, then tenants evenly spread over
        // 24..54 beats. The population is fixed; the seed draws traffic.
        units_ = {40, 40};
        for (std::size_t t = 0; t < shape_.tenants; ++t)
            units_.push_back(24 + 30 * t / (shape_.tenants - 1));
        app_ = std::make_unique<TenantApp>(units_);
    }
    {
        ScopedSpan span(context.tracer, "identify", context.parent,
                        context.op);
        ident_ = core::identifyKnobs(*app_);
    }
    if (!ident_.analysis.accepted)
        throw std::runtime_error("tenant knob identification rejected");
    {
        ScopedSpan span(context.tracer, "calibrate", context.parent,
                        context.op);
        cal_ = core::calibrate(*app_, app_->trainingInputs());
    }

    ScopedSpan span(context.tracer, "workload", context.parent,
                    context.op);
    const double rate = cal_.model.baselineRate();
    nominal_s_.clear();
    for (const std::size_t units : units_)
        nominal_s_.push_back(static_cast<double>(units) / rate);
    const double mean_nominal_s =
        std::accumulate(nominal_s_.begin() + 2, nominal_s_.end(), 0.0) /
        static_cast<double>(shape_.tenants);

    specs_.clear();
    for (std::size_t k = 0; k < shape_.scenarios; ++k) {
        ServeSpec spec;
        spec.app = app_.get();
        spec.table = &ident_.table;
        spec.model = &cal_.model;
        spec.options = serverOptions(mean_nominal_s);
        spec.nominal_s = nominal_s_;
        spec.units = units_;
        if (shape_.slo) {
            spec.offers = sloTraffic(seed, k);
        } else {
            spec.arrivals = scaleArrivals(seed, k);
        }
        specs_.push_back(std::move(spec));
    }
}

fleet::ServerOptions
FleetWorkload::serverOptions(double mean_nominal_s) const
{
    fleet::ServerOptions options;
    options.machines = shape_.machines;
    options.machine.cores = shape_.cores;
    options.engine = fleet::EngineMode::Event;
    options.epoch_seconds = shape_.epoch_jobs * mean_nominal_s;
    options.queue_depth = shape_.queue_depth;
    const sim::Machine probe(options.machine);
    options.arbiter.cluster_cap_watts = shape_.cap_share *
        static_cast<double>(shape_.machines) *
        probe.powerModel().peakWatts();
    options.arbiter.policy = fleet::ArbiterPolicy::QosFeedback;
    if (shape_.slo)
        options.admission = fleet::makePredictiveAdmission();
    return options;
}

/**
 * ~25% utilisation with jitter, plus a full-load spike of four epochs
 * every twelve (staggered per scenario), as a Poisson stream. The seed
 * draws the jitter and the arrivals; the spike schedule is fixed so
 * every seed offers the same load shape.
 */
std::vector<std::size_t>
FleetWorkload::scaleArrivals(std::uint64_t seed, std::size_t scenario) const
{
    workload::LoadTraceParams trace;
    trace.steps = shape_.steps;
    trace.base_utilization = 0.25;
    trace.spike_probability = 0.0;
    trace.seed = mixSeed(seed, 100 + scenario);
    std::vector<double> levels = workload::makeLoadTrace(trace);
    for (std::size_t t = 0; t < levels.size(); ++t)
        if ((t + 3 * scenario) % 12 < 4)
            levels[t] = 1.0;
    workload::PoissonArrivalParams arrivals;
    arrivals.peak_rate =
        shape_.peak_per_machine * static_cast<double>(shape_.machines);
    arrivals.seed = mixSeed(seed, 200 + scenario);
    return workload::makePoissonArrivals(levels, arrivals);
}

/**
 * Alternating diurnal and flash-crowd schedules over the tenants:
 * popularity order is tenant order, classes 0/1/2 with deadlines of
 * 4x/3x/2x each tenant's nominal time.
 */
std::vector<std::vector<workload::OfferedJob>>
FleetWorkload::sloTraffic(std::uint64_t seed, std::size_t scenario) const
{
    std::vector<workload::TenantProfile> profiles;
    const double deadline_factor[] = {4.0, 3.0, 2.0};
    for (std::size_t t = 0; t < shape_.tenants; ++t) {
        const std::size_t input = t + 2;
        const std::size_t job_class = t % 3;
        profiles.push_back({input, job_class,
                            deadline_factor[job_class] * nominal_s_[input]});
    }
    workload::TrafficMixParams mix;
    mix.steps = shape_.steps;
    mix.trace.jitter = 0.03;
    mix.trace.spike_probability = 0.0;
    mix.trace.seed = mixSeed(seed, 300 + scenario);
    mix.peak_rate =
        shape_.peak_per_machine * static_cast<double>(shape_.machines);
    mix.seed = mixSeed(seed, 400 + scenario);
    if (scenario % 2 == 0) {
        mix.trace.base_utilization = 0.55;
        mix.trace.diurnal_amplitude = 0.4;
        mix.trace.diurnal_period = shape_.steps;
    } else {
        mix.trace.base_utilization = 0.5;
        const std::size_t start = shape_.steps / 4 +
            scenario * shape_.steps / (3 * shape_.scenarios);
        mix.flash_crowds = {{start, shape_.steps / 6 + 1, 0.9}};
    }
    return workload::makeTrafficMix(mix, profiles).offers;
}

} // namespace

std::unique_ptr<Workload>
makeFleetScale()
{
    return std::make_unique<FleetWorkload>(scaleShape());
}

std::unique_ptr<Workload>
makeFleetSlo()
{
    return std::make_unique<FleetWorkload>(sloShape());
}

} // namespace perfbench
