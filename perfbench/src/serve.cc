#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "workloads.h"

namespace perfbench {

using namespace powerdial;

std::uint64_t
fnv(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/** Latency limit of a job without a deadline, in nominal times. */
constexpr double kSloFactor = 3.0;

std::uint64_t
digestReport(std::uint64_t hash, const fleet::FleetReport &report)
{
    for (const auto &job : report.jobs) {
        hash = fnvValue(hash, job.job);
        hash = fnvValue(hash, job.tenant);
        hash = fnvValue(hash, job.machine);
        hash = fnvValue(hash, job.latency_s);
        hash = fnvValue(hash, job.qos_loss);
        hash = fnvValue(hash, job.energy_j);
        hash = fnvValue(hash, job.beats);
        hash = fnvValue(hash, job.predicted_s);
        hash = fnvValue(hash, job.lease_generation);
    }
    for (const auto &epoch : report.epochs) {
        hash = fnvValue(hash, epoch.watts);
        hash = fnvValue(hash, epoch.fleet_rate);
        hash = fnvValue(hash, epoch.active);
    }
    hash = fnvValue(hash, report.total_jobs);
    hash = fnvValue(hash, report.total_shed);
    hash = fnvValue(hash, report.drained_jobs);
    hash = fnvValue(hash, report.mean_watts);
    return fnvValue(hash, report.p99_latency_s);
}

void
check(OpResult &out, bool ok, const std::string &what)
{
    if (!ok)
        out.errors.push_back(what);
}

void
scoreReport(const ServeSpec &spec, const fleet::FleetReport &report,
            OpResult &out)
{
    const std::size_t offered = spec.offers.empty()
        ? std::accumulate(spec.arrivals.begin(), spec.arrivals.end(),
                          std::size_t{0})
        : std::accumulate(spec.offers.begin(), spec.offers.end(),
                          std::size_t{0},
                          [](std::size_t n, const auto &step) {
                              return n + step.size();
                          });
    check(out, report.total_jobs + report.total_shed == offered,
          "offered jobs are neither served nor shed");
    check(out, report.jobs.size() == report.total_jobs,
          "report lists a different number of jobs than it served");
    check(out, report.p50_latency_s <= report.p95_latency_s &&
                   report.p95_latency_s <= report.p99_latency_s,
          "latency percentiles out of order");
    out.offered += offered;
    out.served += report.jobs.size();
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
        const auto &job = report.jobs[i];
        if (i > 0 && job.job <= report.jobs[i - 1].job) {
            check(out, false, "job records not in job-id order");
            break;
        }
        if (job.tenant >= spec.units.size()) {
            check(out, false, "job served an unknown tenant input");
            break;
        }
        const double breakdown = job.service_s + job.queue_share_s +
            job.class_deficit_s + job.pause_s;
        const bool sane = job.beats == spec.units[job.tenant] &&
            job.latency_s > 0.0 && std::isfinite(job.latency_s) &&
            job.energy_j > 0.0 && job.qos_loss >= 0.0 &&
            job.qos_loss < 1.0 &&
            std::fabs(breakdown - job.latency_s) <=
                1e-6 * std::max(1.0, job.latency_s);
        if (!sane) {
            check(out, false,
                  "job " + std::to_string(job.job) +
                      " is incomplete or its latency breakdown does "
                      "not add up");
            break;
        }
        const double nominal = spec.nominal_s[job.tenant];
        const double limit =
            job.deadline_s > 0.0 ? job.deadline_s : kSloFactor * nominal;
        out.slo_met += job.latency_s <= limit ? 1 : 0;
        out.slowdowns.push_back(job.latency_s / nominal);
        out.qos_loss_sum += job.qos_loss;
        out.energy_sum_j += job.energy_j;
        out.latency_sum_s += job.latency_s;
        out.queue_sum_s += job.queue_share_s;
        out.deficit_sum_s += job.class_deficit_s;
        out.pause_sum_s += job.pause_s;
        out.beats += job.beats;
        out.lease_updates += job.lease_updates;
    }
    out.digest = digestReport(out.digest, report);
}

} // namespace

void
serveAndScore(const ServeSpec &spec, const RunContext &context,
              OpResult &out)
{
    fleet::ServerOptions options = spec.options;
    options.threads = context.threads;
    SeamTallies tallies;
    if (context.tracer != nullptr)
        instrumentSeams(options.placement, options.admission, tallies);
    const double cap = options.arbiter.cluster_cap_watts;
    bool budgets_ok = true;
    if (context.tracer != nullptr || context.check_budgets) {
        options.arbitration_probe =
            [&out, &budgets_ok, cap](const fleet::ArbitrationSample &s) {
                ++out.arbitration_rounds;
                const auto &budgets = s.decision.budget_watts;
                const double sum =
                    std::accumulate(budgets.begin(), budgets.end(), 0.0);
                if (cap > 0.0 && sum > cap * (1.0 + 1e-9))
                    budgets_ok = false;
            };
    }

    Tracer *tracer = context.tracer;
    const std::size_t span = tracer != nullptr
        ? tracer->begin("serve", context.parent, context.op)
        : kNoSpan;
    fleet::Server server(*spec.app, *spec.table, *spec.model, options);
    const fleet::FleetReport report = spec.offers.empty()
        ? server.serve(spec.arrivals)
        : server.serve(spec.offers);
    if (tracer != nullptr) {
        tracer->end(span);
        const std::size_t admission =
            tracer->aggregate("admission", span, tallies.admission);
        tracer->aggregate("placement", admission, tallies.placement);
    }
    check(out, budgets_ok, "arbiter budgets exceed the cluster cap");
    scoreReport(spec, report, out);
}

} // namespace perfbench
