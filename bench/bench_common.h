/**
 * @file
 * Shared helpers for the experiment-reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper
 * (see DESIGN.md section 4). The app configurations here are the
 * "paper-scale, laptop-budget" sizes: every knob range keeps the
 * paper's structure while input sizes are scaled so the full bench
 * suite completes in minutes on one core.
 */
#ifndef POWERDIAL_BENCH_COMMON_H
#define POWERDIAL_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/bodytrack/bodytrack_app.h"
#include "apps/searchx/searchx_app.h"
#include "apps/swaptions/swaptions_app.h"
#include "apps/videnc/videnc_app.h"
#include "core/calibration.h"
#include "core/identify.h"
#include "core/session.h"
#include "fleet/observability.h"
#include "obs/metrics.h"
#include "obs/trace_json.h"
#include "obs/trace_sink.h"
#include "sim/energy_meter.h"

namespace powerdial::bench {

/** Command-line options shared by every bench driver. */
struct BenchOptions
{
    /**
     * Calibration worker threads: 0 (the default) uses all hardware
     * contexts, 1 forces the serial sweep. Either way the calibration
     * output is bit-identical (see core::CalibrationOptions::threads).
     */
    std::size_t threads = 0;
};

/**
 * Parse the shared bench flags (currently `--threads=N` / `-t N`).
 * Prints usage and exits on an unknown argument or a malformed value
 * so a typo cannot silently run a multi-minute sweep with default
 * settings.
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions options;
    const auto usage = [argv]() {
        std::fprintf(stderr,
                     "usage: %s [--threads=N | -t N]\n"
                     "  N calibration worker threads "
                     "(0 = all hardware contexts, 1 = serial)\n",
                     argv[0]);
        std::exit(2);
    };
    const auto parseCount = [&usage](const char *text) {
        // Digits only: reject "-4", "abc", "4x", and empty strings
        // rather than letting strtoul misparse them.
        if (*text == '\0')
            usage();
        for (const char *p = text; *p != '\0'; ++p)
            if (*p < '0' || *p > '9')
                usage();
        return static_cast<std::size_t>(
            std::strtoul(text, nullptr, 10));
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--threads=", 10) == 0) {
            options.threads = parseCount(arg + 10);
        } else if (std::strcmp(arg, "-t") == 0 && i + 1 < argc) {
            options.threads = parseCount(argv[++i]);
        } else {
            usage();
        }
    }
    return options;
}

/** Units-per-input profile: short for sweeps, long for time series. */
enum class RunLength
{
    Sweep, //!< Calibration sweeps over many knob combinations.
    Series //!< Long single runs (the Figure 7 time series).
};

inline std::unique_ptr<apps::swaptions::SwaptionsApp>
makeSwaptions(RunLength length = RunLength::Sweep)
{
    apps::swaptions::SwaptionsConfig config;
    config.inputs = 8;
    config.swaptions_per_input =
        length == RunLength::Series ? 800 : 24;
    return std::make_unique<apps::swaptions::SwaptionsApp>(config);
}

inline std::unique_ptr<apps::videnc::VidencApp>
makeVidenc(RunLength length = RunLength::Sweep)
{
    apps::videnc::VidencConfig config;
    config.inputs = 8;
    config.video.width = 64;
    config.video.height = 48;
    config.video.frames = length == RunLength::Series ? 240 : 10;
    return std::make_unique<apps::videnc::VidencApp>(config);
}

inline std::unique_ptr<apps::bodytrack::BodytrackApp>
makeBodytrack(RunLength length = RunLength::Sweep)
{
    apps::bodytrack::BodytrackConfig config;
    config.inputs = 6;
    config.frames = length == RunLength::Series ? 400 : 40;
    return std::make_unique<apps::bodytrack::BodytrackApp>(config);
}

inline std::unique_ptr<apps::searchx::SearchxApp>
makeSearchx(RunLength length = RunLength::Sweep)
{
    apps::searchx::SearchxConfig config;
    config.inputs = 8;
    config.queries_per_input =
        length == RunLength::Series ? 1200 : 50;
    return std::make_unique<apps::searchx::SearchxApp>(config);
}

/** The identification + calibration front half of the pipeline. */
struct CalibratedApp
{
    core::IdentificationResult ident;
    core::CalibrationResult training;
};

inline CalibratedApp
calibrateOnTraining(core::App &app, double qos_cap = -1.0,
                    std::size_t threads = 0)
{
    CalibratedApp out;
    out.ident = core::identifyKnobs(app);
    if (!out.ident.analysis.accepted) {
        std::fprintf(stderr, "%s: knob identification REJECTED\n%s\n",
                     app.name().c_str(), out.ident.report.c_str());
        std::abort();
    }
    core::CalibrationOptions options;
    options.qos_cap = qos_cap;
    options.threads = threads;
    out.training = core::calibrate(app, app.trainingInputs(), options);
    return out;
}

/**
 * Calibrate a response model on the cheap sweep-sized instance of an
 * application while binding the knob table to a long-input (series)
 * instance of the same application. Valid because both instances share
 * the identical knob space and per-unit work; only the number of
 * main-loop iterations differs.
 */
inline CalibratedApp
calibrateTransfer(core::App &sweep, core::App &series,
                  double qos_cap = -1.0, std::size_t threads = 0)
{
    CalibratedApp out;
    out.ident = core::identifyKnobs(series);
    if (!out.ident.analysis.accepted) {
        std::fprintf(stderr, "%s: knob identification REJECTED\n%s\n",
                     series.name().c_str(), out.ident.report.c_str());
        std::abort();
    }
    core::CalibrationOptions options;
    options.qos_cap = qos_cap;
    options.threads = threads;
    out.training =
        core::calibrate(sweep, sweep.trainingInputs(), options);
    return out;
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/**
 * Observability flags shared by the fleet benches. All optional: when
 * none are given the bench runs untraced and its stdout stays
 * byte-identical to the goldens (the sink is simply never created).
 */
struct ObsOptions
{
    std::string trace_path;       //!< --trace=FILE (Chrome trace JSON).
    std::string trace_jsonl_path; //!< --trace-jsonl=FILE (one event/line).
    std::string metrics_path;     //!< --metrics=FILE (Prometheus text).
    /**
     * Default traces every decision plane but skips the per-beat
     * firehose; --trace-categories=all (or beat,...) turns it on.
     */
    unsigned categories = obs::kCatAll & ~obs::kCatBeat;

    bool enabled() const
    {
        return !trace_path.empty() || !trace_jsonl_path.empty() ||
               !metrics_path.empty();
    }
};

/**
 * Try to consume one observability argument. Returns false when the
 * argument is not an observability flag (so the caller's own parser
 * handles it); prints and exits on a malformed value.
 */
inline bool
parseObsArg(ObsOptions &options, const char *arg)
{
    if (std::strncmp(arg, "--trace=", 8) == 0) {
        options.trace_path = arg + 8;
        return true;
    }
    if (std::strncmp(arg, "--trace-jsonl=", 14) == 0) {
        options.trace_jsonl_path = arg + 14;
        return true;
    }
    if (std::strncmp(arg, "--metrics=", 10) == 0) {
        options.metrics_path = arg + 10;
        return true;
    }
    if (std::strncmp(arg, "--trace-categories=", 19) == 0) {
        const auto parsed = obs::parseCategories(arg + 19);
        if (!parsed.has_value()) {
            std::fprintf(stderr,
                         "bad --trace-categories value '%s' (names: "
                         "lifecycle,control,beat,admission,placement,"
                         "arbitration,fleet,all,none)\n",
                         arg + 19);
            std::exit(2);
        }
        options.categories = *parsed;
        return true;
    }
    return false;
}

/** Extend a usage string: the observability flags every fleet bench
 *  accepts (kept in one place so the benches stay in sync). */
inline const char *
obsUsage()
{
    return "          [--trace=FILE] [--trace-jsonl=FILE] "
           "[--metrics=FILE]\n"
           "          [--trace-categories=LIST]\n"
           "  trace       write a Chrome trace-event JSON "
           "(chrome://tracing, Perfetto)\n"
           "  trace-jsonl write the same records as one JSON object "
           "per line\n"
           "  metrics     write Prometheus text-format counters and "
           "histograms\n"
           "  trace-categories  comma list of lifecycle,control,beat,"
           "admission,placement,\n"
           "              arbitration (aliases: fleet, all, none; "
           "default all minus beat)\n";
}

/**
 * Build the trace sink the parsed flags ask for — or nothing, so the
 * untraced path never constructs one. Attach via
 * `server_options.trace = obs_sink ? &*obs_sink : nullptr;`.
 */
inline std::optional<obs::TraceSink>
makeObsSink(const ObsOptions &options)
{
    if (!options.enabled())
        return std::nullopt;
    obs::TraceConfig config;
    config.categories = options.categories;
    return std::make_optional<obs::TraceSink>(config);
}

/**
 * Drain the sink once and write whichever outputs were requested.
 * The sink holds the records of the *last* serve it was attached to
 * (TraceSink::beginServe resets at each serve), so benches that run a
 * comparison matrix trace their final configuration.
 */
inline void
writeObsOutputs(const ObsOptions &options, obs::TraceSink *sink,
                const fleet::FleetReport &report)
{
    const auto open = [](const std::string &path) {
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            std::exit(1);
        }
        return out;
    };
    if (sink != nullptr && (!options.trace_path.empty() ||
                            !options.trace_jsonl_path.empty())) {
        const std::vector<obs::TraceRecord> records = sink->drain();
        if (!options.trace_path.empty()) {
            auto out = open(options.trace_path);
            obs::writeChromeTrace(out, records);
        }
        if (!options.trace_jsonl_path.empty()) {
            auto out = open(options.trace_jsonl_path);
            obs::writeJsonl(out, records);
        }
    }
    if (!options.metrics_path.empty()) {
        obs::MetricsRegistry registry;
        fleet::recordFleetMetrics(registry, report);
        auto out = open(options.metrics_path);
        registry.writePrometheus(out);
    }
}

} // namespace powerdial::bench

#endif // POWERDIAL_BENCH_COMMON_H
