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

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
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

namespace powerdial::bench {

/**
 * One command-line flag of a bench. A name ending in '=' takes a value:
 * "--steps=" matches `--steps=N` and hands "N" to set. Any other name
 * is a switch, matched whole and handed "". set returns false when the
 * value is malformed.
 */
struct Flag
{
    const char *name;
    std::function<bool(const char *value)> set;
};

/**
 * A decimal count: digits only, at most SIZE_MAX. Rejects "-4", "abc",
 * "4x", the empty string and an overflowing value rather than letting
 * them misparse or saturate.
 */
inline std::optional<std::size_t>
parseCount(const char *text)
{
    if (*text == '\0')
        return std::nullopt;
    std::size_t value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return std::nullopt;
        const auto digit = static_cast<std::size_t>(*p - '0');
        if (value > (SIZE_MAX - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

/** `NAME=N`: a count (see parseCount) of at least @p min. */
inline Flag
countFlag(const char *name, std::size_t &out, std::size_t min = 0)
{
    return {name, [&out, min](const char *value) {
                const auto count = parseCount(value);
                if (!count.has_value() || *count < min)
                    return false;
                out = *count;
                return true;
            }};
}

/** `NAME=TEXT`: any text, the empty string included. */
inline Flag
textFlag(const char *name, std::string &out)
{
    return {name, [&out](const char *value) {
                out = value;
                return true;
            }};
}

/**
 * Parse a bench's command line against its flag table; `-t N` is an
 * alias of `--threads=N`. On an unknown flag or a malformed value,
 * print @p usage (a printf format taking the program name) and then
 * @p usage_tail to stderr, and exit with status 2, so a typo cannot
 * silently run a multi-minute sweep with default settings.
 */
inline void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags,
           const char *usage, const char *usage_tail = "")
{
    const auto apply = [&flags](const std::string &arg) {
        for (const Flag &flag : flags) {
            const std::size_t n = std::strlen(flag.name);
            if (n > 0 && flag.name[n - 1] == '=') {
                if (arg.compare(0, n, flag.name) == 0)
                    return flag.set(arg.c_str() + n);
            } else if (arg == flag.name) {
                return flag.set("");
            }
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-t" && i + 1 < argc)
            arg = std::string("--threads=") + argv[++i];
        if (!apply(arg)) {
            std::fprintf(stderr, usage, argv[0]);
            std::fputs(usage_tail, stderr);
            std::exit(2);
        }
    }
}

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

/** Parse the paper benches' one flag, `--threads=N` / `-t N`. */
inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions options;
    parseFlags(argc, argv, {countFlag("--threads=", options.threads)},
               "usage: %s [--threads=N | -t N]\n"
               "  N calibration worker threads "
               "(0 = all hardware contexts, 1 = serial)\n");
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

/**
 * Calibrate a response model on the cheap sweep-sized instance of an
 * application while binding the knob table to a long-input (series)
 * instance of the same application. Valid because both instances share
 * the identical knob space and per-unit work; only the number of
 * main-loop iterations differs. Pass one app as both to identify and
 * calibrate it on its own training inputs.
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
 * Append the observability flags to a fleet bench's table. A malformed
 * --trace-categories prints the valid names and exits with status 2.
 */
inline void
addObsFlags(std::vector<Flag> &flags, ObsOptions &options)
{
    flags.push_back(textFlag("--trace=", options.trace_path));
    flags.push_back(textFlag("--trace-jsonl=", options.trace_jsonl_path));
    flags.push_back(textFlag("--metrics=", options.metrics_path));
    flags.push_back({"--trace-categories=", [&options](const char *value) {
                         const auto parsed = obs::parseCategories(value);
                         if (!parsed.has_value()) {
                             std::fprintf(
                                 stderr,
                                 "bad --trace-categories value '%s' "
                                 "(names: lifecycle,control,beat,"
                                 "admission,placement,arbitration,"
                                 "fleet,all,none)\n",
                                 value);
                             std::exit(2);
                         }
                         options.categories = *parsed;
                         return true;
                     }});
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
