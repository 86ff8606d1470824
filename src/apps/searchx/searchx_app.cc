#include "apps/searchx/searchx_app.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace powerdial::apps::searchx {
namespace {

core::KnobSpace
makeSpace(const SearchxConfig &config)
{
    return core::KnobSpace({{"-m:max-results", config.max_results_values}});
}

constexpr double kCyclesPerOp = 1.0;

/** Orders document ids and postings by document, either way round. */
struct ByDoc
{
    bool operator()(qos::DocId a, const Posting &b) const
    {
        return a < b.doc;
    }
    bool operator()(const Posting &a, qos::DocId b) const
    {
        return a.doc < b;
    }
};

} // namespace

SearchxApp::SearchxApp(const SearchxConfig &config)
    : config_(config), space_(makeSpace(config)),
      corpus_(config_.corpus), index_(corpus_.documents())
{
    batches_.reserve(config_.inputs);
    relevance_.reserve(config_.inputs);
    for (std::size_t i = 0; i < config_.inputs; ++i) {
        auto queries = corpus_.makeQueries(config_.queries_per_input,
                                           config_.terms_per_query,
                                           config_.seed + i * 0x9e37ULL);
        // Ground-truth relevance: documents containing every query term
        // (boolean AND), independent of any knob setting. Each term's
        // postings are unique and sorted by document, so the running
        // intersection stays sorted.
        std::vector<std::vector<qos::DocId>> truth;
        truth.reserve(queries.size());
        std::vector<qos::DocId> relevant;
        std::vector<qos::DocId> both;
        for (const auto &q : queries) {
            relevant.clear();
            for (std::size_t t = 0; t < q.terms.size(); ++t) {
                const auto &postings = index_.postings(q.terms[t]);
                if (t == 0) {
                    for (const auto &p : postings)
                        relevant.push_back(p.doc);
                    continue;
                }
                both.clear();
                std::set_intersection(relevant.begin(), relevant.end(),
                                      postings.begin(), postings.end(),
                                      std::back_inserter(both), ByDoc{});
                relevant.swap(both);
            }
            truth.emplace_back(relevant.begin(), relevant.end());
        }
        batches_.push_back(std::move(queries));
        relevance_.push_back(std::move(truth));
    }
}

std::unique_ptr<core::App>
SearchxApp::clone() const
{
    // Every member is value-semantic (corpus, index, batches, ground
    // truth), so the implicit copy is a full deep copy.
    return std::make_unique<SearchxApp>(*this);
}

std::size_t
SearchxApp::defaultCombination() const
{
    // The default (highest QoS) setting is max-results = 100.
    return space_.findCombination({config_.max_results_values.back()});
}

void
SearchxApp::configure(const std::vector<double> &params)
{
    if (params.size() != 1)
        throw std::invalid_argument("SearchxApp: expected 1 parameter");
    max_results_ = static_cast<std::size_t>(params[0]);
}

void
SearchxApp::traceRun(influence::TraceRun &trace,
                     const std::vector<double> &params)
{
    using influence::Value;
    const Value<double> m(params.at(0), influence::paramBit(0));
    trace.store("max_results", m * Value<double>(1.0),
                "searchx_app.cc:configure");
    trace.firstHeartbeat();
    trace.read("max_results", "index.cc:search");
}

void
SearchxApp::bindControlVariables(core::KnobTable &table)
{
    table.bind({"max_results", [this](const std::vector<double> &v) {
                    max_results_ = static_cast<std::size_t>(v.at(0));
                }});
}

std::size_t
SearchxApp::inputCount() const
{
    return batches_.size();
}

std::vector<std::size_t>
SearchxApp::trainingInputs() const
{
    return workload::splitInputs(batches_.size(), config_.seed ^ 0x7e57)
        .training;
}

std::vector<std::size_t>
SearchxApp::productionInputs() const
{
    return workload::splitInputs(batches_.size(), config_.seed ^ 0x7e57)
        .production;
}

void
SearchxApp::loadInput(std::size_t index)
{
    if (index >= batches_.size())
        throw std::out_of_range("SearchxApp: bad input index");
    current_input_ = index;
    f10_sum_ = 0.0;
    f100_sum_ = 0.0;
    answered_ = 0;
}

std::size_t
SearchxApp::unitCount() const
{
    return batches_[current_input_].size();
}

void
SearchxApp::processUnit(std::size_t unit, sim::Machine &machine)
{
    const auto &query = batches_[current_input_].at(unit);
    const auto outcome = index_.search(query, max_results_);
    machine.execute(static_cast<double>(outcome.work_ops) * kCyclesPerOp);

    std::vector<qos::DocId> returned;
    returned.reserve(outcome.results.size());
    for (const auto &r : outcome.results)
        returned.push_back(r.doc);

    const auto &relevant = relevance_[current_input_].at(unit);
    f10_sum_ += qos::score(returned, relevant, 10).f_measure;
    f100_sum_ += qos::score(returned, relevant, 100).f_measure;
    ++answered_;
}

qos::OutputAbstraction
SearchxApp::output() const
{
    const double n = std::max<double>(1.0, static_cast<double>(answered_));
    // F-measure at the two cutoffs the paper reports (P@10, P@100).
    return {{f10_sum_ / n, f100_sum_ / n}, {1.0, 1.0}};
}

} // namespace powerdial::apps::searchx
