#include "tracer.h"

#include <utility>

namespace perfbench {

using namespace powerdial;

std::vector<double>
Tracer::selfMs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].ms();
    for (const Span &span : spans_)
        if (span.parent != kNoSpan)
            self[span.parent] -= span.ms();
    return self;
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << span.start_ms * 1e3 << ",\"dur\":" << span.ms() * 1e3
            << ",\"args\":{\"id\":" << i << ",\"op\":" << span.op
            << ",\"calls\":" << span.calls;
        if (span.parent != kNoSpan)
            out << ",\"parent\":" << span.parent;
        out << "}}";
    }
    out << "\n]}\n";
}

namespace {

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

class TimedPlacement final : public fleet::PlacementPolicy
{
  public:
    TimedPlacement(std::unique_ptr<fleet::PlacementPolicy> inner,
                   SeamTallies &tallies)
        : inner_(std::move(inner)), tallies_(&tallies)
    {
    }

    std::string name() const override { return inner_->name(); }

    std::size_t
    pick(const sim::Cluster &cluster) const override
    {
        const auto start = Clock::now();
        const std::size_t machine = inner_->pick(cluster);
        note(msSince(start));
        return machine;
    }

    std::size_t
    pickAmong(const sim::Cluster &cluster,
              const std::vector<std::size_t> &candidates) const override
    {
        const auto start = Clock::now();
        const std::size_t machine = inner_->pickAmong(cluster, candidates);
        note(msSince(start));
        return machine;
    }

    void
    bindModel(const core::ResponseModel *model) override
    {
        inner_->bindModel(model);
    }

    std::vector<double>
    candidateCosts(const sim::Cluster &cluster) const override
    {
        return inner_->candidateCosts(cluster);
    }

  private:
    void
    note(double ms) const
    {
        tallies_->placement.ms += ms;
        ++tallies_->placement.calls;
    }

    std::unique_ptr<fleet::PlacementPolicy> inner_;
    SeamTallies *tallies_;
};

class TimedAdmission final : public fleet::AdmissionPolicy
{
  public:
    TimedAdmission(std::unique_ptr<fleet::AdmissionPolicy> inner,
                   SeamTallies &tallies)
        : inner_(std::move(inner)), tallies_(&tallies)
    {
    }

    std::string name() const override { return inner_->name(); }

    fleet::AdmissionVerdict
    decide(const fleet::OfferedJob &job,
           const fleet::AdmissionContext &context) override
    {
        const auto start = Clock::now();
        auto verdict = inner_->decide(job, context);
        tallies_->admission.ms += msSince(start);
        ++tallies_->admission.calls;
        return verdict;
    }

    void
    noteArbitration(const fleet::ArbitrationDecision &decision) override
    {
        inner_->noteArbitration(decision);
    }

    void
    noteCompletion(double observed_s, double predicted_s) override
    {
        inner_->noteCompletion(observed_s, predicted_s);
    }

  private:
    std::unique_ptr<fleet::AdmissionPolicy> inner_;
    SeamTallies *tallies_;
};

} // namespace

void
instrumentSeams(fleet::PlacementFactory &placement,
                fleet::AdmissionFactory &admission, SeamTallies &tallies)
{
    fleet::PlacementFactory inner_placement =
        placement ? placement : fleet::makeLeastLoadedPlacement();
    placement = [inner_placement, &tallies]() {
        return std::make_unique<TimedPlacement>(inner_placement(),
                                                tallies);
    };
    fleet::AdmissionFactory inner_admission =
        admission ? admission : fleet::makeQueueDepthAdmission();
    admission = [inner_admission, &tallies]() {
        return std::make_unique<TimedAdmission>(inner_admission(),
                                                tallies);
    };
}

} // namespace perfbench
