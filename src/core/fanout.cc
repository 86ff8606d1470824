#include "core/fanout.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace powerdial::core {

KnobTable
rebindKnobTable(const KnobTable &source, App &app)
{
    KnobTable table;
    app.bindControlVariables(table);
    if (table.variableCount() != source.variableCount())
        throw std::invalid_argument(
            "rebindKnobTable: binding count mismatch");
    // Every value must be recorded (value() throws if one is not);
    // the values themselves are shared, not copied.
    const std::size_t combinations = app.knobSpace().combinations();
    for (std::size_t c = 0; c < combinations; ++c)
        for (std::size_t v = 0; v < source.variableCount(); ++v)
            source.value(c, v);
    table.shareValues(source);
    return table;
}

namespace {

/** Resolve a threads option: 0 = hardware concurrency (at least 1). */
std::size_t
resolveThreads(std::size_t threads)
{
    if (threads != 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

FanoutEngine::FanoutEngine(std::size_t threads, std::size_t max_tasks)
{
    std::size_t resolved = resolveThreads(threads);
    if (max_tasks != 0)
        resolved = std::min(resolved, max_tasks);
    helpers_.reserve(resolved - 1);
    try {
        for (std::size_t w = 1; w < resolved; ++w)
            helpers_.emplace_back([this, w] { helperLoop(w); });
    } catch (...) {
        // Thread creation failed partway (e.g. rlimit): join the
        // helpers already started before rethrowing, or their
        // destructors would call std::terminate.
        stopHelpers();
        throw;
    }
}

FanoutEngine::~FanoutEngine() { stopHelpers(); }

void
FanoutEngine::stopHelpers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &helper : helpers_)
        helper.join();
}

void
FanoutEngine::run(std::size_t tasks, const Task &fn)
{
    if (helpers_.empty() || tasks <= 1) {
        for (std::size_t task = 0; task < tasks; ++task)
            fn(task, 0);
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &fn;
    tasks_ = tasks;
    next_ = 0;
    error_ = nullptr;
    ++generation_;
    work_cv_.notify_all();
    claimTasks(lock, fn, 0);
    // Helpers that never joined the job cannot join it once job_ is
    // cleared, so only those still inside it are waited for.
    done_cv_.wait(lock, [this] { return busy_ == 0; });
    job_ = nullptr;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
FanoutEngine::claimTasks(std::unique_lock<std::mutex> &lock,
                         const Task &fn, std::size_t worker)
{
    // After a failure the unclaimed tasks stay unrun.
    while (next_ < tasks_ && !error_) {
        const std::size_t task = next_++;
        lock.unlock();
        std::exception_ptr error;
        try {
            fn(task, worker);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error && !error_)
            error_ = error;
    }
}

void
FanoutEngine::helperLoop(std::size_t worker)
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::uint64_t seen = 0;
    for (;;) {
        work_cv_.wait(lock, [this, seen] {
            return stop_ || generation_ != seen;
        });
        if (stop_)
            return;
        seen = generation_;
        if (job_ == nullptr)
            continue; // The job closed before this helper woke.
        ++busy_;
        claimTasks(lock, *job_, worker);
        if (--busy_ == 0)
            done_cv_.notify_one();
    }
}

std::vector<std::unique_ptr<App>>
FanoutEngine::cloneApps(const App &app, std::size_t count)
{
    std::vector<std::unique_ptr<App>> clones(count);
    for (auto &clone : clones)
        clone = app.clone();
    return clones;
}

FanoutEngine::BoundClones
FanoutEngine::cloneBound(const App &app, const KnobTable &table,
                         std::size_t count)
{
    BoundClones bound;
    bound.apps = cloneApps(app, count);
    bound.tables.reserve(count);
    for (auto &clone : bound.apps)
        bound.tables.push_back(rebindKnobTable(table, *clone));
    return bound;
}

} // namespace powerdial::core
