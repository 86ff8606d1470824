/**
 * @file
 * The deterministic clone fan-out engine.
 *
 * Every parallel section in this repository follows one convention so
 * that its output is bit-identical at any thread count:
 *
 *   1. clones are created *serially* (App::clone() of a shared
 *      instance is not required to be thread-safe), each with a
 *      rebindKnobTable()-rebound knob table when a session will run
 *      on it;
 *   2. an engine resolved to N workers runs N - 1 helper threads and
 *      the caller as worker 0, all claiming tasks from one counter;
 *      a job no one else can claim (N == 1, or a single task) runs
 *      ascending on the caller without waking a helper. threads == 0
 *      means all hardware contexts;
 *   3. results land in pre-sized slots indexed by task and are merged
 *      in fixed task order, never in completion order;
 *   4. a task that throws leaves the unclaimed tasks unrun; run()
 *      waits for the helpers still inside the job and rethrows the
 *      first exception on the caller, so the engine never hangs and
 *      the caller sees the same exception at any thread count.
 *
 * The FanoutEngine holds that convention in one place. Calibration,
 * consolidation replays, the fleet server's tenant slices, and the
 * figure-6/7 benches all fan out through it instead of hand-rolling
 * the preamble.
 */
#ifndef POWERDIAL_CORE_FANOUT_H
#define POWERDIAL_CORE_FANOUT_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/app.h"
#include "core/knob.h"

namespace powerdial::core {

/**
 * Rebind a knob table onto another instance of the same application
 * (typically an App::clone()): @p app installs its own write bindings,
 * and the result shares @p source's recorded control-variable values
 * (KnobTable::shareValues) after checking that every combination of
 * @p app's knob space has them. The building block for running
 * sessions on cloned applications in parallel.
 */
KnobTable rebindKnobTable(const KnobTable &source, App &app);

/**
 * One fan-out domain: resolves a thread-count option once, owns its
 * helper threads for its whole lifetime, and dispatches any number of
 * indexed jobs over them and the caller. Reusing one engine across
 * jobs (calibration's baseline pass then sweep; the fleet server's
 * per-epoch slices) amortises thread start-up without changing
 * output: results never depend on which worker ran which task.
 * Workers are identified by a stable index in [0, workers()), worker
 * 0 being the thread that calls run(), so callers can keep
 * per-worker private state without locking. One thread calls run()
 * at a time, and a task must not call run() on its own engine.
 */
class FanoutEngine
{
  public:
    /** fn(task, worker): one task of the current job on one worker. */
    using Task = std::function<void(std::size_t task, std::size_t worker)>;

    /**
     * @param threads   1 = the caller alone (no helper threads, the
     *                  default convention), 0 = all hardware
     *                  contexts, N > 1 = exactly N workers.
     * @param max_tasks Largest job this engine will dispatch; a
     *                  nonzero value caps the worker count (no point
     *                  in more workers — each typically owning a full
     *                  application clone — than tasks to claim).
     *                  0 = unknown, don't cap.
     */
    explicit FanoutEngine(std::size_t threads, std::size_t max_tasks = 0);
    ~FanoutEngine();

    FanoutEngine(const FanoutEngine &) = delete;
    FanoutEngine &operator=(const FanoutEngine &) = delete;

    /** Worker count: the caller plus the helper threads. */
    std::size_t workers() const { return helpers_.size() + 1; }

    /**
     * Run fn(task, worker) for every task in [0, tasks) and return
     * once every claimed task has finished. A job no one else can
     * claim (no helpers, or one task) runs ascending on the caller's
     * thread with worker == 0; otherwise the caller and the helpers
     * claim tasks in turn. Either way the caller merges results by
     * task index, so output is identical. If a task throws, the
     * unclaimed tasks are left unrun and the first exception is
     * rethrown here once the helpers still inside the job leave it;
     * the engine stays usable for the next job.
     */
    void run(std::size_t tasks, const Task &fn);

    /**
     * Fan-out-and-merge convenience: returns {fn(0), ..., fn(tasks-1)}
     * with each result in its task's pre-sized slot — the fixed-order
     * merge of the convention, independent of execution order. The
     * result type must not be bool (std::vector<bool> packs bits, so
     * concurrent per-task slot writes would race); wrap flags in a
     * struct or use run() with a caller-owned array instead.
     */
    template <typename Fn>
    auto
    map(std::size_t tasks, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{}, std::size_t{}))>
    {
        using Result = decltype(fn(std::size_t{}, std::size_t{}));
        static_assert(!std::is_same_v<Result, bool>,
                      "FanoutEngine::map: bool results would land in "
                      "a bit-packed std::vector<bool>, racing when "
                      "workers write neighbouring slots");
        std::vector<Result> results(tasks);
        run(tasks, [&](std::size_t task, std::size_t worker) {
            results[task] = fn(task, worker);
        });
        return results;
    }

    /**
     * Serially create @p count private clones of @p app — one per
     * task, or one per worker when tasks share per-worker state.
     */
    static std::vector<std::unique_ptr<App>> cloneApps(const App &app,
                                                       std::size_t count);

    /** Clones paired with rebound knob tables, indexed together. */
    struct BoundClones
    {
        std::vector<std::unique_ptr<App>> apps;
        std::vector<KnobTable> tables;

        std::size_t size() const { return apps.size(); }
    };

    /**
     * Serially create @p count private clones of @p app, each bound to
     * its own rebindKnobTable() rebinding of @p table — the full
     * session fan-out preamble.
     */
    static BoundClones cloneBound(const App &app, const KnobTable &table,
                                  std::size_t count);

  private:
    void helperLoop(std::size_t worker);
    /**
     * Claim and run tasks of the current job until none is left or one
     * has failed. Called and returns with @p lock held on mutex_; it
     * is released while a task runs.
     */
    void claimTasks(std::unique_lock<std::mutex> &lock, const Task &fn,
                    std::size_t worker);
    /** Stop and join the helpers (destructor and failed start-up). */
    void stopHelpers();

    std::mutex mutex_;
    std::condition_variable work_cv_; //!< Signals a new job (or stop).
    std::condition_variable done_cv_; //!< Signals the last helper left.
    // The current job, guarded by mutex_.
    const Task *job_ = nullptr;
    std::size_t tasks_ = 0;
    std::size_t next_ = 0;         //!< Next unclaimed task.
    std::size_t busy_ = 0;         //!< Helpers inside the job.
    std::exception_ptr error_;     //!< First exception of the job.
    std::uint64_t generation_ = 0; //!< Bumped per job to wake helpers.
    bool stop_ = false;
    std::vector<std::thread> helpers_; //!< Workers 1 .. workers() - 1.
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_FANOUT_H
